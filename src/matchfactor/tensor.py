"""Dense 3-way tensor and matrix kernels.

Storage layout
--------------
Tensors are ``numpy.float64`` arrays of shape ``(I, J, K)`` held C-contiguous,
i.e. a single flat buffer with the first index slowest.  All kernels are pure
functions over their inputs, so values are safe to share between threads.

Unfolding convention
--------------------
``unfold(t, mode)`` uses the standard Kolda-Bader matricization: mode-``n``
fibers become the rows, and the remaining indices are taken in increasing
order with the *earlier* index varying fastest along the columns.  With this
convention the mode-1 unfolding of a Kruskal tensor with factors
``(weights, A, B, C)`` satisfies ``X_(1) = A @ diag(weights) @ khatri_rao(C, B).T``.

Modes are numbered 1..3, matching the convention used throughout the tensor
literature.

Container
---------
``save_tensor3`` writes one JSON object (dims, layout, format version,
metadata, and the values flat with the first index slowest), formatting
the values a slice at a time.  ``load_tensor3`` walks the file
``_BLOCK`` characters at a time with ``_walk_object``: each member but
``values`` is decoded whole, and ``values`` one block of numbers at a time,
by json's own scanner, into one float64 array, so the tensor is held about
once and never as a list of Python floats.  A file the walk does not take
(invalid JSON or UTF-8, or a value that is not a number that fits a float)
is read again whole through ``json.load``, on that path only, so that every
error is the one the whole document gives.  ``_walk_object`` is the only
walk of a JSON object: the riot reader in ``data`` walks its exports with
it too, one match of the ``matches`` list at a time.
"""

from __future__ import annotations

import json
import re
from json.decoder import scanstring
from pathlib import Path

import numpy as np

from .errors import MalformedRecord

_TENSOR_FORMAT = "dense-tensor3"
_TENSOR_VERSION = 1
_TENSOR_LAYOUT = "first-index-slowest"
# the values formatted and held as text at once by the writers
_SLICE = 1 << 15

# characters of a JSON file that the walk reads at once: bounds the text held
_BLOCK = 1 << 18

# one JSON value at an index, as json.loads decodes it; and the whitespace
# JSON allows between tokens
_decode = json.JSONDecoder().raw_decode
_space = re.compile(r"[ \t\n\r]*").match

# a byte that is not UTF-8, as the ``surrogateescape`` error handler decodes it
_escaped_byte = re.compile(r"[\udc80-\udcff]").search


def as_tensor3(values, require_nonnegative: bool = False) -> np.ndarray:
    """Validate and coerce ``values`` into a float64 3-way tensor.

    Raises ``ValueError`` if the input is not 3-dimensional, has a zero-length
    axis, contains non-finite entries, or (when ``require_nonnegative``)
    contains negative entries.
    """
    t = np.ascontiguousarray(values, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={t.ndim}")
    if min(t.shape) < 1:
        raise ValueError(f"all dimensions must be positive, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("tensor entries must be finite")
    if require_nonnegative and (t < 0).any():
        raise ValueError("tensor entries must be non-negative")
    return t


def as_matrix(values) -> np.ndarray:
    """Validate and coerce ``values`` into a float64 matrix."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if min(m.shape) < 1:
        raise ValueError(f"matrix dimensions must be positive, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _check_mode(mode: int) -> int:
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    return mode - 1


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``n`` matricization of a 3-way tensor.

    Returns a matrix of shape ``(dims[mode-1], product of the other dims)``.
    """
    t = as_tensor3(t)
    axis = _check_mode(mode)
    return np.reshape(np.moveaxis(t, axis, 0), (t.shape[axis], -1), order="F")


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two matrices with equal column counts.

    Output has shape ``(a.rows * b.rows, cols)``; column ``r`` equals
    ``kron(a[:, r], b[:, r])``, so the second factor's row index varies
    fastest.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column mismatch: {a.shape[1]} != {b.shape[1]}"
        )
    out = a[:, None, :] * b[None, :, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1])


def kruskal_tensor(
    weights: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Assemble the dense tensor ``sum_r weights[r] * a_r (outer) b_r (outer) c_r``."""
    weights = np.asarray(weights, dtype=np.float64).ravel()
    a = as_matrix(a)
    b = as_matrix(b)
    c = as_matrix(c)
    r = weights.shape[0]
    if not (a.shape[1] == b.shape[1] == c.shape[1] == r):
        raise ValueError(
            "factor column counts and weight length must agree: "
            f"{a.shape[1]}, {b.shape[1]}, {c.shape[1]}, {r}"
        )
    # the columns of khatri_rao(b, c) run j-major, so the product is the
    # C-ordered tensor already and the reshape is a view
    return ((a * weights) @ khatri_rao(b, c).T).reshape(a.shape[0], b.shape[0], c.shape[0])


def frobenius_norm(t: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))


def _formatted_slices(values: np.ndarray, fmt):
    """Yield ``fmt`` of each entry of the flat float64 array ``values``, as
    object arrays of at most ``_SLICE`` strings.

    ``fmt`` runs once per distinct value of each slice.  Values are told
    apart by their bits, not by float equality, so ``-0.0`` and ``0.0`` keep
    their own text.
    """
    bits = values.view(np.int64)
    for start in range(0, bits.size, _SLICE):
        keys, inverse = np.unique(bits[start : start + _SLICE], return_inverse=True)
        text = np.array(list(map(fmt, keys.view(np.float64).tolist())), dtype=object)
        yield text[inverse]


def save_tensor3(path, t: np.ndarray, metadata: dict | None = None) -> None:
    """Write a tensor to a JSON container.

    The container header records dims, layout and format version; values are
    stored flat with the first index slowest (C order).  ``metadata`` may hold
    any JSON-serializable payload and travels with the tensor.

    The bytes are those of ``json.dump(doc, fh, sort_keys=True)`` plus a
    newline.  The header is one ``json.dumps`` of the document without
    ``values`` and ``version``, which sort after it; the values follow in
    slices, formatted with ``float.__repr__`` as the encoder formats floats.
    """
    t = as_tensor3(t)
    header = json.dumps(
        {
            "format": _TENSOR_FORMAT,
            "dims": list(t.shape),
            "layout": _TENSOR_LAYOUT,
            "metadata": metadata or {},
        },
        sort_keys=True,
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header[:-1] + ', "values": [')
        for i, text in enumerate(_formatted_slices(t.ravel(), float.__repr__)):
            if i:
                fh.write(", ")
            fh.write(", ".join(text.tolist()))
        fh.write(f'], "version": {_TENSOR_VERSION}}}\n')


# ---------------------------------------------------------------------------
# the JSON walker: one value at a time from a file read a block at a time


def _check_decoded(text: str, line: int) -> None:
    """Raise ``MalformedRecord`` at the first undecodable byte of ``text``,
    read with newlines translated and starting on line ``line``."""
    bad = None if text.isascii() else _escaped_byte(text)
    if bad:  # each line ends in one "\n"
        raise MalformedRecord("invalid UTF-8", line + text.count("\n", 0, bad.start()))


class _Window:
    """The unread tail of a text file, read ``_BLOCK`` characters at a time.

    Each block is checked for undecodable bytes as it is read; lines are
    counted across blocks, so the error names the line of the whole text.
    """

    def __init__(self, fh):
        self._fh = fh
        self._lines = 0
        self.text = ""
        self.eof = False

    def read(self, i: int) -> None:
        """Drop the text before ``i`` and append the next block."""
        block = self._fh.read(_BLOCK)
        _check_decoded(block, self._lines + 1)
        self._lines += block.count("\n")
        self.text = self.text[i:] + block
        self.eof = not block

    def step(self, parse, i: int, *args) -> tuple:
        """``parse(text, i, *args)``, which returns ``(value, end)``, on
        enough of the text.  While it fails, or ends at the end of the
        window (where a whitespace run or a number may go on), read a block
        and try again from ``i``.  The end returned indexes the current
        ``text``."""
        while True:
            try:
                value, end = parse(self.text, i, *args)
                if end < len(self.text) or self.eof:
                    return value, end
            except ValueError:  # cut short, or invalid
                if self.eof:
                    raise
            self.read(i)
            i = 0


def _open_object(text: str, i: int) -> tuple[bool, int]:
    """``_first_item`` of the object that opens after the whitespace at ``i``."""
    i = _space(text, i).end()
    if text[i : i + 1] != "{":
        raise ValueError("expecting '{'")
    return _first_item(text, i + 1, "}")


def _member_key(text: str, i: int) -> tuple[str, int]:
    """The key of the object member at ``i`` and the start of its value."""
    if text[i : i + 1] != '"':
        raise ValueError("expecting a key")
    key, i = scanstring(text, i + 1)
    i = _space(text, i).end()
    if text[i : i + 1] != ":":
        raise ValueError("expecting ':'")
    return key, _space(text, i + 1).end()


def _item(text: str, i: int, close: str) -> tuple:
    """``((value, more), end)``: the value at ``i``, then ``_next_item``.
    One step, as a number cut inside its fraction or exponent decodes as
    a shorter one, which only the character after it shows."""
    value, i = _decode(text, i)
    more, i = _next_item(text, i, close)
    return (value, more), i


def _document_end(text: str, i: int) -> tuple[None, int]:
    """Past the whitespace at ``i``, which must end the text."""
    i = _space(text, i).end()
    if i != len(text):
        raise ValueError("extra data")
    return None, i


def _first_item(text: str, i: int, close: str) -> tuple[bool, int]:
    """After an opening bracket that ends at ``i``: ``(True, start of the
    first item)``, or ``(False, end)`` past the closing bracket."""
    i = _space(text, i).end()
    return (False, i + 1) if text[i : i + 1] == close else (True, i)


def _next_item(text: str, i: int, close: str) -> tuple[bool, int]:
    """After an item that ends at ``i``: ``(True, start of the next item)``
    past a comma, or ``(False, end)`` past the closing bracket."""
    i = _space(text, i).end()
    if text[i : i + 1] == ",":
        return True, _space(text, i + 1).end()
    if text[i : i + 1] == close:
        return False, i + 1
    raise ValueError(f"expecting ',' or {close!r}")


def _read_json(path):
    """The document of a JSON file; invalid JSON or UTF-8 raises ``ValueError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # invalid JSON or UTF-8, or too deep
            raise ValueError(f"{Path(path)}: not a JSON file ({exc})") from None


def _finite_floats(values, message: str) -> np.ndarray:
    """A JSON list of numbers, or the walk's float64 array of one, as
    float64; anything else, or a number that is not finite, raises
    ``ValueError(message)``."""
    # exact types: a JSON true or a string is not a number
    if isinstance(values, list) and {*map(type, values)} <= {int, float}:
        try:
            values = np.asarray(values, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(message) from None
    if isinstance(values, np.ndarray) and np.isfinite(values).all():
        return values
    raise ValueError(message)


def _walk_object(win: _Window, key: str, walk_list) -> dict:
    """The members of the JSON object in ``win`` as ``json.load`` decodes
    them (the last of a repeated key counts), except that a ``key`` member
    holding a list has the value of ``walk_list(win, i)``, which walks the
    list from past its ``[`` at ``i`` and returns ``(value, end)``.  Raises
    ``ValueError`` or ``RecursionError`` where the text is not a single JSON
    object, and what ``walk_list`` raises."""
    doc = {}
    more, i = win.step(_open_object, 0)
    while more:
        name, i = win.step(_member_key, i)
        if name == key and win.text[i : i + 1] == "[":
            doc[name], i = walk_list(win, i + 1)
            more, i = win.step(_next_item, i, "}")
        else:
            (doc[name], more), i = win.step(_item, i, "}")
    win.step(_document_end, i)
    return doc


def _walk_numbers(win: _Window, i: int) -> tuple[np.ndarray, int]:
    """The numbers of the list that starts after its ``[`` at ``i``, as
    float64, and the index past its ``]``.

    Decodes the window's text up to its last comma, or up to the ``]``, as
    one JSON list at a time.  That text holds no ``]``, so it decodes only
    if it is numbers and commas: a nested list or a string in it fails to
    decode or fails the type check.
    """
    # imported here, so that only a stage that loads a container maps the module
    from array import array

    values = array("d")
    while True:
        text = win.text
        close = text.find("]", i)
        stop = close if close >= 0 else text.rfind(",", i)
        if stop >= 0:
            numbers, _ = _decode(f"[{text[i:stop]}]")
            if not {*map(type, numbers)} <= {int, float}:
                raise ValueError("expecting a number")
            values.fromlist(numbers)  # OverflowError for an int past the float range
            if close >= 0:
                return np.frombuffer(values, dtype=np.float64), close + 1
            i = stop + 1
        elif win.eof:
            raise ValueError("expecting ']'")
        win.read(i)
        i = 0


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_tensor3(path) -> tuple[np.ndarray, dict]:
    """Read a tensor written by :func:`save_tensor3`; returns (tensor, metadata).

    A file that is not such a container raises ``ValueError`` naming it, as
    does a ``layout`` other than the first index slowest; a container
    without ``layout`` is read in that layout.
    The file is walked a block at a time, ``values`` decoded into one
    float64 array; a file the walk does not take is read again whole, on
    that path only, so that every error is the one of the whole document.
    """
    where = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = _walk_object(_Window(fh), "values", _walk_numbers)
    except (ValueError, OverflowError, RecursionError):  # invalid, or values not all floats
        doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != _TENSOR_FORMAT:
        raise ValueError(f"{where}: not a dense-tensor3 container")
    version = doc.get("version")
    if type(version) is not int or version != _TENSOR_VERSION:  # a JSON true or 1.0 is not 1
        raise ValueError(f"{where}: unsupported container version {version}")
    layout = doc.get("layout", _TENSOR_LAYOUT)
    if layout != _TENSOR_LAYOUT:
        raise ValueError(f"{where}: unsupported layout {layout!r}")
    dims = doc.get("dims")
    if not (
        isinstance(dims, list)
        and len(dims) == 3
        and all(type(d) is int and d > 0 for d in dims)
    ):
        raise ValueError(f"{where}: dims must be three positive integers, got {dims!r}")
    values = _finite_floats(doc.get("values"), f"{where}: values must be a list of finite numbers")
    if values.size != dims[0] * dims[1] * dims[2]:
        raise ValueError(f"{where}: value count does not match dims {tuple(dims)}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"{where}: metadata must be an object")
    return values.reshape(dims), metadata
