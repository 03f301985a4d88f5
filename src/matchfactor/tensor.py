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
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_TENSOR_FORMAT = "dense-tensor3"
_TENSOR_VERSION = 1
# the values formatted and held as text at once by the writers
_SLICE = 1 << 15


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


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    m = as_matrix(m)
    axis = _check_mode(mode)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"dims must be three positive integers, got {dims}")
    rest = [d for i, d in enumerate(dims) if i != axis]
    if m.shape != (dims[axis], rest[0] * rest[1]):
        raise ValueError(
            f"matrix shape {m.shape} inconsistent with dims {dims} for mode {mode}"
        )
    stacked = np.reshape(m, (dims[axis], rest[0], rest[1]), order="F")
    return np.ascontiguousarray(np.moveaxis(stacked, 0, axis))


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
    m1 = (a * weights) @ khatri_rao(c, b).T
    return fold(m1, 1, (a.shape[0], b.shape[0], c.shape[0]))


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
            "layout": "first-index-slowest",
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


def _read_json(path):
    """The document of a JSON file; invalid JSON or UTF-8 raises ``ValueError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # invalid JSON or UTF-8, or too deep
            raise ValueError(f"{Path(path)}: not a JSON file ({exc})") from None


def _finite_floats(values, message: str) -> np.ndarray:
    """A JSON list of numbers as float64; anything else, or a number that is
    not finite, raises ``ValueError(message)``."""
    # exact types: a JSON true or a string is not a number
    if isinstance(values, list) and {*map(type, values)} <= {int, float}:
        try:
            array = np.asarray(values, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(message) from None
        if np.isfinite(array).all():
            return array
    raise ValueError(message)


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_tensor3(path) -> tuple[np.ndarray, dict]:
    """Read a tensor written by :func:`save_tensor3`; returns (tensor, metadata).

    A file that is not such a container raises ``ValueError`` naming it.
    """
    where = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != _TENSOR_FORMAT:
        raise ValueError(f"{where}: not a dense-tensor3 container")
    if doc.get("version") != _TENSOR_VERSION:
        raise ValueError(f"{where}: unsupported container version {doc.get('version')}")
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
