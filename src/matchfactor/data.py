"""Match-record ingestion, validation, and tensor assembly.

Input formats
-------------
``csv``
    Header ``player_id,match_index,assists,deaths,kills,gold,winner,arena_id``;
    UTF-8; ``winner`` in {0, 1}.
``json-lines``
    One record object per line with the same field names; ``winner`` may also
    be a JSON boolean.
``riot-match-json``
    A saved export of match-endpoint responses: a JSON object whose
    ``matches`` list holds one object per match with ``mapId``,
    ``gameCreation``, ``participantIdentities`` (participantId -> player)
    and ``participants`` (participantId -> stats block).  Per player,
    ``match_index`` is the chronological rank of the match (ties broken by
    file position).  The reader walks the file a block at a time with the
    object walk of the tensor container (``tensor._walk_object``) and
    decodes one match at a time, so neither the text nor a parsed document
    is ever held whole.
    Invalid UTF-8 anywhere is reported first, then invalid JSON anywhere (as
    ``json.loads`` reports it), then the first malformed match or seat in
    list order.

An undecodable line in any of them is a ``MalformedRecord`` with its line
number.

Retention rule
--------------
Only records in the configured arena count.  A player is retained when the
records with ``match_index < n_matches`` form a complete history
``0 .. n_matches-1`` (players with longer histories are truncated to their
first ``n_matches`` matches); everyone else is dropped and counted.

All three readers stage through one parser: each record, a riot seat
too, is a raw row, parsed a chunk at a time and appended to typed
columns, so the first malformed record in file order raises and a record
is held once, in a few dozen bytes.  ``ingest`` finds repeated
(player, match_index) keys with one stable sort of the record columns,
which compares indices past int64 as Python ints, drops each column once
it is used, and scatters the kept rows into the dense arrays of a
``Dataset`` one feature at a time.
"""

from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .errors import DuplicateKey, MalformedRecord, NoPlayersRetained
from .tensor import (
    _Window,
    _check_decoded,
    _decode,
    _escaped_byte,
    _first_item,
    _formatted_slices,
    _item,
    _walk_object,
)

FEATURES = ("assists", "deaths", "kills", "gold")

CSV_HEADER = (
    "player_id",
    "match_index",
    "assists",
    "deaths",
    "kills",
    "gold",
    "winner",
    "arena_id",
)

# rows parsed at once: bounds the raw values held while reading
_CHUNK = 512


@dataclass(frozen=True, eq=False)
class Dataset:
    """Complete histories of the retained players, as dense arrays.

    ``player_ids`` fixes the player order used by every downstream tensor.
    ``counts`` (players, 4, matches) holds the raw feature counts (integers
    in canonical data; exact-mode synthetic datasets carry fractional
    values, see ``synthetic``); ``winners`` (players, matches) marks the
    matches each player won.
    """

    player_ids: tuple[str, ...]
    counts: np.ndarray
    winners: np.ndarray
    arena_id: int

    @property
    def n_players(self) -> int:
        return len(self.player_ids)

    @property
    def n_matches(self) -> int:
        return self.counts.shape[2]

    def write_csv(self, path) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.float64)
        slices = _formatted_slices(counts.ravel(), _format_count)
        text = chain.from_iterable(s.tolist() for s in slices)
        wins = self.winners.astype(int).tolist()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for pid, won in zip(self.player_ids, wins):
                features = [list(islice(text, self.n_matches)) for _ in range(counts.shape[1])]
                matches = range(self.n_matches)
                arena = repeat(self.arena_id)
                writer.writerows(zip(repeat(pid), matches, *features, won, arena))


def _format_count(value: float) -> str:
    return str(int(value)) if value.is_integer() else repr(value)


@dataclass(frozen=True)
class IngestResult:
    dataset: Dataset
    players_retained: int
    players_dropped: int
    records_read: int
    records_other_arena: int


def _parse_number(raw, name: str, where: str, line: int | None) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a JSON int beyond float
        raise MalformedRecord(f"{where}: {name} is not numeric ({raw!r})", line) from None


def _parse_int(raw, name: str, where: str, line: int | None) -> int:
    try:
        return int(str(raw))
    except (TypeError, ValueError):
        raise MalformedRecord(f"{where}: {name} is not an integer ({raw!r})", line) from None


def _parse_row(values, where: str, line: int | None) -> tuple:
    """Parse one row's raw fields, raising on the first invalid one (an
    empty field counts as missing, so ``player_id`` is never empty)."""
    missing = [k for k, v in zip(CSV_HEADER, values) if v in (None, "")]
    if missing:
        raise MalformedRecord(f"{where}: missing fields {missing}", line)
    pid, match_index, *counts, winner, arena = values
    player_id = str(pid)
    match_index = _parse_int(match_index, "match_index", where, line)
    counts = [_parse_number(raw, name, where, line) for raw, name in zip(counts, FEATURES)]
    if not (isinstance(winner, bool) or str(winner) in ("0", "1")):
        raise MalformedRecord(f"{where}: winner must be 0 or 1 ({winner!r})", line)
    winner = winner if isinstance(winner, bool) else str(winner) == "1"
    arena = _parse_int(arena, "arena_id", where, line)
    if match_index < 0:
        raise MalformedRecord(f"{where}: negative match_index", line)
    for name, value in zip(FEATURES, counts):
        if not 0 <= value < np.inf:
            raise MalformedRecord(f"{where}: {name} must be a non-negative number", line)
    return (player_id, match_index, *counts, winner, arena)


def _int_column(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:  # beyond int64: compare as Python ints
        return np.array(values, dtype=object)


_WINNER = {"0": False, "1": True}
# an empty field counts as missing; a value that cannot be hashed fails the
# check with TypeError, so its chunk is parsed row by row
_MISSING = frozenset((None, ""))


def _ints(values) -> list:
    """``int(str(v))`` of each value: the values themselves when all are ints."""
    return list(values) if {*map(type, values)} == {int} else list(map(int, map(str, values)))


def _parse_chunk(chunk) -> list:
    """The fields of ``(values, where, line)`` rows, one sequence per field:
    player name, match index, the four counts, winner and arena.

    The fields are parsed in bulk with the checks of ``_parse_row``; a
    chunk that fails them is parsed again row by row, so the first invalid
    row raises, with its line.
    """
    fields = list(zip(*(values for values, _, _ in chunk)))
    try:
        if any(not _MISSING.isdisjoint(col) for col in fields):
            raise ValueError("missing field")
        players, match_index, *counts, winner, arena = fields
        fields = [
            list(map(str, players)),
            _ints(match_index),
            *(list(map(float, col)) for col in counts),
            [w if w is True or w is False else _WINNER[str(w)] for w in winner],
            _ints(arena),
        ]
        block = np.array(fields[2:6])
        if min(fields[1]) < 0 or not ((block >= 0) & (block < np.inf)).all():
            raise ValueError("invalid field")
        fields[2:6] = block
    except (KeyError, TypeError, ValueError, OverflowError):
        fields = list(zip(*(_parse_row(*row) for row in chunk)))
    return fields


class _Columns:
    """Rows ``(values, where, line)`` staged and parsed by ``_parse_chunk``
    ``_CHUNK`` at a time into typed columns, so that a record is held once:
    player code (an index into ``names``), match index, the four counts,
    winner and arena.  An integer column turns into a list once it meets a
    value beyond int64."""

    # each column's array typecode and dtype
    _TYPES = (
        ("q", np.int64),  # player code
        ("q", np.int64),  # match index
        *[("d", np.float64)] * len(FEATURES),
        ("B", bool),  # winner
        ("q", np.int64),  # arena
    )

    def __init__(self):
        # imported here, so that no stage but an ingest maps the module
        from array import array

        self.names: dict[str, int] = {}
        self.columns = [array(typecode) for typecode, _ in self._TYPES]
        self.rows: list = []

    def add(self, row) -> None:
        """Stage one row; a full chunk is parsed, and its first invalid row raises."""
        self.rows.append(row)
        if len(self.rows) >= _CHUNK:
            self.flush()

    def flush(self) -> None:
        """Parse and append the staged rows; the first invalid one raises."""
        chunk, self.rows = self.rows, []
        if not chunk:
            return
        players, *rest = _parse_chunk(chunk)
        for name in dict.fromkeys(players):
            self.names.setdefault(name, len(self.names))
        codes = np.fromiter(map(self.names.__getitem__, players), np.int64, len(players))
        for i, (values, (_, dtype)) in enumerate(zip([codes, *rest], self._TYPES)):
            column = self.columns[i]
            if isinstance(column, list):
                column.extend(values)
                continue
            try:
                column.frombytes(np.asarray(values, dtype).tobytes())
            except OverflowError:  # an integer beyond int64: keep Python ints
                self.columns[i] = [*column, *values]

    def arrays(self) -> tuple:
        """The player names and the columns as arrays over the staged
        buffers, the counts as four columns of one feature each."""
        player, match_index, *counts, winner, arena = (
            np.array(c, dtype=object) if isinstance(c, list) else np.frombuffer(c, dtype)
            for c, (_, dtype) in zip(self.columns, self._TYPES)
        )
        return list(self.names), player, match_index, counts, winner, arena


def _read_columns(rows) -> tuple:
    """Parse ``(values, where, line)`` rows chunk by chunk into the player
    names and the columns of ``_Columns``; close ``rows``."""
    columns = _Columns()
    with contextlib.closing(rows):
        try:
            for row in rows:
                columns.add(row)
        finally:
            # a reader error raised after a bad row must not hide that row
            columns.flush()
    return columns.arrays()


def _lines(path, newline=None):
    """The lines of a UTF-8 text file, split as ``open(path, newline=...)``
    splits them.  An undecodable line raises ``MalformedRecord`` with its
    number, after the lines before it."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and _escaped_byte(line):
                raise MalformedRecord("invalid UTF-8", line_no)
            yield line


def _csv_rows(path):
    width = len(CSV_HEADER)
    with contextlib.closing(_lines(path, newline="")) as lines:
        reader = csv.reader(lines)
        try:
            header = next(reader, None)
            if header is None or tuple(header) != CSV_HEADER:
                raise MalformedRecord(f"bad CSV header: expected {','.join(CSV_HEADER)}", line=1)
            for row in reader:
                if row:  # blank lines are skipped
                    # absent trailing fields count as missing, extra ones are ignored
                    row = row if len(row) == width else (row + [None] * width)[:width]
                    yield row, "csv record", reader.line_num
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise MalformedRecord(f"invalid CSV: {exc}", reader.line_num) from None


def _json_lines_rows(path):
    for line_no, line in enumerate(_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        # raw_decode and json.loads's two other checks, with its messages:
        # json.loads itself took the in-process ingest of a 105,512-line
        # export from about 0.47 to 0.6 s
        try:
            if line.startswith("\ufeff"):
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            row, end = _decode(line)
            if end != len(line):  # the line is stripped, so text follows the value
                end = json.decoder.WHITESPACE.match(line, end).end()
                raise json.JSONDecodeError("Extra data", line, end)
        except (ValueError, RecursionError) as exc:  # as in _raise_whole_text_error
            raise MalformedRecord(f"invalid JSON: {exc}", line_no) from None
        if not isinstance(row, dict):
            raise MalformedRecord("record is not an object", line_no)
        yield tuple(map(row.get, CSV_HEADER)), "json record", line_no


def _riot_columns(path) -> tuple:
    """The columns of ``_read_columns`` for a riot export: a player's
    ``match_index`` is the chronological rank of the match, ties broken by
    file position."""
    columns, creation = _riot_seats(path)
    names, player, pos, counts, winner, arena = columns.arrays()
    # lexsort is stable: seats of one player and gameCreation keep file order
    order = np.lexsort((_int_column(creation)[pos], player))
    played = np.bincount(player, minlength=len(names))
    match_index = np.empty_like(player)
    match_index[order] = np.arange(player.size)
    match_index -= (np.cumsum(played) - played)[player]
    return names, player, match_index, counts, winner, arena


def _riot_seats(path) -> tuple:
    """The ``_Columns`` of the seats of a riot export's last ``matches``
    list, with each seat's list position as its match index, and the
    ``gameCreation`` of each match; raises the first error.

    Walks the export a block at a time with ``_walk_object`` and decodes
    one match at a time, so neither the text nor the matches are ever held
    whole; the other top-level members (scalars such as ``totalGames`` in a
    real response) are held, decoded, until the walk returns.  Invalid UTF-8
    anywhere wins over invalid JSON anywhere, which wins over a malformed
    match or seat, and the last ``matches`` key counts, as for
    ``json.loads``.  A document the walk does not take is read again whole,
    on that path only, for ``json.loads``'s exact error.
    """
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            doc = _walk_object(_Window(fh), "matches", _walk_matches)
    except (ValueError, RecursionError):  # JSONDecodeError, or not one JSON object
        _raise_whole_text_error(path)
        doc = {}
    # only the walk of a list makes a tuple: a decoded JSON value never is one
    if not isinstance(doc.get("matches"), tuple):
        raise MalformedRecord("riot-match-json file must hold a 'matches' list")
    columns, creation, error = doc["matches"]
    if error is not None:
        raise error
    return columns, creation


def _raise_whole_text_error(path) -> None:
    """Raise the error of the whole text, if any: its first undecodable
    line, or ``json.loads``'s error."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    _check_decoded(text, 1)
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:  # invalid, an int past the digit limit, too deep
        raise MalformedRecord(f"invalid JSON: {exc}") from None


def _walk_matches(win: _Window, i: int) -> tuple:
    """``((columns, gameCreation of each match, first error), end)`` of the
    matches list that starts after its ``[`` at ``i``, ``end`` past its
    ``]``.  Each seat is a row of ``_Columns``, parsed as csv and json-lines
    rows are; after an error, matches are decoded but not staged."""
    columns, creation, error = _Columns(), [], None
    more, i = win.step(_first_item, i, "]")
    pos = 0
    while more:
        (match, more), i = win.step(_item, i, "]")
        if error is None:
            try:
                for row in _seat_rows(match, pos, creation):
                    columns.add(row)
            except MalformedRecord as exc:  # a staged seat's, or this match's
                error = exc
        pos += 1
    try:
        columns.flush()  # the seats not yet parsed precede the error
    except MalformedRecord as exc:
        error = exc
    return (columns, creation, error), i


# the stats a seat keeps, in the order of CSV_HEADER[2:7]
_STATS = ("assists", "deaths", "kills", "goldEarned", "win")


def _seat_rows(match, pos: int, creation: list):
    """The rows of the seats of the riot match at list position ``pos``,
    after its ``gameCreation`` is appended to ``creation``.  A malformed
    match raises where it is found, after the rows of the seats before it."""
    where = f"match {pos}"
    if not isinstance(match, dict):
        raise MalformedRecord(f"{where}: not an object")
    arena = _parse_int(match.get("mapId"), "mapId", where, None)
    creation.append(_parse_int(match.get("gameCreation", pos), "gameCreation", where, None))
    seat = f"match at position {pos}"
    try:
        identities = {}
        for ident in match.get("participantIdentities", []):
            pid = ident.get("participantId")
            player = (ident.get("player") or {}).get("summonerName")
            if pid is None or not player:
                raise MalformedRecord(f"{where}: incomplete participant identity")
            identities[pid] = str(player)
        for part in match.get("participants", []):
            pid = part.get("participantId")
            if pid not in identities:
                raise MalformedRecord(f"{where}: participant {pid} has no identity")
            stats = part.get("stats") or {}
            row = (identities[pid], pos, *map(stats.get, _STATS), arena)
            if None in row:
                missing = [k for k, v in zip(CSV_HEADER[2:7], row[2:7]) if v is None]
                raise MalformedRecord(f"{where}: missing fields {missing}")
            yield row, seat, None
    except (AttributeError, TypeError):  # a non-object, or a list as participantId
        raise MalformedRecord(
            f"{where}: participants, identities, their player and stats must be objects"
            " and participantId a scalar"
        ) from None


# each reader returns the player names and the columns of ``_Columns.arrays``
_READERS = {
    "csv": lambda path: _read_columns(_csv_rows(path)),
    "json-lines": lambda path: _read_columns(_json_lines_rows(path)),
    "riot-match-json": _riot_columns,
}


def ingest(
    path, fmt: str = "csv", arena_id: int = 11, n_matches: int = 100
) -> IngestResult:
    """Read, validate and filter match records into a Dataset.

    Players without a complete first-``n_matches`` history in the chosen
    arena are dropped (and counted); longer histories are truncated.
    """
    if fmt not in _READERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_READERS)}")
    if n_matches < 1:
        raise ValueError(f"n_matches must be >= 1, got {n_matches}")
    names, player, match_index, counts, winner, arena = _READERS[fmt](path)
    in_arena = np.asarray(arena == arena_id, dtype=bool)
    records_read, records_other_arena = arena.size, arena.size - int(np.count_nonzero(in_arena))
    del arena  # the columns are dropped as soon as they are used
    row = _first_repeat(player, match_index, in_arena)
    if row is not None:
        key = (names[player[row]], int(match_index[row]))
        raise DuplicateKey(f"duplicate record for {key}")

    early = in_arena & np.asarray(match_index < n_matches, dtype=bool)
    history = np.bincount(player[early], minlength=len(names))
    # keys are unique and indices non-negative: n_matches early records are
    # exactly matches 0 .. n_matches-1
    complete = (history == n_matches) & (history > 0)
    retained = sorted(np.flatnonzero(complete).tolist(), key=names.__getitem__)
    dropped = np.count_nonzero(np.bincount(player[in_arena], minlength=len(names))) - len(retained)
    if not retained:
        raise NoPlayersRetained(
            f"no player has a complete 0..{n_matches - 1} history in arena {arena_id}"
        )

    position = np.zeros(len(names), dtype=np.int64)
    position[retained] = np.arange(len(retained))
    rows = early & complete[player]
    at = position[player[rows]]
    k = np.asarray(match_index[rows], dtype=np.int64)
    del early, in_arena, player, match_index
    dataset = Dataset(
        player_ids=tuple(names[c] for c in retained),
        counts=np.zeros((len(retained), len(FEATURES), n_matches)),
        winners=np.zeros((len(retained), n_matches), dtype=bool),
        arena_id=arena_id,
    )
    dataset.winners[at, k] = winner[rows]
    # the offset of each kept row's first count in the flat counts; each
    # next feature lies n_matches further on
    at *= len(FEATURES) * n_matches
    at += k
    del k
    flat = dataset.counts.reshape(-1)
    for column in counts:
        flat[at] = column[rows]
        at += n_matches
    return IngestResult(
        dataset=dataset,
        players_retained=len(retained),
        players_dropped=int(dropped),
        records_read=records_read,
        records_other_arena=records_other_arena,
    )


def _first_repeat(player, match_index, in_arena) -> int | None:
    """The first in-arena row whose (player, match_index) pair repeats an earlier
    in-arena row's, or None.  A stable sort puts the in-arena rows last, each
    pair's rows in file order: every row after the first of its run repeats it."""
    order = np.lexsort((match_index, player, in_arena))
    order = order[order.size - np.count_nonzero(in_arena) :]
    same = np.ones(max(order.size - 1, 0), dtype=bool)
    for column in (player, match_index):  # gathered in sorted order one at a time
        column = column[order]
        same &= column[1:] == column[:-1]
    repeats = order[1:][same]
    return int(repeats.min()) if repeats.size else None


@dataclass(frozen=True)
class NormalizedTensor:
    """Min-max normalized tensor plus everything needed to undo or audit it."""

    tensor: np.ndarray  # (I, 4, K), entries in [0, 1]
    feature_min: np.ndarray
    feature_max: np.ndarray
    constant_mask: np.ndarray
    per_player: bool
    player_ids: tuple[str, ...]


def normalize_minmax(dataset: Dataset, per_player: bool = False) -> NormalizedTensor:
    """Scale every feature to [0, 1] by its min/max.

    By default min/max are global per feature (across all players and
    matches), which keeps values comparable between players; ``per_player``
    normalizes each player's series separately for sensitivity analysis.
    Constant features map to all-zeros and are flagged in ``constant_mask``.
    """
    axis = 2 if per_player else (0, 2)
    mins = dataset.counts.min(axis=axis, keepdims=True)
    maxs = dataset.counts.max(axis=axis, keepdims=True)
    constant = maxs == mins
    # one tensor-sized array, scaled and then zeroed where constant in place
    tensor = (dataset.counts - mins).astype(np.float64, copy=False)
    tensor /= np.where(constant, 1.0, maxs - mins)
    tensor[np.broadcast_to(constant[..., 0], tensor.shape[:2])] = 0.0
    mins, maxs, constant = (a.squeeze(axis) for a in (mins, maxs, constant))
    return NormalizedTensor(
        tensor=tensor,
        feature_min=mins,
        feature_max=maxs,
        constant_mask=constant,
        per_player=per_player,
        player_ids=dataset.player_ids,
    )

