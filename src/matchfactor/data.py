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
    file position).

An undecodable line in any of them is a ``MalformedRecord`` with its line
number.

Retention rule
--------------
Only records in the configured arena count.  A player is retained when the
records with ``match_index < n_matches`` form a complete history
``0 .. n_matches-1`` (players with longer histories are truncated to their
first ``n_matches`` matches); everyone else is dropped and counted.

Each reader yields raw rows, parsed in chunks into columns; ``ingest``
applies the retention rule to the columns and scatters the kept rows into
the dense arrays of a ``Dataset``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .errors import DuplicateKey, MalformedRecord, NoPlayersRetained
from .tensor import _formatted_slices

logger = logging.getLogger(__name__)

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
_CHUNK = 8192


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

    def feature_counts(self) -> np.ndarray:
        """Raw count tensor of shape (players, 4, matches), as a copy."""
        return self.counts.copy()

    def winner_matrix(self) -> np.ndarray:
        """Binary win/loss matrix of shape (players, matches)."""
        return self.winners.astype(np.float64)

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


def _parse_chunk(chunk, codes: dict[str, int]) -> tuple:
    """Columns of ``(values, where, line)`` rows: player code (an index into
    ``codes``), match index, counts (rows, 4), winner and arena.

    The columns are parsed in bulk with the checks of ``_parse_row``; a
    chunk that fails them is parsed again row by row, so the first invalid
    row raises, with its line.
    """
    fields = list(zip(*(values for values, _, _ in chunk)))
    try:
        if any(None in col or "" in col for col in fields):
            raise ValueError("missing field")
        players, match_index, *counts, winner, arena = fields
        fields = [
            list(map(str, players)),
            list(map(int, map(str, match_index))),
            *(list(map(float, col)) for col in counts),
            [w if w is True or w is False else _WINNER[str(w)] for w in winner],
            list(map(int, map(str, arena))),
        ]
        block = np.array(fields[2:6])
        if min(fields[1]) < 0 or not ((block >= 0) & (block < np.inf)).all():
            raise ValueError("invalid field")
    except (KeyError, TypeError, ValueError, OverflowError):
        fields = list(zip(*(_parse_row(*row) for row in chunk)))
    players, match_index, *counts, winner, arena = fields
    for name in dict.fromkeys(players):
        codes.setdefault(name, len(codes))
    return (
        np.fromiter(map(codes.__getitem__, players), np.int64, len(players)),
        _int_column(match_index),
        np.array(counts, dtype=np.float64).T,
        np.array(winner, dtype=bool),
        _int_column(arena),
    )


def _read_columns(rows) -> tuple:
    """Parse ``(values, where, line)`` rows chunk by chunk into the player
    names and the concatenated columns of ``_parse_chunk``."""
    codes: dict[str, int] = {}
    parts = []
    rows = iter(rows)
    while True:
        chunk = []
        try:
            for row in rows:
                chunk.append(row)
                if len(chunk) == _CHUNK:
                    break
        finally:
            # a reader error raised after a bad row must not hide that row
            if chunk:
                parts.append(_parse_chunk(chunk, codes))
        if len(chunk) < _CHUNK:
            break
    if not parts:
        return [], *[np.zeros(0, np.int64)] * 5
    return list(codes), *(np.concatenate(col) for col in zip(*parts))


def _lines(path, newline=None):
    """The lines of a UTF-8 text file, split as ``open(path, newline=...)``
    splits them.  An undecodable line raises ``MalformedRecord`` with its
    number, after the lines before it."""
    done = 0
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            for line in fh:
                yield line
                done += 1
    except UnicodeDecodeError:
        yield from _lines_up_to_undecodable(path, newline, skip=done)


def _lines_up_to_undecodable(path, newline, skip):
    """The error path of ``_lines``: read the file again, in binary, yield
    its lines after the first ``skip`` until the first undecodable one, and
    raise ``MalformedRecord`` with that line's number."""
    with open(path, "rb") as fh:
        # undecodable bytes become lone surrogates, which cannot be encoded
        text = fh.read().decode("utf-8", "surrogateescape")
    for line_no, line in enumerate(io.StringIO(text, newline=newline), start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRecord("invalid UTF-8", line_no) from None
        if line_no > skip:
            yield line
    raise MalformedRecord("invalid UTF-8")  # the file changed since it failed to decode


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
        try:
            row = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise MalformedRecord(f"invalid JSON: {exc}", line_no) from None
        if not isinstance(row, dict):
            raise MalformedRecord("record is not an object", line_no)
        yield tuple(map(row.get, CSV_HEADER)), "json record", line_no


def _riot_match_json_rows(path):
    """Flatten saved match-endpoint responses into per-player rows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError:
        # skips every line, so it raises at the first undecodable one
        next(_lines_up_to_undecodable(path, None, skip=math.inf))
    except (json.JSONDecodeError, RecursionError) as exc:  # invalid, or nested too deep
        raise MalformedRecord(f"invalid JSON: {exc}") from None
    matches = doc.get("matches") if isinstance(doc, dict) else None
    if not isinstance(matches, list):
        raise MalformedRecord("riot-match-json file must hold a 'matches' list")

    staged = []
    for pos, match in enumerate(matches):
        where = f"match {pos}"
        if not isinstance(match, dict):
            raise MalformedRecord(f"{where}: not an object")
        arena = _parse_int(match.get("mapId"), "mapId", where, None)
        creation = _parse_int(match.get("gameCreation", pos), "gameCreation", where, None)
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
                values = list(map(stats.get, ("assists", "deaths", "kills", "goldEarned", "win")))
                if None in values:
                    missing = [k for k, v in zip(CSV_HEADER[2:7], values) if v is None]
                    raise MalformedRecord(f"{where}: missing fields {missing}")
                staged.append((identities[pid], creation, pos, arena, values))
        except (AttributeError, TypeError):  # a non-object, or a list as participantId
            raise MalformedRecord(
                f"{where}: participants, identities, their player and stats must be objects"
                " and participantId a scalar"
            ) from None

    # a player's match_index is the chronological rank of the match, ties
    # broken by file position
    staged.sort(key=lambda item: item[:3])
    counters: dict[str, int] = {}
    for player, _, pos, arena, (assists, deaths, kills, gold, win) in staged:
        k = counters[player] = counters.get(player, -1) + 1
        row = (player, k, assists, deaths, kills, gold, win, arena)
        yield row, f"match at position {pos}", None


_READERS = {
    "csv": _csv_rows,
    "json-lines": _json_lines_rows,
    "riot-match-json": _riot_match_json_rows,
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
    with contextlib.closing(_READERS[fmt](path)) as rows:
        names, player, match_index, counts, winner, arena = _read_columns(rows)
    in_arena = np.asarray(arena == arena_id, dtype=bool)
    player, match_index = player[in_arena], match_index[in_arena]
    # the first row whose (player, match_index) key repeats an earlier row's
    index = match_index
    if index.dtype == object:
        index = np.unique(index, return_inverse=True)[1].ravel()
    order = np.lexsort((np.arange(player.size), index, player))
    repeats = order[1:][(np.diff(player[order]) == 0) & (np.diff(index[order]) == 0)]
    if repeats.size:
        row = repeats.min()
        key = (names[player[row]], int(match_index[row]))
        raise DuplicateKey(f"duplicate record for {key}")

    early = np.asarray(match_index < n_matches, dtype=bool)
    history = np.bincount(player[early], minlength=len(names))
    # keys are unique and indices non-negative: n_matches early records are
    # exactly matches 0 .. n_matches-1
    complete = (history == n_matches) & (history > 0)
    retained = sorted(np.flatnonzero(complete).tolist(), key=names.__getitem__)
    dropped = np.count_nonzero(np.bincount(player, minlength=len(names))) - len(retained)
    if not retained:
        raise NoPlayersRetained(
            f"no player has a complete 0..{n_matches - 1} history in arena {arena_id}"
        )
    if dropped:
        logger.warning("dropped %d players with incomplete histories", dropped)

    position = np.zeros(len(names), dtype=np.int64)
    position[retained] = np.arange(len(retained))
    rows = early & complete[player]
    i, k = position[player[rows]], match_index[rows].astype(np.int64)
    dataset = Dataset(
        player_ids=tuple(names[c] for c in retained),
        counts=np.zeros((len(retained), len(FEATURES), n_matches)),
        winners=np.zeros((len(retained), n_matches), dtype=bool),
        arena_id=arena_id,
    )
    dataset.counts.transpose(0, 2, 1)[i, k] = counts[in_arena][rows]
    dataset.winners[i, k] = winner[in_arena][rows]
    return IngestResult(
        dataset=dataset,
        players_retained=len(retained),
        players_dropped=int(dropped),
        records_read=arena.size,
        records_other_arena=arena.size - int(in_arena.sum()),
    )


@dataclass(frozen=True)
class NormalizedTensor:
    """Min-max normalized tensor plus everything needed to undo or audit it."""

    tensor: np.ndarray  # (I, 4, K), entries in [0, 1]
    feature_min: np.ndarray
    feature_max: np.ndarray
    constant_mask: np.ndarray
    per_player: bool
    player_ids: tuple[str, ...]
    feature_names: tuple[str, ...] = FEATURES


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
    tensor = np.where(constant, 0.0, (dataset.counts - mins) / np.where(constant, 1.0, maxs - mins))
    mins, maxs, constant = (a.squeeze(axis) for a in (mins, maxs, constant))
    if constant.any():
        logger.warning("constant features mapped to zeros: mask=%s", constant.tolist())
    return NormalizedTensor(
        tensor=tensor,
        feature_min=mins,
        feature_max=maxs,
        constant_mask=constant,
        per_player=per_player,
        player_ids=dataset.player_ids,
    )


def denormalize(normalized: NormalizedTensor) -> np.ndarray:
    """Recover raw counts from a normalized tensor (constant features included)."""
    span = normalized.feature_max - normalized.feature_min
    return normalized.tensor * span[..., None] + normalized.feature_min[..., None]
