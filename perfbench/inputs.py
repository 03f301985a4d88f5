"""Seeded inputs for the matchfactor benchmark.

    python perfbench/inputs.py WORKLOAD SEED WORKDIR

writes the workload's inputs under ``WORKDIR/in`` and the facts its checks
need to ``WORKDIR/in/expected.json``.  Everything is derived from the seed
alone, so one seed always gives the same files.  ``ingest-formats`` reads
match-record exports (csv, json-lines and riot-match-json holding the same
records), with planted rows that the retention rule must keep, truncate or
drop.  ``pipeline-paper`` takes only the seed, so nothing but the empty
facts file is written for it.

It runs in its own process so that the measuring process stays small.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ARENA = 11
OTHER_ARENA = 12
N_MATCHES = 100

# planted player kinds for the ingest workload
N_COMPLETE = 961  # exactly the paper's player count, all retained
N_OVERLONG = 96  # of the complete players: extra arena matches, truncated
N_TRAILING = 240  # of the complete players: other-arena matches afterwards
N_SHORT = 40  # fewer than N_MATCHES arena matches: dropped
N_GAPPED = 24  # one other-arena match inside the first N_MATCHES: dropped
N_OTHER_ONLY = 30  # never play in the arena: neither retained nor dropped

# riot exports hold one object per match with up to ten participants
PARTICIPANTS_PER_MATCH = 10
_EPOCH_MS = 1_500_000_000_000
_SLOT_MS = 3_600_000


def _histories(rng: np.random.Generator) -> list[np.ndarray]:
    """Arena id of each chronological match slot, one array per player."""
    histories = []
    n_players = N_COMPLETE + N_SHORT + N_GAPPED + N_OTHER_ONLY
    kinds = np.repeat(
        np.arange(4), [N_COMPLETE, N_SHORT, N_GAPPED, N_OTHER_ONLY]
    )
    overlong = set(rng.choice(N_COMPLETE, N_OVERLONG, replace=False).tolist())
    trailing = set(rng.choice(N_COMPLETE, N_TRAILING, replace=False).tolist())
    for p in range(n_players):
        kind = kinds[p]
        if kind == 0:
            n_arena = N_MATCHES + (int(rng.integers(1, 41)) if p in overlong else 0)
            n_after = int(rng.integers(1, 11)) if p in trailing else 0
            slots = np.r_[np.full(n_arena, ARENA), np.full(n_after, OTHER_ARENA)]
        elif kind == 1:
            slots = np.full(int(rng.integers(10, N_MATCHES)), ARENA)
        elif kind == 2:
            slots = np.full(N_MATCHES + 1, ARENA)
            slots[int(rng.integers(1, N_MATCHES))] = OTHER_ARENA
        else:
            slots = np.full(int(rng.integers(20, N_MATCHES + 1)), OTHER_ARENA)
        histories.append(slots)
    return histories


def make_records(seed: int) -> tuple[dict, dict]:
    """Column arrays of all records, plus the counts ingest must report.

    Rows are ordered by match slot, arena and player, as a chronological
    export would list them.
    """
    rng = np.random.default_rng(seed)
    histories = _histories(rng)
    # player ids are shuffled so the planted kinds interleave in sorted order
    names = rng.permutation(len(histories))
    player_ids = np.array([f"s{n:05d}" for n in names])

    player = np.concatenate([np.full(h.size, p) for p, h in enumerate(histories)])
    slot = np.concatenate([np.arange(h.size) for h in histories])
    arena = np.concatenate(histories)
    order = np.lexsort((player, arena, slot))
    n = order.size
    cols = {
        "player_id": player_ids[player[order]],
        "match_index": slot[order],
        "assists": rng.integers(0, 26, n),
        "deaths": rng.integers(0, 16, n),
        "kills": rng.integers(0, 26, n),
        "gold": rng.integers(3000, 20001, n),
        "winner": (rng.random(n) < 0.5).astype(int),
        "arena_id": arena[order],
    }
    expected = {
        "records_read": int(n),
        "records_other_arena": int((arena != ARENA).sum()),
        "players_retained": N_COMPLETE,
        "players_dropped": N_SHORT + N_GAPPED,
    }
    return cols, expected


def _rows(cols: dict):
    return zip(
        cols["player_id"].tolist(),
        cols["match_index"].tolist(),
        cols["assists"].tolist(),
        cols["deaths"].tolist(),
        cols["kills"].tolist(),
        cols["gold"].tolist(),
        cols["winner"].tolist(),
        cols["arena_id"].tolist(),
    )


def write_csv(path: Path, cols: dict) -> None:
    lines = ["player_id,match_index,assists,deaths,kills,gold,winner,arena_id"]
    lines.extend(",".join(map(str, row)) for row in _rows(cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json_lines(path: Path, cols: dict) -> None:
    # winner is written as a JSON boolean, which the reader also accepts
    lines = [
        f'{{"player_id": "{pid}", "match_index": {k}, "assists": {a}, "deaths": {d}, '
        f'"kills": {ki}, "gold": {g}, "winner": {"true" if w else "false"}, "arena_id": {ar}}}'
        for pid, k, a, d, ki, g, w, ar in _rows(cols)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_riot(path: Path, cols: dict, seed: int) -> None:
    """Group every player's k-th match into shared match objects.

    Players whose k-th match is in the same arena are packed ten to a match.
    ``gameCreation`` grows with k, so each player's chronological rank is k
    again, while the match list itself is shuffled.
    """
    rng = np.random.default_rng(seed + 1)
    slot, arena = cols["match_index"], cols["arena_id"]
    # rows are sorted by (slot, arena): start a match at each change of key
    # and after every PARTICIPANTS_PER_MATCH rows of the same key
    new_key = np.r_[True, (slot[1:] != slot[:-1]) | (arena[1:] != arena[:-1])]
    key_start = np.maximum.accumulate(np.where(new_key, np.arange(slot.size), 0))
    starts = np.flatnonzero((np.arange(slot.size) - key_start) % PARTICIPANTS_PER_MATCH == 0)
    rows = list(_rows(cols))
    matches = []
    for m, (lo, hi) in enumerate(zip(starts, np.r_[starts[1:], slot.size])):
        group = rows[lo:hi]
        matches.append(
            {
                "gameCreation": _EPOCH_MS + int(slot[lo]) * _SLOT_MS + m,
                "mapId": int(arena[lo]),
                "participantIdentities": [
                    {"participantId": i + 1, "player": {"summonerName": row[0]}}
                    for i, row in enumerate(group)
                ],
                "participants": [
                    {
                        "participantId": i + 1,
                        "stats": {
                            "assists": row[2],
                            "deaths": row[3],
                            "kills": row[4],
                            "goldEarned": row[5],
                            "win": bool(row[6]),
                        },
                    }
                    for i, row in enumerate(group)
                ],
            }
        )
    shuffled = [matches[i] for i in rng.permutation(len(matches))]
    # json.dumps runs the C encoder; json.dump to a file does not
    path.write_text(json.dumps({"matches": shuffled}), encoding="utf-8")


def write_record_exports(directory: Path, seed: int) -> dict:
    """Write records.csv, records.jsonl and records.riot.json; return counts."""
    cols, expected = make_records(seed)
    write_csv(directory / "records.csv", cols)
    write_json_lines(directory / "records.jsonl", cols)
    write_riot(directory / "records.riot.json", cols, seed)
    return expected


def main(argv: list[str]) -> int:
    workload, seed, work = argv[0], int(argv[1]), Path(argv[2])
    expected = {}
    if workload == "ingest-formats":
        expected = write_record_exports(work / "in", seed)
    (work / "in" / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
