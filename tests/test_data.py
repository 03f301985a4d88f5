import csv
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

import matchfactor.data as data_module
import matchfactor.tensor as tensor_module
from matchfactor import (
    CSV_HEADER,
    FEATURES,
    Dataset,
    DuplicateKey,
    MalformedRecord,
    NoPlayersRetained,
    ingest,
    normalize_minmax,
)
from matchfactor.synthetic import SyntheticSpec, generate_synthetic

from helpers import ingest_by_records, normalize_by_where, traced_peak, write_csv_by_values

CSV_FIXTURE = """player_id,match_index,assists,deaths,kills,gold,winner,arena_id
alice,0,3,1,5,9000,1,11
alice,1,4,2,6,9500,0,11
alice,2,2,0,7,10000,1,11
bob,0,8,3,1,7000,0,11
bob,1,9,4,2,7500,1,11
bob,2,7,2,3,8000,0,11
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_same_dataset(a, b):
    assert a.player_ids == b.player_ids
    assert a.arena_id == b.arena_id
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.winners, b.winners)


def csv_to_jsonl(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key in ("match_index", "assists", "deaths", "kills", "gold", "arena_id"):
            row[key] = int(row[key])
        row["winner"] = row["winner"] == "1"
        out.append(json.dumps(row))
    return "\n".join(out) + "\n"


def csv_to_riot_json(csv_text):
    """Equivalent riot-style export: one match object per (player, match)."""
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    matches = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        matches.append(
            {
                "gameId": len(matches) + 1,
                "mapId": int(row["arena_id"]),
                "gameCreation": 1_000_000 + int(row["match_index"]),
                "participantIdentities": [
                    {"participantId": 1, "player": {"summonerName": row["player_id"]}}
                ],
                "participants": [
                    {
                        "participantId": 1,
                        "stats": {
                            "assists": int(row["assists"]),
                            "deaths": int(row["deaths"]),
                            "kills": int(row["kills"]),
                            "goldEarned": int(row["gold"]),
                            "win": row["winner"] == "1",
                        },
                    }
                ],
            }
        )
    return json.dumps({"matches": matches})


class TestIngestCsv:
    def test_fixture_shape(self, tmp_path):
        result = ingest(write(tmp_path, "d.csv", CSV_FIXTURE), "csv", n_matches=3)
        assert result.dataset.n_players == 2
        assert result.dataset.n_matches == 3
        assert result.players_dropped == 0
        assert result.dataset.player_ids == ("alice", "bob")

    def test_incomplete_player_dropped(self, tmp_path):
        partial = "\n".join(CSV_FIXTURE.strip().splitlines()[:-1]) + "\n"
        result = ingest(write(tmp_path, "d.csv", partial), "csv", n_matches=3)
        assert result.dataset.player_ids == ("alice",)
        assert result.players_dropped == 1

    def test_long_history_truncated(self, tmp_path):
        extra = CSV_FIXTURE + "alice,3,1,1,1,5000,1,11\n"
        result = ingest(write(tmp_path, "d.csv", extra), "csv", n_matches=3)
        assert result.dataset.player_ids == ("alice", "bob")
        plain = ingest(write(tmp_path, "p.csv", CSV_FIXTURE), "csv", n_matches=3)
        assert_same_dataset(result.dataset, plain.dataset)

    def test_other_arena_filtered(self, tmp_path):
        mixed = CSV_FIXTURE + "carol,0,1,1,1,5000,1,12\n"
        result = ingest(write(tmp_path, "d.csv", mixed), "csv", n_matches=3)
        assert result.records_other_arena == 1
        assert "carol" not in result.dataset.player_ids

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(MalformedRecord, match="header"):
            ingest(path, "csv")

    def test_malformed_value_reports_line(self, tmp_path):
        bad = CSV_FIXTURE.replace("bob,1,9,4,2,7500,1,11", "bob,1,x,4,2,7500,1,11")
        with pytest.raises(MalformedRecord, match="line 6.*assists"):
            ingest(write(tmp_path, "d.csv", bad), "csv", n_matches=3)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files in /proc")
    @pytest.mark.parametrize("line", [1, 2])
    def test_malformed_record_leaves_no_file_open(self, tmp_path, line):
        # line 1: the header, rejected inside the reader; line 2: a bad row in
        # a full first chunk, rejected while the reader is suspended
        header = ",".join(CSV_HEADER) if line == 2 else "a,b,c"
        rows = ["alice,x,1,1,1,1,1,11"] + [f"p{i},0,1,1,1,1,1,11" for i in range(20_000)]
        path = write(tmp_path, "export", "\n".join([header, *rows, ""]))
        with pytest.raises(MalformedRecord, match=f"line {line}") as failure:
            ingest(path, "csv")
        # the held traceback keeps the failed parse's frames alive
        open_files = set()
        for fd in Path("/proc/self/fd").iterdir():
            try:
                open_files.add(os.readlink(fd))
            except OSError:  # closed since the listing
                pass
        assert str(path) not in open_files
        assert failure.value.line == line

    def test_oversized_field_reports_line(self, tmp_path):
        # the csv module refuses fields over 131,072 characters
        bad = CSV_FIXTURE.replace("alice,1,", "x" * 200_000 + ",1,")
        with pytest.raises(MalformedRecord, match="^line 3: invalid CSV: field larger"):
            ingest(write(tmp_path, "d.csv", bad), "csv", n_matches=3)

    def test_negative_count_rejected(self, tmp_path):
        bad = CSV_FIXTURE.replace("bob,1,9,4,2,7500,1,11", "bob,1,-9,4,2,7500,1,11")
        with pytest.raises(MalformedRecord, match="non-negative"):
            ingest(write(tmp_path, "d.csv", bad), "csv", n_matches=3)

    def test_bad_winner_rejected(self, tmp_path):
        bad = CSV_FIXTURE.replace("bob,1,9,4,2,7500,1,11", "bob,1,9,4,2,7500,yes,11")
        with pytest.raises(MalformedRecord, match="winner"):
            ingest(write(tmp_path, "d.csv", bad), "csv", n_matches=3)

    def test_duplicate_key_rejected(self, tmp_path):
        dup = CSV_FIXTURE + "alice,1,1,1,1,1000,0,11\n"
        with pytest.raises(DuplicateKey):
            ingest(write(tmp_path, "d.csv", dup), "csv", n_matches=3)

    def test_no_players_retained(self, tmp_path):
        path = write(tmp_path, "d.csv", CSV_FIXTURE)
        with pytest.raises(NoPlayersRetained):
            ingest(path, "csv", n_matches=50)

    @pytest.mark.parametrize("n_matches", [0, -1])
    def test_n_matches_checked_before_reading(self, tmp_path, n_matches):
        with pytest.raises(ValueError, match=rf"^n_matches must be >= 1, got {n_matches}$"):
            ingest(tmp_path / "missing.csv", "csv", n_matches=n_matches)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            ingest(write(tmp_path, "d.csv", CSV_FIXTURE), "parquet")


class TestCrossFormat:
    def test_jsonl_equivalent(self, tmp_path):
        csv_result = ingest(write(tmp_path, "d.csv", CSV_FIXTURE), "csv", n_matches=3)
        jsonl_result = ingest(
            write(tmp_path, "d.jsonl", csv_to_jsonl(CSV_FIXTURE)),
            "json-lines",
            n_matches=3,
        )
        assert_same_dataset(csv_result.dataset, jsonl_result.dataset)

    def test_riot_json_equivalent(self, tmp_path):
        csv_result = ingest(write(tmp_path, "d.csv", CSV_FIXTURE), "csv", n_matches=3)
        riot_result = ingest(
            write(tmp_path, "d.json", csv_to_riot_json(CSV_FIXTURE)),
            "riot-match-json",
            n_matches=3,
        )
        assert_same_dataset(csv_result.dataset, riot_result.dataset)

    def test_riot_missing_stats(self, tmp_path):
        doc = json.loads(csv_to_riot_json(CSV_FIXTURE))
        del doc["matches"][0]["participants"][0]["stats"]["kills"]
        with pytest.raises(MalformedRecord, match="missing"):
            ingest(write(tmp_path, "d.json", json.dumps(doc)), "riot-match-json", n_matches=3)


class TestIdempotence:
    def test_reingest_own_emission(self, tmp_path):
        first = ingest(write(tmp_path, "d.csv", CSV_FIXTURE), "csv", n_matches=3)
        out = tmp_path / "echo.csv"
        first.dataset.write_csv(out)
        second = ingest(out, "csv", n_matches=3)
        assert_same_dataset(first.dataset, second.dataset)
        assert out.read_text(encoding="utf-8") == CSV_FIXTURE


class TestNormalize:
    def make_dataset(self):
        k = np.arange(3.0)
        gold = 5.0 * k
        counts = np.array(
            [
                [k, np.ones(3), 2 * k, gold],  # p1: assists, deaths, kills, gold
                [3 - k, np.ones(3), k, gold],  # p2
            ]
        )
        winners = np.array([[True] * 3, [False] * 3])
        return Dataset(("p1", "p2"), counts, winners, arena_id=11)

    def test_minmax_values(self):
        normalized = normalize_minmax(self.make_dataset())
        gold = normalized.tensor[:, 3, :]
        np.testing.assert_allclose(gold, [[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])

    def test_constant_feature_zeroed_and_flagged(self):
        normalized = normalize_minmax(self.make_dataset())
        assert normalized.constant_mask.tolist() == [False, True, False, False]
        np.testing.assert_array_equal(normalized.tensor[:, 1, :], 0.0)

    def test_output_in_unit_interval(self):
        normalized = normalize_minmax(self.make_dataset())
        assert normalized.tensor.min() >= 0.0
        assert normalized.tensor.max() <= 1.0

    def test_per_player_mode(self):
        ds = self.make_dataset()
        normalized = normalize_minmax(ds, per_player=True)
        assert normalized.per_player
        assert normalized.feature_min.shape == (2, 4)
        span = normalized.feature_max - normalized.feature_min
        np.testing.assert_allclose(
            normalized.tensor * span[..., None] + normalized.feature_min[..., None],
            ds.counts,
            atol=1e-9,
        )

    def test_player_order_permutes_slices(self):
        ds = self.make_dataset()
        flipped = Dataset(("p2", "p1"), ds.counts[::-1], ds.winners[::-1], arena_id=11)
        a = normalize_minmax(ds).tensor
        b = normalize_minmax(flipped).tensor
        np.testing.assert_array_equal(a[0], b[1])
        np.testing.assert_array_equal(a[1], b[0])


@hst.composite
def count_tensors(draw):
    """Counts of a few players, some features constant across all of them."""
    shape = (draw(hst.integers(1, 5)), len(FEATURES), draw(hst.integers(1, 6)))
    values = hst.one_of(
        hst.integers(0, 30).map(float),
        hst.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
    )
    counts = draw(hnp.arrays(np.float64, shape, elements=values))
    for feature, value in enumerate(draw(hst.lists(hst.none() | values, min_size=4, max_size=4))):
        if value is not None:
            counts[:, feature, :] = value
    return counts


class TestNormalizeBits:
    """The in-place normalization gives the bits of the ``np.where`` expression."""

    @settings(max_examples=300, deadline=None)
    @given(counts=count_tensors(), per_player=hst.booleans())
    def test_same_bits_as_where(self, counts, per_player):
        winners = np.zeros(counts[:, 0, :].shape, dtype=bool)
        dataset = Dataset(tuple(map(str, range(len(counts)))), counts, winners, arena_id=11)
        normalized = normalize_minmax(dataset, per_player=per_player)
        tensor, constant = normalize_by_where(counts, per_player)
        assert normalized.tensor.dtype == tensor.dtype == np.float64
        np.testing.assert_array_equal(normalized.tensor.view(np.int64), tensor.view(np.int64))
        np.testing.assert_array_equal(normalized.constant_mask, constant)


class TestDatasetBuild:
    """The retention rule that ingest applies before building a Dataset."""

    def test_incomplete_history_rejected(self, tmp_path):
        text = CSV_FIXTURE.strip().splitlines()[0] + "\np,0,1,1,1,10,1,11\n"
        with pytest.raises(NoPlayersRetained, match="complete 0..1 history"):
            ingest(write(tmp_path, "d.csv", text), "csv", n_matches=2)

    def test_duplicate_rejected(self, tmp_path):
        # the first repeated key in file order is reported, also past the
        # matches that are kept
        header = CSV_FIXTURE.strip().splitlines()[0]
        rows = ["p,0,1,1,1,10,1,11", "p,7,1,1,1,10,1,11", "q,0,1,1,1,10,1,11",
                "p,7,2,2,2,20,0,11", "p,0,2,2,2,20,0,11"]
        path = write(tmp_path, "d.csv", "\n".join([header, *rows]) + "\n")
        with pytest.raises(DuplicateKey, match=r"\('p', 7\)"):
            ingest(path, "csv", n_matches=1)

    def test_duplicate_in_other_arena_ignored(self, tmp_path):
        dup = CSV_FIXTURE + "alice,1,1,1,1,1000,0,12\n"
        result = ingest(write(tmp_path, "d.csv", dup), "csv", n_matches=3)
        assert result.players_retained == 2
        assert result.records_other_arena == 1

    def test_winner_matrix(self, tmp_path):
        result = ingest(write(tmp_path, "d.csv", CSV_FIXTURE), "csv", n_matches=3)
        w = result.dataset.winners
        np.testing.assert_array_equal(w, [[1, 0, 1], [0, 1, 0]])


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
class TestIntegersBeyondInt64:
    """A match index or arena past int64 is a malformed record, reported at
    its line; values at the int64 limits read as any other."""

    def ingest_with(self, tmp_path, fmt, rows, arena_id=11):
        text = CSV_FIXTURE + "".join(f"{row}\n" for row in rows)
        if fmt == "json-lines":
            return ingest(write(tmp_path, "d.jsonl", csv_to_jsonl(text)), fmt, arena_id, 3)
        return ingest(write(tmp_path, "d.csv", text), fmt, arena_id, 3)

    def refused(self, tmp_path, fmt, rows, field, value):
        """The error of ingesting ``rows``, which must name ``field`` and
        ``value`` at the first added row."""
        with pytest.raises(MalformedRecord) as err:
            self.ingest_with(tmp_path, fmt, rows)
        # csv holds a header line and the value as text
        line, raw = (8, repr(str(value))) if fmt == "csv" else (7, repr(value))
        where = "csv record" if fmt == "csv" else "json record"
        assert str(err.value) == f"line {line}: {where}: {field} is outside int64 ({raw})"
        assert err.value.line == line

    @pytest.mark.parametrize(
        "field, value",
        [("match_index", 2**63), ("arena_id", 2**63), ("arena_id", -(2**63) - 1)],
        ids=["match_index-above", "arena_id-above", "arena_id-below"],
    )
    def test_beyond_int64_is_refused(self, tmp_path, fmt, field, value):
        row = dict(zip(CSV_HEADER, ["carol", 0, 1, 1, 1, 5000, 1, 11]), **{field: value})
        # a later malformed row in the same parse chunk is not the one reported
        later = "carol,1,-1,1,1,5000,1,11"
        self.refused(tmp_path, fmt, [",".join(map(str, row.values())), later], field, value)

    def test_late_match_is_read_and_truncated(self, tmp_path, fmt):
        result = self.ingest_with(tmp_path, fmt, [f"alice,{2**63 - 1},1,1,1,1000,0,11"])
        plain = self.ingest_with(tmp_path, fmt, [])
        assert_same_dataset(result.dataset, plain.dataset)
        assert result.records_read == plain.records_read + 1
        assert result.records_other_arena == 0

    def test_repeat_beyond_int64(self, tmp_path, fmt):
        # the first of the two records is refused; no key is compared
        rows = [f"p0,{2**63},1,1,1,1000,0,11"] * 2
        self.refused(tmp_path, fmt, rows, "match_index", 2**63)

    def test_repeat_near_the_top_of_int64(self, tmp_path, fmt):
        rows = [f"p0,{2**63 - 2},1,1,1,1000,0,11", f"p0,{2**63 - 1},1,1,1,1000,0,11",
                f"p0,{2**63 - 1},2,2,2,2000,1,11"]
        with pytest.raises(DuplicateKey, match=rf"\('p0', {2**63 - 1}\)$"):
            self.ingest_with(tmp_path, fmt, rows)

    @pytest.mark.parametrize("arena", [2**63 - 1, -(2**63)])
    def test_arena_at_the_int64_limits_is_another_arena(self, tmp_path, fmt, arena):
        result = self.ingest_with(tmp_path, fmt, [f"carol,0,1,1,1,5000,1,{arena}"])
        plain = self.ingest_with(tmp_path, fmt, [])
        assert_same_dataset(result.dataset, plain.dataset)
        assert result.records_read == plain.records_read + 1
        assert result.records_other_arena == 1

    def test_arena_at_the_top_of_int64_is_chosen_exactly(self, tmp_path, fmt):
        # as floats, the two arenas would be one
        rows = [f"{p},{k},1,1,1,5000,1,{arena}" for k in range(3)
                for p, arena in (("dan", 2**63 - 1), ("erin", 2**63 - 2))]
        result = self.ingest_with(tmp_path, fmt, rows, arena_id=2**63 - 1)
        assert result.dataset.player_ids == ("dan",)
        assert result.records_other_arena == 6 + 3


class TestRiotIntegersBeyondInt64:
    """A ``mapId`` or ``gameCreation`` past int64 is a malformed match; the
    int64 limits read as any other value."""

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("field", ["mapId", "gameCreation"])
    def test_field_beyond_int64_is_refused(self, tmp_path, field, value):
        matches = two_seat_matches(3)
        matches[1][field] = value
        path = write(tmp_path, "d.json", json.dumps({"matches": matches}))
        with pytest.raises(MalformedRecord) as err:
            ingest(path, "riot-match-json", n_matches=3)
        assert str(err.value) == f"match 1: {field} is outside int64 ({value})"
        assert err.value.line is None
        assert_same_as_reference(path, "riot-match-json")

    def test_creation_at_the_int64_limits_orders_the_matches(self, tmp_path):
        matches = two_seat_matches(3)
        for k, (match, creation) in enumerate(zip(matches, [2**63 - 1, -(2**63), 0])):
            match["gameCreation"] = creation
            match["participants"][0]["stats"]["assists"] = k
        path = write(tmp_path, "d.json", json.dumps({"matches": matches}))
        result = ingest(path, "riot-match-json", n_matches=3)
        zed = result.dataset.player_ids.index("zed")
        np.testing.assert_array_equal(result.dataset.counts[zed, 0], [1, 2, 0])
        assert_same_as_reference(path, "riot-match-json")

    @pytest.mark.parametrize("arena", [2**63 - 1, -(2**63)])
    def test_map_id_at_the_int64_limits(self, tmp_path, arena):
        matches = two_seat_matches(3)
        for match in matches:
            match["mapId"] = arena
        path = write(tmp_path, "d.json", json.dumps({"matches": matches}))
        result = ingest(path, "riot-match-json", arena_id=arena, n_matches=3)
        assert result.dataset.player_ids == ("amy", "zed")
        with pytest.raises(NoPlayersRetained):
            ingest(path, "riot-match-json", n_matches=3)


@settings(max_examples=200, deadline=None)
@given(
    hst.lists(
        hst.tuples(
            hst.integers(0, 3),
            hst.integers(0, 4) | hst.sampled_from([2**62, 2**63 - 1]),
            hst.booleans(),
        ),
        max_size=30,
    )
)
def test_first_repeat_is_the_earliest_repeated_in_arena_pair(records):
    seen, expected = set(), None
    for row, (player, index, in_arena) in enumerate(records):
        if in_arena and (player, index) in seen and expected is None:
            expected = row
        if in_arena:
            seen.add((player, index))
    player, index, in_arena = (list(c) for c in zip(*records)) if records else ([], [], [])
    got = data_module._first_repeat(
        np.array(player, dtype=np.int64),
        np.array(index, dtype=np.int64),
        np.array(in_arena, dtype=bool),
    )
    assert got == expected


class TestWriteCsvBytes:
    """``write_csv`` writes exactly the bytes of the per-value writer."""

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        # format slices that end inside a player's counts
        monkeypatch.setattr(tensor_module, "_SLICE", 7)

    def test_exact_dataset(self, tmp_path):
        spec = SyntheticSpec(n_players=30, n_matches=20, group_sizes=(10, 10, 10), exact=True)
        dataset = generate_synthetic(spec).dataset
        assert (dataset.counts != np.round(dataset.counts)).any()  # fractional counts
        dataset.write_csv(tmp_path / "new.csv")
        write_csv_by_values(dataset, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n_players, n_matches", [(0, 0), (0, 3), (2, 0)])
    def test_empty_dataset(self, tmp_path, n_players, n_matches):
        dataset = Dataset(
            player_ids=tuple("ab"[:n_players]),
            counts=np.zeros((n_players, 4, n_matches)),
            winners=np.zeros((n_players, n_matches), dtype=bool),
            arena_id=11,
        )
        dataset.write_csv(tmp_path / "new.csv")
        write_csv_by_values(dataset, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        counts=hst.lists(
            hst.sampled_from([0.0, -0.0, 5e-324, 0.1, 1.0, 7.0, 2.0**53, 1e16, 1e300])
            | hst.floats(0, 1e20),
            min_size=12,
            max_size=12,
        ),
        winners=hst.lists(hst.booleans(), min_size=6, max_size=6),
    )
    def test_odd_counts(self, counts, winners):
        dataset = Dataset(
            player_ids=("a", "b,c"),
            counts=np.reshape(counts, (2, 2, 3)).repeat(2, axis=1),
            winners=np.reshape(winners, (2, 3)),
            arena_id=11,
        )
        with tempfile.TemporaryDirectory() as tmp:
            dataset.write_csv(Path(tmp) / "new.csv")
            write_csv_by_values(dataset, Path(tmp) / "ref.csv")
            assert (Path(tmp) / "new.csv").read_bytes() == (Path(tmp) / "ref.csv").read_bytes()


def riot_fixture_with(change):
    """The riot export of ``CSV_FIXTURE`` with ``change`` applied to match 1."""
    doc = json.loads(csv_to_riot_json(CSV_FIXTURE))
    change(doc["matches"][1])
    return json.dumps(doc)


def set_in(match, key, index, field, value):
    match[key][index][field] = value


# malformed shapes of a riot match; each must end as "match 1: ..."
RIOT_SHAPES = {
    "stats-list": lambda m: set_in(m, "participants", 0, "stats", [1]),
    "stats-string": lambda m: set_in(m, "participants", 0, "stats", "x"),
    "participant-not-object": lambda m: m.update(participants=[1]),
    "participants-not-list": lambda m: m.update(participants=5),
    "identity-not-object": lambda m: m.update(participantIdentities=["x"]),
    "identities-object": lambda m: m.update(participantIdentities={"a": 1}),
    "player-list": lambda m: set_in(m, "participantIdentities", 0, "player", [1]),
    "player-string": lambda m: set_in(m, "participantIdentities", 0, "player", "x"),
    "participant-id-list": lambda m: set_in(m, "participants", 0, "participantId", [1]),
    "identity-id-list": lambda m: set_in(m, "participantIdentities", 0, "participantId", [1]),
    "identity-id-object": lambda m: set_in(m, "participantIdentities", 0, "participantId", {}),
}


# riot documents, and the error that each raises
RIOT_DOCUMENT_ERRORS = [
    ('{"matches": ["x"], "after": tru}', "^invalid JSON: Expecting value: line 1 column 29"),
    ('{"matches": ["x"]} x', "^invalid JSON: Extra data: line 1 column 20"),
    ('\ufeff{"matches": []}', "^invalid JSON: Unexpected UTF-8 BOM"),
    ('{"matches": ["x"], "matches": 5}', "^riot-match-json file must hold a 'matches' list$"),
    ('{"matches": ["x"], "matches": [7]}', "^match 0: not an object$"),
    ('{"matches": [{"mapId": 11}, "x", 7]}', "^match 1: not an object$"),
    ('{"matches": [1.5e3, "x"], "n": -2.5E-3}', "^match 0: not an object$"),
    ('{"matches": [] "x": 1}', r"^invalid JSON: Expecting ',' delimiter: line 1 column 16"),
    (
        '{"matches": [], 1: 2}',
        "^invalid JSON: Expecting property name enclosed in double quotes: line 1 column 17",
    ),
    ('{"matches" []}', "^invalid JSON: Expecting ':' delimiter: line 1 column 12"),
    # one character off the grammar, where the walk would otherwise go on
    (
        '{"matches": [], x": 1}',
        "^invalid JSON: Expecting property name enclosed in double quotes: line 1 column 17",
    ),
    ('{"matches"x[]}', "^invalid JSON: Expecting ':' delimiter: line 1 column 11"),
]


class TestRiotShapes:
    @pytest.mark.parametrize("shape", sorted(RIOT_SHAPES))
    def test_malformed_match(self, tmp_path, shape):
        path = write(tmp_path, "d.json", riot_fixture_with(RIOT_SHAPES[shape]))
        with pytest.raises(MalformedRecord, match="^match 1: "):
            ingest(path, "riot-match-json", n_matches=3)

    @pytest.mark.parametrize("doc", [[1], "matches", 3, None, {"matches": {"a": 1}}])
    def test_document_without_match_list(self, tmp_path, doc):
        path = write(tmp_path, "d.json", json.dumps(doc))
        with pytest.raises(MalformedRecord, match="'matches' list"):
            ingest(path, "riot-match-json", n_matches=3)

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "d.json", '{"matches": [')
        with pytest.raises(MalformedRecord, match="invalid JSON"):
            ingest(path, "riot-match-json", n_matches=3)

    @pytest.mark.parametrize("text, message", RIOT_DOCUMENT_ERRORS)
    def test_document_errors(self, tmp_path, text, message):
        # invalid JSON anywhere wins, and the last matches list counts
        path = write(tmp_path, "d.json", text)
        with pytest.raises(MalformedRecord, match=message):
            ingest(path, "riot-match-json", n_matches=3)

    def test_last_matches_list_counts(self, tmp_path):
        matches = json.dumps(json.loads(csv_to_riot_json(CSV_FIXTURE))["matches"])
        text = f'{{"matches": ["x"], "total": 6, "matches":\n {matches}, "v": {{"matches": 1}}}}'
        result = ingest(write(tmp_path, "d.json", text), "riot-match-json", n_matches=3)
        plain = ingest(write(tmp_path, "p.csv", CSV_FIXTURE), "csv", n_matches=3)
        assert_same_dataset(result.dataset, plain.dataset)

    @pytest.mark.parametrize("fmt", ["riot-match-json", "json-lines"])
    def test_json_nested_too_deep(self, tmp_path, fmt):
        # deeper than the json module's parser can recurse
        path = write(tmp_path, "d.json", "[" * 100_000 + "]" * 100_000)
        with pytest.raises(MalformedRecord, match="invalid JSON: maximum recursion depth"):
            ingest(path, fmt, n_matches=3)


def two_seat_matches(n_matches):
    """Riot matches of "zed" (seat 1, who wins) and "amy" (seat 2)."""
    return [
        {
            "mapId": 11,
            "gameCreation": 1000 + k,
            "participantIdentities": [
                {"participantId": seat, "player": {"summonerName": name}}
                for seat, name in ((1, "zed"), (2, "amy"))
            ],
            "participants": [
                {
                    "participantId": seat,
                    "stats": {"assists": 1, "deaths": 2, "kills": 3, "goldEarned": 400,
                              "win": seat == 1},
                }
                for seat in (1, 2)
            ],
        }
        for k in range(n_matches)
    ]


class TestRiotErrorOrder:
    """The first malformed match or seat in list order raises, as the first
    malformed row does in csv and json-lines."""

    @pytest.mark.parametrize(
        "without_map_id", [True, False], ids=["missing-map-id", "all-map-ids"]
    )
    def test_first_fault_in_list_order(self, tmp_path, without_map_id):
        # zed's seat in match 0 comes before amy's in match 1 and match 2
        matches = two_seat_matches(3)
        matches[0]["participants"][0]["stats"]["assists"] = -1
        matches[1]["participants"][1]["stats"]["kills"] = "x"
        if without_map_id:
            del matches[2]["mapId"]
        path = write(tmp_path, "d.json", json.dumps({"matches": matches}))
        message = "^match at position 0: assists must be a non-negative number$"
        with pytest.raises(MalformedRecord, match=message):
            ingest(path, "riot-match-json", n_matches=3)
        assert_same_as_reference(path, "riot-match-json")

    def test_seat_before_a_later_match(self, tmp_path):
        matches = two_seat_matches(3)
        matches[1]["participants"][1]["stats"]["kills"] = "x"
        del matches[2]["mapId"]
        path = write(tmp_path, "d.json", json.dumps({"matches": matches}))
        with pytest.raises(MalformedRecord, match=r"^match at position 1: kills is not numeric"):
            ingest(path, "riot-match-json", n_matches=3)
        assert_same_as_reference(path, "riot-match-json")


def riot_match(creation, names, participant_ids=None):
    """A riot match in arena 11 that seats ``names``, the i-th under
    participant id i + 1 unless ``participant_ids`` says otherwise."""
    stats = {"assists": 1, "deaths": 2, "kills": 3, "goldEarned": 400, "win": True}
    return {
        "mapId": 11,
        "gameCreation": creation,
        "participantIdentities": [
            {"participantId": i, "player": {"summonerName": name}}
            for i, name in enumerate(names, 1)
        ],
        "participants": [
            {"participantId": pid, "stats": dict(stats)}
            for pid in participant_ids or range(1, len(names) + 1)
        ],
    }


class TestRiotSeats:
    """A match seats each player at most once: the second seat that resolves
    to a seated player is a malformed match, found in participant order."""

    def refused(self, tmp_path, matches, message):
        path = write(tmp_path, "d.json", json.dumps({"matches": matches}))
        with pytest.raises(MalformedRecord) as err:
            ingest(path, "riot-match-json", n_matches=3)
        assert str(err.value) == message
        assert_same_as_reference(path, "riot-match-json")

    def test_two_identities_with_one_summoner_name(self, tmp_path):
        # p1 played two matches, not a complete history of three
        matches = [riot_match(10, ["p1", "p2"]), riot_match(20, ["p1", "p1"])]
        self.refused(tmp_path, matches, "match 1: player 'p1' has a second seat")

    def test_two_participants_share_one_participant_id(self, tmp_path):
        matches = [riot_match(10, ["p1", "p2"], participant_ids=[2, 2])]
        self.refused(tmp_path, matches, "match 0: player 'p2' has a second seat")

    def test_second_seat_is_found_before_its_stats(self, tmp_path):
        matches = [riot_match(10, ["p1", "p2", "p1"])]
        del matches[0]["participants"][2]["stats"]["kills"]
        self.refused(tmp_path, matches, "match 0: player 'p1' has a second seat")

    def test_earlier_seat_is_reported_first(self, tmp_path):
        # the first seat's count is parsed with its chunk, and still wins
        matches = [riot_match(10, ["p1", "p1"])]
        matches[0]["participants"][0]["stats"]["kills"] = "x"
        message = "match at position 0: kills is not numeric ('x')"
        self.refused(tmp_path, matches, message)


def riot_export(n_players, n_matches, seed=0):
    """A riot export shaped like the match endpoint's: every player's k-th
    match shares a ten-seat match object, and the match list is shuffled."""
    rng = random.Random(seed)
    players = [f"summoner{i:03d}" for i in range(n_players)]
    matches = []
    for k in range(n_matches):
        rng.shuffle(players)
        for first in range(0, n_players, 10):
            seats = list(enumerate(players[first : first + 10], 1))
            stats = [
                {
                    "assists": rng.randint(0, 30),
                    "deaths": rng.randint(0, 20),
                    "kills": rng.randint(0, 25),
                    "goldEarned": rng.randint(5000, 20000),
                    "win": seat <= 5,
                }
                for seat, _ in seats
            ]
            matches.append(
                {
                    "gameId": len(matches),
                    "mapId": 11,
                    "gameCreation": 1_500_000_000_000 + 3_600_000 * k + first,
                    "participantIdentities": [
                        {"participantId": seat, "player": {"summonerName": name}}
                        for seat, name in seats
                    ],
                    "participants": [
                        {"participantId": seat, "stats": s} for (seat, _), s in zip(seats, stats)
                    ],
                }
            )
    rng.shuffle(matches)
    return json.dumps({"matches": matches})


class TestIngestMemory:
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_peak_follows_records(self, tmp_path, fmt):
        # 50,000 records: the reader holds each record once, in typed
        # columns, and retention adds a few record-length arrays to them
        spec = SyntheticSpec(n_players=500, group_sizes=(167, 167, 166))
        generate_synthetic(spec).dataset.write_csv(tmp_path / "d.csv")
        path = tmp_path / "d.csv"
        if fmt == "json-lines":
            path = write(tmp_path, "d.jsonl", csv_to_jsonl(path.read_text(encoding="utf-8")))
        result = ingest(path, fmt)
        assert result.records_read == 50_000
        peak = traced_peak(lambda: ingest(path, fmt))
        assert peak <= 4.5 * result.dataset.counts.nbytes, (peak, result.dataset.counts.nbytes)


class TestRiotMemory:
    def test_peak_below_the_whole_document_reference(self, tmp_path):
        # the reader decodes one match at a time; a parsed tree of the whole
        # export alone would bring its peak up to the reference's
        path = write(tmp_path, "d.json", riot_export(n_players=40, n_matches=100))
        result = ingest(path, "riot-match-json")
        expect = ingest_by_records(path, "riot-match-json")
        assert result.dataset.player_ids == expect["player_ids"]
        np.testing.assert_array_equal(result.dataset.counts, expect["counts"])
        streamed = traced_peak(lambda: ingest(path, "riot-match-json"))
        whole = traced_peak(lambda: ingest_by_records(path, "riot-match-json"))
        assert streamed <= 0.6 * whole, (streamed, whole)

    def test_peak_follows_seats_not_text(self, tmp_path):
        # 50,000 seats: the reader holds typed columns of them and a block of
        # the text, so it peaks near the csv reader on the same records
        riot = write(tmp_path, "d.json", riot_export(n_players=500, n_matches=100))
        ingest(riot, "riot-match-json").dataset.write_csv(tmp_path / "d.csv")
        riot_peak = traced_peak(lambda: ingest(riot, "riot-match-json"))
        csv_peak = traced_peak(lambda: ingest(tmp_path / "d.csv", "csv"))
        assert riot_peak <= 1.5 * csv_peak, (riot_peak, csv_peak)


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


# json-lines lines that json.loads rejects for reasons other than the digit limit
INVALID_JSON_LINES = [
    '{"player_id": "alice"}   x',
    '{"player_id": "alice"}\t\tx',
    '{"player_id": "alice"},',
    '{"a": 1} {"b": 2}',
    '{"a": NaN} 1',
    "[1, 2",
    "nul",
    '{"a" 1}',
    '"abc',
    '{"player_id": "\\ud800',
    "\ufeff{}",
    "[" * 100_000,
]


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts integers of any length")
class TestIntegerDigitLimit:
    """A JSON integer past Python's digit limit is invalid JSON, as
    ``json.loads`` rejects it; in json-lines, with its line and the message
    ``json.loads`` gives, as for every line it rejects."""

    LONG = "9" * (DIGIT_LIMIT + 1)

    def test_json_lines(self, tmp_path):
        lines = csv_to_jsonl(CSV_FIXTURE).splitlines(keepends=True)
        long_int = lines[2].replace('"assists": 2,', f'"assists": {self.LONG},').strip()
        for bad in [long_int, *INVALID_JSON_LINES]:
            with pytest.raises((ValueError, RecursionError)) as loads_error:
                json.loads(bad)
            lines[2] = bad + "\n"
            path = write(tmp_path, "d.jsonl", "".join(lines))
            with pytest.raises(MalformedRecord) as got:
                ingest(path, "json-lines", n_matches=3)
            assert str(got.value) == f"line 3: invalid JSON: {loads_error.value}"
            assert got.value.line == 3
            assert_same_as_reference(path, "json-lines")
        assert str(loads_error.value).startswith("maximum recursion depth")

    def test_riot_export(self, tmp_path):
        text = csv_to_riot_json(CSV_FIXTURE)
        path = write(tmp_path, "d.json", text.replace(": 9500", f": {self.LONG}"))
        with pytest.raises(MalformedRecord, match="^invalid JSON: Exceeds the limit") as got:
            ingest(path, "riot-match-json", n_matches=3)
        assert got.value.line is None
        assert_same_as_reference(path, "riot-match-json")


def three_seat_matches(rows):
    """Riot matches of csv-style rows, three consecutive rows to a match
    (so that a chunk of 512 rows ends inside a match, and the three must
    name three players), the k-th match created at k; a field of digits is
    a number, any other a string."""
    keys = ("assists", "deaths", "kills", "goldEarned", "win")
    matches = []
    for first in range(0, len(rows), 3):
        seats = [
            [int(v) if v.isdigit() else v for v in row.split(",")]
            for row in rows[first : first + 3]
        ]
        matches.append(
            {
                "mapId": seats[0][7],
                "gameCreation": len(matches),
                "participantIdentities": [
                    {"participantId": n, "player": {"summonerName": seat[0]}}
                    for n, seat in enumerate(seats, 1)
                ],
                "participants": [
                    {"participantId": n, "stats": dict(zip(keys, [*seat[2:6], seat[6] == 1]))}
                    for n, seat in enumerate(seats, 1)
                ],
            }
        )
    return matches


class TestChunkBoundary:
    """At the default chunk size, the first bad row (a riot seat too) in
    file order raises, with its line, whether it ends one chunk or starts
    the next."""

    @pytest.mark.parametrize("fmt", ["csv", "json-lines", "riot-match-json"])
    @pytest.mark.parametrize(
        "bad", [(0,), (1,), (0, 1), (1, 2)], ids=["last", "next", "both", "later"]
    )
    def test_first_bad_row_raises(self, tmp_path, fmt, bad):
        # bad rows among: the last row of the first chunk, the first row of
        # the second, the last row of the second
        chunk = data_module._CHUNK
        bad_rows = [(chunk - 1, chunk, 2 * chunk - 1)[b] for b in bad]
        rows = [
            f"p{r % 10},{r // 10},{'x' if r in bad_rows else 1},2,3,4000,1,11"
            for r in range(3 * chunk)
        ]
        text = "\n".join([",".join(CSV_HEADER), *rows, ""])
        if fmt == "json-lines":
            text = "".join(
                json.dumps(dict(zip(CSV_HEADER, row.split(",")))) + "\n" for row in rows
            )
        line = bad_rows[0] + (2 if fmt == "csv" else 1)
        message = f"^line {line}: \\w+ record: assists is not numeric"
        if fmt == "riot-match-json":
            text = json.dumps({"matches": three_seat_matches(rows)})
            message = f"^match at position {bad_rows[0] // 3}: assists is not numeric"
        path = write(tmp_path, "export", text)
        with pytest.raises(MalformedRecord, match=message):
            ingest(path, fmt, n_matches=10)
        assert_same_as_reference(path, fmt)

    @pytest.mark.parametrize("later", [True, False], ids=["match-after", "match-before"])
    def test_unparsed_riot_seat_and_a_match_without_map_id(self, tmp_path, later):
        # the bad seat opens the second chunk, which is still filling when
        # the match without mapId is read: the first of the two raises
        chunk = data_module._CHUNK
        rows = [f"p{r % 10},{r // 10},1,2,3,4000,1,11" for r in range(3 * chunk)]
        matches = three_seat_matches(rows)
        matches[chunk // 3]["participants"][chunk % 3]["stats"]["assists"] = "x"
        without = chunk // 3 + (2 if later else -2)
        del matches[without]["mapId"]
        path = write(tmp_path, "d.json", json.dumps({"matches": matches}))
        message = (
            f"^match at position {chunk // 3}: assists is not numeric"
            if later
            else f"^match {without}: mapId is not an integer"
        )
        with pytest.raises(MalformedRecord, match=message):
            ingest(path, "riot-match-json", n_matches=10)
        assert_same_as_reference(path, "riot-match-json")


def with_bad_line(text, line_no, newline="\n"):
    """``text`` as bytes with its line ``line_no`` (from 1) replaced by the
    undecodable byte 0xff."""
    lines = text.splitlines()
    lines[line_no - 1] = "\udcff"  # surrogateescape spells the byte 0xff
    return newline.join(lines).encode("utf-8", "surrogateescape") + newline.encode()


class TestUndecodable:
    """Invalid UTF-8 is a MalformedRecord at the first undecodable line."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_third_line(self, tmp_path, fmt, newline):
        text = CSV_FIXTURE if fmt == "csv" else csv_to_jsonl(CSV_FIXTURE)
        path = tmp_path / "d"
        path.write_bytes(with_bad_line(text, 3, newline))
        with pytest.raises(MalformedRecord, match="^line 3: invalid UTF-8$"):
            ingest(path, fmt, n_matches=3)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_line_past_the_first_read(self, tmp_path, fmt):
        # the lines before the undecodable one span many decoded blocks
        rows = "".join(f"carol,{k},1,1,1,1000,1,11\n" for k in range(2000))
        text = CSV_FIXTURE + rows
        if fmt == "json-lines":
            text = csv_to_jsonl(text)
        n_lines = len(text.splitlines())
        path = tmp_path / "d"
        path.write_bytes(with_bad_line(text + "x\n", n_lines + 1))
        with pytest.raises(MalformedRecord, match=f"^line {n_lines + 1}: invalid UTF-8$"):
            ingest(path, fmt, n_matches=3)

    def test_earlier_bad_row_reported_first(self, tmp_path):
        # the malformed row and the undecodable line share one decoded block
        bad = CSV_FIXTURE.replace("alice,1,4,2,6,9500,0,11", "alice,1,x,2,6,9500,0,11")
        path = tmp_path / "d.csv"
        path.write_bytes(with_bad_line(bad, 5))
        with pytest.raises(MalformedRecord, match="^line 3: .*assists"):
            ingest(path, "csv", n_matches=3)

    def test_riot_export(self, tmp_path):
        text = json.dumps(json.loads(csv_to_riot_json(CSV_FIXTURE)), indent=1)
        path = tmp_path / "d.json"
        path.write_bytes(with_bad_line(text, 7))
        with pytest.raises(MalformedRecord, match="^line 7: invalid UTF-8$"):
            ingest(path, "riot-match-json", n_matches=3)


# ---------------------------------------------------------------------------
# the columnar readers against the record-at-a-time reference

N_MATCHES = 2
# troublesome values of each field; "count" stands for the four features
TEXT_TOKENS = {
    "player_id": ["", "a,b", 'q"q', "two\nlines", " a"],
    "match_index": ["", "-1", "1.0", "+1", " 1", "x", "99999999999999999999999"],
    "count": ["", "-1", "-0", "1.5", " 2", "1_0", "1e3", "nan", "inf", "1e400", "0x1", "٣"],
    "winner": ["", "2", "True", "true", "1.0", " 1", "-0"],
    "arena_id": ["", "x", "+11", "11.0", "٣", "99999999999999999999999"],
}
JSON_TOKENS = {
    "player_id": [None, "", 0, 1.5, True, [1], {}],
    "match_index": [None, "", -1, 1.0, "1", "2.0", True, 2**70, [1]],
    "count": [None, "", -1, 1.5, True, 2**70, 10**400, float("nan"), "1", "x", [1], {}],
    "winner": [None, "", 2, 1.0, "1", "True", [1]],
    "arena_id": [None, "", "11", 11.0, True, 2**70, "x"],
}
FIELD_KIND = ("player_id", "match_index", *["count"] * len(FEATURES), "winner", "arena_id")
ODD_CSV_LINES = ["", "a,0,1", "a,0,1,1,1,1,1,11,extra", '"a\n",0']
ODD_JSON_LINES = ["", "  ", "not json", "[1, 2]", '{"a": 1} x', "\ufeff{}"]


def fuzzed_records(rng):
    """Player histories of up to three matches, some in another arena,
    sometimes with a repeated key, every field replaced by a troublesome
    token at the file's own rate (often zero)."""
    rows = []
    for player in rng.sample(["a", "b", "c"], rng.randint(1, 3)):
        for k in range(rng.choice([0, 1, 2, 2, 3, 3])):
            counts = [rng.randint(0, 30) for _ in FEATURES]
            rows.append([player, k, *counts, rng.randint(0, 1), rng.choice([11] * 6 + [12])])
    if rows and rng.random() < 0.1:
        rows.append(list(rng.choice(rows)))
    rng.shuffle(rows)
    rate = rng.choice([0.0, 0.0, 0.02, 0.05, 0.15])
    return rows, lambda value, tokens: rng.choice(tokens) if rng.random() < rate else value


def fuzzed_csv(rng):
    rows, fuzz = fuzzed_records(rng)
    out = io.StringIO()
    out.write(fuzz(",".join(CSV_HEADER), ["a,b,c", ""]) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([fuzz(str(v), TEXT_TOKENS[kind]) for v, kind in zip(row, FIELD_KIND)])
        out.write(fuzz("", [line + "\n" for line in ODD_CSV_LINES]))
    return out.getvalue()


def fuzzed_json_lines(rng):
    rows, fuzz = fuzzed_records(rng)
    lines = []
    for row in rows:
        row[6] = rng.choice([row[6], bool(row[6])])  # winner: 0/1 or a JSON boolean
        record = {k: fuzz(v, JSON_TOKENS[t]) for k, v, t in zip(CSV_HEADER, row, FIELD_KIND)}
        record.pop(fuzz(None, CSV_HEADER), None)
        lines.append(fuzz(json.dumps(record), ODD_JSON_LINES))
    return "\n".join(lines) + "\n"


def fuzzed_riot(rng):
    rows, fuzz = fuzzed_records(rng)
    # players' k-th matches in one arena share match objects, at most three
    # to a match, created in the order of k
    rows.sort(key=lambda row: (row[1], row[-1]))
    matches = []
    for row in rows:
        last = matches[-1] if matches else None
        if last is None or last["key"] != (row[1], row[-1]) or len(last["seats"]) == 3:
            last = {"key": (row[1], row[-1]), "seats": []}
            matches.append(last)
        last["seats"].append(row)
    docs = []
    for match in matches:
        k, arena = match["key"]
        doc = {
            "mapId": fuzz(arena, [None, "11", "x", 2**70]),
            "gameCreation": fuzz(100 * k + rng.randint(0, 99), [None, "x", 2**70, -3]),
            "participantIdentities": [],
            "participants": [],
        }
        for seat, (player, _, *counts, win, _) in enumerate(match["seats"], 1):
            name = fuzz(player, ["", None, 0, 7])
            doc["participantIdentities"].append(
                {"participantId": seat, "player": {"summonerName": name}}
            )
            keys = ("assists", "deaths", "kills", "goldEarned")
            stats = {key: fuzz(v, JSON_TOKENS["count"]) for key, v in zip(keys, counts)}
            stats["win"] = fuzz(bool(win), JSON_TOKENS["winner"])
            doc["participants"].append({"participantId": fuzz(seat, [seat + 1]), "stats": stats})
        docs.append({k: v for k, v in doc.items() if v is not None})
    rng.shuffle(docs)
    return riot_document(rng, docs)


def riot_document(rng, docs):
    """The text of a riot export of ``docs``: indented or not, with other
    top-level keys, a repeated ``matches`` key, a syntax error after a
    malformed match, trailing data, a BOM, or not an object at all."""
    indent = rng.choice([None, None, 0, 1, "\t"])
    separators = rng.choice([(", ", ": "), (",", ":"), (" ,\r\n\t", " \n: ")])

    def dump(value):
        return json.dumps(value, indent=indent, separators=separators)

    variant = rng.choice(["plain"] * 6 + ["broken", "trailing", "bom", "not-object"])
    if variant == "broken":
        docs.insert(rng.randint(0, len(docs)), "not a match")
    members = [(rng.choice(['"matches"', '"m\\u0061tches"']), dump(docs))]
    others = [("gameVersion", "7.1"), ("meta", {"matches": 5}), ("total", len(docs))]
    for key, value in rng.sample(others, rng.choice([0, 0, 1, 2])):
        members.insert(rng.randint(0, len(members)), (json.dumps(key), dump(value)))
    if rng.random() < 0.2:
        value = rng.choice([[], docs[:1], docs[::-1], 5, None, {"a": 1}, ["x"]])
        members.insert(rng.randint(0, len(members)), ('"matches"', dump(value)))
    if variant == "broken":
        members.append(('"after"', rng.choice(["[1,]", "tru", '{"a" 1}', "'x'"])))
    item, colon = separators
    text = "{" + item.join(key + colon + value for key, value in members) + "}"
    text = rng.choice(["", " ", "\n\t"]) + text + rng.choice(["", "\n", " \r\n"])
    if variant == "trailing":
        text += rng.choice([" x", "{}", "]", "\n0", ","])
    elif variant == "bom":
        text = "\ufeff" + text
    elif variant == "not-object":
        text = dump(rng.choice([docs, "matches", 3, None, True, [{"matches": docs}]]))
    return text


def assert_same_as_reference(path, fmt):
    try:
        expect = ingest_by_records(path, fmt, n_matches=N_MATCHES)
    except (MalformedRecord, DuplicateKey, NoPlayersRetained) as exc:
        with pytest.raises((MalformedRecord, DuplicateKey, NoPlayersRetained)) as got:
            ingest(path, fmt, n_matches=N_MATCHES)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "line", None) == getattr(exc, "line", None)
        return
    result = ingest(path, fmt, n_matches=N_MATCHES)
    assert result.dataset.player_ids == expect["player_ids"]
    np.testing.assert_array_equal(result.dataset.counts, expect["counts"])
    np.testing.assert_array_equal(result.dataset.winners, expect["winners"])
    for name in ("players_retained", "players_dropped", "records_read", "records_other_arena"):
        assert getattr(result, name) == expect[name], name


class TestReadersMatchReference:
    """Fuzzed exports: the columnar readers reject exactly what the
    record-at-a-time reference rejects (same error, message and line) and
    otherwise build the same dataset.  Chunks of three rows make every file
    span several parse chunks."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(data_module, "_CHUNK", 3)

    @pytest.mark.parametrize(
        "fmt, make",
        [("csv", fuzzed_csv), ("json-lines", fuzzed_json_lines), ("riot-match-json", fuzzed_riot)],
    )
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(seed=hst.integers(0, 2**32 - 1))
    def test_fuzzed_export(self, fmt, make, seed):
        # the export is drawn from a seeded generator, so that every token
        # keeps its intended frequency; a failure reports its seed
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "export"
            path.write_text(make(random.Random(seed)), encoding="utf-8")
            assert_same_as_reference(path, fmt)


class TestRiotBlocks:
    """The riot reader at blocks of a few characters: a token, a line or a
    value that a block edge splits reads as in the whole text."""

    @pytest.fixture(params=[1, 7, 64])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(tensor_module, "_BLOCK", request.param)
        return request.param

    @pytest.mark.parametrize("text, message", RIOT_DOCUMENT_ERRORS)
    def test_document_errors(self, tmp_path, block, text, message):
        TestRiotShapes().test_document_errors(tmp_path, text, message)

    def test_last_matches_list_counts(self, tmp_path, block):
        TestRiotShapes().test_last_matches_list_counts(tmp_path)

    def test_undecodable_line(self, tmp_path, block):
        TestUndecodable().test_riot_export(tmp_path)

    def test_crlf_line_past_the_first_block(self, tmp_path, block):
        text = json.dumps(json.loads(csv_to_riot_json(CSV_FIXTURE)), indent=1)
        assert len("\r\n".join(text.splitlines()[:39])) > 64
        path = tmp_path / "d.json"
        path.write_bytes(with_bad_line(text, 40, "\r\n"))
        with pytest.raises(MalformedRecord) as whole:
            data_module._raise_whole_text_error(path)
        with pytest.raises(MalformedRecord, match="^line 40: invalid UTF-8$") as read:
            ingest(path, "riot-match-json", n_matches=3)
        assert read.value.line == whole.value.line == 40

    def test_members_around_matches_are_skipped(self, tmp_path, block):
        # array members before and after the matches, whose strings hold the
        # characters that end a value and which nest a matches list of their own
        matches = json.loads(csv_to_riot_json(CSV_FIXTURE))["matches"]
        other = ["]", "}", ",", '"]},', {"matches": matches[:1]}, [["x]", {"a": "},"}]]]
        text = json.dumps({"before": other, "matches": matches, "after": other[::-1]}, indent=1)
        path = write(tmp_path, "d.json", text)
        assert ingest(path, "riot-match-json", n_matches=N_MATCHES).players_retained == 2
        assert_same_as_reference(path, "riot-match-json")

    @pytest.mark.parametrize("cut", range(1, 16))
    @pytest.mark.parametrize("number", ['"goldEarned": ', '"total": '], ids=["gold", "total"])
    def test_number_split_by_a_block_edge(self, tmp_path, monkeypatch, number, cut):
        # the first block ends inside the number or just past it; a number
        # cut in its digits, fraction or exponent must not be taken as it stands
        doc = json.loads(csv_to_riot_json(CSV_FIXTURE))
        doc["matches"][0]["participants"][0]["stats"]["goldEarned"] = 12345678901
        text = json.dumps({"total": 1.2345678901e25, "matches": doc["matches"]})
        path = write(tmp_path, "d.json", text)
        whole = ingest(path, "riot-match-json", n_matches=3)
        assert 12345678901 in whole.dataset.counts
        monkeypatch.setattr(tensor_module, "_BLOCK", text.index(number) + len(number) + cut)
        assert_same_dataset(ingest(path, "riot-match-json", n_matches=3).dataset, whole.dataset)

    @pytest.mark.parametrize("size", [7, 64])
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(seed=hst.integers(0, 2**32 - 1))
    def test_fuzzed_export(self, monkeypatch, size, seed):
        monkeypatch.setattr(tensor_module, "_BLOCK", size)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "export"
            path.write_text(fuzzed_riot(random.Random(seed)), encoding="utf-8")
            assert_same_as_reference(path, "riot-match-json")
