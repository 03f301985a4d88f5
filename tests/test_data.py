import csv
import io
import json
import os
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import matchfactor.data as data_module
import matchfactor.tensor as tensor_module
from matchfactor import (
    CSV_HEADER,
    FEATURES,
    Dataset,
    DuplicateKey,
    MalformedRecord,
    NoPlayersRetained,
    denormalize,
    ingest,
    normalize_minmax,
)
from matchfactor.synthetic import SyntheticSpec, generate_synthetic

from helpers import ingest_by_records, write_csv_by_values

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

    def test_denormalize_recovers_counts(self):
        ds = self.make_dataset()
        normalized = normalize_minmax(ds)
        np.testing.assert_allclose(
            denormalize(normalized), ds.feature_counts(), atol=1e-9
        )

    def test_per_player_mode(self):
        ds = self.make_dataset()
        normalized = normalize_minmax(ds, per_player=True)
        assert normalized.per_player
        assert normalized.feature_min.shape == (2, 4)
        np.testing.assert_allclose(
            denormalize(normalized), ds.feature_counts(), atol=1e-9
        )

    def test_player_order_permutes_slices(self):
        ds = self.make_dataset()
        flipped = Dataset(("p2", "p1"), ds.counts[::-1], ds.winners[::-1], arena_id=11)
        a = normalize_minmax(ds).tensor
        b = normalize_minmax(flipped).tensor
        np.testing.assert_array_equal(a[0], b[1])
        np.testing.assert_array_equal(a[1], b[0])


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
        w = result.dataset.winner_matrix()
        np.testing.assert_array_equal(w, [[1, 0, 1], [0, 1, 0]])


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

    @pytest.mark.parametrize("fmt", ["riot-match-json", "json-lines"])
    def test_json_nested_too_deep(self, tmp_path, fmt):
        # deeper than the json module's parser can recurse
        path = write(tmp_path, "d.json", "[" * 100_000 + "]" * 100_000)
        with pytest.raises(MalformedRecord, match="invalid JSON: maximum recursion depth"):
            ingest(path, fmt, n_matches=3)


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
ODD_JSON_LINES = ["", "  ", "not json", "[1, 2]", '{"a": 1} x']


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
    return json.dumps({"matches": docs})


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
