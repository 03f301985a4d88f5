"""Property test of the command line's validation boundary.

``main(argv)`` runs over fuzzed flags of all four subcommands, fuzzed input
files, spec files and ``rank_selection.json`` files.  Whatever the input, a
run exits with 0, 1 or 2 (or argparse's ``SystemExit(2)``), lets no other
exception escape, says why it failed on stderr, and a failed run leaves
``--out-dir`` byte for byte as it was.  A run that succeeds writes nothing
to stderr but ``warning:`` lines.

Only valid values that are expensive are bounded: at most 2 restarts, 40
sweeps, rank spans of 3, and specs of 40 players and 12 matches.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

from matchfactor import kruskal_tensor, planted_factors, save_tensor3
from matchfactor.cli import _tensor_key, main

from test_cli import CSV_FIXTURE
from test_data import csv_to_jsonl, csv_to_riot_json
from test_tensor import MALFORMED_CONTAINERS

# what flags are fuzzed with besides their valid values; CHEAP_JUNK serves
# the flags where the big values are valid, but expensive
BIG = [str(10**12), str(10**30)]
NOT_INTEGERS = ["x", "", "nan", "inf", "1e309"]
CHEAP_JUNK = ["0", "-1", *NOT_INTEGERS]
JUNK = [*CHEAP_JUNK, *BIG]

# input files that are not what their stage reads
UNREADABLE = ["bad-json", "bad-utf8", "directory", "missing"]
BAD_CONTAINERS = [f"malformed-{case}" for case in MALFORMED_CONTAINERS] + UNREADABLE
EXPORTS = ["export.csv", "export.jsonl", "export.riot.json"]

# the planted input container's tensor
PLANTED = kruskal_tensor([1.0, 1.0], *planted_factors(12, 4, 10, 2, seed=0)[:3])

# the states of an analyze run's rank_selection.json; None: absent
SELECTIONS = [
    None,
    json.dumps({"selected_rank": 2, "tensor": _tensor_key(PLANTED)}).encode(),
]
BAD_SELECTIONS = [
    json.dumps({"selected_rank": 2}).encode(),  # no tensor recorded
    json.dumps({"selected_rank": 0}).encode(),
    json.dumps({"selected_rank": 10**30}).encode(),
    json.dumps({"selected_rank": "x"}).encode(),
    b"[3]",
    b"{bad",
    b"\xff",
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of every named input file (``missing`` is left out)."""
    root = tmp_path_factory.mktemp("inputs")
    winner = np.random.default_rng(0).integers(0, 2, (12, 10)).tolist()
    save_tensor3(root / "planted", PLANTED, {"winner": winner})
    for case, (text, _) in MALFORMED_CONTAINERS.items():
        (root / f"malformed-{case}").write_text(text)
    (root / "bad-json").write_text("{bad")
    (root / "bad-utf8").write_bytes(b"\xff")
    (root / "directory").mkdir()
    (root / "export.csv").write_text(CSV_FIXTURE)
    (root / "export.jsonl").write_text(csv_to_jsonl(CSV_FIXTURE))
    (root / "export.riot.json").write_text(csv_to_riot_json(CSV_FIXTURE))
    return root


def one_in_ten(bad, good):
    """``bad`` one time in ten, else ``good``: a run then often has every
    value but one valid, and so reaches the checks behind argparse's."""
    return hst.integers(0, 9).flatmap(lambda n: hst.sampled_from(bad if n == 0 else good))


def flag(name, valid, junk=JUNK, omit=True):
    """The argv fragment of one flag: a valid value or, if ``omit``, nothing,
    and one time in ten a junk value."""
    return one_in_ten(
        [[f"{name}={v}"] for v in junk], [[f"{name}={v}"] for v in valid] + ([[]] if omit else [])
    )


def fit_flags():
    """Flags shared by rank-scan and analyze; restarts and sweeps are never
    left at their expensive defaults."""
    return [
        flag("--input", ["planted"], BAD_CONTAINERS, omit=False),
        flag("--restarts", ["1", "2"], CHEAP_JUNK, omit=False),
        flag("--max-iters", ["1", "40"], CHEAP_JUNK, omit=False),
        flag("--seed", ["0", "1", *BIG], CHEAP_JUNK),
        flag("--tol", ["1e-6", *BIG], CHEAP_JUNK),
        flag("--threads", ["1", "2", "0", "-1", *BIG], NOT_INTEGERS),  # ignored, any integer
    ]


JSON_JUNK = hst.sampled_from([None, True, "x", 1.5, -1, 0, [], {}, [None]])


@hst.composite
def spec_docs(draw):
    """A small valid spec, with up to two keys replaced by junk or added, or
    a document that is not an object."""
    if draw(hst.integers(0, 9)) == 0:
        return draw(hst.sampled_from([[1], "x", 5, None]))
    rank = draw(hst.integers(1, 3))
    sizes = draw(hst.lists(hst.integers(0, 13), min_size=rank, max_size=rank))
    doc = {
        # no group sizes sum to 10**12
        "n_players": draw(one_in_ten([10**12], [sum(sizes)])),
        "n_matches": draw(hst.integers(1, 12)),
        "rank": rank,
        "group_sizes": sizes,
        "signatures": [draw(hst.lists(hst.integers(0, 3), min_size=1, max_size=3)) for _ in sizes],
        "win_bias": draw(hst.lists(hst.floats(-0.5, 0.5), min_size=rank, max_size=rank)),
        "noise": draw(one_in_ten([1e306], [0.0, 0.05, 1.0])),
        "seed": draw(one_in_ten([-1], [0, 1, 10**12, 10**30])),
        "exact": draw(hst.booleans()),
        "feature_scales": draw(
            hst.lists(hst.sampled_from([25.0, 1.0, 0.0, -3.0, 1e300]), min_size=4, max_size=4)
        ),
        "arena_id": draw(hst.sampled_from([11, 0, -1, 10**30])),
    }
    for key in draw(hst.lists(hst.sampled_from([*doc, "unknown"]), max_size=2, unique=True)):
        doc[key] = draw(JSON_JUNK)
    return doc


@hst.composite
def runs(draw):
    """A subcommand's argv (with its input files named, not yet placed), the
    spec document, and the rank_selection.json bytes (None: absent)."""
    command = draw(hst.sampled_from(["ingest", "rank-scan", "analyze", "synth"]))
    spec, selection = None, None
    if command == "ingest":
        parts = [
            flag("--input", EXPORTS, UNREADABLE, omit=False),
            flag("--format", ["csv", "json-lines", "riot-match-json"], ["x"]),
            flag("--arena-id", ["11"]),
            flag("--matches", ["1", "3"]),
            hst.sampled_from([[], ["--per-player"]]),
        ]
    elif command == "rank-scan":
        junk = [
            "3:1", "0:2", "39:41", "1:1000000000000", "-1000000000000:3", f"1:{10**30}", "2-3"
        ]
        parts = [flag("--ranks", ["1", "2", "1:3"], junk + CHEAP_JUNK), *fit_flags()]
    elif command == "analyze":
        parts = [
            flag("--rank", ["1", "2", "3"]),
            flag("--k", ["1", "2", "4"]),
            flag("--membership-fraction", ["0.5", "1"]),
            flag("--kde-mode", ["player-mean", "raw"], ["x"]),
            *fit_flags(),
        ]
        selection = draw(one_in_ten(BAD_SELECTIONS, SELECTIONS))
    else:
        parts = [
            flag("--spec", ["spec.json"], UNREADABLE, omit=False),
            flag("--seed", ["0", "1", *BIG], CHEAP_JUNK),
        ]
        spec = draw(spec_docs())
    argv = [command] + [arg for part in parts for arg in draw(part)]
    return argv, spec, selection


def resolve(arg, inputs, work):
    """``arg`` with a file name resolved: the spec of this run in ``work``,
    every other input in ``inputs``."""
    name, _, value = arg.partition("=")
    if name == "--spec" and value == "spec.json":
        return f"{name}={work / value}"
    if name in ("--input", "--spec"):
        return f"{name}={inputs / value}"
    return arg


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


@settings(max_examples=150, deadline=None)
@given(run=runs())
def test_main_fails_cleanly_or_succeeds(inputs, tmp_path_factory, run):
    argv, spec, selection = run
    work = tmp_path_factory.mktemp("run")
    (work / "spec.json").write_text(json.dumps(spec))
    out = work / "out"
    out.mkdir()
    (out / "factor_model.json").write_text("from an earlier run\n")
    if selection is not None:
        (out / "rank_selection.json").write_bytes(selection)
    argv = [resolve(arg, inputs, work) for arg in argv]
    before = snapshot(out)

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([*argv, f"--out-dir={out}"])
        except SystemExit as exc:  # argparse rejected a flag
            assert exc.code == 2
            assert stderr.getvalue().startswith("usage: ")
            code = None
    assert code in (0, 1, 2, None)
    event(f"{argv[0]} exit {code}")
    if code == 0:
        assert all(line.startswith("warning: ") for line in stderr.getvalue().splitlines())
    else:
        if code is not None:
            assert stderr.getvalue().splitlines()[-1].startswith("error: ")
        assert snapshot(out) == before
