import argparse
import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchfactor
from matchfactor import kruskal_tensor, load_tensor3, patterns, planted_factors, save_tensor3
from matchfactor.cli import build_parser, main

from test_data import RIOT_SHAPES, csv_to_jsonl, csv_to_riot_json, riot_fixture_with, with_bad_line
from test_decompose import fail_seeds
from test_tensor import MALFORMED_CONTAINERS

CSV_FIXTURE = """player_id,match_index,assists,deaths,kills,gold,winner,arena_id
alice,0,3,1,5,9000,1,11
alice,1,4,2,6,9500,0,11
alice,2,2,0,7,10000,1,11
bob,0,8,3,1,7000,0,11
bob,1,9,4,2,7500,1,11
bob,2,7,2,3,8000,0,11
"""

# carol's history is short and deaths is constant over alice and bob: at
# --matches 2 ingest drops one player and flags one constant feature
WARNED_CSV = """player_id,match_index,assists,deaths,kills,gold,winner,arena_id
alice,0,3,1,5,9000,1,11
alice,1,4,1,6,9500,0,11
bob,0,8,1,1,7000,0,11
bob,1,9,1,2,7500,1,11
carol,0,2,4,2,6000,1,11
"""
INGEST_WARNINGS = [
    "dropped 1 players with incomplete histories",
    "constant features mapped to zeros: mask=[False, True, False, False]",
]

SMALL_SPEC = {
    "n_players": 36,
    "n_matches": 24,
    "rank": 3,
    "signatures": [[0, 3], [2, 3], [1, 2, 3]],
    "group_sizes": [12, 12, 12],
    "noise": 0.03,
    "seed": 0,
    "win_bias": [0.05, -0.05, 0.0],
    "exact": False,
}


def run(*args):
    return main([str(a) for a in args])


def synth_and_ingest(tmp_path, spec=None, seed=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec or SMALL_SPEC))
    out = tmp_path / "out"
    args = ["synth", "--spec", spec_path, "--out-dir", out]
    if seed is not None:
        args += ["--seed", seed]
    assert run(*args) == 0
    assert (
        run(
            "ingest",
            "--input",
            out / "synthetic.csv",
            "--matches",
            (spec or SMALL_SPEC)["n_matches"],
            "--out-dir",
            out,
        )
        == 0
    )
    return out


def last_line_of(code, *args):
    """Run ``code`` in a fresh interpreter (its argv after ``args``) and
    return the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(matchfactor.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def loaded_scipy_modules(code, *args):
    """The scipy modules loaded when ``code`` ends in a fresh interpreter."""
    probe = code + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return last_line_of(probe, *args)


class TestStartup:
    def test_import_leaves_scipy_unloaded(self):
        assert loaded_scipy_modules("import sys, matchfactor.cli") == "[]"

    def test_no_stage_loads_scipy(self, tmp_path):
        # numpy is the only runtime dependency: the Welch tail, the component
        # assignment and the silhouette use numpy and math alone
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        out = tmp_path / "out"
        stages = [
            ["synth", "--spec", str(spec), "--out-dir", str(out)],
            ["ingest", "--input", str(out / "synthetic.csv"), "--matches", "24", "--out-dir", str(out)],
            ["analyze", "--input", str(out / "tensor.json"), "--rank", "3", "--restarts", "2", "--out-dir", str(out)],
        ]
        code = (
            "import json, sys\n"
            "from matchfactor.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv"
        )
        assert loaded_scipy_modules(code, json.dumps(stages)) == "[]"
        tests = json.loads((out / "win_rate_tests.json").read_text())
        assert tests["pairwise"]  # the Welch tests ran

    @pytest.mark.skipif(
        int(np.__version__.split(".")[0]) < 2, reason="before numpy 2, `import numpy` loads numpy.random"
    )
    def test_no_stage_loads_numpy_random(self, tmp_path):
        # every draw goes through the package's own seeded generator; numpy.random
        # would add about 6 MB to each stage that draws
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        assert run("synth", "--spec", spec, "--out-dir", tmp_path / "records") == 0
        records = (tmp_path / "records" / "synthetic.csv").read_text()
        (tmp_path / "records.jsonl").write_text(csv_to_jsonl(records))
        (tmp_path / "records.riot.json").write_text(csv_to_riot_json(records))
        out = tmp_path / "out"
        ingest = ["--matches", "24", "--out-dir", str(out)]
        stages = {
            "synth": ["synth", "--spec", str(spec), "--out-dir", str(out)],
            "ingest json-lines": [
                "ingest", "--input", str(tmp_path / "records.jsonl"), "--format", "json-lines", *ingest
            ],
            "ingest riot-match-json": [
                "ingest", "--input", str(tmp_path / "records.riot.json"), "--format", "riot-match-json",
                *ingest,
            ],
            "ingest csv": ["ingest", "--input", str(out / "synthetic.csv"), *ingest],
            "rank-scan": [
                "rank-scan", "--input", str(out / "tensor.json"), "--ranks", "1:3", "--restarts", "2",
                "--out-dir", str(out),
            ],
            "analyze": ["analyze", "--input", str(out / "tensor.json"), "--restarts", "2", "--out-dir", str(out)],
        }
        code = (
            "import json, sys\n"
            "from matchfactor.cli import main\n"
            "loaded = {}\n"
            "for stage, argv in json.loads(sys.argv[1]).items():\n"
            "    assert main(argv) == 0, argv\n"
            "    loaded[stage] = 'numpy.random' in sys.modules\n"
            "print(json.dumps(loaded))"
        )
        loaded = json.loads(last_line_of(code, json.dumps(stages)))
        assert loaded == dict.fromkeys(stages, False)
        assert json.loads((out / "clusters.json").read_text())["k"] >= 2  # analyze clustered

    @pytest.mark.skipif(
        int(np.__version__.split(".")[0]) < 2, reason="before numpy 2, `import numpy` loads numpy.ma"
    )
    def test_analyze_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.percentile and a bare np.unique import numpy.ma on first use
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        out = tmp_path / "out"
        assert run("synth", "--spec", spec, "--out-dir", out) == 0
        assert run("ingest", "--input", out / "synthetic.csv", "--matches", 24, "--out-dir", out) == 0
        argv = ["analyze", "--input", str(out / "tensor.json"), "--rank", "3", "--restarts", "2",
                "--out-dir", str(out)]
        code = (
            "import json, sys\n"
            "from matchfactor.cli import main\n"
            "assert main(json.loads(sys.argv[1])) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        assert last_line_of(code, json.dumps(argv)) == "False"
        tests = json.loads((out / "win_rate_tests.json").read_text())
        assert tests["pairwise"]  # the bandwidths were taken


def option_strings(parser) -> set[str]:
    return {s for action in parser._actions for s in action.option_strings}


def speaks(node) -> bool:
    """Whether ``node`` is a ``print`` call or names ``sys.stdout`` or ``sys.stderr``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "print"
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("stdout", "stderr")
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


class TestOneChannel:
    def test_only_main_prints(self):
        # no module logs or warns, and only cli.main writes to stdout or stderr
        package = Path(matchfactor.__file__).parent
        speakers, in_main = set(), set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    assert not {a.name for a in node.names} & {"logging", "warnings"}, path.name
                if isinstance(node, ast.ImportFrom):
                    assert node.module not in ("logging", "warnings"), path.name
                if speaks(node):
                    speakers.add((path.name, id(node)))
            if path.name == "cli.py":
                [main] = [n for n in tree.body if getattr(n, "name", None) == "main"]
                in_main = {("cli.py", id(node)) for node in ast.walk(main) if speaks(node)}
        assert in_main and speakers == in_main


class TestSettableSurface:
    """Every option the CLI accepts; a new one must change this test."""

    FIT = {"--input", "--restarts", "--seed", "--tol", "--max-iters", "--threads", "--out-dir"}
    OPTIONS = {
        "ingest": {"--input", "--format", "--arena-id", "--matches", "--per-player", "--out-dir"},
        "rank-scan": {"--ranks", *FIT},
        "analyze": {"--rank", "--k", "--membership-fraction", "--kde-mode", *FIT},
        "synth": {"--spec", "--seed", "--out-dir"},
    }

    def test_options_of_each_subcommand(self):
        parser = build_parser()
        [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert option_strings(parser) == {"-h", "--help", "--version"}
        help_flags = {"-h", "--help"}
        got = {name: option_strings(sub) - help_flags for name, sub in commands.choices.items()}
        assert got == self.OPTIONS

    def test_out_dir_default_ignores_the_environment(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_SPEC))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MATCHFACTOR_OUT_DIR", str(tmp_path / "from-env"))
        assert run("synth", "--spec", spec) == 0
        assert (tmp_path / "matchfactor-out" / "synthetic.csv").exists()
        assert not (tmp_path / "from-env").exists()


class TestIngest:
    def test_fixture_summary(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text(CSV_FIXTURE)
        out = tmp_path / "out"
        assert run("ingest", "--input", data, "--matches", 3, "--out-dir", out) == 0
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["tensor_dims"] == [2, 4, 3]
        assert summary["players_retained"] == 2
        assert summary["players_dropped"] == 0
        tensor_doc = json.loads((out / "tensor.json").read_text())
        assert tensor_doc["dims"] == [2, 4, 3]
        assert tensor_doc["metadata"]["player_ids"] == ["alice", "bob"]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run("ingest", "--input", missing, "--out-dir", tmp_path / "o") == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("matches", [0, -2])
    def test_matches_must_be_positive(self, tmp_path, capsys, matches):
        data = tmp_path / "d.csv"
        data.write_text(CSV_FIXTURE)
        assert run("ingest", "--input", data, "--matches", matches, "--out-dir", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: n_matches must be >= 1, got {matches}\n"

    def test_warning_lines_on_stderr(self, tmp_path, capsys, caplog):
        data = tmp_path / "d.csv"
        data.write_text(WARNED_CSV)
        out = tmp_path / "out"
        assert run("ingest", "--input", data, "--matches", 2, "--out-dir", out) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"warning: {w}" for w in INGEST_WARNINGS]
        assert captured.out == f"wrote {out / 'tensor.json'} (2 players)\n"
        assert caplog.records == []
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["players_dropped"] == 1
        constant = json.loads((out / "tensor.json").read_text())["metadata"]["constant_features"]
        assert constant == [False, True, False, False]

    def test_failed_write_prints_no_warning(self, tmp_path, capsys, caplog):
        data = tmp_path / "d.csv"
        data.write_text(WARNED_CSV)
        out = tmp_path / "out"
        (out / "tensor.json").mkdir(parents=True)
        assert run("ingest", "--input", data, "--matches", 2, "--out-dir", out) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert caplog.records == []

    def test_ingest_error_nonzero_exit(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("bad,header\n1,2\n")
        assert run("ingest", "--input", data, "--out-dir", tmp_path / "o") == 1
        assert "header" in capsys.readouterr().err

    def test_riot_fixture_matches_csv(self, tmp_path):
        from test_data import csv_to_riot_json

        csv_path = tmp_path / "d.csv"
        csv_path.write_text(CSV_FIXTURE)
        riot_path = tmp_path / "d.json"
        riot_path.write_text(csv_to_riot_json(CSV_FIXTURE))

        out_csv = tmp_path / "out_csv"
        out_riot = tmp_path / "out_riot"
        assert run("ingest", "--input", csv_path, "--matches", 3, "--out-dir", out_csv) == 0
        assert (
            run(
                "ingest",
                "--input",
                riot_path,
                "--format",
                "riot-match-json",
                "--matches",
                3,
                "--out-dir",
                out_riot,
            )
            == 0
        )
        a = json.loads((out_csv / "tensor.json").read_text())
        b = json.loads((out_riot / "tensor.json").read_text())
        assert a["values"] == b["values"]
        assert a["metadata"]["winner"] == b["metadata"]["winner"]


class TestSynth:
    def test_default_sizing(self, tmp_path):
        out = tmp_path / "out"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SMALL_SPEC))
        assert run("synth", "--spec", spec_path, "--out-dir", out) == 0
        labels = (out / "truth_labels.csv").read_text().strip().splitlines()
        assert len(labels) == 2 + SMALL_SPEC["n_players"]  # comment + header + rows
        model_doc = json.loads((out / "truth_model.json").read_text())
        assert model_doc["rank"] == 3

    def test_seed_override_changes_data(self, tmp_path):
        out1 = synth_and_ingest(tmp_path / "a", seed=1)
        out2 = synth_and_ingest(tmp_path / "b", seed=2)
        csv1 = (out1 / "synthetic.csv").read_text()
        csv2 = (out2 / "synthetic.csv").read_text()
        assert csv1 != csv2
        assert csv1.splitlines()[0] == csv2.splitlines()[0]

    def test_default_spec_sizing(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out-dir", out) == 0
        summary = json.loads((out / "synth_summary.json").read_text())
        assert summary["players"] == 961
        assert summary["matches"] == 100
        assert summary["group_sizes"] == [411, 304, 246]

    def test_exact_mode_end_to_end_fit(self, tmp_path):
        out = synth_and_ingest(
            tmp_path,
            spec={
                **SMALL_SPEC,
                "n_players": 30,
                "group_sizes": [10, 10, 10],
                "noise": 0.0,
                "exact": True,
            },
        )
        assert (
            run(
                "analyze",
                "--input",
                out / "tensor.json",
                "--rank",
                3,
                "--restarts",
                3,
                "--out-dir",
                out,
            )
            == 0
        )
        model_doc = json.loads((out / "factor_model.json").read_text())
        assert model_doc["fit"] <= 1e-6


class TestRankScan:
    def test_single_rank_rationale(self, tmp_path):
        out = synth_and_ingest(tmp_path)
        assert (
            run(
                "rank-scan",
                "--input",
                out / "tensor.json",
                "--ranks",
                "3",
                "--restarts",
                2,
                "--max-iters",
                120,
                "--out-dir",
                out,
            )
            == 0
        )
        selection = json.loads((out / "rank_selection.json").read_text())
        assert selection["selected_rank"] == 3
        assert "no knee possible" in selection["rationale"]

    def test_row_cardinality(self, tmp_path):
        out = synth_and_ingest(tmp_path)
        assert (
            run(
                "rank-scan",
                "--input",
                out / "tensor.json",
                "--ranks",
                "1:4",
                "--restarts",
                3,
                "--max-iters",
                80,
                "--out-dir",
                out,
            )
            == 0
        )
        lines = (out / "rank_scan.csv").read_text().strip().splitlines()
        assert len(lines) == 2 + 4 * 3  # comment + header + rank*restart rows

    def test_collapsed_restarts_are_marked(self, tmp_path):
        # on the noiseless planted rank-2 tensor one short restart per rank
        # ends with a component of weight 0 at ranks 2 and 3
        TestAnalyze.scan_planted(tmp_path, tmp_path / "a.json", tmp_path / "o")
        lines = (tmp_path / "o" / "rank_scan.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(lines))
        assert [(row["rank"], row["zero_weights"]) for row in rows] == [
            ("1", "0"), ("2", "1"), ("3", "1")
        ]

    def test_failed_restarts_are_warnings(self, tmp_path, monkeypatch, capsys):
        path = TestMalformedInputs.planted_container(tmp_path)
        out = tmp_path / "o"
        fail_seeds(monkeypatch, {1})
        args = ["--ranks", "1:2", "--restarts", 2, "--max-iters", 60, "--out-dir", out]
        assert run("rank-scan", "--input", path, *args) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: rank {rank} restart 1 failed: MaxIterationsExceeded: seed 1 stalled"
            for rank in (1, 2)
        ]
        assert json.loads((out / "rank_selection.json").read_text())["failed_restarts"] == 2
        lines = (out / "rank_scan.csv").read_text().splitlines()[1:]
        assert [row["zero_weights"] for row in csv.DictReader(lines)] == ["0", "", "0", ""]

    def test_no_restart_succeeding_is_an_error(self, tmp_path, monkeypatch, capsys):
        users, feats, time, _ = planted_factors(12, 4, 6, 2, seed=0)
        path = tmp_path / "t.json"
        save_tensor3(path, kruskal_tensor([1.0, 1.0], users, feats, time))
        out = tmp_path / "o"
        calls = fail_seeds(monkeypatch, {0})
        args = ["--ranks", "1:3", "--restarts", 1, "--out-dir", out]
        assert run("rank-scan", "--input", path, *args) == 1
        assert capsys.readouterr().err == (
            "error: no restart succeeded at any rank; "
            "first error: MaxIterationsExceeded: seed 0 stalled\n"
        )
        assert calls == [0, 0, 0]
        assert not out.exists()

    def test_selects_planted_rank_and_feeds_analyze(self, tmp_path):
        out = synth_and_ingest(tmp_path)
        assert (
            run(
                "rank-scan",
                "--input",
                out / "tensor.json",
                "--ranks",
                "1:5",
                "--restarts",
                3,
                "--max-iters",
                150,
                "--out-dir",
                out,
            )
            == 0
        )
        selection = json.loads((out / "rank_selection.json").read_text())
        assert selection["selected_rank"] == 3
        # analyze picks the selected rank from the scan artifact
        assert (
            run(
                "analyze",
                "--input",
                out / "tensor.json",
                "--restarts",
                2,
                "--max-iters",
                120,
                "--out-dir",
                out,
            )
            == 0
        )
        model_doc = json.loads((out / "factor_model.json").read_text())
        assert model_doc["rank"] == 3


# arguments of matchfactor.analyze that the CLI cannot pass (argparse limits
# --kde-mode, and loading the container checks its winner matrix): the
# keyword arguments and the error message
LIBRARY_ONLY = {
    "kde_mode=bogus": ({"kde_mode": "bogus"}, "unknown mode 'bogus'"),
    "winner=5x5": ({"winner": np.zeros((5, 5))}, "labels must have one entry per player"),
}


class TestAnalyze:
    def analyze(self, out, *extra):
        return run(
            "analyze",
            "--input",
            out / "tensor.json",
            "--rank",
            3,
            "--restarts",
            2,
            "--max-iters",
            120,
            "--out-dir",
            out,
            *extra,
        )

    def test_bundle_contents(self, tmp_path):
        out = synth_and_ingest(tmp_path)
        assert self.analyze(out) == 0
        for name in (
            "factor_model.json",
            "feature_signatures.json",
            "clusters.json",
            "temporal_profiles.csv",
            "component_activity.csv",
            "feature_trajectories.csv",
            "win_rate_kde.csv",
            "win_rate_tests.json",
            "analyze_summary.json",
        ):
            assert (out / name).exists(), name
        signatures = json.loads((out / "feature_signatures.json").read_text())
        got = {tuple(c["feature_indices"]) for c in signatures["components"]}
        assert got == {(0, 3), (2, 3), (1, 2, 3)}
        clusters = json.loads((out / "clusters.json").read_text())
        assert sorted(clusters["cluster_sizes"]) == [12, 12, 12]
        tests = json.loads((out / "win_rate_tests.json").read_text())
        assert len(tests["pairwise"]) == 3

    def test_missing_rank_without_selection(self, tmp_path, capsys):
        out = synth_and_ingest(tmp_path)
        code = run(
            "analyze", "--input", out / "tensor.json", "--out-dir", out / "fresh"
        )
        assert code == 1
        assert "rank" in capsys.readouterr().err

    @staticmethod
    def scan_planted(tmp_path, scan_input, out) -> int:
        """Planted rank-2 a.json and rank-3 b.json in ``tmp_path``, the
        current directory, and a scan of ``scan_input`` into ``out``.

        Returns the rank the scan selected.  These tests are about where
        that rank came from, not its value: one short restart per rank need
        not find the planted one.
        """
        for name, rank in (("a.json", 2), ("b.json", 3)):
            users, feats, time, _ = planted_factors(40, 4, 10, rank, seed=rank)
            save_tensor3(tmp_path / name, kruskal_tensor(np.ones(rank), users, feats, time))
        code = run(
            "rank-scan", "--input", scan_input, "--ranks", "1:3", "--restarts", 1,
            "--max-iters", 60, "--out-dir", out,
        )
        assert code == 0
        return json.loads((Path(out) / "rank_selection.json").read_text())["selected_rank"]

    def test_rank_scanned_on_another_input_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        selected = self.scan_planted(tmp_path, "a.json", "o")
        before = {path.name: path.read_bytes() for path in Path("o").iterdir()}
        capsys.readouterr()
        assert run("analyze", "--input", "b.json", "--restarts", 1, "--out-dir", "o") == 1
        assert capsys.readouterr().err == (
            f"error: o/rank_selection.json: rank {selected} was selected on a.json, "
            "not on --input b.json; pass --rank to analyze this input\n"
        )
        assert {path.name: path.read_bytes() for path in Path("o").iterdir()} == before

    @pytest.mark.parametrize("spelling", ["./a.json", "absolute"])
    def test_rank_scanned_on_the_same_file_is_taken(self, tmp_path, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        scanned = tmp_path / "a.json" if spelling == "absolute" else spelling
        selected = self.scan_planted(tmp_path, scanned, "o")
        analyzed = "./a.json" if spelling == "absolute" else tmp_path / "a.json"
        assert run("analyze", "--input", analyzed, "--restarts", 1, "--out-dir", "o") == 0
        assert json.loads(Path("o/factor_model.json").read_text())["rank"] == selected

    def test_byte_identical_reruns(self, tmp_path):
        out = synth_and_ingest(tmp_path)
        assert self.analyze(out) == 0
        artifacts = [
            "factor_model.json",
            "feature_signatures.json",
            "clusters.json",
            "temporal_profiles.csv",
            "component_activity.csv",
            "feature_trajectories.csv",
            "win_rate_kde.csv",
            "win_rate_tests.json",
            "analyze_summary.json",
        ]
        first = {name: (out / name).read_bytes() for name in artifacts}
        assert self.analyze(out) == 0
        for name in artifacts:
            assert (out / name).read_bytes() == first[name], name

    def test_threads_match_sequential_model(self, tmp_path):
        out = synth_and_ingest(tmp_path)
        assert self.analyze(out) == 0
        seq = json.loads((out / "factor_model.json").read_text())
        assert self.analyze(out, "--threads", 3) == 0
        par = json.loads((out / "factor_model.json").read_text())
        assert seq["weights"] == par["weights"]
        assert seq["factors"] == par["factors"]

    def test_failed_restart_becomes_a_warning(self, tmp_path, monkeypatch, capsys):
        out = synth_and_ingest(tmp_path)
        capsys.readouterr()
        fail_seeds(monkeypatch, {1})
        assert self.analyze(out) == 0
        message = "rank 3 restart 1 failed: MaxIterationsExceeded: seed 1 stalled"
        assert f"warning: {message}\n" in capsys.readouterr().err
        summary = json.loads((out / "analyze_summary.json").read_text())
        assert summary["warnings"][0] == message
        assert json.loads((out / "factor_model.json").read_text())["seed"] == 0

    def test_every_restart_failing_is_an_error(self, tmp_path, monkeypatch, capsys):
        out = synth_and_ingest(tmp_path)
        capsys.readouterr()
        fail_seeds(monkeypatch, {0, 1})
        assert self.analyze(out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (
            "error: no restart at rank 3 succeeded; "
            "first error: MaxIterationsExceeded: seed 0 stalled"
        )
        assert not (out / "factor_model.json").exists()

    @pytest.mark.parametrize(
        "case",
        ["--k 0", "--membership-fraction 2", "unpopulated k", "missing input", "out-dir a file"],
    )
    def test_failed_stage_leaves_out_dir_as_it_was(self, tmp_path, monkeypatch, capsys, case):
        # a flag fails before the fit; k-means fails after it, with the model
        # already computed; a missing input creates no fresh --out-dir; an
        # --out-dir that is a file fails before the fit
        out = synth_and_ingest(tmp_path)
        assert self.analyze(out) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        expected = 2 if case in ("missing input", "out-dir a file") else 1
        if case == "missing input":
            fresh = tmp_path / "a"
            code = run("rank-scan", "--input", tmp_path / "missing.json", "--out-dir", fresh / "b")
            assert not fresh.exists()
        elif case == "out-dir a file":
            blocker = tmp_path / "blocker"
            blocker.write_text("x")
            calls = fail_seeds(monkeypatch, set())
            args = ["--ranks", 1, "--restarts", 1, "--out-dir", blocker]
            code = run("rank-scan", "--input", out / "tensor.json", *args)
            assert blocker.read_text() == "x"
            assert calls == []  # no restart was fitted
        elif case == "unpopulated k":
            calls = fail_seeds(monkeypatch, set())

            def kmeans(points, k, seed=0):
                raise matchfactor.EmptyClusterUnrecoverable(
                    f"all 10 initializations failed to keep {k} clusters populated"
                )

            monkeypatch.setattr(patterns, "kmeans", kmeans)
            code = self.analyze(out)
            assert calls == [0, 1]  # both restarts were fitted
        else:
            code = self.analyze(out, *case.split())
        assert code == expected
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--k 0", "k must be in [1, 36], got 0"),
            ("--k 1000000", "k must be in [1, 36], got 1000000"),
            ("--membership-fraction 0", "fraction must be in (0, 1], got 0.0"),
            ("--membership-fraction 2", "fraction must be in (0, 1], got 2.0"),
            ("--membership-fraction nan", "fraction must be in (0, 1], got nan"),
            *[(name, message) for name, (_, message) in LIBRARY_ONLY.items()],
        ],
    )
    def test_flags_checked_before_the_first_fit(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        out = synth_and_ingest(tmp_path)
        calls = fail_seeds(monkeypatch, set())
        if flags in LIBRARY_ONLY:
            kwargs = LIBRARY_ONLY[flags][0]
        else:
            before = {path.name: path.read_bytes() for path in out.iterdir()}
            capsys.readouterr()
            assert self.analyze(out, *flags.split()) == 1
            assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before
            flag, value = flags.split()
            kwargs = {"k": int(value)} if flag == "--k" else {"fraction": float(value)}
        # the library entry point checks the same values in the same place
        t, metadata = load_tensor3(out / "tensor.json")
        kwargs = {"winner": np.array(metadata["winner"]), **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            matchfactor.analyze(t, 3, **kwargs)
        assert calls == []

    def test_too_few_distinct_rows_fail_before_the_first_fit(self, tmp_path, monkeypatch, capsys):
        # two distinct player rows give two distinct user-factor rows, so
        # k-means cannot populate the rank's 3 clusters
        rows = np.random.default_rng(5).uniform(0.1, 1.0, size=(2, 4, 10))
        container = tmp_path / "two_players.json"
        save_tensor3(container, rows[np.repeat([0, 1], 6)])
        calls = fail_seeds(monkeypatch, set())
        capsys.readouterr()
        out = tmp_path / "o"
        assert self.analyze(out, "--input", container) == 1  # the last --input counts
        message = "k must be at most the 2 distinct player rows, got 3"
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert not out.exists()
        t, _ = load_tensor3(container)
        with pytest.raises(ValueError, match=f"^{message}$"):
            matchfactor.analyze(t, 3)
        assert calls == []
        # a negative zero is the same value as a zero
        signed = rows[np.repeat([0, 0, 1], 4)]
        signed[:4, 0, 0], signed[4:8, 0, 0] = -0.0, 0.0
        with pytest.raises(ValueError, match=f"^{message}$"):
            matchfactor.analyze(signed, 3)
        assert calls == []

    def test_library_analyze_returns_what_the_cli_writes(self, tmp_path):
        path = TestMalformedInputs.planted_container(tmp_path)
        out = tmp_path / "o"
        assert run("analyze", "--input", path, "--rank", 2, "--restarts", 2, "--out-dir", out) == 0
        t, _ = load_tensor3(path)
        report = matchfactor.analyze(t, 2, matchfactor.DecomposeConfig(n_restarts=2))
        written = matchfactor.load_factor_model(out / "factor_model.json")
        assert np.array_equal(written.weights, report.best.model.weights)
        for got, want in zip(written.factors, report.best.model.factors):
            assert np.array_equal(got, want)
        clusters = json.loads((out / "clusters.json").read_text())
        assert [clusters["labels"][f"row{i}"] for i in range(12)] == report.clusters.labels.tolist()
        assert clusters["silhouette_sweep"] == [
            {
                "k": a.n_clusters,
                "silhouette": a.silhouette,
                "inertia": a.inertia,
                "cluster_sizes": list(a.cluster_sizes()),
            }
            for a in report.sweep
        ]
        assert clusters["warnings"] == list(report.sweep_warnings) == [
            "k=1 outside the valid range [2, 12]; skipped"
        ]
        assert report.win_rates is None  # the container has no winner matrix

    def test_library_analyze_prints_nothing(self, tmp_path, monkeypatch, capsys, caplog):
        t, metadata = load_tensor3(synth_and_ingest(tmp_path) / "tensor.json")
        capsys.readouterr()
        fail_seeds(monkeypatch, {1})
        cfg = matchfactor.DecomposeConfig(n_restarts=2, max_outer_iters=120)
        report = matchfactor.analyze(t, 3, cfg, winner=np.asarray(metadata["winner"]))
        # each fact the CLI warns about is in a result, and nothing is said
        data = tmp_path / "warned.csv"
        data.write_text(WARNED_CSV)
        result = matchfactor.ingest(data, n_matches=2)
        normalized = matchfactor.normalize_minmax(result.dataset)
        welch = matchfactor.welch_t_test(np.full(3, 1.0), np.full(4, 2.0))
        assert capsys.readouterr() == ("", "")
        assert caplog.records == []
        assert [rec.error for rec in report.records] == [None, "MaxIterationsExceeded: seed 1 stalled"]
        assert report.best is report.records[0]
        assert len(report.win_rates.pairwise_tests) == 3
        assert result.players_dropped == 1
        assert normalized.constant_mask.tolist() == [False, True, False, False]
        assert welch == (-np.inf, 0.0)

    def test_kde_raw_mode(self, tmp_path):
        out = synth_and_ingest(tmp_path)
        assert self.analyze(out, "--kde-mode", "raw") == 0
        tests = json.loads((out / "win_rate_tests.json").read_text())
        assert tests["mode"] == "raw"

    def test_cluster_without_bandwidth_skips_win_rates(self, tmp_path, capsys):
        # at k=20 over 36 players some cluster holds one player, whose one
        # win rate has no Silverman bandwidth
        out = synth_and_ingest(tmp_path)
        capsys.readouterr()
        assert self.analyze(out, "--k", 20) == 0
        err = capsys.readouterr().err.splitlines()
        summary = json.loads((out / "analyze_summary.json").read_text())
        assert len(err) == 1 and err[0] == f"warning: {summary['warnings'][0]}"
        reason = re.fullmatch(
            r"win-rate stats skipped: cluster (\d+): bandwidth selection needs at least two values",
            summary["warnings"][0],
        )
        assert reason and summary["cluster_sizes"][int(reason[1])] == 1
        assert summary["warnings"] == [reason[0]]
        assert not (out / "win_rate_kde.csv").exists()
        assert not (out / "win_rate_tests.json").exists()
        for name in ("factor_model.json", "clusters.json", "feature_trajectories.csv"):
            assert (out / name).exists(), name

    def test_constant_win_rates_skip_win_rates(self, tmp_path):
        t, _ = load_tensor3(synth_and_ingest(tmp_path) / "tensor.json")
        cfg = matchfactor.DecomposeConfig(n_restarts=2, max_outer_iters=120)
        report = matchfactor.analyze(t, 3, cfg, winner=np.ones((t.shape[0], t.shape[2])))
        assert report.win_rates is None
        assert report.win_rate_error == (
            "win-rate stats skipped: cluster 0: zero-variance sample has no data-driven bandwidth"
        )

    def test_pathological_k_warns_but_succeeds(self, tmp_path, capsys):
        # three exactly repeated behavior rows: extra k values cannot populate;
        # at k=1 every player is in the one cluster, which has no silhouette
        out = synth_and_ingest(
            tmp_path,
            spec={
                **SMALL_SPEC,
                "n_players": 9,
                "n_matches": 12,
                "group_sizes": [3, 3, 3],
                "noise": 0.0,
                "exact": True,
            },
        )
        for k in (3, 1):
            assert self.analyze(out, "--k", k) == 0
            clusters = json.loads((out / "clusters.json").read_text())
            assert clusters["k"] == k
            ks = {entry["k"] for entry in clusters["silhouette_sweep"]}
            assert ks  # at least some neighbor k values succeeded
        assert clusters["cluster_sizes"] == [9]
        assert set(clusters["labels"].values()) == {0}
        assert clusters["silhouette"] is None and clusters["sample_silhouettes"] is None
        assert 2 in ks and ks <= {2, 3, 4, 5}

    def test_sweep_k_that_cannot_populate_warns(self, tmp_path, capsys):
        # two distinct player rows give two distinct user factor rows, so the
        # sweep's k=3 and k=4 leave a cluster empty whatever the re-seeds do
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.1, 1.0, size=(2, 4, 10))
        path = tmp_path / "t.json"
        save_tensor3(path, rows[np.repeat([0, 1], 6)])
        warnings = [
            "k=1 outside the valid range [2, 12]; skipped",
            *(
                f"k={k} clustering failed: EmptyClusterUnrecoverable: "
                f"all 10 initializations failed to keep {k} clusters populated"
                for k in (3, 4)
            ),
        ]
        t, _ = load_tensor3(path)
        report = matchfactor.analyze(t, 2, matchfactor.DecomposeConfig(n_restarts=2))
        assert report.sweep_warnings == tuple(warnings)
        assert report.sweep == ()
        out = tmp_path / "o"
        assert run("analyze", "--input", path, "--rank", 2, "--restarts", 2, "--out-dir", out) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning: k=")] == [
            f"warning: {w}" for w in warnings
        ]
        summary = json.loads((out / "analyze_summary.json").read_text())
        no_winner = "tensor container has no winner metadata; win-rate stats skipped"
        assert err[-1] == f"warning: {no_winner}"
        assert summary["warnings"] == [*warnings, no_winner]
        assert summary["cluster_sizes"] == [6, 6]


TOLERANCES = ["nan", "inf", "0", "-1"]


class TestMalformedInputs:
    """Malformed inputs end as "error: ..." with exit code 1, not as a traceback."""

    @pytest.mark.parametrize("command", ["rank-scan", "analyze"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CONTAINERS))
    def test_container(self, tmp_path, capsys, command, case):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED_CONTAINERS[case][0])
        assert run(command, "--input", path, "--out-dir", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("shape", sorted(RIOT_SHAPES))
    def test_riot_shape(self, tmp_path, capsys, shape):
        path = tmp_path / "d.json"
        path.write_text(riot_fixture_with(RIOT_SHAPES[shape]))
        args = ["--format", "riot-match-json", "--matches", 3, "--out-dir", tmp_path / "o"]
        assert run("ingest", "--input", path, *args) == 1
        assert capsys.readouterr().err.startswith("error: match 1: ")

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("csv", CSV_FIXTURE),
            ("json-lines", csv_to_jsonl(CSV_FIXTURE)),
            ("riot-match-json", json.dumps(json.loads(csv_to_riot_json(CSV_FIXTURE)), indent=1)),
        ],
    )
    def test_undecodable(self, tmp_path, capsys, fmt, text):
        path = tmp_path / "d"
        path.write_bytes(with_bad_line(text, 3))
        args = ["--format", fmt, "--matches", 3, "--out-dir", tmp_path / "o"]
        assert run("ingest", "--input", path, *args) == 1
        assert capsys.readouterr().err.startswith("error: line 3: invalid UTF-8")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("player_ids", 5),
            ("player_ids", ["a"]),
            ("player_ids", ["a"] * 12),
            ("player_ids", list(range(12))),
            ("feature_names", 3),
            ("feature_names", ["a"]),
            ("feature_names", ["a", "b", "c", None]),
            ("winner", "x"),
            ("winner", [[1] * 10] * 11),
            ("winner", [[1] * 10] * 11 + [[1] * 9]),
            ("winner", [[2] * 10] * 12),
            ("winner", [["1"] * 10] * 12),
        ],
        ids=lambda v: repr(v)[:24],
    )
    def test_container_metadata(self, tmp_path, capsys, key, value):
        users, feats, time, _ = planted_factors(12, 4, 10, 2, seed=0)
        path = tmp_path / "t.json"
        save_tensor3(path, kruskal_tensor([1.0, 1.0], users, feats, time), {key: value})
        out = tmp_path / "o"
        assert run("analyze", "--input", path, "--rank", 2, "--restarts", 1, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: metadata {key!r} must be")
        assert not (out / "factor_model.json").exists()

    @staticmethod
    def planted_container(tmp_path):
        users, feats, time, _ = planted_factors(12, 4, 10, 2, seed=0)
        path = tmp_path / "t.json"
        save_tensor3(path, kruskal_tensor([1.0, 1.0], users, feats, time))
        return path

    @pytest.mark.parametrize(
        "selection",
        [[3], "3", {}, {"selected_rank": None}, {"selected_rank": "x"}, {"selected_rank": 2.0},
         {"selected_rank": True}],
        ids=repr,
    )
    def test_rank_selection(self, tmp_path, capsys, selection):
        tensor = self.planted_container(tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        path = out / "rank_selection.json"
        path.write_text(json.dumps(selection))
        assert run("analyze", "--input", tensor, "--restarts", 1, "--out-dir", out) == 1
        message = f"error: {path}: 'selected_rank' must be an integer"
        assert capsys.readouterr().err.startswith(message)
        assert not (out / "factor_model.json").exists()

    @pytest.mark.parametrize(
        "ranks, message",
        [
            ("1:1000000000000", "rank must be in [1, 40], got 41"),
            ("-1000000000000:3", "rank must be in [1, 40], got -1000000000000"),
            ("-2", "rank must be in [1, 40], got -2"),
            *(
                (ranks, f"--ranks must be R or LO:HI with integer bounds, got {ranks!r}")
                for ranks in ["x", "1:", "2-3"]
            ),
        ],
    )
    def test_bad_rank_range_fails_before_it_is_built(self, tmp_path, capsys, ranks, message):
        tensor = self.planted_container(tmp_path)
        out = tmp_path / "o"
        assert run("rank-scan", "--input", tensor, f"--ranks={ranks}", "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"{bad", b"\xff"], ids=repr)
    @pytest.mark.parametrize("stage", ["synth", "analyze"])
    def test_unreadable_json_names_its_file(self, tmp_path, capsys, stage, content):
        out = tmp_path / "o"
        out.mkdir()
        if stage == "synth":
            path = tmp_path / "spec.json"
            args = ["synth", "--spec", path]
        else:
            path = out / "rank_selection.json"
            args = ["analyze", "--input", self.planted_container(tmp_path), "--restarts", 1]
        path.write_bytes(content)
        assert run(*args, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not a JSON file (")
        assert [p.name for p in out.iterdir()] == ([] if stage == "synth" else [path.name])

    @pytest.mark.parametrize(
        "spec, flags, message",
        [
            ({}, ["--seed", -1], "seed must be >= 0, got -1"),
            (
                {**SMALL_SPEC, "noise": 1e306},
                [],
                "noise 1e+306 or feature_scales (25.0, 15.0, 25.0, 20000.0) overflow",
            ),
        ],
        ids=["seed flag", "noise"],
    )
    def test_synth_rejects_without_warning(self, tmp_path, capsys, spec, flags, message):
        # warnings are errors in this suite, so neither case may warn on its way to the error
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert run("synth", "--spec", path, *flags, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["rank-scan", "--ranks", "1:2"], ["analyze", "--rank", 2]])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            *[("--tol", tol, "rel_tol must be positive and finite") for tol in TOLERANCES],
            ("--seed", "-1", "seed must be >= 0, got -1"),
        ],
        ids=[*TOLERANCES, "seed=-1"],
    )
    def test_tolerance_must_be_finite_and_positive(
        self, tmp_path, monkeypatch, capsys, command, flag, value, message
    ):
        # and the seed non-negative: the fit's config is checked before its first fit
        tensor = self.planted_container(tmp_path)
        out = tmp_path / "o"
        calls = fail_seeds(monkeypatch, set())
        args = ["--input", tensor, "--restarts", 1, flag, value, "--out-dir", out]
        assert run(*command, *args) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", [["ingest"], ["rank-scan"], ["analyze", "--rank", 2]])
    def test_directory_input(self, tmp_path, capsys, command):
        directory = tmp_path / "d"
        directory.mkdir()
        assert run(*command, "--input", directory, "--out-dir", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"foo": 1, "seed": 0}, "unknown spec keys ['foo']"),
            ([1], "a spec must be a JSON object"),
            ("x", "a spec must be a JSON object"),
            (5, "a spec must be a JSON object"),
            ({"group_sizes": "abc"}, "'group_sizes' must be an array of integers"),
            ({"group_sizes": [12, 12.0, 12]}, "'group_sizes' must be an array of integers"),
            ({"n_players": "5"}, "'n_players' must be an integer"),
            ({"n_players": 30.0, "group_sizes": [10, 10, 10]}, "'n_players' must be an integer"),
            ({"rank": True}, "'rank' must be an integer"),
            ({"signatures": 5}, "'signatures' must be an array of arrays of integers"),
            ({"signatures": [[0], 1, [2]]}, "'signatures' must be an array of arrays of integers"),
            ({"noise": "x"}, "'noise' must be a finite number"),
            ({"noise": float("nan")}, "'noise' must be a finite number"),
            ({"win_bias": [0.0, None, 0.0]}, "'win_bias' must be an array of finite numbers"),
            ({"seed": "a"}, "'seed' must be an integer"),
            ({"exact": "yes"}, "'exact' must be a boolean"),
            ({"exact": 1}, "'exact' must be a boolean"),
            (
                {"n_players": 36, "n_matches": 10, "group_sizes": [-1, 25, 12]},
                "group sizes (-1, 25, 12) must be >= 0",
            ),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"n_players": 0}, "n_players, n_matches and rank must be positive"),
            ({"group_sizes": [480, 481]}, "need one group size per component"),
            ({"signatures": [[0, 4], [2, 3], [1, 2, 3]]}, "invalid feature signature (0, 4)"),
            ({"win_bias": [0.0, 0.0]}, "need one win bias per group"),
            # a record has four count columns: five scales would write a fifth
            # count into the winner column, three would leave arena_id empty
            (
                {"feature_scales": [25.0, 15.0, 25.0, 20000.0, 1.0]},
                "need one feature scale per feature (assists, deaths, kills, gold), got 5",
            ),
            (
                {"feature_scales": [25.0, 15.0, 25.0]},
                "need one feature scale per feature (assists, deaths, kills, gold), got 3",
            ),
        ],
        ids=repr,
    )
    def test_synth_spec(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert run("synth", "--spec", path, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not out.exists()
