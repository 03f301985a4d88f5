import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matchfactor
from matchfactor import kruskal_tensor, load_tensor3, planted_factors, save_tensor3
from matchfactor.cli import main

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


class TestStartup:
    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported only by the functions that use it, so a stage
        # that never calls them does not pay for loading it at startup
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(matchfactor.__file__).parents[1]), env.get("PYTHONPATH")) if p
        )
        probe = "import sys, matchfactor.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("case", ["--k 0", "--membership-fraction 2", "all-zero winner"])
    def test_failed_stage_leaves_out_dir_as_it_was(self, tmp_path, capsys, case):
        # each case fails late: after the fit, with artifacts already computed
        out = synth_and_ingest(tmp_path)
        assert self.analyze(out) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        if case == "all-zero winner":
            t, metadata = load_tensor3(out / "tensor.json")
            container = tmp_path / "zero_winner.json"
            winner = np.zeros_like(metadata["winner"]).tolist()
            save_tensor3(container, t, {**metadata, "winner": winner})
            code = self.analyze(out, "--input", container)  # the last --input counts
        else:
            code = self.analyze(out, *case.split())
        assert code == 1
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
        ],
    )
    def test_flags_checked_before_the_first_fit(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        out = synth_and_ingest(tmp_path)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        calls = fail_seeds(monkeypatch, set())
        assert self.analyze(out, *flags.split()) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        # the library entry point checks the same values in the same place
        flag, value = flags.split()
        kwargs = {"k": int(value)} if flag == "--k" else {"fraction": float(value)}
        t, _ = load_tensor3(out / "tensor.json")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            matchfactor.analyze(t, 3, **kwargs)
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

    def test_library_analyze_prints_nothing(self, tmp_path, monkeypatch, capsys):
        t, metadata = load_tensor3(synth_and_ingest(tmp_path) / "tensor.json")
        capsys.readouterr()
        fail_seeds(monkeypatch, {1})
        cfg = matchfactor.DecomposeConfig(n_restarts=2, max_outer_iters=120)
        report = matchfactor.analyze(t, 3, cfg, winner=np.asarray(metadata["winner"]))
        assert capsys.readouterr() == ("", "")
        assert [rec.error for rec in report.records] == [None, "MaxIterationsExceeded: seed 1 stalled"]
        assert report.best is report.records[0]
        assert len(report.win_rates.pairwise_tests) == 3

    def test_kde_raw_mode(self, tmp_path):
        out = synth_and_ingest(tmp_path)
        assert self.analyze(out, "--kde-mode", "raw") == 0
        tests = json.loads((out / "win_rate_tests.json").read_text())
        assert tests["mode"] == "raw"

    def test_pathological_k_warns_but_succeeds(self, tmp_path, capsys):
        # three exactly repeated behavior rows: extra k values cannot populate
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
        assert self.analyze(out, "--k", 3) == 0
        clusters = json.loads((out / "clusters.json").read_text())
        assert clusters["k"] == 3
        ks = {entry["k"] for entry in clusters["silhouette_sweep"]}
        assert ks  # at least some neighbor k values succeeded


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
            *(
                (ranks, f"--ranks must be R, LO:HI or LO-HI with integer bounds, got {ranks!r}")
                for ranks in ["x", "-2", "1:"]
            ),
        ],
    )
    def test_bad_rank_range_fails_before_it_is_built(self, tmp_path, capsys, ranks, message):
        tensor = self.planted_container(tmp_path)
        out = tmp_path / "o"
        assert run("rank-scan", "--input", tensor, f"--ranks={ranks}", "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.iterdir())

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
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", [["rank-scan", "--ranks", "1:2"], ["analyze", "--rank", 2]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, command, tol):
        tensor = self.planted_container(tmp_path)
        out = tmp_path / "o"
        args = ["--input", tensor, "--restarts", 1, "--tol", tol, "--out-dir", out]
        assert run(*command, *args) == 1
        assert capsys.readouterr().err.startswith("error: rel_tol must be positive and finite")
        assert not any(out.iterdir())

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
        ],
        ids=repr,
    )
    def test_synth_spec(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        assert run("synth", "--spec", path, "--out-dir", out) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
        assert not any(out.iterdir())
