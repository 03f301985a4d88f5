#!/usr/bin/env python3
"""matchfactor benchmark: the CLI stages on seeded paper-scale inputs.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, and every stage runs as ``python -m matchfactor.cli ...`` in its
own interpreter, as a user would run it.

A run sets its inputs up several times (median: ``setup_s``), then repeats
the workload's stages while another pass fits in ``--seconds``, and at least
``MIN_PASSES`` times.  Every pass checks the outputs.  Artifacts must be
byte-identical across the passes of a run, traced or not, and across runs of
the same seed and the same code (recorded under ``.work/artifacts``, keyed
by a digest of the sources, so changed code starts a new record).

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced passes with traced ones, in which
each stage runs in-process under ``tracer.py``, and reports the per-layer
metrics, the tracing overhead and a kernel microbenchmark.

Human-readable lines go to stdout; the last line is one JSON object
(``all`` runs every workload in turn, one JSON line each).  The exit code is
nonzero when a stage fails or an output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import INGEST_FORMATS, read_csv, read_json

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 3
# the end-to-end times are medians over at least this many passes
MIN_PASSES = 3
STAGE_TIMEOUT_S = 150.0
# Over-rank fits stop at a data-dependent sweep count (36 to 500 at rank 4
# across seeds 0-7), which would make scan times vary by 2x between seeds.
# Capping sweeps keeps the work per seed nearly fixed; every rank 1-3 fit
# still converges below the cap.  The scan ends at rank 4: the knee rule
# only picks interior ranks, and with rank 4 interior a capped rank-4
# restart can reach core consistency 69 (seed 502) and be picked.
SCAN_MAX_ITERS = "60"


# ---------------------------------------------------------------------------
# stage processes


# Stage interpreters run one BLAS thread each, so ``--threads 2`` plus BLAS
# stays within two cores; the microbenchmark in this process does the same.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _stage_env() -> dict:
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.pop("MATCHFACTOR_OUT_DIR", None)
    return env


ENV = _stage_env()


@dataclass
class StageRun:
    stage: str
    argv: list[str]
    wall_s: float
    exit_code: int
    rss_mb: float


def run_stage(stage: str, argv: list[str], cwd: Path, spans: Path | None = None) -> StageRun:
    """Run one CLI stage in a fresh interpreter; time it and read its rusage."""
    if spans is None:
        cmd = [sys.executable, "-m", "matchfactor.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), "--", *argv]
    with open(cwd / "stages.log", "ab") as log:
        log.write(f"$ {' '.join(argv)}\n".encode())
        log.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return StageRun(stage, argv, wall, proc.returncode, usage.ru_maxrss / 1024.0)


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


# ---------------------------------------------------------------------------
# workloads


def _ingest_stages(seed: int):
    return [
        ("ingest", ["ingest", "--input", f"in/{name}", "--format", fmt, "--out-dir", f"out/{fmt}"])
        for fmt, name in INGEST_FORMATS.items()
    ]


def _paper_stages(seed: int, out: str):
    """``synth`` and ``ingest`` (csv): the noisy paper tensor at ``out/tensor.json``."""
    return [
        ("synth", ["synth", "--seed", str(seed), "--out-dir", out]),
        ("ingest", ["ingest", "--input", f"{out}/synthetic.csv", "--format", "csv", "--out-dir", out]),
    ]


def _pipeline_stages(seed: int):
    return _paper_stages(seed, "out") + [
        ("rank-scan", ["rank-scan", "--input", "out/tensor.json", "--ranks", "1:4", "--restarts", "3",
                       "--max-iters", SCAN_MAX_ITERS, "--threads", "2", "--out-dir", "out"]),
        ("analyze", ["analyze", "--input", "out/tensor.json", "--restarts", "5", "--threads", "2",
                     "--out-dir", "out"]),
    ]


# stages of each workload, run with the work directory as the current
# directory; inputs.py writes the inputs and checks.py checks the outputs
WORKLOADS: dict[str, Callable[[int], list[tuple[str, list[str]]]]] = {
    "ingest-formats": _ingest_stages,
    "pipeline-paper": _pipeline_stages,
}


def _helper(script: str, *args: str) -> str:
    """Run a helper script of the benchmark in its own process; return stdout."""
    done = subprocess.run(
        [sys.executable, str(BENCH / script), *args],
        env=ENV, stdout=subprocess.PIPE, text=True, timeout=STAGE_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited with {done.returncode}")
    return done.stdout


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    stages: list[StageRun]
    problems: list[str]
    attempted: int
    failed: int
    records: int
    hashes: dict[str, str]

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    def stage_s(self, stage: str) -> float:
        return sum(s.wall_s for s in self.stages if s.stage == stage)


def _artifact_hashes(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def run_pass(workload: str, work: Path, seed: int, spans_dir: Path | None = None) -> Pass:
    """Run the stages once from a clean ``out/``, then count and check.

    An operation is one stage invocation or one restart.  A nonzero exit, a
    failed row in rank_scan.csv and a failed output check each count as a
    failure; a failed stage ends the pass.
    """
    shutil.rmtree(work / "out", ignore_errors=True)
    runs, problems = [], []
    attempted = failed = records = 0
    for i, (stage, argv) in enumerate(WORKLOADS[workload](seed)):
        spans = None if spans_dir is None else spans_dir / f"stage{i}.json"
        run = run_stage(stage, argv, work, spans)
        runs.append(run)
        attempted += 1
        if run.exit_code != 0:
            failed += 1
            problems.append(f"{stage} exited with {run.exit_code}; see {work / 'stages.log'}")
            break
        out = work / _flag(argv, "--out-dir")
        if stage == "ingest":
            records += read_json(out / "ingest_summary.json")["records_read"]
        elif stage == "rank-scan":
            rows = read_csv(out / "rank_scan.csv")
            attempted += len(rows)
            failed += sum(1 for row in rows if row["error"])
        elif stage == "analyze":
            attempted += int(_flag(argv, "--restarts"))
    else:
        found = json.loads(_helper("checks.py", workload, str(work)))
        failed += len(found)
        problems += found
    return Pass(runs, problems, attempted, failed, records, _artifact_hashes(work / "out"))


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: ENV[var] for var in BLAS_VARS},
    }


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def startup(work: Path) -> float:
    """Wall time of one ``matchfactor --version`` launch."""
    launch = run_stage("version", ["--version"], work)
    if launch.exit_code != 0:
        raise RuntimeError(f"matchfactor --version exited with {launch.exit_code}")
    return launch.wall_s


def _traced_pass(workload: str, work: Path, seed: int) -> tuple[Pass, dict]:
    """One pass with every stage under the tracer; returns its layer metrics."""
    from layers import layer_metrics

    spans_dir = work / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir()
    p = run_pass(workload, work, seed, spans_dir)
    files = [spans_dir / f"stage{i}.json" for i in range(len(p.stages))]
    metrics = layer_metrics([read_json(f)["spans"] for f in files if f.is_file()])
    metrics["cli.artifact_bytes"] = sum((work / "out" / name).stat().st_size for name in p.hashes)
    return p, metrics


def _code_digest() -> str:
    """Digest of the program and benchmark sources that make the artifacts."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "matchfactor").rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _compare_with_earlier_runs(workload: str, seed: int, hashes: dict) -> list[str]:
    """Artifacts of a seed must not change between runs of the same code."""
    record = WORK / "artifacts" / f"{workload}-{seed}-{_code_digest()}.json"
    if record.is_file():
        return [] if read_json(record) == hashes else [
            "artifacts differ from an earlier run of the same code and seed"
        ]
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps(hashes, sort_keys=True), encoding="utf-8")
    return []


def _paper_tensor(workload: str, work: Path, seed: int) -> Path:
    """The noisy paper tensor of ``seed``, made by the CLI, for the microbenchmark."""
    if workload == "pipeline-paper":
        return work / "out" / "tensor.json"
    for stage, argv in _paper_stages(seed, "paper"):
        if run_stage(stage, argv, work).exit_code != 0:
            raise RuntimeError(f"{stage} of the paper tensor failed; see {work / 'stages.log'}")
    return work / "paper" / "tensor.json"


def _kernel_values(tensor: Path) -> dict[str, float]:
    from kernels import kernel_bench, print_table

    kernels = kernel_bench(tensor)
    print_table(kernels)
    values = {}
    for rank, row in kernels.items():
        for key in ("sweep_ms", "bpp_ms", "bpp_share", "bpp_rounds", "kruskal_ms", "fit_check_ms"):
            values[f"kernel.r{rank}.{key}"] = row[key]
        for mode in (1, 2, 3):
            # the rank-5 MTTKRP is the one the ROADMAP baseline quotes
            name = f"tensor.mttkrp_ms.mode{mode}" if rank == 5 else f"kernel.r{rank}.mttkrp_ms.mode{mode}"
            values[name] = row[f"mttkrp_ms.mode{mode}"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so none inherits another's memory
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    # SIGTERM unwinds like an interrupt, so a running stage is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "matchfactor" / "__init__.py").is_file():
        print(f"error: no matchfactor sources under {SRC}", file=sys.stderr)
        return 2
    # for the microbenchmark, which runs in this process after the stages
    os.environ.update({var: ENV[var] for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    declared = _declared()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    # This process imports no numpy until the stages are done: a stage's peak
    # RSS includes the memory of the process that started it.  Set-up is the
    # writing of the inputs.  A `--version` launch before each pass warms the
    # file cache and gives stage.startup_s.
    setup_times, startup_times = [], []
    passes: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    min_rounds = MIN_PASSES if args.trace == 0 else 1
    try:
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            _helper("inputs.py", args.workload, str(args.seed), str(work))
            setup_times.append(time.perf_counter() - t0)
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            startup_times.append(startup(work))
            passes.append(run_pass(args.workload, work, args.seed))
            if args.trace:
                traced.append(_traced_pass(args.workload, work, args.seed))
            last = traced[-1][0] if traced else passes[-1]
            now = time.perf_counter()
            # stop before a round that would end after --seconds
            if last.failed or (len(passes) >= min_rounds and now - t_start + (now - t_round) > args.seconds):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    all_passes = passes + [p for p, _ in traced]
    problems = [msg for p in all_passes for msg in p.problems]
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    hashes = [p.hashes for p in all_passes]
    consistency = [] if all(h == hashes[0] for h in hashes) else [
        "artifacts differ between passes of the same inputs"
    ]
    if not problems and not consistency:
        consistency = _compare_with_earlier_runs(args.workload, args.seed, hashes[0])
    problems += consistency
    failed += len(consistency)

    for i, p in enumerate(passes):
        print(f"pass {i}: " + ", ".join(f"{s.stage} {s.wall_s:.3f} s ({s.rss_mb:.0f} MB)" for s in p.stages))
    stage_s = {
        stage: statistics.median(p.stage_s(stage) for p in passes)
        for stage in ("synth", "ingest", "rank-scan", "analyze")
    }
    ingest_rate = statistics.median(p.records / p.stage_s("ingest") if p.records else 0.0 for p in passes)
    failed_ratio = failed / attempted
    print("stage medians: " + ", ".join(f"{k} {v:.3f} s" for k, v in stage_s.items() if v)
          + f"; ingest {ingest_rate:.0f} records/s; failed_ratio {failed_ratio:.4f}"
          + f" ({failed} of {attempted} operations)")

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": statistics.median(max(s.rss_mb for s in p.stages) for p in passes),
        }
        section = declared["end_to_end"]
    else:
        layer = [m for _, m in traced]
        values = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        untraced_wall = statistics.median(p.wall_s for p in passes)
        traced_wall = statistics.median(p.wall_s for p, _ in traced)
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        print(f"tracing overhead: {values['trace.overhead_s']:+.3f} s "
              f"({100 * values['trace.overhead_ratio']:+.1f}%) over {untraced_wall:.3f} s untraced")
        for stage, seconds in stage_s.items():
            values[f"stage.{stage.replace('-', '_')}_s"] = seconds
        values["stage.ingest_records_per_s"] = ingest_rate
        values["stage.startup_s"] = statistics.median(startup_times)
        values["stage.failed_ratio"] = failed_ratio
        if not problems:
            try:
                values.update(_kernel_values(_paper_tensor(args.workload, work, args.seed)))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        section = declared["per_layer"]

    unknown = sorted(set(values) - {item["name"] for item in section})
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    # a metric a failed run could not measure reads 0
    metrics = {
        item["name"]: {"value": values.get(item["name"], 0.0), "unit": item["unit"]} for item in section
    }
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    report = {"args": vars(args), "environment": env, "problems": problems,
              "setup_s": setup_times, "startup_s": startup_times,
              "passes": [[vars(s) for s in p.stages] for p in all_passes], "metrics": metrics}
    (work / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
