"""Kernel microbenchmark on a paper-scale tensor, timed from outside.

For each rank it runs a short ANLS fit while capturing the NNLS problems of
its last sweep, then times, each as the median of repeated calls:

* MTTKRP per mode: ``unfold(X, n) @ khatri_rao(...)`` with the unfolding
  precomputed, as in a sweep;
* one ``solve_nnls_bpp`` per mode on the captured Gram and right-hand side;
* ``kruskal_tensor`` and the dense fit check ``||X - X_hat||``.

FLOPs and bytes moved are computed from the shapes, not measured.
"""

from __future__ import annotations

import statistics
import sys
import time

# ROADMAP baseline, rank 5 on 961 x 4 x 100 (2 cores, Python 3.11, numpy 2.4)
BASELINE = {
    "sweep_ms": 17.5,
    "mttkrp_ms": 0.6,
    "fit_check_ms": 2.1,
    "bpp_share": 0.60,
}

CAPTURE_SWEEPS = 20
REPEATS = 15


def _median_ms(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _capture_fit(t, rank: int):
    """Fit ``rank`` for a few sweeps; return model, seconds, last-sweep problems."""
    from matchfactor.decompose import DecomposeConfig

    decompose = sys.modules["matchfactor.decompose"]
    solve = decompose.solve_nnls_bpp
    problems = []

    def capture(problem, **kwargs):
        problems.append(problem)
        return solve(problem, **kwargs)

    decompose.solve_nnls_bpp = capture
    try:
        cfg = DecomposeConfig(n_restarts=1, max_outer_iters=CAPTURE_SWEEPS)
        t0 = time.perf_counter()
        (model,) = decompose.fit_restarts(t, rank, cfg)
        seconds = time.perf_counter() - t0
    finally:
        decompose.solve_nnls_bpp = solve
    return model, seconds, problems[-3:]


def kernel_bench(tensor_path, ranks=(3, 5)) -> dict:
    """Per-rank kernel timings with computed FLOPs and bytes."""
    from matchfactor.nnls import solve_nnls_bpp
    from matchfactor.tensor import frobenius_norm, khatri_rao, kruskal_tensor, load_tensor3, unfold

    t, _ = load_tensor3(tensor_path)
    dims = t.shape
    size = t.size
    unfoldings = [unfold(t, mode) for mode in (1, 2, 3)]
    out = {}
    for rank in ranks:
        model, fit_seconds, problems = _capture_fit(t, rank)
        f = model.factors
        row = {"sweeps": model.iterations, "sweep_ms": 1e3 * fit_seconds / model.iterations}
        for mode in range(3):
            p, q = (f[i] for i in range(2, -1, -1) if i != mode)
            other = size // dims[mode]
            row[f"mttkrp_ms.mode{mode + 1}"] = _median_ms(lambda: unfoldings[mode] @ khatri_rao(p, q))
            row[f"mttkrp_flops.mode{mode + 1}"] = rank * other * (1 + 2 * dims[mode])
            # unfolding read, Khatri-Rao written and read, result written
            row[f"mttkrp_bytes.mode{mode + 1}"] = 8 * (size + 2 * other * rank + dims[mode] * rank)
        bpp = [_median_ms(lambda pr=pr: solve_nnls_bpp(pr)) for pr in problems]
        row["bpp_ms"] = sum(bpp)
        row["bpp_rounds"] = sum(solve_nnls_bpp(pr).iterations for pr in problems)
        row["bpp_share"] = row["bpp_ms"] / row["sweep_ms"]
        row["kruskal_ms"] = _median_ms(lambda: kruskal_tensor(model.weights, *f))
        row["kruskal_flops"] = rank * (dims[1] * dims[2] + 2 * size)
        row["kruskal_bytes"] = 8 * (2 * dims[1] * dims[2] * rank + 2 * size)
        row["fit_check_ms"] = _median_ms(lambda: frobenius_norm(t - kruskal_tensor(model.weights, *f)))
        out[rank] = row
    return out


def print_table(results: dict, file=sys.stdout) -> None:
    print("kernel microbenchmark (FLOPs and bytes computed from shapes):", file=file)
    for rank, row in results.items():
        print(
            f"  rank {rank}: {row['sweep_ms']:.2f} ms/sweep over {row['sweeps']} sweeps; "
            f"BPP {row['bpp_ms']:.2f} ms/sweep ({row['bpp_rounds']} rounds, "
            f"{100 * row['bpp_share']:.0f}% of the sweep); kruskal {row['kruskal_ms']:.2f} ms; "
            f"dense fit check {row['fit_check_ms']:.2f} ms",
            file=file,
        )
        for mode in (1, 2, 3):
            print(
                f"    MTTKRP mode {mode}: {row[f'mttkrp_ms.mode{mode}']:.3f} ms, "
                f"{row[f'mttkrp_flops.mode{mode}'] / 1e6:.2f} MFLOP, "
                f"{row[f'mttkrp_bytes.mode{mode}'] / 1e6:.2f} MB moved",
                file=file,
            )
    if 5 in results:
        row = results[5]
        print(
            "  ROADMAP baseline at rank 5: "
            f"{BASELINE['sweep_ms']} ms/sweep (now {row['sweep_ms']:.2f}), "
            f"{BASELINE['mttkrp_ms']} ms MTTKRP per mode (now "
            + "/".join(f"{row[f'mttkrp_ms.mode{m}']:.2f}" for m in (1, 2, 3))
            + f"), {BASELINE['fit_check_ms']} ms dense fit check (now {row['fit_check_ms']:.2f}), "
            f"BPP {100 * BASELINE['bpp_share']:.0f}% (now {100 * row['bpp_share']:.0f}%)",
            file=file,
        )
