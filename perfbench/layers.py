"""Per-layer metrics from the spans of one traced pass.

Times are sums over the outermost span of each name, so a recursive or
re-entrant call is not counted twice.  A layer's self time is the sum over
its spans of the span's duration minus the union of its children's
intervals; restarts on a thread pool overlap, hence the union.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import LAYERS

NAME, START, END, PARENT, THREAD, ERROR, INFO = range(7)

FIT_CALLS = ("decompose.rank_scan", "decompose.fit_restarts", "decompose.decompose")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(spans[c][START], span[START]), min(spans[c][END], span[END]))
            for c in children[i]
        ]
        out.append(span[END] - span[START] - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def _outermost(spans: list[list], names: set[str]) -> list[list]:
    """Spans with a name in ``names`` and no ancestor with such a name."""
    out = []
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(span)
    return out


class _Stage:
    """Aggregates over the spans of one stage process."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self_s = self_times(spans)

    def total(self, *names: str) -> float:
        return sum(s[END] - s[START] for s in _outermost(self.spans, set(names)))

    def calls(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def info(self, name: str, key: str) -> list:
        return [s[INFO][key] for s in self.calls(name) if s[INFO] is not None]


def layer_metrics(stage_spans: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics summed over the stages of one traced pass."""
    stages = [_Stage(spans) for spans in stage_spans]

    def total(name):
        return sum(st.total(name) for st in stages)

    def info(name, key):
        return [v for st in stages for v in st.info(name, key)]

    fit_s = sum(st.total(*FIT_CALLS) for st in stages)
    fit_self_s = sweeps = 0
    for st in stages:
        fit_spans = {i for i, s in enumerate(st.spans) if s[NAME] in FIT_CALLS}
        fit_self_s += sum(st.self_s[i] for i in fit_spans)
        # every ANLS sweep evaluates its fit with exactly one kruskal_tensor call
        sweeps += sum(
            1 for s in st.spans
            if s[NAME] == "tensor.kruskal_tensor" and s[PARENT] in fit_spans
        )
    solves = [s for st in stages for s in st.calls("nnls.solve_nnls_bpp")]
    rounds = info("nnls.solve_nnls_bpp", "rounds")
    kkt = info("nnls.solve_nnls_bpp", "kkt")
    fits = sum(info("decompose.rank_scan", "fits") + info("decompose.fit_restarts", "fits"))
    converged = sum(
        info("decompose.rank_scan", "converged") + info("decompose.fit_restarts", "converged")
    )
    records = sum(info("data.ingest", "records_read"))
    containers = info("tensor.save_tensor3", "bytes") + info("tensor.load_tensor3", "bytes")
    solve_s = total("nnls.solve_nnls_bpp")

    metrics = {
        "nnls.solve_ms": 1e3 * solve_s,
        "nnls.calls": len(solves),
        "nnls.pivot_rounds_per_call": sum(rounds) / len(rounds) if rounds else 0.0,
        "nnls.share": solve_s / fit_s if fit_s else 0.0,
        "nnls.max_kkt_residual": max(kkt, default=0.0),
        "nnls.failures": sum(1 for s in solves if s[ERROR] is not None),
        "decompose.fit_s": fit_s,
        "decompose.sweeps": sweeps,
        "decompose.ms_per_sweep": 1e3 * fit_s / sweeps if sweeps else 0.0,
        "decompose.self_ms_per_sweep": 1e3 * fit_self_s / sweeps if sweeps else 0.0,
        "decompose.converged_ratio": converged / fits if fits else 0.0,
        "decompose.core_consistency_ms": 1e3 * total("decompose.core_consistency"),
        "tensor.khatri_rao_ms": 1e3 * total("tensor.khatri_rao"),
        "tensor.kruskal_ms": 1e3 * total("tensor.kruskal_tensor"),
        "tensor.save_s": total("tensor.save_tensor3"),
        "tensor.load_s": total("tensor.load_tensor3"),
        "tensor.container_bytes": max(containers, default=0),
        "data.ingest_us_per_record": 1e6 * total("data.ingest") / records if records else 0.0,
        "data.normalize_ms": 1e3 * total("data.normalize_minmax"),
        "data.winner_matrix_ms": 1e3 * total("data.Dataset.winner_matrix"),
        "data.records_read": records,
        "data.players_retained": sum(info("data.ingest", "players_retained")),
        "data.players_dropped": sum(info("data.ingest", "players_dropped")),
        "data.write_csv_s": total("data.Dataset.write_csv"),
        "patterns.kmeans_s": total("patterns.kmeans"),
        "patterns.silhouette_ms": 1e3 * total("patterns.silhouette"),
        "patterns.win_rate_s": total("patterns.win_rate_stats"),
        "patterns.temporal_ms": 1e3 * total("patterns.temporal_modulation"),
        "patterns.trajectories_ms": 1e3 * total("patterns.cluster_feature_trajectories"),
        "synthetic.generate_s": total("synthetic.generate_synthetic"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for st in stages for s, t in zip(st.spans, st.self_s)
            if s[NAME].split(".", 1)[0] == layer
        )
    return metrics
