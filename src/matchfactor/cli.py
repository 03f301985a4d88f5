"""Command-line pipeline: ingest, rank-scan, analyze, synth.

Every artifact is plain CSV or JSON designed for direct plotting, embeds the
run configuration and tool version, and is byte-identical across re-runs
with the same inputs and seeds.  CSV artifacts start with one ``#`` comment
line carrying the provenance echo.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import FEATURES, ingest, normalize_minmax
from .decompose import DecomposeConfig, model_to_doc, rank_scan
from .errors import MatchFactorError
from .patterns import (
    cluster_feature_trajectories,
    feature_membership,
    kmeans,
    temporal_modulation,
    win_rate_stats,
)
from .synthetic import SyntheticSpec, generate_synthetic
from .tensor import load_tensor3, save_tensor3

_OUT_DIR_ENV = "MATCHFACTOR_OUT_DIR"


def _config_echo(args: argparse.Namespace) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    echo["tool_version"] = __version__
    return echo


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, config: dict, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# matchfactor {__version__} config={json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value) -> str:
    return repr(float(value))


def _cells(*arrays: np.ndarray):
    """One row per index of the equally shaped ``arrays``, in C order: the
    index, then each array's value there."""
    for idx in np.ndindex(arrays[0].shape):
        yield [*idx, *(_fmt(a[idx]) for a in arrays)]


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _restart_warnings(records) -> list[str]:
    """One message per failed restart, also printed to stderr."""
    messages = [f"rank {r.rank} restart {r.restart} failed: {r.error}" for r in records if r.failed]
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    return messages


def _parse_ranks(text: str) -> list[int]:
    text = text.strip()
    for sep in (":", "-"):
        if sep in text:
            lo, hi = text.split(sep, 1)
            return list(range(int(lo), int(hi) + 1))
    return [int(text)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_echo(args)
    out = _out_dir(args)
    result = ingest(
        args.input, fmt=args.format, arena_id=args.arena_id, n_matches=args.matches
    )
    normalized = normalize_minmax(result.dataset, per_player=args.per_player)
    winners = result.dataset.winner_matrix()

    metadata = {
        "config": config,
        "player_ids": list(normalized.player_ids),
        "feature_names": list(FEATURES),
        "feature_min": normalized.feature_min.tolist(),
        "feature_max": normalized.feature_max.tolist(),
        "constant_features": normalized.constant_mask.tolist(),
        "per_player_normalization": normalized.per_player,
        "winner": winners.astype(int).tolist(),
    }
    save_tensor3(out / "tensor.json", normalized.tensor, metadata)

    summary = {
        "config": config,
        "players_retained": result.players_retained,
        "players_dropped": result.players_dropped,
        "records_read": result.records_read,
        "records_other_arena": result.records_other_arena,
        "tensor_dims": list(normalized.tensor.shape),
        "feature_ranges": {
            name: {"min": float(lo), "max": float(hi)}
            for name, lo, hi in zip(
                FEATURES,
                np.atleast_1d(normalized.feature_min).ravel()[: len(FEATURES)],
                np.atleast_1d(normalized.feature_max).ravel()[: len(FEATURES)],
            )
        }
        if not normalized.per_player
        else {},
    }
    _write_json(out / "ingest_summary.json", summary)
    print(f"wrote {out / 'tensor.json'} ({result.players_retained} players)")
    return 0


def cmd_rank_scan(args: argparse.Namespace) -> int:
    config = _config_echo(args)
    out = _out_dir(args)
    t, _ = load_tensor3(args.input)
    ranks = _parse_ranks(args.ranks)
    cfg = DecomposeConfig(
        seed=args.seed,
        n_restarts=args.restarts,
        max_outer_iters=args.max_iters,
        rel_tol=args.tol,
    )
    result = rank_scan(t, ranks, cfg)

    rows = [
        [
            rec.rank,
            rec.restart,
            rec.seed,
            _fmt(rec.core_consistency),
            _fmt(rec.fit),
            int(rec.converged),
            rec.error or "",
        ]
        for rec in result.records
    ]
    _write_csv(
        out / "rank_scan.csv",
        config,
        ["rank", "restart", "seed", "core_consistency", "fit", "converged", "error"],
        rows,
    )
    failures = _restart_warnings(result.records)
    best = {
        str(rank): {
            "core_consistency": rec.core_consistency,
            "fit": rec.fit,
            "seed": rec.seed,
        }
        for rank, rec in result.best_by_rank().items()
    }
    _write_json(
        out / "rank_selection.json",
        {
            "config": config,
            "selected_rank": result.selected_rank,
            "rationale": result.rationale,
            "best_by_rank": best,
            "failed_restarts": len(failures),
        },
    )
    print(f"selected rank {result.selected_rank}: {result.rationale}")
    return 0


def _silhouette_sweep(
    user_factors: np.ndarray, k_values, seed: int
) -> tuple[list[dict], list[str]]:
    results = []
    warnings = []
    n = user_factors.shape[0]
    for k in k_values:
        if not 2 <= k <= n:
            warnings.append(f"k={k} outside the valid range [2, {n}]; skipped")
            continue
        try:
            assign = kmeans(user_factors, k, seed=seed)
        except MatchFactorError as exc:
            warnings.append(f"k={k} clustering failed: {type(exc).__name__}: {exc}")
            continue
        results.append(
            {
                "k": k,
                "silhouette": assign.silhouette,
                "inertia": assign.inertia,
                "cluster_sizes": list(assign.cluster_sizes()),
            }
        )
    return results, warnings


def _container_metadata(path, metadata: dict, shape) -> tuple[list, list, np.ndarray | None]:
    """Feature names, player ids and winner matrix of a container, checked against its dims."""
    i_dim, j_dim, k_dim = shape

    def names(key: str, count: int, default: list[str]) -> list[str]:
        value = metadata.get(key, default)
        if not (
            isinstance(value, list)
            and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value) == count
        ):
            raise ValueError(f"{path}: metadata {key!r} must be a list of {count} distinct strings")
        return value

    feature_names = names(
        "feature_names", j_dim, [FEATURES[j] if j < len(FEATURES) else str(j) for j in range(j_dim)]
    )
    player_ids = names("player_ids", i_dim, [f"row{i}" for i in range(i_dim)])
    winner = metadata.get("winner")
    if winner is not None:
        try:
            winner = np.asarray(winner)
        except ValueError:  # a ragged nesting of lists
            winner = np.empty(0)
        if (
            winner.shape != (i_dim, k_dim)
            or winner.dtype.kind not in "biuf"
            or not np.isin(winner, (0, 1)).all()
        ):
            raise ValueError(f"{path}: metadata 'winner' must be a {i_dim} x {k_dim} array of 0/1")
        winner = winner.astype(float)
    return feature_names, player_ids, winner


def _selected_rank(path: Path) -> int:
    """The integer ``selected_rank`` of a ``rank_selection.json``."""
    if not path.exists():
        raise MatchFactorError("no --rank given and no rank_selection.json in the output directory")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rank = doc.get("selected_rank") if isinstance(doc, dict) else None
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValueError(f"{path}: 'selected_rank' must be an integer")
    return rank


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _config_echo(args)
    out = _out_dir(args)
    t, metadata = load_tensor3(args.input)
    feature_names, player_ids, winner = _container_metadata(args.input, metadata, t.shape)

    rank = args.rank if args.rank is not None else _selected_rank(out / "rank_selection.json")

    cfg = DecomposeConfig(
        seed=args.seed,
        n_restarts=args.restarts,
        max_outer_iters=args.max_iters,
        rel_tol=args.tol,
    )
    # a one-rank scan: the restarts' records carry their models and consistencies
    scan = rank_scan(t, [rank], cfg)
    restart_warnings = _restart_warnings(scan.records)
    best = scan.best(rank)
    model, cc = best.model, best.core_consistency
    _write_json(
        out / "factor_model.json",
        model_to_doc(model, core_consistency_value=cc, config=config),
    )

    # feature signatures (masked feature-factor view)
    signature = feature_membership(model.factors[1], fraction=args.membership_fraction)
    _write_json(
        out / "feature_signatures.json",
        {
            "config": config,
            "fraction": signature.fraction,
            "components": [
                {
                    "component": r,
                    "features": [feature_names[i] for i in signature.retained_indices[r]],
                    "feature_indices": list(signature.retained_indices[r]),
                    "memberships": list(signature.retained_values[r]),
                }
                for r in range(signature.n_components)
            ],
            "empty_components": list(signature.empty_components),
        },
    )

    # player clustering at k (default: one cluster per component) + neighbors
    k_main = args.k if args.k is not None else rank
    assign = kmeans(model.factors[0], k_main, seed=args.seed)
    sweep_ks = [k for k in range(rank - 1, rank + 3) if k != k_main]
    sweep, warnings = _silhouette_sweep(model.factors[0], sweep_ks, args.seed)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    _write_json(
        out / "clusters.json",
        {
            "config": config,
            "k": k_main,
            "labels": {pid: int(c) for pid, c in zip(player_ids, assign.labels)},
            "cluster_sizes": list(assign.cluster_sizes()),
            "centroids": [list(map(float, row)) for row in assign.centroids],
            "inertia": assign.inertia,
            "silhouette": assign.silhouette,
            "sample_silhouettes": (
                assign.sample_silhouettes.tolist()
                if assign.sample_silhouettes is not None
                else None
            ),
            "silhouette_sweep": sweep,
            "warnings": warnings,
        },
    )

    # membership modulated in time, per cluster and component
    profile = temporal_modulation(model, assign.labels)
    _write_csv(
        out / "temporal_profiles.csv",
        config,
        ["cluster", "component", "step", "mean", "stderr"],
        _cells(profile.means, profile.stderrs),
    )

    # temporal activation of each component (time factor columns)
    rows = ([step, r, a] for r, step, a in _cells(model.factors[2].T))
    _write_csv(
        out / "component_activity.csv", config, ["step", "component", "activation"], rows
    )

    # raw per-cluster feature trajectories (validation view)
    trajectories = cluster_feature_trajectories(t, assign.labels)
    rows = (
        [ci, feature_names[j], step, m, se]
        for ci, j, step, m, se in _cells(trajectories.means, trajectories.stderrs)
    )
    _write_csv(
        out / "feature_trajectories.csv",
        config,
        ["cluster", "feature", "step", "mean", "stderr"],
        rows,
    )

    # win-rate distributions per cluster
    if winner is not None:
        stats = win_rate_stats(winner, assign.labels, mode=args.kde_mode)
        rows = ([ci, _fmt(stats.grid[g]), d] for ci, g, d in _cells(stats.densities))
        _write_csv(
            out / "win_rate_kde.csv", config, ["cluster", "win_rate", "density"], rows
        )
        _write_json(
            out / "win_rate_tests.json",
            {
                "config": config,
                "mode": stats.mode,
                "cluster_means": list(stats.cluster_means),
                "cluster_sizes": list(stats.cluster_sizes),
                "pairwise": [
                    {"cluster_a": a, "cluster_b": b, "t": t_stat, "p": p}
                    for a, b, t_stat, p in stats.pairwise_tests
                ],
            },
        )
    else:
        print(
            "warning: tensor container has no winner metadata; win-rate stats skipped",
            file=sys.stderr,
        )

    _write_json(
        out / "analyze_summary.json",
        {
            "config": config,
            "rank": rank,
            "core_consistency": cc,
            "fit": model.fit,
            "k": k_main,
            "cluster_sizes": list(assign.cluster_sizes()),
            "silhouette": assign.silhouette,
            "warnings": restart_warnings + warnings,
        },
    )
    print(
        f"analyzed rank {rank}: fit {model.fit:.6f}, core consistency {cc:.2f}, "
        f"clusters {assign.cluster_sizes()}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = _config_echo(args)
    out = _out_dir(args)
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.spec}: a spec must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(SyntheticSpec)})
        if unknown:
            raise ValueError(f"{args.spec}: unknown spec keys {unknown}")
        for key in ("signatures", "group_sizes", "win_bias", "feature_scales"):
            if key in doc:
                doc[key] = tuple(
                    tuple(v) if isinstance(v, list) else v for v in doc[key]
                )
        spec = SyntheticSpec(**doc)
    else:
        spec = SyntheticSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)

    result = generate_synthetic(spec)
    result.dataset.write_csv(out / "synthetic.csv")
    _write_json(
        out / "truth_model.json", model_to_doc(result.truth, config=config)
    )
    _write_csv(
        out / "truth_labels.csv",
        config,
        ["player_id", "group"],
        [
            [pid, int(group)]
            for pid, group in zip(result.dataset.player_ids, result.labels)
        ],
    )
    _write_json(
        out / "synth_summary.json",
        {
            "config": config,
            "players": spec.n_players,
            "matches": spec.n_matches,
            "rank": spec.rank,
            "seed": spec.seed,
            "exact": spec.exact,
            "group_sizes": list(spec.group_sizes),
        },
    )
    print(f"wrote {out / 'synthetic.csv'} ({spec.n_players} players)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchfactor",
        description="Behavioral pattern mining on match telemetry tensors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get(_OUT_DIR_ENV, "matchfactor-out")

    def add_common(p):
        p.add_argument("--out-dir", default=default_out, help="artifact directory")

    p_ingest = sub.add_parser("ingest", help="read match records, build the tensor")
    p_ingest.add_argument("--input", required=True, help="input file path")
    p_ingest.add_argument(
        "--format",
        choices=["csv", "json-lines", "riot-match-json"],
        default="csv",
    )
    p_ingest.add_argument("--arena-id", type=int, default=11)
    p_ingest.add_argument("--matches", type=int, default=100)
    p_ingest.add_argument(
        "--per-player", action="store_true", help="normalize each player separately"
    )
    add_common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_scan = sub.add_parser("rank-scan", help="core-consistency curve over ranks")
    p_scan.add_argument("--input", required=True, help="tensor container path")
    p_scan.add_argument("--ranks", default="1:10", help="inclusive range, e.g. 1:10")
    p_scan.add_argument("--restarts", type=int, default=5)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--tol", type=float, default=1e-8)
    p_scan.add_argument("--max-iters", type=int, default=500)
    p_scan.add_argument("--threads", type=int, default=1, help="ignored; kept for compatibility")
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_rank_scan)

    p_an = sub.add_parser("analyze", help="fit, cluster and report at one rank")
    p_an.add_argument("--input", required=True, help="tensor container path")
    p_an.add_argument("--rank", type=int, default=None)
    p_an.add_argument("--restarts", type=int, default=5)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--tol", type=float, default=1e-8)
    p_an.add_argument("--max-iters", type=int, default=500)
    p_an.add_argument("--k", type=int, default=None, help="cluster count override")
    p_an.add_argument("--membership-fraction", type=float, default=0.95)
    p_an.add_argument(
        "--kde-mode", choices=["player-mean", "raw"], default="player-mean"
    )
    p_an.add_argument("--threads", type=int, default=1, help="ignored; kept for compatibility")
    add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sy = sub.add_parser("synth", help="generate a synthetic dataset with truth")
    p_sy.add_argument("--spec", default=None, help="JSON file with spec overrides")
    p_sy.add_argument("--seed", type=int, default=None)
    add_common(p_sy)
    p_sy.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MatchFactorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
