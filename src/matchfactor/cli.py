"""Command-line pipeline: ingest, rank-scan, analyze, synth.

Every artifact is plain CSV or JSON designed for direct plotting, embeds the
run configuration and tool version, and is byte-identical across re-runs
with the same inputs, seeds and BLAS thread count (under another count the
fit's reductions may round differently).  CSV artifacts start with one
``#`` comment line carrying the provenance echo.

Each subcommand returns its artifacts and warnings; ``main``, the only code
that prints, writes them only after the stage has succeeded, so a failed
stage leaves the output directory as it was and prints no warning.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .data import FEATURES, ingest, normalize_minmax
from .decompose import DecomposeConfig, model_to_doc, rank_scan
from .errors import MatchFactorError
from .patterns import analyze
from .synthetic import SyntheticSpec, generate_synthetic
from .tensor import _read_json, _write_json, load_tensor3, save_tensor3


def _config_echo(args: argparse.Namespace) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    echo["tool_version"] = __version__
    return echo


def _write_csv(path: Path, config: dict, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# matchfactor {__version__} config={json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_artifacts(out: Path, config: dict, artifacts: dict) -> None:
    """Write each artifact into ``out``, created if absent, under its file
    name: a dict as JSON with the config echo added, a ``(header, rows)``
    pair as CSV with its provenance line, and a callable ``(path, config)``
    writes its own file."""
    out.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        path = out / name
        if isinstance(content, dict):
            _write_json(path, {**content, "config": config})
        elif callable(content):
            content(path, config)
        else:
            _write_csv(path, config, *content)


def _fmt(value) -> str:
    return repr(float(value))


def _cells(*arrays: np.ndarray):
    """One row per index of the equally shaped ``arrays``, in C order: the
    index, then each array's value there."""
    for idx in np.ndindex(arrays[0].shape):
        yield [*idx, *(_fmt(a[idx]) for a in arrays)]


def _restart_failures(records) -> list[str]:
    """A warning per failed restart of ``records``."""
    return [f"rank {r.rank} restart {r.restart} failed: {r.error}" for r in records if r.failed]


def _parse_ranks(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        message = f"--ranks must be R or LO:HI with integer bounds, got {text!r}"
        raise ValueError(message) from None


def _decompose_config(args: argparse.Namespace) -> DecomposeConfig:
    return DecomposeConfig(
        seed=args.seed,
        n_restarts=args.restarts,
        max_outer_iters=args.max_iters,
        rel_tol=args.tol,
    )


# ---------------------------------------------------------------------------
# subcommands: each returns (artifacts by file name, warnings, message)


def cmd_ingest(args: argparse.Namespace) -> tuple[dict, list[str], str]:
    result = ingest(
        args.input, fmt=args.format, arena_id=args.arena_id, n_matches=args.matches
    )
    normalized = normalize_minmax(result.dataset, per_player=args.per_player)
    metadata = {
        "player_ids": list(normalized.player_ids),
        "feature_names": list(FEATURES),
        "feature_min": normalized.feature_min.tolist(),
        "feature_max": normalized.feature_max.tolist(),
        "constant_features": normalized.constant_mask.tolist(),
        "per_player_normalization": normalized.per_player,
        "winner": result.dataset.winners.view(np.uint8).tolist(),
    }
    artifacts = {
        "tensor.json": lambda path, config: save_tensor3(
            path, normalized.tensor, {**metadata, "config": config}
        ),
        "ingest_summary.json": {
            "players_retained": result.players_retained,
            "players_dropped": result.players_dropped,
            "records_read": result.records_read,
            "records_other_arena": result.records_other_arena,
            "tensor_dims": list(normalized.tensor.shape),
            "feature_ranges": {}
            if normalized.per_player
            else {
                name: {"min": float(lo), "max": float(hi)}
                for name, lo, hi in zip(FEATURES, normalized.feature_min, normalized.feature_max)
            },
        },
    }
    warnings = []
    if result.players_dropped:
        warnings.append(f"dropped {result.players_dropped} players with incomplete histories")
    if normalized.constant_mask.any():
        warnings.append(f"constant features mapped to zeros: mask={metadata['constant_features']}")
    message = f"wrote {Path(args.out_dir) / 'tensor.json'} ({result.players_retained} players)"
    return artifacts, warnings, message


def cmd_rank_scan(args: argparse.Namespace) -> tuple[dict, list[str], str]:
    t = load_tensor3(args.input)[0]  # the metadata, winner lists and all, is freed at once
    result = rank_scan(t, _parse_ranks(args.ranks), _decompose_config(args))
    if all(rec.failed for rec in result.records):
        first = result.records[0].error
        raise MatchFactorError(f"no restart succeeded at any rank; first error: {first}")
    rows = [
        [
            rec.rank,
            rec.restart,
            rec.seed,
            _fmt(rec.core_consistency),
            _fmt(rec.fit),
            int(rec.converged),
            # components that collapsed to weight 0: the fit is of a lower rank
            "" if rec.failed else int(np.count_nonzero(rec.model.weights == 0.0)),
            rec.error or "",
        ]
        for rec in result.records
    ]
    failures = _restart_failures(result.records)
    best = {
        str(rank): {
            "core_consistency": rec.core_consistency,
            "fit": rec.fit,
            "seed": rec.seed,
        }
        for rank, rec in result.best_by_rank().items()
    }
    artifacts = {
        "rank_scan.csv": (
            ["rank", "restart", "seed", "core_consistency", "fit", "converged", "zero_weights",
             "error"],
            rows,
        ),
        "rank_selection.json": {
            "selected_rank": result.selected_rank,
            "rationale": result.rationale,
            "best_by_rank": best,
            "failed_restarts": len(failures),
        },
    }
    return artifacts, failures, f"selected rank {result.selected_rank}: {result.rationale}"


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


def _selected_rank(out_dir, tensor_path) -> int:
    """The integer ``selected_rank`` of the ``rank_selection.json`` in ``out_dir``,
    refused if its config echo names an input other than ``tensor_path``."""
    path = Path(out_dir) / "rank_selection.json"
    if not path.exists():
        raise MatchFactorError("no --rank given and no rank_selection.json in the output directory")
    doc = _read_json(path)
    rank = doc.get("selected_rank") if isinstance(doc, dict) else None
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValueError(f"{path}: 'selected_rank' must be an integer")
    config = doc.get("config")
    scanned = config.get("input") if isinstance(config, dict) else None
    if isinstance(scanned, str) and Path(scanned).resolve() != Path(tensor_path).resolve():
        raise MatchFactorError(
            f"{path}: rank {rank} was selected on {scanned}, not on --input {tensor_path}; "
            "pass --rank to analyze this input"
        )
    return rank


def _clustering_doc(assign) -> dict:
    return {
        "k": assign.n_clusters,
        "silhouette": assign.silhouette,
        "inertia": assign.inertia,
        "cluster_sizes": list(assign.cluster_sizes()),
    }


def cmd_analyze(args: argparse.Namespace) -> tuple[dict, list[str], str]:
    t, metadata = load_tensor3(args.input)
    feature_names, player_ids, winner = _container_metadata(args.input, metadata, t.shape)
    del metadata  # its winner lists, held through every fit otherwise
    rank = args.rank if args.rank is not None else _selected_rank(args.out_dir, args.input)
    report = analyze(
        t, rank, _decompose_config(args), k=args.k, fraction=args.membership_fraction,
        winner=winner, kde_mode=args.kde_mode,
    )
    warnings = _restart_failures(report.records) + list(report.sweep_warnings)
    model, cc = report.best.model, report.best.core_consistency
    signature, clusters, stats = report.signature, report.clusters, report.win_rates

    artifacts = {
        "factor_model.json": model_to_doc(model, core_consistency_value=cc),
        "feature_signatures.json": {
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
        "clusters.json": {
            **_clustering_doc(clusters),
            "labels": {pid: int(c) for pid, c in zip(player_ids, clusters.labels)},
            "centroids": clusters.centroids.tolist(),
            "sample_silhouettes": (
                clusters.sample_silhouettes.tolist()
                if clusters.sample_silhouettes is not None
                else None
            ),
            "silhouette_sweep": [_clustering_doc(assign) for assign in report.sweep],
            "warnings": list(report.sweep_warnings),
        },
        "temporal_profiles.csv": (
            ["cluster", "component", "step", "mean", "stderr"],
            _cells(report.profile.means, report.profile.stderrs),
        ),
        # temporal activation of each component (time factor columns)
        "component_activity.csv": (
            ["step", "component", "activation"],
            ([step, r, a] for r, step, a in _cells(model.factors[2].T)),
        ),
        "feature_trajectories.csv": (
            ["cluster", "feature", "step", "mean", "stderr"],
            (
                [ci, feature_names[j], *rest]
                for ci, j, *rest in _cells(report.trajectories.means, report.trajectories.stderrs)
            ),
        ),
    }
    if stats is None:
        no_winner = "tensor container has no winner metadata; win-rate stats skipped"
        warnings.append(report.win_rate_error or no_winner)
    else:
        artifacts["win_rate_kde.csv"] = (
            ["cluster", "win_rate", "density"],
            ([ci, _fmt(stats.grid[g]), d] for ci, g, d in _cells(stats.densities)),
        )
        artifacts["win_rate_tests.json"] = {
            "mode": stats.mode,
            "cluster_means": list(stats.cluster_means),
            "cluster_sizes": list(stats.cluster_sizes),
            "pairwise": [
                {"cluster_a": a, "cluster_b": b, "t": t_stat, "p": p}
                for a, b, t_stat, p in stats.pairwise_tests
            ],
        }
    artifacts["analyze_summary.json"] = {
        "rank": rank,
        "core_consistency": cc,
        "fit": model.fit,
        "k": clusters.n_clusters,
        "cluster_sizes": list(clusters.cluster_sizes()),
        "silhouette": clusters.silhouette,
        "warnings": warnings,
    }
    message = (
        f"analyzed rank {rank}: fit {model.fit:.6f}, core consistency {cc:.2f}, "
        f"clusters {clusters.cluster_sizes()}"
    )
    return artifacts, warnings, message


# a scalar SyntheticSpec field type: its JSON type in words, singular and
# plural, and the Python types a decoded JSON value of that type may have
_JSON_TYPES = {
    bool: ("a boolean", "booleans", (bool,)),
    int: ("an integer", "integers", (int,)),
    float: ("a finite number", "finite numbers", (int, float)),
}


def _json_type(hint, plural: bool = False) -> str:
    """The JSON type of a ``SyntheticSpec`` field type, in words."""
    if typing.get_origin(hint) is not tuple:
        return _JSON_TYPES[hint][plural]
    items = _json_type(typing.get_args(hint)[0], plural=True)
    return f"arrays of {items}" if plural else f"an array of {items}"


def _spec_value(hint, value):
    """A spec file's JSON ``value`` as a field of type ``hint``, arrays as
    tuples; a value of another JSON type raises ``TypeError``."""
    if typing.get_origin(hint) is not tuple:
        if type(value) in _JSON_TYPES[hint][2] and abs(value) < math.inf:
            return value
    elif isinstance(value, list):
        return tuple(_spec_value(typing.get_args(hint)[0], v) for v in value)
    raise TypeError


def _load_spec(path) -> SyntheticSpec:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a spec must be a JSON object")
    hints = typing.get_type_hints(SyntheticSpec)
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise ValueError(f"{path}: unknown spec keys {unknown}")
    values = {}
    for key, value in doc.items():
        try:
            values[key] = _spec_value(hints[key], value)
        except TypeError:
            raise ValueError(f"{path}: {key!r} must be {_json_type(hints[key])}") from None
    try:
        return SyntheticSpec(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_synth(args: argparse.Namespace) -> tuple[dict, list[str], str]:
    spec = _load_spec(args.spec) if args.spec is not None else SyntheticSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)

    result = generate_synthetic(spec)
    artifacts = {
        "synthetic.csv": lambda path, config: result.dataset.write_csv(path),
        "truth_model.json": model_to_doc(result.truth),
        "truth_labels.csv": (
            ["player_id", "group"],
            [[pid, int(group)] for pid, group in zip(result.dataset.player_ids, result.labels)],
        ),
        "synth_summary.json": {
            "players": spec.n_players,
            "matches": spec.n_matches,
            "rank": spec.rank,
            "seed": spec.seed,
            "exact": spec.exact,
            "group_sizes": list(spec.group_sizes),
        },
    }
    message = f"wrote {Path(args.out_dir) / 'synthetic.csv'} ({spec.n_players} players)"
    return artifacts, [], message


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchfactor",
        description="Behavioral pattern mining on match telemetry tensors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fit_defaults = DecomposeConfig()

    def add_common(p):
        p.add_argument("--out-dir", default="matchfactor-out", help="artifact directory")

    def add_fit(p):
        p.add_argument("--input", required=True, help="tensor container path")
        p.add_argument("--restarts", type=int, default=fit_defaults.n_restarts)
        p.add_argument("--seed", type=int, default=fit_defaults.seed)
        p.add_argument("--tol", type=float, default=fit_defaults.rel_tol)
        p.add_argument("--max-iters", type=int, default=fit_defaults.max_outer_iters)
        p.add_argument("--threads", type=int, default=1, help="ignored; kept for compatibility")
        add_common(p)

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
    p_scan.add_argument("--ranks", default="1:10", help="R or an inclusive range LO:HI, e.g. 1:10")
    add_fit(p_scan)
    p_scan.set_defaults(func=cmd_rank_scan)

    p_an = sub.add_parser("analyze", help="fit, cluster and report at one rank")
    p_an.add_argument("--rank", type=int, default=None)
    p_an.add_argument("--k", type=int, default=None, help="cluster count override")
    p_an.add_argument("--membership-fraction", type=float, default=0.95)
    p_an.add_argument(
        "--kde-mode", choices=["player-mean", "raw"], default="player-mean"
    )
    add_fit(p_an)
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
    out = Path(args.out_dir)
    try:
        if out.exists() and not out.is_dir():
            out.mkdir()  # raises FileExistsError now, not after the stage has run
        artifacts, warnings, message = args.func(args)
        _write_artifacts(out, _config_echo(args), artifacts)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MatchFactorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(message)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
