"""Independent oracles shared by the test modules.

Everything here is deliberately written the slow, obvious way (index loops,
exhaustive enumeration, numerical quadrature) so it cannot share a code path
with the implementation it checks.
"""

import csv
import dataclasses
import json
import math
import tracemalloc
from collections import namedtuple
from itertools import product, repeat
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from matchfactor.data import CSV_HEADER, FEATURES
from matchfactor.errors import DuplicateKey, MalformedRecord, NoPlayersRetained


def unfold_by_loops(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n matricization built entry by entry from the index formula."""
    dims = t.shape
    axis = mode - 1
    rest = [ax for ax in range(3) if ax != axis]
    out = np.zeros((dims[axis], dims[rest[0]] * dims[rest[1]]))
    for idx in product(*(range(d) for d in dims)):
        # remaining indices in increasing order, earlier index fastest
        col = idx[rest[0]] + idx[rest[1]] * dims[rest[0]]
        out[idx[axis], col] = t[idx]
    return out


def khatri_rao_by_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product via an explicit double loop."""
    ia, r = a.shape
    ib, _ = b.shape
    out = np.zeros((ia * ib, r))
    for col in range(r):
        for i in range(ia):
            for j in range(ib):
                out[i * ib + j, col] = a[i, col] * b[j, col]
    return out


def kruskal_by_loops(weights, a, b, c) -> np.ndarray:
    """Triple-loop summation of rank-one terms."""
    i_dim, r_dim = a.shape
    j_dim = b.shape[0]
    k_dim = c.shape[0]
    out = np.zeros((i_dim, j_dim, k_dim))
    for i in range(i_dim):
        for j in range(j_dim):
            for k in range(k_dim):
                out[i, j, k] = sum(
                    weights[r] * a[i, r] * b[j, r] * c[k, r] for r in range(r_dim)
                )
    return out


def permute_components(model, perm):
    """``model`` with its components (weights and the columns of all three
    factors) in the order ``perm``."""
    idx = np.asarray(perm, dtype=int)
    return dataclasses.replace(
        model,
        weights=model.weights[idx],
        factors=tuple(np.ascontiguousarray(f[:, idx]) for f in model.factors),
    )


def planted_factors_by_loops(
    rng, n_users, n_features, n_steps, rank, signatures, group_sizes, anchor_zero_row
):
    """The planted ``(users, features, time, labels)`` drawn from ``rng``
    one group, one signature and one phase at a time, each uniform formed
    from ``rng.random`` as ``low + (high - low) * u``."""

    def uniform(low, high, size):
        return low + (high - low) * rng.random(size)

    users = uniform(0.0, 0.12, (n_users, rank))
    labels = np.zeros(n_users, dtype=int)
    start = 0
    for r, size in enumerate(group_sizes):
        users[start : start + size, r] = uniform(0.75, 1.0, size)
        labels[start : start + size] = r
        start += size
    if anchor_zero_row:
        users[0] = 0.0
    features = np.zeros((n_features, rank))
    for r, sig in enumerate(signatures):
        features[list(sig), r] = uniform(0.6, 1.0, len(sig))
    steps = np.arange(n_steps) / max(n_steps, 1)
    time = np.empty((n_steps, rank))
    for r in range(rank):
        freq = 1.0 + 0.65 * r
        phase = uniform(0.0, 2.0 * np.pi, ())
        time[:, r] = 0.55 + 0.35 * np.sin(2.0 * np.pi * freq * steps + phase)
    return users, features, time, labels


def nnls_by_enumeration(gram: np.ndarray, rhs_col: np.ndarray) -> np.ndarray:
    """Exhaustive active-set search: solve the equality-constrained problem
    for every support pattern and keep the feasible minimizer."""
    n = gram.shape[0]
    best_x, best_obj = np.zeros(n), 0.0
    for pattern in product([False, True], repeat=n):
        free = np.flatnonzero(pattern)
        if free.size == 0:
            continue
        x = np.zeros(n)
        try:
            x[free] = np.linalg.solve(gram[np.ix_(free, free)], rhs_col[free])
        except np.linalg.LinAlgError:
            continue
        if (x < -1e-12).any():
            continue
        x = np.maximum(x, 0.0)
        obj = 0.5 * x @ gram @ x - rhs_col @ x
        if obj < best_obj:
            best_obj, best_x = obj, x
    return best_x


def student_t_sf_by_quadrature(t_abs: float, df: float) -> float:
    """Upper-tail probability of the Student t distribution via quadrature
    of the density (log-gamma normalization, adaptive integration)."""
    log_norm = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    def pdf(u):
        return math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(u * u / df))

    value, _ = quad(pdf, t_abs, np.inf, epsabs=1e-13, epsrel=1e-12)
    return value


def welch_p_by_quadrature(x, y) -> tuple[float, float]:
    """Welch statistic from the textbook formulas + quadrature p-value."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    nx, ny = len(x), len(y)
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    se2 = vx / nx + vy / ny
    t = (x.mean() - y.mean()) / math.sqrt(se2)
    df = se2**2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    return t, 2.0 * student_t_sf_by_quadrature(abs(t), df)


def silhouette_by_pairs(points, labels) -> np.ndarray:
    """Per-sample silhouette with each pair's distance taken directly from
    its coordinate differences, one point at a time."""
    points = np.asarray(points, float)
    labels = np.asarray(labels)
    s = np.zeros(len(points))
    for i, p in enumerate(points):
        d = np.sqrt(((points - p) ** 2).sum(axis=1))
        own = labels == labels[i]
        if own.sum() == 1:
            continue  # singleton convention
        a = d[own].sum() / (own.sum() - 1)
        b = min(d[labels == c].mean() for c in set(labels.tolist()) - {labels[i]})
        s[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return s


def kde_by_full_matrix(values, grid, bandwidth) -> np.ndarray:
    """Gaussian KDE from the whole grid x samples matrix at once."""
    z = (grid[:, None] - values[None, :]) / bandwidth
    return np.exp(-0.5 * z**2).sum(axis=1) / (values.size * bandwidth * np.sqrt(2.0 * np.pi))


def cluster_series_by_whole_array(t, labels):
    """Per-cluster mean and standard error of the rows of the whole
    (players x J x K) array ``t``, each cluster's rows copied at once:
    ``(means, stderrs, sizes)``."""
    clusters = np.unique(labels)
    means = np.zeros((clusters.size, *t.shape[1:]))
    stderrs = np.zeros_like(means)
    sizes = []
    for ci, c in enumerate(clusters):
        rows = t[labels == c]
        n = rows.shape[0]
        sizes.append(n)
        means[ci] = rows.mean(axis=0)
        if n > 1:
            stderrs[ci] = rows.std(axis=0, ddof=1) / np.sqrt(n)
    return means, stderrs, tuple(sizes)


def membership_by_broadcast(model):
    """The whole user x component x time membership array of ``model``."""
    users, _, time = model.factors
    return model.weights[None, :, None] * (users[:, :, None] * time.T[None])


def relative_noise_by_expression(tensor, level, rng):
    """Multiplicative clipped Gaussian noise as one expression over new arrays."""
    if level == 0.0:
        return tensor
    jitter = np.clip(1.0 + level * rng.standard_normal(tensor.shape), 0.0, None)
    return tensor * jitter


def normalize_by_where(counts, per_player=False):
    """Min-max normalization as one ``np.where`` over tensor-sized
    temporaries: the tensor and the constant-feature mask."""
    axis = 2 if per_player else (0, 2)
    mins = counts.min(axis=axis, keepdims=True)
    maxs = counts.max(axis=axis, keepdims=True)
    constant = maxs == mins
    tensor = np.where(constant, 0.0, (counts - mins) / np.where(constant, 1.0, maxs - mins))
    return tensor, constant.squeeze(axis)


def traced_peak(call):
    """The peak of memory traced by ``tracemalloc`` while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI from the pair-counting contingency table."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    classes_a = np.unique(a)
    classes_b = np.unique(b)
    table = np.array(
        [[(np.logical_and(a == ca, b == cb)).sum() for cb in classes_b] for ca in classes_a],
        dtype=float,
    )

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(float(len(a)))
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# match-record ingest, one record at a time


Record = namedtuple("Record", CSV_HEADER)


def _parse_number(raw, name, where, line):
    try:
        return float(raw)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRecord(f"{where}: {name} is not numeric ({raw!r})", line) from None


def _parse_winner(raw, where, line):
    if isinstance(raw, bool):
        return raw
    if str(raw) in ("0", "1"):
        return str(raw) == "1"
    raise MalformedRecord(f"{where}: winner must be 0 or 1 ({raw!r})", line)


def _parse_int(raw, name, where, line):
    try:
        value = int(str(raw))
    except (TypeError, ValueError):
        raise MalformedRecord(f"{where}: {name} is not an integer ({raw!r})", line) from None
    bounds = np.iinfo(np.int64)
    if not bounds.min <= value <= bounds.max:
        raise MalformedRecord(f"{where}: {name} is outside int64 ({raw!r})", line)
    return value


def _record_from_mapping(row, where, line):
    missing = [k for k in CSV_HEADER if k not in row or row[k] in (None, "")]
    if missing:
        raise MalformedRecord(f"{where}: missing fields {missing}", line)
    rec = Record(
        player_id=str(row["player_id"]),
        match_index=_parse_int(row["match_index"], "match_index", where, line),
        assists=_parse_number(row["assists"], "assists", where, line),
        deaths=_parse_number(row["deaths"], "deaths", where, line),
        kills=_parse_number(row["kills"], "kills", where, line),
        gold=_parse_number(row["gold"], "gold", where, line),
        winner=_parse_winner(row["winner"], where, line),
        arena_id=_parse_int(row["arena_id"], "arena_id", where, line),
    )
    if not rec.player_id:
        raise MalformedRecord(f"{where}: empty player_id", line)
    if rec.match_index < 0:
        raise MalformedRecord(f"{where}: negative match_index", line)
    for name in FEATURES:
        value = getattr(rec, name)
        if not np.isfinite(value) or value < 0:
            raise MalformedRecord(f"{where}: {name} must be a non-negative number", line)
    return rec


def _records_from_csv(path):
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_HEADER:
            raise MalformedRecord(f"bad CSV header: expected {','.join(CSV_HEADER)}", line=1)
        for row in reader:
            records.append(_record_from_mapping(row, "csv record", reader.line_num))
    return records


def _records_from_json_lines(path):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:  # invalid, an int too long, too deep
                raise MalformedRecord(f"invalid JSON: {exc}", line_no) from None
            if not isinstance(row, dict):
                raise MalformedRecord("record is not an object", line_no)
            records.append(_record_from_mapping(row, "json record", line_no))
    return records


def _records_from_riot_match_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid, or an int past the digit limit
            raise MalformedRecord(f"invalid JSON: {exc}") from None
    matches = doc.get("matches") if isinstance(doc, dict) else None
    if not isinstance(matches, list):
        raise MalformedRecord("riot-match-json file must hold a 'matches' list")
    staged = []
    for pos, match in enumerate(matches):
        where = f"match {pos}"
        if not isinstance(match, dict):
            raise MalformedRecord(f"{where}: not an object")
        arena = _parse_int(match.get("mapId"), "mapId", where, None)
        creation = _parse_int(match.get("gameCreation", pos), "gameCreation", where, None)
        identities = {}
        for ident in match.get("participantIdentities", []):
            pid = ident.get("participantId")
            player = (ident.get("player") or {}).get("summonerName")
            if pid is None or not player:
                raise MalformedRecord(f"{where}: incomplete participant identity")
            identities[pid] = str(player)
        seated = []
        for part in match.get("participants", []):
            pid = part.get("participantId")
            if pid not in identities:
                raise MalformedRecord(f"{where}: participant {pid} has no identity")
            if identities[pid] in seated:
                raise MalformedRecord(f"{where}: player {identities[pid]!r} has a second seat")
            seated.append(identities[pid])
            stats = part.get("stats") or {}
            row = {
                "player_id": identities[pid],
                "match_index": 0,
                "assists": stats.get("assists"),
                "deaths": stats.get("deaths"),
                "kills": stats.get("kills"),
                "gold": stats.get("goldEarned"),
                "winner": stats.get("win"),
                "arena_id": arena,
            }
            missing = [k for k, v in row.items() if v is None]
            if missing:
                raise MalformedRecord(f"{where}: missing fields {missing}")
            rec = _record_from_mapping(row, f"match at position {pos}", None)
            staged.append((creation, pos, rec))
    # matches are numbered per player in (gameCreation, position) order
    staged.sort(key=lambda item: (item[2].player_id, item[0], item[1]))
    records = []
    counters = {}
    for _, _, rec in staged:
        records.append(rec._replace(match_index=counters.get(rec.player_id, 0)))
        counters[rec.player_id] = records[-1].match_index + 1
    return records


_RECORD_READERS = {
    "csv": _records_from_csv,
    "json-lines": _records_from_json_lines,
    "riot-match-json": _records_from_riot_match_json,
}


def ingest_by_records(path, fmt="csv", arena_id=11, n_matches=100):
    """Reference ingest: one record object per row, retention through dicts.

    Returns the retained ``player_ids``, raw ``counts`` (I, 4, K) and
    ``winners`` (I, K) next to the four counters of ``IngestResult``.
    """
    raw = _RECORD_READERS[fmt](path)
    in_arena = [r for r in raw if r.arena_id == arena_id]
    seen = set()
    for rec in in_arena:
        key = (rec.player_id, rec.match_index)
        if key in seen:
            raise DuplicateKey(f"duplicate record for {key}")
        seen.add(key)
    by_player = {}
    for rec in in_arena:
        if rec.match_index < n_matches:
            by_player.setdefault(rec.player_id, {})[rec.match_index] = rec
    expected = set(range(n_matches))
    complete = sorted(p for p, recs in by_player.items() if set(recs) == expected)
    if not complete:
        raise NoPlayersRetained(
            f"no player has a complete 0..{n_matches - 1} history in arena {arena_id}"
        )
    counts = np.zeros((len(complete), len(FEATURES), n_matches))
    winners = np.zeros((len(complete), n_matches), dtype=bool)
    for i, pid in enumerate(complete):
        for k, rec in by_player[pid].items():
            counts[i, :, k] = [getattr(rec, name) for name in FEATURES]
            winners[i, k] = rec.winner
    return {
        "player_ids": tuple(complete),
        "counts": counts,
        "winners": winners,
        "players_retained": len(complete),
        "players_dropped": len({r.player_id for r in in_arena}) - len(complete),
        "records_read": len(raw),
        "records_other_arena": len(raw) - len(in_arena),
    }


# ---------------------------------------------------------------------------
# writers, one value at a time


def save_tensor3_by_json_dump(path, t, metadata=None):
    """Reference container writer: the whole document through ``json.dump``."""
    t = np.asarray(t, dtype=np.float64)
    doc = {
        "format": "dense-tensor3",
        "version": 1,
        "dims": list(t.shape),
        "layout": "first-index-slowest",
        "values": t.ravel(order="C").tolist(),
        "metadata": metadata or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def write_csv_by_values(dataset, path):
    """Reference ``Dataset.write_csv``: every count formatted on its own."""

    def format_count(value):
        return str(int(value)) if float(value).is_integer() else repr(float(value))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        wins = dataset.winners.astype(int).tolist()
        for pid, counts, won in zip(dataset.player_ids, dataset.counts, wins):
            features = [map(format_count, series) for series in counts.tolist()]
            matches = range(dataset.n_matches)
            arena = repeat(dataset.arena_id)
            writer.writerows(zip(repeat(pid), matches, *features, won, arena))


# ---------------------------------------------------------------------------
# the container reader, the whole document at once


def load_tensor3_by_json_load(path):
    """Reference ``load_tensor3``: the whole document through ``json.load``,
    then the container's checks in their order."""
    where = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{where}: not a JSON file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != "dense-tensor3":
        raise ValueError(f"{where}: not a dense-tensor3 container")
    version = doc.get("version")
    if type(version) is not int or version != 1:  # a JSON true or 1.0 is not 1
        raise ValueError(f"{where}: unsupported container version {version}")
    layout = doc.get("layout", "first-index-slowest")
    if layout != "first-index-slowest":
        raise ValueError(f"{where}: unsupported layout {layout!r}")
    dims = doc.get("dims")
    if not (
        isinstance(dims, list) and len(dims) == 3 and all(type(d) is int and d > 0 for d in dims)
    ):
        raise ValueError(f"{where}: dims must be three positive integers, got {dims!r}")
    values = doc.get("values")
    message = f"{where}: values must be a list of finite numbers"
    if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
        raise ValueError(message)
    try:
        values = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(message) from None
    if not np.isfinite(values).all():
        raise ValueError(message)
    if values.size != dims[0] * dims[1] * dims[2]:
        raise ValueError(f"{where}: value count does not match dims {tuple(dims)}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError(f"{where}: metadata must be an object")
    return values.reshape(dims), metadata
