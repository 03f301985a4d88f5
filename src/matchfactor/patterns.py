"""Interpretation of a fitted factor model.

Feature signatures (which features carry a component), player clustering on
the user factors, temporal modulation of memberships, raw-data validation
trajectories, and the win-rate statistics (kernel density estimates plus
pairwise Welch tests); ``analyze`` fits one rank and runs all of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .decompose import (
    DecomposeConfig,
    FactorModel,
    RestartRecord,
    _validate_decompose_inputs,
    rank_scan,
)
from .errors import ConstantColumn, EmptyClusterUnrecoverable
from .tensor import as_matrix, as_tensor3

# Lloyd iterations per k-means run, and the relative inertia change that ends
# a run early.
_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6
# Empty-cluster re-seeds allowed per run before the run is discarded.
_RESEED_BUDGET = 10

# KDE evaluation grid: points, and the bandwidths it extends past the data.
_KDE_GRID_POINTS = 256
_KDE_PAD = 4.0


def _as_labels(labels: np.ndarray, n: int, per: str) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (n,):
        raise ValueError(f"labels must have one entry per {per}")
    return labels


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")


# ---------------------------------------------------------------------------
# feature signatures


@dataclass(frozen=True)
class FeatureSignature:
    """Per component: the features retained by the squared-norm fraction rule."""

    fraction: float
    n_features: int
    retained_indices: tuple[tuple[int, ...], ...]
    retained_values: tuple[tuple[float, ...], ...]
    empty_components: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return len(self.retained_indices)

    def mask_matrix(self) -> np.ndarray:
        """Dense feature-by-component matrix with non-retained entries zeroed."""
        out = np.zeros((self.n_features, self.n_components))
        for r, (idx, vals) in enumerate(
            zip(self.retained_indices, self.retained_values)
        ):
            out[list(idx), r] = vals
        return out


def feature_membership(
    feature_factors: np.ndarray, fraction: float = 0.95
) -> FeatureSignature:
    """Retain, per component, the smallest set of features holding ``fraction``
    of the column's squared norm.

    Squared values are sorted descending and accumulated until the fraction is
    reached; entries tied (within 1e-12 of the column's squared norm) with the
    last retained one are kept as well, so the result does not depend on sort
    order.  An all-zero column yields an empty signature and is flagged.
    """
    b = as_matrix(feature_factors)
    if (b < 0).any():
        raise ValueError("feature factors must be non-negative")
    _check_fraction(fraction)

    retained_indices: list[tuple[int, ...]] = []
    retained_values: list[tuple[float, ...]] = []
    empty: list[int] = []
    for r in range(b.shape[1]):
        col = b[:, r]
        sq = col**2
        total = float(sq.sum())
        if total == 0.0:
            empty.append(r)
            retained_indices.append(())
            retained_values.append(())
            continue
        order = np.argsort(-sq, kind="stable")
        csum = np.cumsum(sq[order])
        tol = 1e-12 * total
        cut = int(np.searchsorted(csum, fraction * total - tol))
        # keep entries tied with the last retained one
        floor = sq[order[cut]] - tol
        while cut + 1 < order.size and sq[order[cut + 1]] >= floor:
            cut += 1
        keep = np.sort(order[: cut + 1])
        retained_indices.append(tuple(int(i) for i in keep))
        retained_values.append(tuple(float(col[i]) for i in keep))

    return FeatureSignature(
        fraction=fraction,
        n_features=b.shape[0],
        retained_indices=tuple(retained_indices),
        retained_values=tuple(retained_values),
        empty_components=tuple(empty),
    )


# ---------------------------------------------------------------------------
# clustering


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    silhouette: float | None
    sample_silhouettes: np.ndarray | None

    @property
    def n_clusters(self) -> int:
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> tuple[int, ...]:
        return tuple(int((self.labels == c).sum()) for c in range(self.n_clusters))


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0:
            probs = d2 / total
            chosen.append(int(rng.choice(n, p=probs)))
        else:
            chosen.append(int(rng.integers(n)))
        d2 = np.minimum(d2, ((points - points[chosen[-1]]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every point and the squared distance to it."""
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def _lloyd(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    k = centroids.shape[0]
    reseeds = _RESEED_BUDGET
    prev_inertia = np.inf
    for _ in range(_KMEANS_MAX_ITER):
        labels, closest = _assign(points, centroids)
        while empty := [c for c in range(k) if not (labels == c).any()]:
            if reseeds == 0:
                raise EmptyClusterUnrecoverable(
                    f"could not populate all {k} clusters"
                )
            reseeds -= 1
            # re-seed an empty cluster at the point farthest from its centroid
            centroids[empty[-1]] = points[int(np.argmax(closest))]
            labels, closest = _assign(points, centroids)

        inertia = float(closest.sum())
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)
        if np.isfinite(prev_inertia) and prev_inertia - inertia <= _KMEANS_TOL * prev_inertia:
            break
        prev_inertia = inertia

    labels, closest = _assign(points, centroids)
    return labels, centroids, float(closest.sum())


def kmeans(
    points: np.ndarray,
    k: int,
    n_init: int = 10,
    seed: int = 0,
) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of ``n_init`` runs.

    Deterministic for a given seed.  Empty clusters are re-seeded from the
    farthest point; a run that cannot recover is discarded, and
    EmptyClusterUnrecoverable is raised only if every run fails.
    """
    points = as_matrix(points)
    _check_k(k, points.shape[0])
    if n_init < 1:
        raise ValueError("n_init must be >= 1")

    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for _ in range(n_init):
        centroids = _kmeans_pp_init(points, k, rng)
        try:
            labels, centroids, inertia = _lloyd(points, centroids)
        except EmptyClusterUnrecoverable:
            continue
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    if best is None:
        raise EmptyClusterUnrecoverable(
            f"all {n_init} initializations failed to keep {k} clusters populated"
        )

    labels, centroids, inertia = best
    if k >= 2:
        overall, per_sample = silhouette(points, labels)
    else:
        overall, per_sample = None, None
    return ClusterAssignment(
        labels=labels,
        centroids=centroids,
        inertia=inertia,
        silhouette=overall,
        sample_silhouettes=per_sample,
    )


def silhouette(points: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Standard Euclidean silhouette: overall mean and per-sample values.

    Singleton clusters score 0 by convention.  Requires at least two
    non-empty clusters.
    """
    points = as_matrix(points)
    labels = _as_labels(labels, points.shape[0], "point")
    clusters = np.unique(labels)
    if clusters.size < 2:
        raise ValueError("silhouette requires at least two clusters")

    gram = points @ points.T
    sq = np.diag(gram)
    d = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * gram, 0.0))

    n = points.shape[0]
    sums = np.stack([d[:, labels == c].sum(axis=1) for c in clusters], axis=1)
    counts = np.array([(labels == c).sum() for c in clusters])
    own = np.searchsorted(clusters, labels)

    a = np.zeros(n)
    multi = counts[own] > 1
    a[multi] = sums[np.arange(n), own][multi] / (counts[own][multi] - 1)

    mean_other = sums / counts[None, :]
    mean_other[np.arange(n), own] = np.inf
    b = mean_other.min(axis=1)

    denom = np.maximum(a, b)
    s = np.zeros(n)
    nonzero = denom > 0
    s[nonzero] = (b[nonzero] - a[nonzero]) / denom[nonzero]
    s[~multi] = 0.0  # singleton convention
    return float(s.mean()), s


def intra_component_membership(
    user_factors: np.ndarray, component: int, seed: int = 0
) -> np.ndarray:
    """Two-way 1-D k-means split of one membership column.

    Returns a binary label per user: 1 for the cluster with the higher
    centroid (the members of the component), 0 otherwise.
    """
    a = as_matrix(user_factors)
    if not 0 <= component < a.shape[1]:
        raise ValueError(f"component must be in [0, {a.shape[1]}), got {component}")
    col = a[:, component]
    if float(col.max() - col.min()) == 0.0:
        raise ConstantColumn(f"component {component} has a constant membership column")
    assign = kmeans(col.reshape(-1, 1), k=2, n_init=10, seed=seed)
    high = int(np.argmax(assign.centroids[:, 0]))
    return (assign.labels == high).astype(int)


# ---------------------------------------------------------------------------
# temporal views


@dataclass(frozen=True)
class ClusterTrajectories:
    """Per-cluster mean and standard error (sample std / sqrt(n)) of a series.

    ``means`` and ``stderrs`` are (n_clusters, J, K): J is the feature axis of
    ``cluster_feature_trajectories`` and the component axis of
    ``temporal_modulation``; K is time.
    """

    means: np.ndarray
    stderrs: np.ndarray
    cluster_sizes: tuple[int, ...]


def _cluster_series(t: np.ndarray, labels: np.ndarray) -> ClusterTrajectories:
    """Mean and standard error of the rows of ``t`` in each cluster of ``labels``."""
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
    return ClusterTrajectories(means=means, stderrs=stderrs, cluster_sizes=tuple(sizes))


def temporal_modulation(model: FactorModel, labels: np.ndarray) -> ClusterTrajectories:
    """Membership modulated in time, averaged within clusters.

    For component ``r`` the user-by-time matrix is
    ``weights[r] * outer(users[:, r], time[:, r])``; each cluster contributes
    the mean over its member rows at every time step plus the standard error.
    """
    users, _, time = model.factors
    labels = _as_labels(labels, users.shape[0], "user")
    membership = model.weights[None, :, None] * (users[:, :, None] * time.T[None])
    return _cluster_series(membership, labels)


def cluster_feature_trajectories(
    t: np.ndarray, labels: np.ndarray
) -> ClusterTrajectories:
    """Per-cluster raw feature trajectories (validation view, not factorized)."""
    t = as_tensor3(t)
    return _cluster_series(t, _as_labels(labels, t.shape[0], "player"))


# ---------------------------------------------------------------------------
# statistics kernels


def silverman_bandwidth(values: np.ndarray) -> float:
    """Silverman's rule of thumb: ``0.9 * min(std, IQR / 1.34) * n**(-1/5)``.

    Falls back to the standard deviation when the IQR is zero; raises
    ConstantColumn when the sample has no spread at all.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError("bandwidth selection needs at least two values")
    std = float(v.std(ddof=1))
    q75, q25 = np.percentile(v, [75, 25])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    if spread == 0.0:
        raise ConstantColumn("zero-variance sample has no data-driven bandwidth")
    return 0.9 * spread * v.size ** (-0.2)


def kde_grid(values: np.ndarray, bandwidth: float) -> np.ndarray:
    """256-point evaluation grid spanning the data range extended by 4 bandwidths."""
    v = np.asarray(values, dtype=np.float64).ravel()
    lo = float(v.min()) - _KDE_PAD * bandwidth
    hi = float(v.max()) + _KDE_PAD * bandwidth
    return np.linspace(lo, hi, _KDE_GRID_POINTS)


def kde_gaussian(
    values: np.ndarray, grid: np.ndarray, bandwidth: float | None = None
) -> np.ndarray:
    """Gaussian kernel density estimate evaluated on ``grid``.

    Bandwidth defaults to Silverman's rule.  The result is non-negative and
    integrates to ~1 when the grid covers the data range plus ~4 bandwidths.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    grid = np.asarray(grid, dtype=np.float64).ravel()
    if v.size < 2 and bandwidth is None:
        raise ValueError("need at least two values or an explicit bandwidth")
    h = silverman_bandwidth(v) if bandwidth is None else float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    z = (grid[:, None] - v[None, :]) / h
    dens = np.exp(-0.5 * z**2).sum(axis=1) / (v.size * h * np.sqrt(2.0 * np.pi))
    return dens


def welch_t_test(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and two-tailed p-value.

    Degrees of freedom follow Welch-Satterthwaite.  Degenerate samples with
    zero pooled variance return ``(0, 1)`` when the means agree and
    ``(+/-inf, 0)`` with a warning otherwise.
    """
    # imported on use: loading scipy costs every CLI launch a third of a second
    from scipy.special import stdtr

    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size < 2 or y.size < 2:
        raise ValueError("each sample needs at least two values")
    nx, ny = x.size, y.size
    mx, my = float(x.mean()), float(y.mean())
    vx, vy = float(x.var(ddof=1)), float(y.var(ddof=1))
    se2 = vx / nx + vy / ny
    if se2 == 0.0:
        if mx == my:
            return 0.0, 1.0
        warnings.warn("zero-variance samples with unequal means; p-value collapses to 0")
        return float(np.copysign(np.inf, mx - my)), 0.0
    t = (mx - my) / np.sqrt(se2)
    df = se2**2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return float(t), p


# ---------------------------------------------------------------------------
# win-rate statistics


@dataclass(frozen=True)
class WinRateStats:
    """Per-cluster win-rate distributions with pairwise significance tests."""

    mode: str
    cluster_sizes: tuple[int, ...]
    cluster_means: tuple[float, ...]
    grid: np.ndarray
    densities: np.ndarray  # (n_clusters, len(grid))
    pairwise_tests: tuple[tuple[int, int, float, float], ...]  # (a, b, t, p)


def win_rate_stats(
    winner_matrix: np.ndarray,
    labels: np.ndarray,
    mode: str = "player-mean",
) -> WinRateStats:
    """KDE curves and pairwise Welch tests of the winner feature by cluster.

    ``mode='player-mean'`` (default) analyzes one win-rate value per player,
    the mean of that player's binary outcomes; ``mode='raw'`` analyzes the
    pooled binary outcomes themselves.  Each cluster's density uses its own
    Silverman bandwidth, on one grid sized by the widest.
    """
    w = np.asarray(winner_matrix, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("winner matrix must be players x matches")
    labels = _as_labels(labels, w.shape[0], "player")
    if mode not in ("player-mean", "raw"):
        raise ValueError(f"unknown mode {mode!r}")

    clusters, sizes = np.unique(labels, return_counts=True)
    samples = []
    for c in clusters:
        rows = w[labels == c]
        samples.append(rows.mean(axis=1) if mode == "player-mean" else rows.ravel())

    bandwidths = [silverman_bandwidth(s) for s in samples]
    grid = kde_grid(np.concatenate(samples), max(bandwidths))
    densities = np.stack(
        [kde_gaussian(s, grid, bandwidth=h) for s, h in zip(samples, bandwidths)]
    )

    tests = []
    for i, j in combinations(range(len(clusters)), 2):
        t_stat, p = welch_t_test(samples[i], samples[j])
        tests.append((int(clusters[i]), int(clusters[j]), t_stat, p))

    return WinRateStats(
        mode=mode,
        cluster_sizes=tuple(int(n) for n in sizes),
        cluster_means=tuple(float(s.mean()) for s in samples),
        grid=grid,
        densities=densities,
        pairwise_tests=tuple(tests),
    )


# ---------------------------------------------------------------------------
# the analysis at one rank


@dataclass(frozen=True)
class Analysis:
    """What ``analyze`` derives at one rank."""

    records: tuple[RestartRecord, ...]
    best: RestartRecord
    signature: FeatureSignature
    clusters: ClusterAssignment
    sweep: tuple[ClusterAssignment, ...]
    sweep_warnings: tuple[str, ...]
    profile: ClusterTrajectories
    trajectories: ClusterTrajectories
    win_rates: WinRateStats | None


def analyze(
    t: np.ndarray,
    rank: int,
    cfg: DecomposeConfig | None = None,
    k: int | None = None,
    fraction: float = 0.95,
    winner: np.ndarray | None = None,
    kde_mode: str = "player-mean",
) -> Analysis:
    """Fit ``rank`` (the restart of highest core consistency) and interpret it.

    Players are clustered at ``k`` (default: the rank) and, for a silhouette
    sweep, at every other k in ``rank - 1 .. rank + 2``, seeded with
    ``cfg.seed``; ``sweep`` holds the k values that clustered and
    ``sweep_warnings`` why the others did not.  Every argument is checked
    before the first fit.  Failed restarts stay in ``records``; nothing is
    printed.
    """
    cfg = cfg or DecomposeConfig()
    t = _validate_decompose_inputs(t, [rank])
    _check_fraction(fraction)
    k = rank if k is None else k
    n = t.shape[0]
    _check_k(k, n)

    scan = rank_scan(t, [rank], cfg)
    best = scan.best(rank)
    model, users = best.model, best.model.factors[0]
    clusters = kmeans(users, k, seed=cfg.seed)
    sweep, sweep_warnings = [], []
    for other in [o for o in range(rank - 1, rank + 3) if o != k]:
        if not 2 <= other <= n:
            sweep_warnings.append(f"k={other} outside the valid range [2, {n}]; skipped")
            continue
        try:
            sweep.append(kmeans(users, other, seed=cfg.seed))
        except EmptyClusterUnrecoverable as exc:
            sweep_warnings.append(f"k={other} clustering failed: {type(exc).__name__}: {exc}")

    return Analysis(
        records=scan.records,
        best=best,
        signature=feature_membership(model.factors[1], fraction=fraction),
        clusters=clusters,
        sweep=tuple(sweep),
        sweep_warnings=tuple(sweep_warnings),
        profile=temporal_modulation(model, clusters.labels),
        trajectories=cluster_feature_trajectories(t, clusters.labels),
        win_rates=None if winner is None else win_rate_stats(winner, clusters.labels, kde_mode),
    )
