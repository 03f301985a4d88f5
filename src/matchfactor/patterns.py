"""Interpretation of a fitted factor model.

Feature signatures (which features carry a component), player clustering on
the user factors, temporal modulation of memberships, raw-data validation
trajectories, and the win-rate statistics (kernel density estimates plus
pairwise Welch tests); ``analyze`` fits one rank and runs all of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._rng import SeededRandom
from .decompose import (
    DecomposeConfig,
    FactorModel,
    RestartRecord,
    _validate_decompose_inputs,
    rank_scan,
)
from .errors import ConstantColumn, EmptyClusterUnrecoverable
from .tensor import as_matrix, as_tensor3

# k-means++ initializations per k-means call; Lloyd iterations per run, and
# the relative inertia change that ends a run early.
_KMEANS_N_INIT = 10
_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6
# Empty-cluster re-seeds allowed per run before the run is discarded.
_RESEED_BUDGET = 10

# Rows of the block-by-all-points distance matrix ``silhouette`` holds at once.
_SILHOUETTE_BLOCK = 32

# KDE evaluation grid: points, and the bandwidths it extends past the data;
# ``kde_gaussian`` evaluates it a few rows at a time (rows x samples floats).
_KDE_GRID_POINTS = 256
_KDE_PAD = 4.0
_KDE_BLOCK_ROWS = 8

# Student-t tail: below this size the lgamma difference in log B(a, b) is
# taken directly, above it from Stirling's series; and the cap on continued
# fraction terms (at most 64 were needed for df from 1 to 1e9 and |t| from
# 1e-4 to 60).
_STIRLING_FROM = 20.0
_BETA_CF_MAX_TERMS = 1_000


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


def _check_distinct_rows(t: np.ndarray, k: int) -> None:
    """Raise unless ``t`` has at least ``k`` distinct player rows: identical
    rows get identical user-factor rows, so k-means could not populate k
    clusters.  The scan stops at the k-th distinct row."""
    seen = set()
    for row in t:
        seen.add((row + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0
        if len(seen) == k:
            return
    raise ValueError(f"k must be at most the {len(seen)} distinct player rows, got {k}")


def _win_rate_inputs(winner_matrix, labels, mode: str) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(winner_matrix, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("winner matrix must be players x matches")
    labels = _as_labels(labels, w.shape[0], "player")
    if mode not in ("player-mean", "raw"):
        raise ValueError(f"unknown mode {mode!r}")
    return w, labels


# ---------------------------------------------------------------------------
# feature signatures


@dataclass(frozen=True)
class FeatureSignature:
    """Per component: the features retained by the squared-norm fraction rule."""

    fraction: float
    retained_indices: tuple[tuple[int, ...], ...]
    retained_values: tuple[tuple[float, ...], ...]
    empty_components: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return len(self.retained_indices)


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


def _kmeans_pp_init(points: np.ndarray, k: int, rng: SeededRandom) -> np.ndarray:
    n = points.shape[0]
    chosen = [rng.integers(n)]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        # each next center with probability proportional to d2
        chosen.append(rng.choice(d2) if d2.sum() > 0 else rng.integers(n))
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
    seed: int = 0,
) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding, best of 10 runs.

    Deterministic for a given seed.  Empty clusters are re-seeded from the
    farthest point; a run that cannot recover is discarded, and
    EmptyClusterUnrecoverable is raised only if every run fails.
    """
    points = as_matrix(points)
    _check_k(k, points.shape[0])

    rng = SeededRandom(seed)
    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for _ in range(_KMEANS_N_INIT):
        centroids = _kmeans_pp_init(points, k, rng)
        try:
            labels, centroids, inertia = _lloyd(points, centroids)
        except EmptyClusterUnrecoverable:
            continue
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    if best is None:
        raise EmptyClusterUnrecoverable(
            f"all {_KMEANS_N_INIT} initializations failed to keep {k} clusters populated"
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
    non-empty clusters.  Distances are taken from a block of rows to every
    point, summing squared coordinate differences, so memory is linear in
    the points and no difference of squared norms cancels.
    """
    points = as_matrix(points)
    labels = _as_labels(labels, points.shape[0], "point")
    clusters, own, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if clusters.size < 2:
        raise ValueError("silhouette requires at least two clusters")

    n = points.shape[0]
    members = [own == c for c in range(clusters.size)]
    coords = np.ascontiguousarray(points.T)
    sums = np.empty((n, clusters.size))
    # a lone last row joins the block before it: numpy sums a block's
    # distances to a cluster member by member, but along a lone row
    # pairwise, which would give that row's sums other bits
    starts = list(range(0, n - 1, _SILHOUETTE_BLOCK))
    for start, stop in zip(starts, starts[1:] + [n]):
        rows = slice(start, stop)
        d = np.zeros((stop - start, n))
        diff = np.empty_like(d)
        for x in coords:
            np.subtract(x[rows, None], x, out=diff)
            d += np.square(diff, out=diff)
        np.sqrt(d, out=d)
        for c, mask in enumerate(members):
            sums[rows, c] = d[:, mask].sum(axis=1)

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


def _cluster_series(labels: np.ndarray, shape: tuple[int, int], series) -> ClusterTrajectories:
    """Mean and standard error over the members of each cluster of ``labels``
    of the ``shape`` = (J, K) series whose series ``j`` of players ``members``
    is the (members x K) matrix ``series(members, j)``.

    One cluster and series is held at a time.  Each reduction runs over the
    member rows in order, as it would over the whole (members x J x K)
    array, so the bits are the same except where K is 1 and J is not: numpy
    adds a (members x 1) column pairwise, not row by row.
    """
    # with counts, np.unique does not import numpy.ma
    clusters, sizes = np.unique(labels, return_counts=True)
    means = np.zeros((clusters.size, *shape))
    stderrs = np.zeros_like(means)
    for ci, (c, n) in enumerate(zip(clusters, sizes.tolist())):
        members = np.flatnonzero(labels == c)
        for j in range(shape[0]):
            rows = series(members, j)
            means[ci, j] = rows.mean(axis=0)
            if n > 1:
                stderrs[ci, j] = rows.std(axis=0, ddof=1) / np.sqrt(n)
    return ClusterTrajectories(means=means, stderrs=stderrs, cluster_sizes=tuple(sizes.tolist()))


def temporal_modulation(model: FactorModel, labels: np.ndarray) -> ClusterTrajectories:
    """Membership modulated in time, averaged within clusters.

    For component ``r`` the user-by-time matrix is
    ``weights[r] * outer(users[:, r], time[:, r])``; each cluster contributes
    the mean over its member rows at every time step plus the standard error.
    Only one cluster's rows of one component are formed at a time.
    """
    users, _, time = model.factors
    labels = _as_labels(labels, users.shape[0], "user")

    def membership(members, r):
        return model.weights[r] * (users[members, r][:, None] * time[:, r])

    return _cluster_series(labels, (model.rank, time.shape[0]), membership)


def cluster_feature_trajectories(
    t: np.ndarray, labels: np.ndarray
) -> ClusterTrajectories:
    """Per-cluster raw feature trajectories (validation view, not factorized)."""
    t = as_tensor3(t)
    labels = _as_labels(labels, t.shape[0], "player")
    return _cluster_series(labels, t.shape[1:], lambda members, j: t[members, j])


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
    v = np.sort(v)
    iqr = _percentile(v, 0.75) - _percentile(v, 0.25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    if spread == 0.0:
        raise ConstantColumn("zero-variance sample has no data-driven bandwidth")
    return 0.9 * spread * v.size ** (-0.2)


def _percentile(ordered: np.ndarray, q: float) -> float:
    """The ``q`` quantile, ``0 <= q < 1``, of a sorted sample by numpy's
    default (linear) rule, bit for bit: ``np.percentile`` imports
    ``numpy.ma`` on first use."""
    at = (ordered.size - 1) * q
    below = math.floor(at)
    a, b, t = float(ordered[below]), float(ordered[below + 1]), at - below
    # numpy interpolates from the nearer end
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def kde_grid(values: np.ndarray, bandwidth: float) -> np.ndarray:
    """256-point evaluation grid spanning the data range extended by 4 bandwidths."""
    v = np.asarray(values, dtype=np.float64).ravel()
    lo = float(v.min()) - _KDE_PAD * bandwidth
    hi = float(v.max()) + _KDE_PAD * bandwidth
    return np.linspace(lo, hi, _KDE_GRID_POINTS)


def kde_gaussian(
    values: np.ndarray, grid: np.ndarray, bandwidth: float
) -> np.ndarray:
    """Gaussian kernel density estimate evaluated on ``grid``.

    The result is non-negative and integrates to ~1 when the grid covers the
    data range plus ~4 bandwidths.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    grid = np.asarray(grid, dtype=np.float64).ravel()
    h = float(bandwidth)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    # each grid row sums over every sample, so blocking rows keeps the bytes
    sums = np.empty(grid.size)
    for start in range(0, grid.size, _KDE_BLOCK_ROWS):
        rows = slice(start, start + _KDE_BLOCK_ROWS)
        z = (grid[rows, None] - v[None, :]) / h
        sums[rows] = np.exp(-0.5 * z**2).sum(axis=1)
    return sums / (v.size * h * np.sqrt(2.0 * np.pi))


def _log_beta(a: float, b: float) -> float:
    """``log B(a, b)``.

    For a large argument ``lgamma`` is exact only to about an ulp of
    ``a log a`` (6e-11 absolute at 5e4), so ``lgamma(big) - lgamma(big +
    small)`` comes from Stirling's series, where its large terms cancel in
    closed form.
    """
    small, big = min(a, b), max(a, b)
    if big < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def tail(z: float) -> float:  # lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)
        w = 1.0 / (z * z)
        return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w / 1680))) / z

    big_minus_sum = (
        small
        - small * math.log(big)
        - (big + small - 0.5) * math.log1p(small / big)
        + tail(big)
        - tail(big + small)
    )
    return math.lgamma(small) + big_minus_sum


def _log_of(x: float, one_minus_x: float) -> float:
    """``log x``, through ``log1p`` where ``x`` is near 1."""
    return math.log(x) if x < 0.5 else math.log1p(-one_minus_x)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, with ``y = 1 - x`` given
    apart so that neither is taken by a subtraction.

    Below ``x = (a + 1) / (a + b + 2)`` this is the even contraction of the
    classic continued fraction (Numerical Recipes' ``betacf``), evaluated by
    the modified Lentz method; above it, ``I_x(a, b) = 1 - I_y(b, a)``.
    """
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _incomplete_beta(b, a, y, x)
    if x == 0.0:
        return 0.0

    def one_plus_odd(m: int) -> float:
        # 1 - (a+m)(a+b+m) x / ((a+2m)(a+2m+1)), which nears 0 for a large a
        # at x near the switch; for b < 1 the numerator's y form adds only
        # positive terms
        den = (a + 2 * m) * (a + 2 * m + 1)
        if b < 1.0:
            return (m * (3 * m + 2 - b) + a * (2 * m + 1 - b) + (a + m) * (a + b + m) * y) / den
        return 1.0 - (a + m) * (a + b + m) * x / den

    def even(m: int) -> float:
        return m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))

    tiny = sys.float_info.min / sys.float_info.epsilon
    odd = one_plus_odd(0)
    h = c = odd if abs(odd) >= tiny else tiny
    d = 0.0
    for m in range(1, _BETA_CF_MAX_TERMS + 1):
        e = even(m)
        alpha = (1.0 - odd) * e
        odd = one_plus_odd(m)
        beta = odd + e
        d = beta + alpha * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = beta + alpha / c
        c = c if abs(c) >= tiny else tiny
        h *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            break
    else:
        raise ArithmeticError(f"incomplete beta ({a}, {b}, {x}) did not converge")
    log_front = a * _log_of(x, y) + b * _log_of(y, x) - _log_beta(a, b)
    return math.exp(log_front - math.log(a * h))


def _t_two_tail(t: float, df: float) -> float:
    """``P(|T| >= |t|)`` for Student's t with ``df`` degrees of freedom:
    ``I_x(df / 2, 1 / 2)`` at ``x = df / (df + t^2)``."""
    t2 = t * t
    if math.isnan(t2 + df):  # a sample holding NaN
        return math.nan
    if math.isinf(t2):
        return 0.0
    return _incomplete_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def welch_t_test(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and two-tailed p-value.

    Degrees of freedom follow Welch-Satterthwaite.  Degenerate samples with
    zero pooled variance return ``(0, 1)`` when the means agree and
    ``(+/-inf, 0)`` otherwise: the infinite statistic is the signal.
    """
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
        return float(np.copysign(np.inf, mx - my)), 0.0
    t = (mx - my) / np.sqrt(se2)
    df = se2**2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    return float(t), _t_two_tail(float(t), float(df))


def _holm(p) -> list[float]:
    """Holm's step-down adjusted p-values, in the order of ``p``: the i-th
    smallest is scaled by ``m - i`` (i from 0), raised to the largest
    adjusted value before it and capped at 1."""
    adjusted, running = [0.0] * len(p), 0.0
    for i, j in enumerate(sorted(range(len(p)), key=p.__getitem__)):
        running = max(running, min(1.0, (len(p) - i) * p[j]))
        adjusted[j] = running
    return adjusted


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
    pairwise_tests: tuple[tuple[int, int, float, float, float], ...]  # (a, b, t, p, p_holm)


def win_rate_stats(
    winner_matrix: np.ndarray,
    labels: np.ndarray,
    mode: str = "player-mean",
) -> WinRateStats:
    """KDE curves and pairwise Welch tests of the winner feature by cluster,
    each test's p-value also Holm-adjusted over all the pairs.

    ``mode='player-mean'`` (default) analyzes one win-rate value per player,
    the mean of that player's binary outcomes; ``mode='raw'`` analyzes the
    pooled binary outcomes themselves.  Each cluster's density uses its own
    Silverman bandwidth, on one grid sized by the widest.
    """
    w, labels = _win_rate_inputs(winner_matrix, labels, mode)

    clusters, sizes = np.unique(labels, return_counts=True)
    samples = []
    for c in clusters:
        rows = w[labels == c]
        samples.append(rows.mean(axis=1) if mode == "player-mean" else rows.ravel())

    bandwidths = []
    for c, s in zip(clusters, samples):
        try:
            bandwidths.append(silverman_bandwidth(s))
        except (ValueError, ConstantColumn) as exc:
            raise type(exc)(f"cluster {c}: {exc}") from None
    grid = kde_grid(np.concatenate(samples), max(bandwidths))
    densities = np.stack(
        [kde_gaussian(s, grid, bandwidth=h) for s, h in zip(samples, bandwidths)]
    )

    tests = []
    for i, j in combinations(range(len(clusters)), 2):
        t_stat, p = welch_t_test(samples[i], samples[j])
        tests.append((int(clusters[i]), int(clusters[j]), t_stat, p))
    holm = _holm([p for *_, p in tests])

    return WinRateStats(
        mode=mode,
        cluster_sizes=tuple(int(n) for n in sizes),
        cluster_means=tuple(float(s.mean()) for s in samples),
        grid=grid,
        densities=densities,
        pairwise_tests=tuple((*test, p) for test, p in zip(tests, holm)),
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
    win_rate_error: str | None  # why ``win_rates`` is None although a winner matrix was given


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
    ``sweep_warnings`` why the others did not.  Win-rate stats that a
    cluster cannot give (one player, or no spread in its win rates) leave
    ``win_rates`` None and say why in ``win_rate_error``.  Every argument is
    checked before the first fit, ``k`` also against the number of distinct
    player rows.  Failed restarts stay in ``records``; nothing is printed.
    """
    cfg = cfg or DecomposeConfig()
    t = _validate_decompose_inputs(t, [rank])
    _check_fraction(fraction)
    k = rank if k is None else k
    n = t.shape[0]
    _check_k(k, n)
    _check_distinct_rows(t, k)
    if winner is not None:  # any labels of one entry per player stand in for the clusters
        _win_rate_inputs(winner, np.zeros(n, dtype=int), kde_mode)

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
    win_rates = win_rate_error = None
    if winner is not None:
        try:
            win_rates = win_rate_stats(winner, clusters.labels, kde_mode)
        except (ValueError, ConstantColumn) as exc:
            win_rate_error = f"win-rate stats skipped: {exc}"

    return Analysis(
        records=scan.records,
        best=best,
        signature=feature_membership(model.factors[1], fraction=fraction),
        clusters=clusters,
        sweep=tuple(sweep),
        sweep_warnings=tuple(sweep_warnings),
        profile=temporal_modulation(model, clusters.labels),
        trajectories=cluster_feature_trajectories(t, clusters.labels),
        win_rates=win_rates,
        win_rate_error=win_rate_error,
    )
