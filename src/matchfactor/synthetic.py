"""Synthetic datasets with planted low-rank structure.

The generator plants a known Kruskal model: users come in disjoint groups,
each group loading one component; features load according to per-component
signature sets; the time series are smooth and strictly positive.  The
resulting tensor is scaled to plausible match-count magnitudes, optionally
perturbed with multiplicative noise, rounded to integer counts, and emitted
as a Dataset of those counts together with the ground-truth factors and
group labels.

In ``exact`` mode rounding is disabled and the first player is replaced by
an all-zero row, which pins every feature's minimum at zero so that min-max
normalization is a pure per-feature rescaling and the planted model remains
exactly representable downstream.

Every draw comes from one stream per dataset: a single
``_rng.SeededRandom(seed)`` draws the planted factors, then the noise, then
the wins, so the noise never replays the draws that planted the factors.
Each planted factor takes its draws in one call per kind: the users'
outsider loadings, then all members' loadings in user order, then the
signature loadings of every component in turn, then one phase per component.
``synth`` never loads ``numpy.random``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import SeededRandom
from .data import FEATURES, Dataset
from .decompose import FactorModel, _normalize_columns
from .tensor import kruskal_tensor

# behavioral archetypes used as the default 3-component signature pattern:
# support (assists+gold), carry (kills+gold), aggressive (deaths+kills+gold)
DEFAULT_SIGNATURES = ((0, 3), (2, 3), (1, 2, 3))
DEFAULT_GROUP_SIZES = (411, 304, 246)

_MEMBER_RANGE = (0.75, 1.0)
_OUTSIDER_RANGE = (0.0, 0.12)
_SIGNATURE_RANGE = (0.6, 1.0)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset."""

    n_players: int = 961
    n_matches: int = 100
    rank: int = 3
    signatures: tuple[tuple[int, ...], ...] = DEFAULT_SIGNATURES
    group_sizes: tuple[int, ...] = DEFAULT_GROUP_SIZES
    noise: float = 0.05
    seed: int = 0
    win_bias: tuple[float, ...] = (0.01, -0.01, 0.0)
    exact: bool = False
    feature_scales: tuple[float, ...] = (25.0, 15.0, 25.0, 20000.0)
    arena_id: int = 11

    def __post_init__(self):
        if self.n_players < 1 or self.n_matches < 1 or self.rank < 1:
            raise ValueError("n_players, n_matches and rank must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if len(self.group_sizes) != self.rank:
            raise ValueError("need one group size per component")
        if min(self.group_sizes) < 0:
            raise ValueError(f"group sizes {self.group_sizes} must be >= 0")
        if sum(self.group_sizes) != self.n_players:
            raise ValueError(
                f"group sizes {self.group_sizes} must sum to n_players={self.n_players}"
            )
        if len(self.signatures) != self.rank:
            raise ValueError("need one feature signature per component")
        # a record carries exactly these count columns, one per scale
        if len(self.feature_scales) != len(FEATURES):
            raise ValueError(
                f"need one feature scale per feature ({', '.join(FEATURES)}), "
                f"got {len(self.feature_scales)}"
            )
        n_features = len(FEATURES)
        for sig in self.signatures:
            if not sig or any(not 0 <= f < n_features for f in sig):
                raise ValueError(f"invalid feature signature {sig}")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if len(self.win_bias) != self.rank:
            raise ValueError("need one win bias per group")
        for bias in self.win_bias:
            if not 0.0 <= 0.5 + bias <= 1.0:
                raise ValueError(f"win bias {bias} leaves the [0, 1] probability range")
        # ingest refuses an integer field past int64
        if not -(2**63) <= self.arena_id < 2**63:
            raise ValueError(f"arena_id {self.arena_id} is outside int64")


@dataclass(frozen=True)
class SyntheticResult:
    dataset: Dataset
    truth: FactorModel
    labels: np.ndarray


def _default_signatures(rank: int, n_features: int) -> tuple[tuple[int, ...], ...]:
    if rank == 3 and n_features == 4:
        return DEFAULT_SIGNATURES
    return tuple(
        tuple(sorted({r % n_features, (r + 1) % n_features})) for r in range(rank)
    )


def planted_factors(
    n_users: int,
    n_features: int,
    n_steps: int,
    rank: int,
    seed: int = 0,
    signatures: tuple[tuple[int, ...], ...] | None = None,
    group_sizes: tuple[int, ...] | None = None,
    anchor_zero_row: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build ground-truth non-negative factors with recoverable structure.

    Returns ``(users, features, time, labels)`` where ``labels`` holds each
    user's group.  Users load strongly on their group's component and weakly
    elsewhere; features follow the signature sets; time series are smooth
    sinusoids bounded away from zero.
    """
    return _planted_factors(
        SeededRandom(seed),
        n_users,
        n_features,
        n_steps,
        rank,
        signatures,
        group_sizes,
        anchor_zero_row,
    )


def _planted_factors(
    rng: SeededRandom,
    n_users: int,
    n_features: int,
    n_steps: int,
    rank: int,
    signatures: tuple[tuple[int, ...], ...] | None,
    group_sizes: tuple[int, ...] | None,
    anchor_zero_row: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``planted_factors`` drawing from ``rng``, which it leaves just past
    the draws it made."""
    if group_sizes is None:
        base = n_users // rank
        group_sizes = tuple(
            base + (1 if r < n_users % rank else 0) for r in range(rank)
        )
    if sum(group_sizes) != n_users or len(group_sizes) != rank:
        raise ValueError("group sizes must sum to n_users, one per component")
    if signatures is None:
        signatures = _default_signatures(rank, n_features)

    # the groups are consecutive blocks of users, in component order
    labels = np.repeat(np.arange(rank), group_sizes)
    users = rng.uniform(*_OUTSIDER_RANGE, size=(n_users, rank))
    users[np.arange(n_users), labels] = rng.uniform(*_MEMBER_RANGE, size=n_users)
    if anchor_zero_row:
        users[0] = 0.0

    features = np.zeros((n_features, rank))
    rows = [f for sig in signatures for f in sig]
    cols = np.repeat(np.arange(rank), [len(sig) for sig in signatures])
    features[rows, cols] = rng.uniform(*_SIGNATURE_RANGE, size=len(rows))

    steps = np.arange(n_steps) / max(n_steps, 1)
    freqs = 1.0 + 0.65 * np.arange(rank)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=rank)
    time = 0.55 + 0.35 * np.sin(2.0 * np.pi * freqs * steps[:, None] + phases)
    return users, features, time, labels


def as_factor_model(
    users: np.ndarray, features: np.ndarray, time: np.ndarray, seed: int = 0
) -> FactorModel:
    """Package raw factors as a normalized FactorModel (norms folded into weights)."""
    factors = []
    weights = np.ones(users.shape[1])
    for mat in (users, features, time):
        factor, norms = _normalize_columns(np.asarray(mat, dtype=np.float64))
        weights = weights * norms
        factors.append(factor)
    return FactorModel(
        weights=weights,
        factors=tuple(factors),
        fit=0.0,
        converged=True,
        iterations=0,
        seed=seed,
    )


def apply_relative_noise(tensor: np.ndarray, level: float, rng) -> np.ndarray:
    """Multiplicative Gaussian perturbation, clipped so entries stay >= 0.

    ``rng`` is any object with a ``standard_normal(shape)`` method: the
    package's ``SeededRandom``, or a ``numpy.random.Generator``.  Returns a
    new array, formed in place on the draw, except at level 0, where it
    returns ``tensor`` itself; ``tensor`` is never modified.
    """
    if level == 0.0:
        return tensor
    jitter = rng.standard_normal(tensor.shape)
    jitter *= level
    jitter += 1.0
    np.clip(jitter, 0.0, None, out=jitter)
    return np.multiply(tensor, jitter, out=jitter)


def generate_synthetic(spec: SyntheticSpec) -> SyntheticResult:
    """Generate a dataset plus the ground truth it was planted from.

    The returned ``truth`` model is expressed in the coordinates of the
    min-max normalized tensor the standard pipeline will produce, so it can
    be compared directly against a downstream fit.  With noise or rounding
    the correspondence is approximate; in ``exact`` mode it is exact.
    """
    # one stream: the planted factors, then the noise, then the wins
    rng = SeededRandom(spec.seed)
    users, features, time, labels = _planted_factors(
        rng,
        spec.n_players,
        len(spec.feature_scales),
        spec.n_matches,
        spec.rank,
        spec.signatures,
        spec.group_sizes,
        spec.exact,
    )
    tensor = kruskal_tensor(np.ones(spec.rank), users, features, time)
    scales = np.asarray(spec.feature_scales)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge value overflows: checked below
        # in place: at level 0 the noise step returns this function's own tensor
        counts = apply_relative_noise(tensor, spec.noise, rng)
        counts *= scales[None, :, None]
        if not spec.exact:
            np.round(counts, out=counts)
        # express the truth in post-normalization coordinates: the pipeline will
        # rescale feature j by (max - min) of its counts
        span = counts.max(axis=(0, 2)) - counts.min(axis=(0, 2))
        span = np.where(span > 0, span, 1.0)
        features_scaled = features * (scales / span)[:, None]
        truth = as_factor_model(users, features_scaled, time, seed=spec.seed)
    if not (np.isfinite(counts).all() and np.isfinite(truth.weights).all()):
        raise ValueError(f"noise {spec.noise} or feature_scales {spec.feature_scales} overflow")

    win_prob = 0.5 + np.asarray(spec.win_bias)[labels]
    wins = rng.random((spec.n_players, spec.n_matches)) < win_prob[:, None]

    width = max(4, len(str(spec.n_players - 1)))
    dataset = Dataset(
        player_ids=tuple(f"p{i:0{width}d}" for i in range(spec.n_players)),
        counts=counts,
        winners=wins,
        arena_id=spec.arena_id,
    )

    return SyntheticResult(
        dataset=dataset,
        truth=truth,
        labels=labels,
    )
