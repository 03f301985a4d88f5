"""Non-negative CP decomposition by alternating non-negative least squares.

Each sweep fixes two factor matrices and solves the mode-wise NNLS
subproblem for the third: the Gram matrix is the elementwise product of the
fixed factors' Grams and the right-hand side is the MTTKRP, the mode
unfolding times the Khatri-Rao product of the fixed factors.  The MTTKRP
contracts the tensor with one fixed factor at a time and never forms the
Khatri-Rao product.  Three private kernels hold the sweep's arithmetic:
``_mttkrp_1`` (mode 1), ``_contract_players`` (a matrix times the player
axis, which modes 2 and 3 share with the freshly solved user factor) and
``_gram_fit`` (the fit, below).  ``_contract_players`` is the only product
with the player-axis unfolding: ``core_consistency`` calls it too, with the
pseudoinverse of the user factor.  From the second sweep on, each solve is
warm-started from the support of the factor it replaces.
Column norms are folded into the weight vector after every solve, so stored
factors always have unit-norm columns.  Because each block solve is an exact
constrained minimization, the reconstruction error is non-increasing across
sweeps.

The sweep's fit (``_gram_fit``) comes from the mode-3 normal equations
(the Gram identity of Kolda & Bader): with ``x`` the mode-3 solution,
``rhs`` its right-hand side and ``gram`` its Gram matrix,
``||X - X_hat||^2 = ||X||^2 - 2 sum(rhs * x) + sum(gram * (x @ x.T))``,
which costs ``O(R^2 K)`` instead of a dense reconstruction.  The identity
subtracts numbers of size ``||X||^2`` to get one of size
``fit^2 ||X||^2``, so its absolute error in the relative fit grows like
``eps / fit``: about 1e-12 at a fit of 1e-4, and more than the 1e-10
sweep-to-sweep monotonicity allows as an exact fit approaches 1e-6 and
below.  Below a relative fit of ``1e-4`` the sweep therefore recomputes the
dense residual ``||X - X_hat||`` instead.

``rank_scan`` is the one restart engine: it runs every (rank, restart) fit
one after another and records a solver failure instead of raising it.
``fit_restarts`` and ``decompose`` are its one-rank views.  One rule picks a
model everywhere: highest core consistency, then lower fit error, then
lower seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._rng import SeededRandom
from .errors import DegenerateTensor, MatchFactorError
from .nnls import NnlsProblem, solve_nnls_bpp
from .tensor import (
    _finite_floats,
    _read_json,
    _write_json,
    as_tensor3,
    frobenius_norm,
    kruskal_tensor,
)

_MODEL_FORMAT = "factor-model"
_MODEL_VERSION = 1
_MODEL_KEYS = ("rank", "weights", "factors", "fit", "converged", "iterations", "seed")

# Relative fit below which the Gram-identity fit loses too many digits to
# cancellation and the sweep recomputes the dense residual instead.
_DENSE_FIT_BELOW = 1e-4

# Core consistency threshold below which a rank is not considered a
# plausible knee candidate.
_CC_FLOOR = 50.0

# A sweep whose fit moves by less than this (absolute) counts as converged,
# whatever ``rel_tol`` says.
_ABS_TOL = 1e-9


@dataclass(frozen=True)
class DecomposeConfig:
    """Knobs for one ANLS fit and its restarts."""

    max_outer_iters: int = 500
    rel_tol: float = 1e-8
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FactorModel:
    """One fitted CP model in normalized form.

    ``factors`` holds the (users, features, time) matrices with unit-norm
    columns; column norms are absorbed into ``weights``.  ``fit`` is the
    relative reconstruction error ``||X - X_hat||_F / ||X||_F``.
    """

    weights: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    fit: float
    converged: bool
    iterations: int
    seed: int
    objective_history: tuple[float, ...] = field(default=(), repr=False)

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(f.shape[0] for f in self.factors)


@dataclass(frozen=True)
class RestartRecord:
    """One (rank, restart) fit: its diagnostics and, unless it failed, its model."""

    rank: int
    restart: int
    seed: int
    core_consistency: float
    fit: float
    converged: bool
    error: str | None = None
    model: FactorModel | None = field(default=None, compare=False, repr=False)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class RankScanResult:
    """Per-(rank, restart) consistency/fit records plus the knee selection."""

    records: tuple[RestartRecord, ...]
    selected_rank: int
    rationale: str

    def best(self, rank: int) -> RestartRecord:
        """Best restart at ``rank``; raises MatchFactorError if all failed there."""
        return _best([rec for rec in self.records if rec.rank == rank], rank)

    def best_by_rank(self) -> dict[int, RestartRecord]:
        """``best`` of every rank with at least one successful restart."""
        return _best_by_rank(self.records)


def _restart_order(rec: RestartRecord) -> tuple[float, float, int]:
    # max consistency first, then lower fit error, then lower seed
    return (-rec.core_consistency, rec.fit, rec.seed)


def _normalize_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(m, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    return m / safe, norms


def _contract_players(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``m`` (R x I) times the player axis of ``t`` (I x J x K): R x J x K."""
    return (m @ t.reshape(t.shape[0], -1)).reshape(-1, *t.shape[1:])


def _mttkrp_1(t: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``(X_(1) (C kr B)).T``, R x I: k contracted with C, then j with B."""
    i_dim, j_dim, k_dim = t.shape
    xc = (c.T @ t.reshape(i_dim * j_dim, k_dim).T).reshape(-1, i_dim, j_dim)
    return np.einsum("rij,rj->ri", xc, b.T)


def _gram_fit(t, norm_t, weights, factors, gram, rhs, x) -> float:
    """Relative fit of the model whose mode-3 solve ``x`` had ``gram`` and ``rhs``:
    the Gram identity, or the dense residual below ``_DENSE_FIT_BELOW``."""
    fit_sq = norm_t**2 - 2.0 * float(np.sum(rhs * x)) + float(np.sum(gram * (x @ x.T)))
    if fit_sq < (_DENSE_FIT_BELOW * norm_t) ** 2:
        return frobenius_norm(t - kruskal_tensor(weights, *factors)) / norm_t
    return math.sqrt(fit_sq) / norm_t


def _solve(gram: np.ndarray, rhs: np.ndarray, factor: np.ndarray, warm: bool) -> tuple:
    """One mode's NNLS solution ``x``, warm-started from the support of ``factor``,
    then the normalized columns of ``x.T`` (the new factor) and their norms."""
    x = solve_nnls_bpp(NnlsProblem(gram, rhs), passive=factor.T > 0 if warm else None).x
    return (x, *_normalize_columns(x.T))


def _anls_single(t: np.ndarray, rank: int, seed: int, cfg: DecomposeConfig) -> FactorModel:
    """One ANLS fit of a validated tensor from a seeded random start."""
    rng = SeededRandom(seed)
    norm_t = frobenius_norm(t)
    # strictly positive init on (0, 1] avoids degenerate zero columns
    a, b, c = (_normalize_columns(1.0 - rng.random((d, rank)))[0] for d in t.shape)

    history: list[float] = []
    prev_fit = np.inf
    converged = False
    for sweeps in range(1, cfg.max_outer_iters + 1):
        warm = sweeps > 1
        _, a, _ = _solve((c.T @ c) * (b.T @ b), _mttkrp_1(t, b, c), a, warm)
        # modes 2 and 3 both contract i with the new A first
        xa = _contract_players(a.T, t)
        _, b, _ = _solve((c.T @ c) * (a.T @ a), (xa @ c.T[:, :, None])[:, :, 0], b, warm)
        rhs = (b.T[:, None, :] @ xa)[:, 0, :]
        gram = (b.T @ b) * (a.T @ a)
        x, c, weights = _solve(gram, rhs, c, warm)

        fit = _gram_fit(t, norm_t, weights, (a, b, c), gram, rhs, x)
        history.append(fit)
        delta = abs(prev_fit - fit)
        if delta < _ABS_TOL or delta < cfg.rel_tol * max(prev_fit, 1e-300):
            converged = True
            break
        prev_fit = fit

    # deterministic component order: heaviest first
    order = np.argsort(-weights, kind="stable")
    weights = weights[order]
    factors = [np.ascontiguousarray(f[:, order]) for f in (a, b, c)]
    # dead components keep a unit placeholder so columns stay unit-norm
    for r in np.flatnonzero(weights == 0):
        for f in factors:
            f[:, r] = 0.0
            f[0, r] = 1.0

    return FactorModel(
        weights=weights,
        factors=tuple(factors),
        fit=history[-1],
        converged=converged,
        iterations=sweeps,
        seed=seed,
        objective_history=tuple(history),
    )


def _validate_decompose_inputs(t: np.ndarray, ranks: list[int]) -> np.ndarray:
    """Check the tensor once and every rank of ``ranks`` before any fit."""
    t = as_tensor3(t, require_nonnegative=True)
    if frobenius_norm(t) == 0.0:
        raise DegenerateTensor("cannot decompose an all-zero tensor")
    i, j, k = t.shape
    max_rank = min(j * k, i * k, i * j)
    for rank in ranks:
        if not 1 <= rank <= max_rank:
            raise ValueError(f"rank must be in [1, {max_rank}], got {rank}")
    return t


def _scored(t: np.ndarray, model: FactorModel, restart: int) -> RestartRecord:
    return RestartRecord(
        rank=model.rank, restart=restart, seed=model.seed, fit=model.fit,
        core_consistency=core_consistency(t, model), converged=model.converged, model=model,
    )


def _best(records: list[RestartRecord], rank: int) -> RestartRecord:
    ok = [rec for rec in records if not rec.failed]
    if not ok:
        first = f"; first error: {records[0].error}" if records else ""
        raise MatchFactorError(f"no restart at rank {rank} succeeded{first}")
    return min(ok, key=_restart_order)


def _best_by_rank(records) -> dict[int, RestartRecord]:
    ranks = sorted({rec.rank for rec in records if not rec.failed})
    return {rank: _best([rec for rec in records if rec.rank == rank], rank) for rank in ranks}


def fit_restarts(t: np.ndarray, rank: int, cfg: DecomposeConfig | None = None) -> list[FactorModel]:
    """Models of the successful restarts among ``cfg.n_restarts`` ANLS fits.

    Restart ``i`` seeds its generator with ``cfg.seed + i``.  Raises
    :class:`MatchFactorError`, naming the first error, if every restart fails.
    """
    scan = rank_scan(t, [rank], cfg)
    scan.best(rank)  # raises if every restart failed
    return [rec.model for rec in scan.records if not rec.failed]


def decompose(t: np.ndarray, rank: int, cfg: DecomposeConfig | None = None) -> FactorModel:
    """The restart with the highest core consistency (the rule of ``select_best_model``)."""
    return rank_scan(t, [rank], cfg).best(rank).model


def core_consistency(t: np.ndarray, model: FactorModel) -> float:
    """Core consistency diagnostic of ``model`` on the tensor it was fitted to.

    Computes the least-squares Tucker core given the fixed factor matrices
    (weights absorbed into the user factors so the ideal core is the unit
    superdiagonal) and returns ``100 * (1 - sum((core - ideal)^2) / rank)``.
    At most 100; can be negative for a badly misspecified rank.
    """
    t = as_tensor3(t)
    if model.dims != t.shape:
        raise ValueError(f"model dims {model.dims} do not match tensor shape {t.shape}")
    a, b, c = model.factors
    a = a * model.weights
    # pseudoinverses via SVD truncated at 1e-12 * sigma_max
    ap, bp, cp = (np.linalg.pinv(m, rcond=1e-12) for m in (a, b, c))
    core = np.einsum("mj,rjk->rmk", bp, _contract_players(ap, t))
    core = np.einsum("nk,rmk->rmn", cp, core)
    r = model.rank
    ideal = np.zeros((r, r, r))
    ideal[np.arange(r), np.arange(r), np.arange(r)] = 1.0
    return float(100.0 * (1.0 - np.sum((core - ideal) ** 2) / r))


def select_best_model(
    t: np.ndarray, models: list[FactorModel]
) -> tuple[FactorModel, float]:
    """Pick the model with the highest core consistency.

    Ties break toward lower fit error, then lower seed.  Returns the model
    and its consistency value.
    """
    if not models:
        raise ValueError("no models to select from")
    best = min((_scored(t, m, i) for i, m in enumerate(models)), key=_restart_order)
    return best.model, best.core_consistency


def _select_knee(ranks: list[int], best_cc: list[float]) -> tuple[int, str]:
    if len(ranks) == 1:
        return ranks[0], f"single-rank scan: no knee possible, selected rank {ranks[0]}"

    eligible = [i for i in range(1, len(ranks) - 1) if best_cc[i] >= _CC_FLOOR]
    if eligible:
        # knee score: how much the downward slope steepens at this rank.
        # Negative consistency means "inappropriate" categorically, so the
        # curve is floored at 0 to keep one garbage fit from dominating its
        # neighbors' scores.
        floored = [max(v, 0.0) for v in best_cc]
        scores = {
            i: 2.0 * floored[i] - floored[i - 1] - floored[i + 1] for i in eligible
        }
        pick = min(eligible, key=lambda i: (-scores[i], ranks[i]))
        return ranks[pick], (
            f"rank {ranks[pick]} has the largest slope change of the best "
            f"core-consistency curve (knee score {scores[pick]:.3f})"
        )
    above = [i for i in range(len(ranks)) if best_cc[i] >= _CC_FLOOR]
    if above:
        pick = max(above)
        return ranks[pick], (
            f"no interior knee candidate reached core consistency {_CC_FLOOR:.0f}; "
            f"selected the largest rank above the floor, rank {ranks[pick]}"
        )
    return ranks[0], (
        f"no rank reached core consistency {_CC_FLOOR:.0f}; "
        f"defaulting to the smallest scanned rank {ranks[0]}"
    )


def rank_scan(t: np.ndarray, ranks, cfg: DecomposeConfig | None = None) -> RankScanResult:
    """Fit every rank in ``ranks`` with restarts and pick the consistency knee.

    Restart ``i`` seeds its generator with ``cfg.seed + i``.  A solver
    failure is recorded on its restart's record instead of aborting the
    scan.  Ranks with no successful restart are skipped by the knee rule.
    The full per-restart curve is always part of the result so a caller can
    override the automatic selection.  An ascending ``range`` is checked
    without being built, so a huge one fails at its first rank out of range.
    """
    cfg = cfg or DecomposeConfig()
    if not (isinstance(ranks, range) and ranks.step > 0):
        ranks = sorted({operator.index(r) for r in ranks})
    if not ranks:
        raise ValueError("rank scan range must be non-empty")
    t = _validate_decompose_inputs(t, ranks)
    records = []
    for rank in ranks:
        for restart in range(cfg.n_restarts):
            seed = cfg.seed + restart
            try:
                model = _anls_single(t, rank, seed, cfg)
            except MatchFactorError as exc:
                error = f"{type(exc).__name__}: {exc}"
                records.append(RestartRecord(rank, restart, seed, math.nan, math.nan, False, error))
            else:
                records.append(_scored(t, model, restart))
    best = _best_by_rank(records)
    best_cc = [best[r].core_consistency if r in best else float("-inf") for r in ranks]
    selected, rationale = _select_knee(ranks, best_cc)
    return RankScanResult(records=tuple(records), selected_rank=selected, rationale=rationale)


def align_components(
    est: FactorModel, truth: FactorModel
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Match estimated components to reference components.

    Solves the assignment problem maximizing, per pair, the product of
    cosine similarities across the three modes.  Returns ``(perm, scores)``
    where ``est.factors[m][:, perm[j]]`` corresponds to reference component
    ``j`` and ``scores[j]`` is the congruence of that pair (in [-1, 1]).
    """
    if est.rank != truth.rank:
        raise ValueError(f"rank mismatch: {est.rank} != {truth.rank}")
    if est.dims != truth.dims:
        raise ValueError(f"dims mismatch: {est.dims} != {truth.dims}")
    r = est.rank
    score = np.ones((r, r))
    for e_mat, t_mat in zip(est.factors, truth.factors):
        e_norm = np.linalg.norm(e_mat, axis=0)
        t_norm = np.linalg.norm(t_mat, axis=0)
        denom = np.outer(e_norm, t_norm)
        cos = np.zeros((r, r))
        np.divide(e_mat.T @ t_mat, denom, out=cos, where=denom > 0)
        score *= cos
    if not np.isfinite(score).all():
        raise ValueError("component congruences must be finite")
    perm = _max_assignment(score.T)
    scores = tuple(float(score[perm[j], j]) for j in range(r))
    return tuple(int(p) for p in perm), scores


def _max_assignment(score: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square matrix, so that the assigned
    entries have the largest sum (the Hungarian method with potentials,
    O(n^3))."""
    n = score.shape[0]
    cost = -score
    u = np.zeros(n + 1)  # row potentials, 1-based
    v = np.zeros(n + 1)  # column potentials, 1-based
    row_of = np.zeros(n + 1, dtype=int)  # row_of[j]: row matched to column j, 0 if none
    for i in range(1, n + 1):
        # grow an alternating tree from row i until it reaches a free column
        row_of[0], j0 = i, 0
        slack = np.full(n + 1, np.inf)
        via = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            free = ~used[1:]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            better = free & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            via[1:][better] = j0
            j1 = 1 + int(np.argmin(np.where(free, slack[1:], np.inf)))
            delta = slack[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            j0 = j1
        while j0:  # flip the path back to row i
            j1 = via[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    col_of = np.empty(n, dtype=int)
    col_of[row_of[1:] - 1] = np.arange(n)
    return col_of


def _matrix_doc(m: np.ndarray) -> dict:
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "values": m.ravel(order="C").tolist(),
    }


def _matrix_from_doc(doc, name: str, rank: int) -> np.ndarray:
    if not (isinstance(doc, dict) and {"rows", "cols", "values"} <= doc.keys()):
        raise ValueError(f"factor {name!r} must be an object with rows, cols and values")
    rows, cols = doc["rows"], doc["cols"]
    if type(rows) is not int or rows < 1:
        raise ValueError(f"factor {name!r}: rows must be a positive integer, got {rows!r}")
    if type(cols) is not int or cols != rank:
        raise ValueError(f"factor {name!r}: cols must be the rank {rank}, got {cols!r}")
    message = f"factor {name!r}: values must be a list of finite numbers"
    values = _finite_floats(doc["values"], message)
    if values.size != rows * cols:
        raise ValueError(f"factor {name!r}: {values.size} values do not fill {rows} x {cols}")
    return values.reshape(rows, cols)


def model_to_doc(
    model: FactorModel,
    core_consistency_value: float | None = None,
) -> dict:
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "rank": model.rank,
        "weights": model.weights.tolist(),
        "factors": {
            "users": _matrix_doc(model.factors[0]),
            "features": _matrix_doc(model.factors[1]),
            "time": _matrix_doc(model.factors[2]),
        },
        "fit": model.fit,
        "converged": model.converged,
        "iterations": model.iterations,
        "seed": model.seed,
    }
    if core_consistency_value is not None:
        doc["core_consistency"] = core_consistency_value
    return doc


def model_from_doc(doc) -> FactorModel:
    """The model of a ``model_to_doc`` document; a malformed one raises ``ValueError``."""
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise ValueError("not a factor-model document")
    version = doc.get("version")
    if type(version) is not int or version != _MODEL_VERSION:  # a JSON true or 1.0 is not 1
        raise ValueError(f"unsupported factor-model version {version!r}")
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise ValueError(f"missing keys {missing}")
    weights = _finite_floats(doc["weights"], "weights must be a list of finite numbers")
    rank = doc["rank"]
    if type(rank) is not int or rank < 1 or rank != weights.size:
        message = f"rank must be positive and equal to the {weights.size} weights, got {rank!r}"
        raise ValueError(message)
    if not isinstance(doc["factors"], dict):
        raise ValueError("factors must be an object")
    factors = tuple(
        _matrix_from_doc(doc["factors"].get(name), name, rank)
        for name in ("users", "features", "time")
    )
    if type(doc["converged"]) is not bool:
        raise ValueError("converged must be a boolean")
    for key in ("iterations", "seed"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise ValueError(f"{key} must be a non-negative integer")
    return FactorModel(
        weights=weights,
        factors=factors,
        fit=float(_finite_floats([doc["fit"]], "fit must be a finite number")[0]),
        converged=doc["converged"],
        iterations=doc["iterations"],
        seed=doc["seed"],
    )


def save_factor_model(path, model: FactorModel, core_consistency_value: float) -> None:
    _write_json(path, model_to_doc(model, core_consistency_value))


def load_factor_model(path) -> FactorModel:
    """Read a model written by ``save_factor_model``; a file that is not one
    raises ``ValueError`` naming it."""
    doc = _read_json(path)
    try:
        return model_from_doc(doc)
    except ValueError as exc:
        raise ValueError(f"{Path(path)}: {exc}") from None
