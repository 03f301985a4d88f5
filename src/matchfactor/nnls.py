"""Non-negative least squares with multiple right-hand sides.

Solves ``min ||G x - y||_2  s.t. x >= 0`` column by column, given the normal
equations ``gram = G.T @ G`` and ``rhs = G.T @ Y``.  The solver is the block
principal pivoting method: whole blocks of variables are exchanged between
the passive (free) and active (clamped-at-zero) sets, falling back to a
single-variable exchange on the largest-index infeasible entry whenever a
column stops making progress, which prevents cycling.

Each pivoting round solves the passive-set systems of all pending columns in
one batched ``np.linalg.solve``: column ``j``'s system is ``gram`` restricted
to its passive set and padded to ``n x n`` with identity rows and columns, so
the solution is zero off the passive set.  Columns are not grouped by
passive-set pattern: at the small ``n`` of a CP fit one padded solve per
column costs less than finding the distinct patterns.

Pivoting starts from a passive set: the caller's, or by default every
variable (the support of any strictly positive point).  In alternating
least squares the caller passes the previous solution's support, which is
usually close to the new one, so pivoting settles in few rounds.  When
``gram`` is positive definite the NNLS solution is unique and the starting
set changes only the pivoting path, not the answer.  Variables whose Gram
diagonal is zero never start passive.

Systems solved during pivoting carry a tiny ridge (1e-12 * trace(gram) / n)
so momentarily collinear columns do not abort the caller.  Once the pivoting
has settled, every passive set last solved with the ridge is re-solved
without it, so the returned solution certifies the original problem; a
column whose re-solve fails the KKT tolerance keeps its ridged solution.
The starting set's systems are solved like this polish, without the ridge
unless one is singular, so a column that needs no pivoting is final after a
single solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaxIterationsExceeded, NumericallySingular

# Full-block exchanges allowed without progress before switching to the
# single-variable backup rule.
_FULL_EXCHANGE_BUDGET = 3

_SYMMETRY_TOL = 1e-10

# Absolute KKT tolerance the polished solution is certified against.
_KKT_TOL = 1e-8

# Bound on pivoting rounds; exceeded only by pathological cycling.
_MAX_ROUNDS = 500


@dataclass(frozen=True)
class NnlsProblem:
    """Normal-equation form of an NNLS problem: ``gram`` (n x n), ``rhs`` (n x m)."""

    gram: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        gram = np.ascontiguousarray(self.gram, dtype=np.float64)
        rhs = np.ascontiguousarray(self.rhs, dtype=np.float64)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError(f"gram must be square, got shape {gram.shape}")
        if rhs.ndim != 2 or rhs.shape[0] != gram.shape[0]:
            raise ValueError(
                f"rhs shape {rhs.shape} inconsistent with gram shape {gram.shape}"
            )
        scale = max(1.0, float(np.abs(gram).max()))
        if float(np.abs(gram - gram.T).max()) > _SYMMETRY_TOL * scale:
            raise ValueError("gram matrix is not symmetric")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    @property
    def m(self) -> int:
        return self.rhs.shape[1]


@dataclass(frozen=True)
class NnlsSolution:
    """Solution matrix (entrywise >= 0) with its KKT certificate."""

    x: np.ndarray
    kkt_residual: float
    iterations: int


def kkt_residual(problem: NnlsProblem, x: np.ndarray) -> float:
    """Worst violation of the first-order optimality conditions at ``x``.

    Measures primal feasibility (``x >= 0``), dual feasibility of the gradient
    ``w = gram @ x - rhs`` on the zero set, and complementary slackness
    ``x * w = 0``.  Zero exactly at a KKT point.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != problem.rhs.shape:
        raise ValueError(f"x shape {x.shape} does not match rhs shape {problem.rhs.shape}")
    return float(_kkt_by_column(problem.gram, problem.rhs, x).max(initial=0.0))


def _kkt_by_column(gram: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``kkt_residual`` of each column of ``x``."""
    w = gram @ x - rhs
    primal = np.maximum(-x, 0.0)
    dual = np.where(x <= 0.0, np.maximum(-w, 0.0), 0.0)
    slack = np.abs(x * w)
    return np.maximum(np.maximum(primal, dual), slack).max(axis=0, initial=0.0)


def _solve_passive(gram: np.ndarray, rhs: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Solve ``gram[F, F] z_F = rhs[F, j]``, ``z = 0`` off ``F = passive[:, j]``, per column."""
    n = gram.shape[0]
    cols = passive.T
    systems = np.where(cols[:, :, None] & cols[:, None, :], gram, np.eye(n))
    try:
        z = np.linalg.solve(systems, np.where(cols, rhs.T, 0.0)[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise NumericallySingular("a passive-set system is singular") from exc
    return z[:, :, 0].T


def _passive_step(gram, system, rhs, passive, zero_tol):
    """Passive-set solution ``x`` of ``system`` (``gram``, with or without the
    ridge) and gradient ``y = gram @ x - rhs``, tiny entries zeroed."""
    x = _solve_passive(system, rhs, passive)
    y = gram @ x - rhs
    x[np.abs(x) < zero_tol] = 0.0
    y[np.abs(y) < zero_tol] = 0.0
    return x, y


def solve_nnls_bpp(problem: NnlsProblem, passive: np.ndarray | None = None) -> NnlsSolution:
    """Solve every column of the NNLS problem by block principal pivoting.

    Parameters
    ----------
    problem : NnlsProblem
        Normal equations ``(gram, rhs)``; gram must be symmetric positive
        semi-definite.
    passive : bool array of shape ``rhs.shape``, optional
        Initial passive set (True = free variable), e.g. the support of a
        previous solution.  ``None`` starts from every variable whose Gram
        diagonal is positive.

    Raises
    ------
    MaxIterationsExceeded
        If pivoting does not settle within ``_MAX_ROUNDS`` rounds.
    NumericallySingular
        If a passive-set system is singular even after the ridge.
    """
    gram = problem.gram
    rhs = problem.rhs
    n, m = problem.n, problem.m

    ridge = 1e-12 * float(np.trace(gram)) / n
    gram_reg = gram + ridge * np.eye(n)
    zero_tol = 1e-12 * max(1.0, float(np.abs(rhs).max(initial=0.0)))

    passive = np.ones((n, m), dtype=bool) if passive is None else np.asarray(passive, dtype=bool)
    if passive.shape != (n, m):
        raise ValueError(f"passive shape {passive.shape} does not match rhs shape {(n, m)}")
    # A variable whose Gram column is zero stays at zero: freeing it would
    # make the all-zero Gram matrix (whose ridge is zero) singular.
    passive = passive & (np.diag(gram) > 0)[:, None]
    # solved like the polish, so columns that need no pivoting are final
    try:
        x, y = _passive_step(gram, gram, rhs, passive, zero_tol)
        ridged = np.zeros(m, dtype=bool)
    except NumericallySingular:
        x, y = _passive_step(gram, gram_reg, rhs, passive, zero_tol)
        ridged = np.ones(m, dtype=bool)
    budget = np.full(m, _FULL_EXCHANGE_BUDGET)
    best_infeasible = np.full(m, n + 1)

    iterations = 0
    while True:
        bad_x = (x < 0.0) & passive
        bad_y = (y < 0.0) & ~passive
        n_bad = bad_x.sum(axis=0) + bad_y.sum(axis=0)
        pending = np.flatnonzero(n_bad)
        if pending.size == 0:
            break
        iterations += 1
        if iterations > _MAX_ROUNDS:
            raise MaxIterationsExceeded(
                f"block principal pivoting did not settle in {_MAX_ROUNDS} rounds"
            )

        improved = n_bad[pending] < best_infeasible[pending]
        full = improved | (budget[pending] >= 1)
        full_cols = pending[full]
        progressed = pending[improved]
        budget[progressed] = _FULL_EXCHANGE_BUDGET
        best_infeasible[progressed] = n_bad[progressed]
        budget[pending[~improved & full]] -= 1

        # full exchange: flip every infeasible variable at once
        flip = bad_x | bad_y
        passive[:, full_cols] ^= flip[:, full_cols]
        # backup rule: flip only the largest-index infeasible variable
        for col in pending[~full]:
            row = int(np.flatnonzero(flip[:, col]).max())
            passive[row, col] = not passive[row, col]

        x[:, pending], y[:, pending] = _passive_step(
            gram, gram_reg, rhs[:, pending], passive[:, pending], zero_tol
        )
        ridged[pending] = True

    # polish: re-solve the settled passive sets last solved with the ridge
    # without it, so the certificate holds for the original gram
    cols = np.flatnonzero(ridged)
    pivoted = x[:, cols]
    try:
        x[:, cols] = _solve_passive(gram, rhs[:, cols], passive[:, cols])
    except NumericallySingular:
        x[:, cols] = _solve_passive(gram_reg, rhs[:, cols], passive[:, cols])
    x[np.abs(x) < zero_tol] = 0.0
    np.maximum(x, 0.0, out=x)
    # a nearly singular passive system can defeat the ridge-free solve: such
    # a column keeps its ridged pivoting solution, which is feasible
    failed = _kkt_by_column(gram, rhs[:, cols], x[:, cols]) > _KKT_TOL
    x[:, cols[failed]] = pivoted[:, failed]

    return NnlsSolution(
        x=x, kkt_residual=kkt_residual(problem, x), iterations=iterations
    )
