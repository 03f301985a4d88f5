import importlib

import numpy as np
import pytest

from matchfactor import MaxIterationsExceeded, NnlsProblem, kkt_residual, solve_nnls_bpp

from helpers import nnls_by_enumeration


def random_problem(rng, n_rows=6, n_vars=4, n_rhs=1):
    g = rng.standard_normal((n_rows, n_vars))
    y = 2.0 * rng.standard_normal((n_rows, n_rhs))
    return NnlsProblem(g.T @ g, g.T @ y)


class TestProblemValidation:
    def test_rejects_asymmetric_gram(self):
        with pytest.raises(ValueError, match="symmetric"):
            NnlsProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 1)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="inconsistent"):
            NnlsProblem(np.eye(2), np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"^gram must be square, got shape \(2, 3\)$"):
            NnlsProblem(np.ones((2, 3)), np.zeros((2, 1)))

    def test_vector_rhs_promoted(self):
        prob = NnlsProblem(np.eye(2), np.array([1.0, 2.0]))
        assert prob.rhs.shape == (2, 1)


class TestTrivialCases:
    def test_clamped_at_boundary(self):
        # negative unconstrained optimum: solution clamps to zero
        sol = solve_nnls_bpp(NnlsProblem(np.array([[4.0]]), np.array([[-2.0]])))
        assert sol.x[0, 0] == 0.0
        assert sol.kkt_residual == 0.0

    def test_interior_solution(self):
        sol = solve_nnls_bpp(NnlsProblem(np.eye(2), np.array([[1.0], [2.0]])))
        np.testing.assert_allclose(sol.x.ravel(), [1.0, 2.0], atol=1e-12)

    def test_matches_unconstrained_when_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.standard_normal((8, 4))
            x_true = rng.uniform(0.5, 2.0, size=(4, 2))
            prob = NnlsProblem(g.T @ g, (g.T @ g) @ x_true)
            sol = solve_nnls_bpp(prob)
            np.testing.assert_allclose(sol.x, x_true, atol=1e-10)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            prob = random_problem(rng)
            sol = solve_nnls_bpp(prob)
            expect = nnls_by_enumeration(prob.gram, prob.rhs[:, 0])
            np.testing.assert_allclose(sol.x[:, 0], expect, atol=1e-8)
            assert sol.kkt_residual <= 1e-8

    def test_multi_rhs_matches_columnwise(self):
        rng = np.random.default_rng(77)
        prob = random_problem(rng, n_rhs=6)
        sol = solve_nnls_bpp(prob)
        for col in range(6):
            expect = nnls_by_enumeration(prob.gram, prob.rhs[:, col])
            np.testing.assert_allclose(sol.x[:, col], expect, atol=1e-8)


class TestInvariants:
    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, n_rhs=5)
        perm = rng.permutation(5)
        permuted = NnlsProblem(prob.gram, prob.rhs[:, perm])
        sol = solve_nnls_bpp(prob)
        sol_perm = solve_nnls_bpp(permuted)
        np.testing.assert_allclose(sol.x[:, perm], sol_perm.x, atol=1e-8)

    def test_objective_beats_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            prob = random_problem(rng)
            sol = solve_nnls_bpp(prob)
            x = sol.x[:, 0]
            obj = 0.5 * x @ prob.gram @ x - prob.rhs[:, 0] @ x
            assert obj <= 1e-12  # objective at x=0 is exactly 0

    def test_rank_deficient_gram_still_solves(self):
        # duplicated columns: the ridge keeps the passive solves alive
        rng = np.random.default_rng(9)
        g = rng.standard_normal((6, 3))
        g = np.hstack([g, g[:, :1]])
        y = rng.standard_normal((6, 2))
        prob = NnlsProblem(g.T @ g, g.T @ y)
        sol = solve_nnls_bpp(prob)
        assert (sol.x >= 0).all()
        # complementarity and dual feasibility still certify on zeros
        assert sol.kkt_residual <= 1e-6

    @pytest.mark.parametrize("family", ["3x4", "6x3-plus-duplicate"])
    def test_collinear_rank_deficient_grams_reach_the_optimum(self, family):
        # nearly singular passive systems: the ridge-free polish alone can
        # return a far-from-optimal point, which must not be reported
        rng = np.random.default_rng(0)
        for _ in range(300):
            if family == "3x4":
                g = rng.standard_normal((3, 4))
            else:
                g = rng.standard_normal((6, 3))
                g = np.hstack([g, g[:, :1]])
            y = rng.standard_normal((g.shape[0], 1))
            prob = NnlsProblem(g.T @ g, g.T @ y)
            sol = solve_nnls_bpp(prob)
            assert sol.kkt_residual <= 1e-8
            x = sol.x[:, 0]
            best = nnls_by_enumeration(prob.gram, prob.rhs[:, 0])

            def objective(v):
                return 0.5 * v @ prob.gram @ v - prob.rhs[:, 0] @ v

            assert abs(objective(x) - objective(best)) <= 1e-10 * max(1.0, abs(objective(best)))

    def test_backup_rule_engages_and_terminates(self, monkeypatch):
        # near-singular grams push exchanges around; everything must settle
        rng = np.random.default_rng(11)
        for _ in range(50):
            base = rng.standard_normal((5, 4))
            base[:, 3] = base[:, 2] + 1e-6 * rng.standard_normal(5)
            prob = NnlsProblem(base.T @ base, base.T @ rng.standard_normal((5, 3)))
            sol = solve_nnls_bpp(prob)
            assert (sol.x >= 0).all()
        # a solve that needs more pivot rounds than allowed raises
        assert sol.iterations > 0
        monkeypatch.setattr(importlib.import_module("matchfactor.nnls"), "_MAX_ROUNDS", 0)
        with pytest.raises(MaxIterationsExceeded, match="did not settle in 0 rounds"):
            solve_nnls_bpp(prob)


class TestKktResidual:
    def test_zero_at_exact_solution(self):
        gram = np.diag([2.0, 3.0])
        x = np.array([[1.5], [2.0]])
        prob = NnlsProblem(gram, gram @ x)
        assert kkt_residual(prob, x) == 0.0

    def test_zero_vector_against_positive_rhs(self):
        rhs = np.array([[1.0], [3.0], [2.0]])
        prob = NnlsProblem(np.eye(3), rhs)
        assert kkt_residual(prob, np.zeros((3, 1))) == pytest.approx(3.0)

    def test_grows_with_perturbation(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 3))
        prob = NnlsProblem(g.T @ g, g.T @ rng.standard_normal((5, 1)))
        x = solve_nnls_bpp(prob).x
        residuals = [
            kkt_residual(prob, x + eps) for eps in (0.0, 1e-4, 1e-3, 1e-2, 1e-1)
        ]
        assert all(a < b for a, b in zip(residuals, residuals[1:]))

    def test_shape_mismatch(self):
        prob = NnlsProblem(np.eye(2), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="shape"):
            kkt_residual(prob, np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"^x shape \(3, 1\) does not match"):
            kkt_residual(prob, np.zeros(3))  # a vector is one column


class TestWarmStart:
    """A warm start (initial passive set) changes the pivoting path, not the answer."""

    @staticmethod
    def warm_problems(rng, kind):
        g = rng.standard_normal((8, 4))
        if kind == "rank-deficient":
            # zero columns, as a dead ANLS component gives: the Gram matrix is
            # singular but the solution stays unique (zero on those columns)
            g[:, rng.choice(4, size=rng.integers(1, 3), replace=False)] = 0.0
        elif kind == "zero":
            g[:] = 0.0
        y = 2.0 * rng.standard_normal((8, 3))
        return NnlsProblem(g.T @ g, g.T @ y)

    @pytest.mark.parametrize("kind", ["positive-definite", "rank-deficient", "zero"])
    def test_matches_enumeration_from_random_passive_sets(self, kind):
        rng = np.random.default_rng(41)
        for _ in range(60):
            prob = self.warm_problems(rng, kind)
            passive = rng.random(prob.rhs.shape) < 0.5
            sol = solve_nnls_bpp(prob, passive=passive)
            assert sol.kkt_residual <= 1e-8
            for col in range(prob.m):
                expect = nnls_by_enumeration(prob.gram, prob.rhs[:, col])
                np.testing.assert_allclose(sol.x[:, col], expect, rtol=0, atol=1e-8)
            if kind == "positive-definite":
                cold = solve_nnls_bpp(prob)
                np.testing.assert_allclose(sol.x, cold.x, rtol=0, atol=1e-10)

    def test_exact_passive_set_needs_no_pivoting(self):
        rng = np.random.default_rng(42)
        prob = self.warm_problems(rng, "positive-definite")
        cold = solve_nnls_bpp(prob)
        warm = solve_nnls_bpp(prob, passive=cold.x > 0)
        assert warm.iterations == 0
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-12)

    def test_caller_passive_set_left_unchanged(self):
        rng = np.random.default_rng(43)
        prob = self.warm_problems(rng, "positive-definite")
        passive = np.ones(prob.rhs.shape, dtype=bool)
        solve_nnls_bpp(prob, passive=passive)
        assert passive.all()

    def test_exactly_singular_passive_system_falls_back_to_the_ridge(self):
        # with both variables passive, the warm start's ridge-free solve is singular
        prob = NnlsProblem(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 2.0], [1.0, 2.0]]))
        sol = solve_nnls_bpp(prob, passive=np.ones((2, 2), dtype=bool))
        assert sol.kkt_residual <= 1e-8
        for col in range(prob.m):
            x, expect = sol.x[:, col], nnls_by_enumeration(prob.gram, prob.rhs[:, col])
            objective = [0.5 * v @ prob.gram @ v - prob.rhs[:, col] @ v for v in (x, expect)]
            assert objective[0] == pytest.approx(objective[1], rel=0, abs=1e-12)

    def test_rejects_passive_shape_mismatch(self):
        prob = NnlsProblem(np.eye(2), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="passive shape"):
            solve_nnls_bpp(prob, passive=np.ones((2, 2), dtype=bool))
