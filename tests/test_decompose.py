import dataclasses
import importlib
import json
import math
import re
from itertools import permutations

import numpy as np
import pytest

from matchfactor import (
    DecomposeConfig,
    DegenerateTensor,
    MatchFactorError,
    MaxIterationsExceeded,
    align_components,
    analyze,
    as_factor_model,
    core_consistency,
    decompose,
    fit_restarts,
    khatri_rao,
    kruskal_tensor,
    load_factor_model,
    model_from_doc,
    model_to_doc,
    planted_factors,
    rank_scan,
    save_factor_model,
    select_best_model,
    unfold,
)

from matchfactor._rng import SeededRandom
from matchfactor.decompose import _max_assignment

from helpers import kruskal_by_loops, permute_components

FAST = DecomposeConfig(n_restarts=2, max_outer_iters=200)

# as a package attribute, matchfactor.decompose is the function, not the module
DECOMPOSE = importlib.import_module("matchfactor.decompose")


def fail_seeds(monkeypatch, seeds):
    """Make ``_anls_single`` raise for the given seeds; returns the seeds it was called with."""
    fit = DECOMPOSE._anls_single
    calls = []

    def failing(t, rank, seed, cfg):
        calls.append(seed)
        if seed in seeds:
            raise MaxIterationsExceeded(f"seed {seed} stalled")
        return fit(t, rank, seed, cfg)

    monkeypatch.setattr(DECOMPOSE, "_anls_single", failing)
    return calls


def planted_tensor(dims=(30, 4, 20), rank=3, seed=0):
    users, feats, time, _ = planted_factors(*dims, rank, seed=seed)
    t = kruskal_tensor(np.ones(rank), users, feats, time)
    return t, as_factor_model(users, feats, time, seed=seed)


class TestDecompose:
    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.5, 1.5, (12, 1))
        b = rng.uniform(0.5, 1.5, (4, 1))
        c = rng.uniform(0.5, 1.5, (9, 1))
        t = kruskal_tensor([1.0], a, b, c)
        model = decompose(t, 1, FAST)
        assert model.fit <= 1e-10
        _, scores = align_components(model, as_factor_model(a, b, c))
        assert min(scores) >= 1.0 - 1e-9

    def test_planted_rank3_recovery(self):
        t, truth = planted_tensor(seed=21)
        model = decompose(t, 3, DecomposeConfig(n_restarts=5))
        assert model.fit <= 1e-6
        _, scores = align_components(model, truth)
        assert min(scores) >= 0.999

    def test_unit_norm_columns_and_nonnegativity(self):
        t, _ = planted_tensor(seed=2)
        model = decompose(t, 3, FAST)
        for f in model.factors:
            assert (f >= 0).all()
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
        assert (model.weights >= 0).all()
        # heaviest component first
        assert (np.diff(model.weights) <= 1e-12).all()

    def test_objective_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            t = rng.random((15, 4, 10))
            model = decompose(t, 2, DecomposeConfig(n_restarts=1, max_outer_iters=60))
            hist = np.array(model.objective_history)
            assert (np.diff(hist) <= 1e-10).all()

    def test_objective_history_is_the_dense_fit(self):
        # the sweep's fit comes from the Gram identity; a fit stopped after
        # s sweeps reproduces history[:s] and holds the factors of sweep s
        t, _ = planted_tensor(dims=(20, 4, 12), seed=8)
        t = t + 0.05 * np.random.default_rng(8).random(t.shape)
        cfg = DecomposeConfig(n_restarts=1, max_outer_iters=25)
        history = decompose(t, 3, cfg).objective_history
        assert min(history) > 1e-2
        for sweeps, fit in enumerate(history, start=1):
            model = decompose(t, 3, dataclasses.replace(cfg, max_outer_iters=sweeps))
            dense_model = kruskal_tensor(model.weights, *model.factors)
            dense = np.linalg.norm(t - dense_model) / np.linalg.norm(t)
            assert abs(fit - dense) <= 1e-12
            assert model.objective_history == history[:sweeps]

    def test_exact_fit_crosses_to_dense_residual(self):
        t, _ = planted_tensor(seed=21)
        model = decompose(t, 3, DecomposeConfig(n_restarts=1))
        hist = np.array(model.objective_history)
        assert hist.max() > 1e-4 > model.fit
        assert model.fit <= 1e-6
        assert (np.diff(hist) <= 1e-10).all()

    def test_reconstruct_matches_triple_loop(self):
        t, _ = planted_tensor(dims=(6, 3, 5), rank=2, seed=5)
        model = decompose(t, 2, FAST)
        expect = kruskal_by_loops(model.weights, *model.factors)
        dense = kruskal_tensor(model.weights, *model.factors)
        np.testing.assert_allclose(dense, expect, atol=1e-12)

    def test_determinism(self):
        t, _ = planted_tensor(seed=3)
        m1 = decompose(t, 2, FAST)
        m2 = decompose(t, 2, FAST)
        assert m1.seed == m2.seed
        np.testing.assert_array_equal(m1.weights, m2.weights)
        for f1, f2 in zip(m1.factors, m2.factors):
            np.testing.assert_array_equal(f1, f2)

    def test_picks_the_select_best_model_choice(self):
        t, _ = planted_tensor(dims=(20, 4, 12), rank=3, seed=11)
        t = t + 0.2 * np.random.default_rng(11).random(t.shape)
        cfg = DecomposeConfig(n_restarts=5, max_outer_iters=60)
        models = fit_restarts(t, 4, cfg)
        chosen, _ = select_best_model(t, models)
        # here the most consistent restart is not the one with the lowest fit
        assert min(models, key=lambda m: m.fit).seed != chosen.seed
        model = decompose(t, 4, cfg)
        assert model.seed == chosen.seed
        np.testing.assert_array_equal(model.weights, chosen.weights)

    def test_rejects_zero_tensor(self):
        with pytest.raises(DegenerateTensor):
            decompose(np.zeros((3, 3, 3)), 1, FAST)

    def test_rejects_negative_entries(self):
        t = np.ones((3, 3, 3))
        t[0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            decompose(t, 1, FAST)

    def test_rejects_bad_rank(self):
        t = np.ones((3, 3, 3))
        with pytest.raises(ValueError, match="rank"):
            decompose(t, 0, FAST)
        with pytest.raises(ValueError, match="rank"):
            decompose(t, 10, FAST)
        with pytest.raises(TypeError):
            decompose(t, 2.5, FAST)
        with pytest.raises(TypeError):
            rank_scan(t, [1, 2.5], FAST)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_config_rejects_tolerance_outside_zero_to_inf(self, tol):
        with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
            DecomposeConfig(rel_tol=tol)

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            DecomposeConfig(seed=-1)
        with pytest.raises(ValueError, match=r"^n_restarts must be >= 1$"):
            DecomposeConfig(n_restarts=0)


def textbook_sweep(t, rank, seed):
    """One ANLS sweep as the textbook writes it, from the seeded start of
    ``decompose``: each row of a mode's factor by ``scipy.optimize.nnls``,
    fitting that row of ``unfold(t, mode)`` with the Khatri-Rao product of
    the other two factors, and the columns normalized after each mode.
    Returns the weights and the three factors."""
    from scipy.optimize import nnls

    rng = SeededRandom(seed)
    factors = [1.0 - rng.random((d, rank)) for d in t.shape]
    factors = [f / np.linalg.norm(f, axis=0) for f in factors]
    for mode in range(3):
        # the other two factors, the later mode first: X_(n) = F_n (F_q (.) F_p)^T
        p, q = (m for m in range(3) if m != mode)
        design = khatri_rao(factors[q], factors[p])
        solved = np.array([nnls(design, row)[0] for row in unfold(t, mode + 1)])
        norms = np.linalg.norm(solved, axis=0)
        factors[mode] = solved / np.where(norms > 0, norms, 1.0)
    return norms, factors


class TestSweepOracle:
    """One sweep of ``decompose`` agrees with the textbook sweep from the
    same start, in the reconstruction and the fit."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_one_sweep(self, rank, seed):
        gen = np.random.default_rng(1000 * rank + seed)
        t = gen.random(tuple(gen.integers(2, 7, size=3)))
        cfg = DecomposeConfig(n_restarts=1, max_outer_iters=1, seed=seed)
        model = decompose(t, rank, cfg)
        assert model.iterations == 1
        weights, factors = textbook_sweep(t, rank, seed)
        expect = kruskal_tensor(weights, *factors)
        got = kruskal_tensor(model.weights, *model.factors)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-10)
        fit = np.linalg.norm(t - expect) / np.linalg.norm(t)
        assert abs(model.fit - fit) <= 1e-10, (model.fit, fit)


class TestSweepKernels:
    """The sweep's kernels equal their textbook forms: ``unfold(t, n)`` times
    the Khatri-Rao product of the other two factors, and the dense fit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_kernels_match_the_textbook(self, monkeypatch, seed):
        gen = np.random.default_rng(seed)
        t = gen.random(tuple(gen.integers(2, 30, size=3)))
        rank = int(gen.integers(1, 5))
        a, b, c = (gen.random((d, rank)) for d in t.shape)
        want = (unfold(t, 1) @ khatri_rao(c, b)).T
        np.testing.assert_allclose(DECOMPOSE._mttkrp_1(t, b, c), want, rtol=1e-12)
        want = np.tensordot(a.T, t, axes=(1, 0))
        np.testing.assert_allclose(DECOMPOSE._contract_players(a.T, t), want, rtol=1e-12)

        # one sweep's problems, against the factors it held at each mode
        problems = []
        solve = DECOMPOSE.solve_nnls_bpp

        def capture(problem, **kwargs):
            sol = solve(problem, **kwargs)
            problems.append((problem, sol.x))
            return sol

        monkeypatch.setattr(DECOMPOSE, "solve_nnls_bpp", capture)
        model = DECOMPOSE._anls_single(t, rank, seed, DecomposeConfig(max_outer_iters=1))
        rng = SeededRandom(seed)
        factors = [1.0 - rng.random((d, rank)) for d in t.shape]
        factors = [f / np.linalg.norm(f, axis=0) for f in factors]
        for mode, (problem, x) in enumerate(problems):
            p, q = (m for m in range(3) if m != mode)
            want = unfold(t, mode + 1) @ khatri_rao(factors[q], factors[p])
            np.testing.assert_allclose(problem.rhs, want.T, rtol=1e-12)
            factors[mode], weights = DECOMPOSE._normalize_columns(x.T)
        norm_t = np.linalg.norm(t)
        fit = DECOMPOSE._gram_fit(t, norm_t, weights, factors, problem.gram, problem.rhs, x)
        want = np.linalg.norm(t - kruskal_tensor(weights, *factors)) / norm_t
        assert fit == pytest.approx(want, rel=1e-12)
        assert model.fit == pytest.approx(want, rel=1e-12)


class TestFailedRestarts:
    CFG = DecomposeConfig(n_restarts=3, max_outer_iters=60)

    def test_one_failure_is_skipped(self, monkeypatch):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        fail_seeds(monkeypatch, {1})
        assert [m.seed for m in fit_restarts(t, 2, self.CFG)] == [0, 2]
        assert decompose(t, 2, self.CFG).seed in (0, 2)
        records = rank_scan(t, [2], self.CFG).records
        assert [r.failed for r in records] == [False, True, False]
        assert records[1].error == "MaxIterationsExceeded: seed 1 stalled"
        assert records[1].model is None and records[0].model.seed == 0

    @pytest.mark.parametrize("fit", [fit_restarts, decompose])
    def test_all_failures_raise_naming_the_first(self, monkeypatch, fit):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        fail_seeds(monkeypatch, {0, 1, 2})
        with pytest.raises(MatchFactorError, match="rank 2.*MaxIterationsExceeded: seed 0 stalled"):
            fit(t, 2, self.CFG)

    def test_scan_records_a_rank_where_all_fail(self, monkeypatch):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        fail_seeds(monkeypatch, {0, 1, 2})
        result = rank_scan(t, [1, 2], self.CFG)
        assert all(r.failed for r in result.records)
        assert result.best_by_rank() == {}
        with pytest.raises(MatchFactorError, match="rank 2"):
            result.best(2)


class TestOneEngine:
    # each door's models, and those of the scan that every door runs
    DOORS = {
        "fit_restarts": (
            fit_restarts, lambda scan: [r.model for r in scan.records if not r.failed]
        ),
        "decompose": (lambda *a: [decompose(*a)], lambda scan: [scan.best(2).model]),
        "analyze": (lambda *a: [analyze(*a).best.model], lambda scan: [scan.best(2).model]),
    }

    @pytest.mark.parametrize("door", DOORS)
    def test_every_door_returns_the_engines_models(self, monkeypatch, door):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        cfg = DecomposeConfig(n_restarts=3, seed=4, max_outer_iters=60)
        fit, of_scan = self.DOORS[door]
        want = of_scan(rank_scan(t, [2], cfg))
        calls = fail_seeds(monkeypatch, set())
        got = fit(t, 2, cfg)
        assert calls == [4, 5, 6]
        assert len(got) == len(want) == (3 if door == "fit_restarts" else 1)
        for g, w in zip(got, want):
            assert g.seed == w.seed
            assert all(np.array_equal(a, b) for a, b in zip(g.factors, w.factors))


class TestIndeterminacies:
    def test_scaling_indeterminacy(self):
        t, _ = planted_tensor(dims=(8, 4, 6), rank=2, seed=9)
        model = decompose(t, 2, FAST)
        scale = 2.5
        scaled_users = model.factors[0].copy()
        scaled_users[:, 0] *= scale
        weights = model.weights.copy()
        weights[0] /= scale
        np.testing.assert_allclose(
            kruskal_tensor(weights, scaled_users, *model.factors[1:]),
            kruskal_tensor(model.weights, *model.factors),
            atol=1e-12,
        )

    def test_permutation_indeterminacy(self):
        t, _ = planted_tensor(dims=(8, 4, 6), rank=3, seed=10)
        model = decompose(t, 3, FAST)
        shuffled = permute_components(model, [2, 0, 1])
        np.testing.assert_allclose(
            kruskal_tensor(shuffled.weights, *shuffled.factors),
            kruskal_tensor(model.weights, *model.factors),
            atol=1e-12,
        )


class TestCoreConsistency:
    def test_exact_rank_one_is_100(self):
        t, truth = planted_tensor(dims=(10, 4, 8), rank=1, seed=7)
        model = decompose(t, 1, FAST)
        assert core_consistency(t, model) == pytest.approx(100.0, abs=1e-6)

    def test_planted_rank3_prefers_true_rank(self):
        t, _ = planted_tensor(seed=30)
        cc3 = core_consistency(t, decompose(t, 3, DecomposeConfig(n_restarts=3)))
        cc4 = core_consistency(t, decompose(t, 4, DecomposeConfig(n_restarts=3)))
        assert cc3 >= 90.0
        assert cc4 < cc3

    def test_random_factors_never_exceed_100(self):
        t, _ = planted_tensor(dims=(12, 4, 8), rank=3, seed=14)
        rng = np.random.default_rng(15)
        values = [
            core_consistency(
                t,
                as_factor_model(
                    rng.random((12, 3)), rng.random((4, 3)), rng.random((8, 3))
                ),
            )
            for _ in range(10)
        ]
        assert all(v <= 100.0 for v in values)
        # unrelated factors are a misspecified model: typically negative
        assert sum(1 for v in values if v <= 0.0) >= 8

    def test_dims_mismatch(self):
        t, truth = planted_tensor(dims=(6, 4, 5), rank=2, seed=3)
        with pytest.raises(ValueError, match="dims"):
            core_consistency(np.ones((5, 4, 5)), truth)


class TestAlignment:
    def test_self_alignment_is_identity(self):
        _, truth = planted_tensor(rank=3, seed=17)
        perm, scores = align_components(truth, truth)
        assert perm == (0, 1, 2)
        assert all(s == pytest.approx(1.0, abs=1e-12) for s in scores)

    def test_swapped_columns_recovered(self):
        _, truth = planted_tensor(rank=3, seed=18)
        shuffled = permute_components(truth, [1, 2, 0])
        perm, scores = align_components(shuffled, truth)
        # shuffled component perm[j] must be truth component j
        assert perm == (2, 0, 1)
        assert all(s == pytest.approx(1.0, abs=1e-12) for s in scores)

    def test_small_noise_keeps_high_congruence(self):
        rng = np.random.default_rng(19)
        users, feats, time, _ = planted_factors(20, 4, 15, 3, seed=19)
        noisy = as_factor_model(
            users * (1 + 0.01 * rng.standard_normal(users.shape)),
            feats * (1 + 0.01 * rng.standard_normal(feats.shape)),
            time * (1 + 0.01 * rng.standard_normal(time.shape)),
        )
        _, scores = align_components(noisy, as_factor_model(users, feats, time))
        assert min(scores) >= 0.99

    @pytest.mark.parametrize("r", range(1, 7))
    def test_assignment_matches_brute_force(self, r):
        rng = np.random.default_rng(20 + r)
        for _ in range(20):
            score = rng.standard_normal((r, r)).round(1)  # rounded, so with ties
            cols = _max_assignment(score)
            assert sorted(cols.tolist()) == list(range(r))
            best = max(sum(score[i, p[i]] for i in range(r)) for p in permutations(range(r)))
            assert score[np.arange(r), cols].sum() == pytest.approx(best, abs=1e-12)

    def test_non_finite_congruence_rejected(self):
        _, truth = planted_tensor(rank=2, seed=1)
        # norms and inner products overflow, and the cosines are inf / inf
        huge = tuple(1e200 * f for f in truth.factors)
        broken = dataclasses.replace(truth, factors=huge)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            align_components(broken, broken)

    def test_rank_mismatch(self):
        _, m3 = planted_tensor(rank=3, seed=1)
        _, m2 = planted_tensor(rank=2, seed=1)
        with pytest.raises(ValueError, match="rank"):
            align_components(m3, m2)
        _, other = planted_tensor(dims=(20, 4, 20), rank=3, seed=1)
        with pytest.raises(ValueError, match=r"^dims mismatch: \(30, 4, 20\) != \(20, 4, 20\)$"):
            align_components(m3, other)


class TestSelectBestModel:
    def test_prefers_higher_consistency(self):
        t, truth = planted_tensor(seed=25)
        models = fit_restarts(t, 3, DecomposeConfig(n_restarts=3))
        best, cc = select_best_model(t, models)
        assert cc == pytest.approx(
            max(core_consistency(t, m) for m in models), abs=1e-9
        )

    def test_tie_breaks_by_fit_then_seed(self):
        _, truth = planted_tensor(dims=(6, 4, 5), rank=2, seed=2)
        t = kruskal_tensor(truth.weights, *truth.factors)
        a = dataclasses.replace(truth, fit=0.2, seed=5)
        b = dataclasses.replace(truth, fit=0.1, seed=9)
        c = dataclasses.replace(truth, fit=0.1, seed=7)
        best, _ = select_best_model(t, [a, b, c])
        assert best.seed == 7


class TestRankScan:
    def test_single_rank_has_no_knee(self):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        result = rank_scan(t, [2], DecomposeConfig(n_restarts=2))
        assert result.selected_rank == 2
        assert "no knee possible" in result.rationale

    def test_record_cardinality(self):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        result = rank_scan(t, [1, 2, 3], DecomposeConfig(n_restarts=2, max_outer_iters=60))
        assert len(result.records) == 6
        assert {(r.rank, r.restart) for r in result.records} == {
            (rank, i) for rank in (1, 2, 3) for i in (0, 1)
        }

    def test_selects_planted_rank(self):
        t, _ = planted_tensor(dims=(40, 4, 25), rank=3, seed=26)
        result = rank_scan(t, range(1, 6), DecomposeConfig(n_restarts=3))
        assert result.selected_rank == 3

    def test_rank_range_checked_before_the_first_fit(self, monkeypatch):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        calls = fail_seeds(monkeypatch, set())
        with pytest.raises(ValueError, match="got 33"):
            rank_scan(t, [1, 2, 33], DecomposeConfig(n_restarts=2))
        assert calls == []

    def test_best_by_rank_follows_select_best_model(self):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        cfg = DecomposeConfig(n_restarts=3, max_outer_iters=60)
        result = rank_scan(t, [2, 3], cfg)
        for rank, rec in result.best_by_rank().items():
            chosen, cc = select_best_model(t, fit_restarts(t, rank, cfg))
            assert (rec.seed, rec.core_consistency) == (chosen.seed, cc)
            assert rec.model.seed == rec.seed

    def test_empty_range_rejected(self):
        t, _ = planted_tensor(dims=(10, 4, 8), rank=2, seed=4)
        with pytest.raises(ValueError, match="non-empty"):
            rank_scan(t, [], DecomposeConfig(n_restarts=1))
        with pytest.raises(ValueError, match="^no models to select from$"):
            select_best_model(t, [])


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        t, _ = planted_tensor(dims=(8, 4, 6), rank=2, seed=12)
        model = decompose(t, 2, FAST)
        path = tmp_path / "model.json"
        save_factor_model(path, model, core_consistency_value=98.5)
        back = load_factor_model(path)
        assert back.rank == model.rank
        assert back.fit == model.fit
        assert back.seed == model.seed
        np.testing.assert_array_equal(back.weights, model.weights)
        for f1, f2 in zip(back.factors, model.factors):
            np.testing.assert_array_equal(f1, f2)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("a list", "not a factor-model document"),
            ("format=dense-tensor3", "not a factor-model document"),
            ("version=2", "unsupported factor-model version 2"),
            ("no version", "unsupported factor-model version None"),
            ("version=true", "unsupported factor-model version True"),
            ("version=1.0", "unsupported factor-model version 1.0"),
            ("no factors", "missing keys ['factors']"),
            ("no fit, no seed", "missing keys ['fit', 'seed']"),
            ("factors=[]", "factors must be an object"),
            ("no time", "factor 'time' must be an object with rows, cols and values"),
            ("users=[]", "factor 'users' must be an object with rows, cols and values"),
            ("users.rows=0", "factor 'users': rows must be a positive integer, got 0"),
            ("users.rows=1.5", "factor 'users': rows must be a positive integer, got 1.5"),
            ("users.rows=true", "factor 'users': rows must be a positive integer, got True"),
            ("users.values=5 of 6", "factor 'users': 5 values do not fill 3 x 2"),
            ("users.values nested", "factor 'users': values must be a list of finite numbers"),
            ("users.values=[..., null]", "factor 'users': values must be a list of finite numbers"),
            ("users.values=[..., 10**400]",
             "factor 'users': values must be a list of finite numbers"),
            ("time.cols=1", "factor 'time': cols must be the rank 2, got 1"),
            ("weights=[1.0]", "rank must be positive and equal to the 1 weights, got 2"),
            ("weights=[], rank=0", "rank must be positive and equal to the 0 weights, got 0"),
            ("weights=1.0", "weights must be a list of finite numbers"),
            ("weights=[NaN, 1]", "weights must be a list of finite numbers"),
            ("weights=[true, 1]", "weights must be a list of finite numbers"),
            ("weights=[10**400, 1]", "weights must be a list of finite numbers"),
            ("rank=2.0", "rank must be positive and equal to the 2 weights, got 2.0"),
            ("fit=NaN", "fit must be a finite number"),
            ("fit='0.1'", "fit must be a finite number"),
            ("converged=1", "converged must be a boolean"),
            ("iterations=-1", "iterations must be a non-negative integer"),
            ("seed=0.0", "seed must be a non-negative integer"),
        ],
    )
    def test_malformed_document_is_a_value_error(self, tmp_path, case, message):
        _, truth = planted_tensor(dims=(3, 2, 2), rank=2)
        doc = json.loads(json.dumps(model_to_doc(truth)))
        users, time = doc["factors"]["users"], doc["factors"]["time"]
        edits = {
            "a list": lambda: None,
            "format=dense-tensor3": lambda: doc.update(format="dense-tensor3"),
            "version=2": lambda: doc.update(version=2),
            "no version": lambda: doc.pop("version"),
            "version=true": lambda: doc.update(version=True),
            "version=1.0": lambda: doc.update(version=1.0),
            "no factors": lambda: doc.pop("factors"),
            "no fit, no seed": lambda: (doc.pop("seed"), doc.pop("fit")),
            "factors=[]": lambda: doc.update(factors=[]),
            "no time": lambda: doc["factors"].pop("time"),
            "users=[]": lambda: doc["factors"].update(users=[]),
            "users.rows=0": lambda: users.update(rows=0),
            "users.rows=1.5": lambda: users.update(rows=1.5),
            "users.rows=true": lambda: users.update(rows=True),
            "users.values=5 of 6": lambda: users["values"].pop(),
            "users.values nested": lambda: users.update(values=[users["values"]]),
            "users.values=[..., null]": lambda: users["values"].__setitem__(-1, None),
            "users.values=[..., 10**400]": lambda: users["values"].__setitem__(-1, 10**400),
            "time.cols=1": lambda: time.update(cols=1, values=time["values"][::2]),
            "weights=[1.0]": lambda: doc.update(weights=[1.0]),
            "weights=[], rank=0": lambda: doc.update(weights=[], rank=0),
            "weights=1.0": lambda: doc.update(weights=1.0),
            "weights=[NaN, 1]": lambda: doc.update(weights=[math.nan, 1]),
            "weights=[true, 1]": lambda: doc.update(weights=[True, 1]),
            "weights=[10**400, 1]": lambda: doc.update(weights=[10**400, 1]),
            "rank=2.0": lambda: doc.update(rank=2.0),
            "fit=NaN": lambda: doc.update(fit=math.nan),
            "fit='0.1'": lambda: doc.update(fit="0.1"),
            "converged=1": lambda: doc.update(converged=1),
            "iterations=-1": lambda: doc.update(iterations=-1),
            "seed=0.0": lambda: doc.update(seed=0.0),
        }
        edits[case]()
        bad = [doc] if case == "a list" else doc
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_from_doc(bad)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_factor_model(path)
