import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp
from scipy.special import stdtr

from matchfactor import (
    ConstantColumn,
    EmptyClusterUnrecoverable,
    SyntheticSpec,
    cluster_feature_trajectories,
    feature_membership,
    generate_synthetic,
    kde_gaussian,
    kde_grid,
    kmeans,
    kruskal_tensor,
    as_factor_model,
    load_tensor3,
    normalize_minmax,
    save_tensor3,
    silhouette,
    silverman_bandwidth,
    temporal_modulation,
    welch_t_test,
    win_rate_stats,
)

import matchfactor.patterns as patterns_module
from matchfactor.patterns import _t_two_tail

from helpers import (
    adjusted_rand_index,
    cluster_series_by_whole_array,
    kde_by_full_matrix,
    membership_by_broadcast,
    silhouette_by_pairs,
    traced_peak,
    welch_p_by_quadrature,
)


# ---------------------------------------------------------------------------
# feature membership


class TestFeatureMembership:
    def test_single_mass_column(self):
        b = np.array([[1.0], [0.0], [0.0], [0.0]])
        sig = feature_membership(b)
        assert sig.retained_indices == ((0,),)
        assert sig.retained_values == ((1.0,),)

    def test_two_large_entries_survive(self):
        col = np.array([0.7, 0.7, 0.1, 0.1])
        sig = feature_membership(col.reshape(-1, 1), fraction=0.95)
        # squared shares: 0.49/0.49/0.01/0.01 of 1.0 -> two large cover 0.98
        assert sig.retained_indices == ((0, 1),)

    def test_archetype_pattern_recovered(self):
        rng = np.random.default_rng(0)
        b = np.zeros((4, 3))
        b[[0, 3], 0] = rng.uniform(0.6, 1.0, 2)
        b[[2, 3], 1] = rng.uniform(0.6, 1.0, 2)
        b[[1, 2, 3], 2] = rng.uniform(0.6, 1.0, 3)
        sig = feature_membership(b, fraction=0.95)
        assert sig.retained_indices == ((0, 3), (2, 3), (1, 2, 3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        b = rng.random((6, 3))
        sig = feature_membership(b)
        for s in (0.1, 3.0, 10.0):
            scaled = b.copy()
            scaled[:, 1] *= s
            assert feature_membership(scaled).retained_indices == sig.retained_indices

    def test_fraction_one_keeps_all_nonzero(self):
        b = np.array([[0.5], [0.0], [0.2], [0.1]])
        sig = feature_membership(b, fraction=1.0)
        assert sig.retained_indices == ((0, 2, 3),)

    def test_ties_at_cut_retained_together(self):
        b = np.array([[1.0], [1.0], [1.0], [1.0]])
        # any prefix of 4 equal entries reaching 95% must keep all four
        sig = feature_membership(b, fraction=0.95)
        assert sig.retained_indices == ((0, 1, 2, 3),)

    @pytest.mark.parametrize("perm", [(0, 1, 2, 3), (3, 0, 1, 2), (1, 3, 0, 2), (2, 1, 3, 0)])
    def test_entries_tied_with_the_last_retained_one_kept(self, perm):
        # 0.36 of 1.12 already holds the fraction: the two tied entries join it
        col = np.array([0.6, 0.6, 0.6, 0.2])[list(perm)]
        sig = feature_membership(col.reshape(-1, 1), fraction=0.3)
        assert sig.retained_indices == (tuple(np.flatnonzero(col == 0.6)),)

    def test_zero_column_flagged(self):
        b = np.array([[1.0, 0.0], [0.5, 0.0]])
        sig = feature_membership(b)
        assert sig.empty_components == (1,)
        assert sig.retained_indices[1] == ()

    def test_retains_the_dominant_feature(self):
        b = np.array([[0.9, 0.1], [0.1, 0.9]])
        sig = feature_membership(b, fraction=0.9)
        assert sig.retained_indices == ((0,), (1,))
        assert sig.retained_values == ((0.9,), (0.9,))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            feature_membership(np.array([[-1.0]]))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            feature_membership(np.ones((2, 1)), fraction=0.0)


# ---------------------------------------------------------------------------
# clustering


def three_blobs(n_per=100, sigma=0.05, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.eye(3)
    points = np.vstack(
        [centers[c] + sigma * rng.standard_normal((n_per, 3)) for c in range(3)]
    )
    labels = np.repeat(np.arange(3), n_per)
    return points, labels


class TestKmeans:
    def test_three_blob_benchmark(self):
        points, truth = three_blobs()
        assign = kmeans(points, 3, seed=0)
        assert adjusted_rand_index(assign.labels, truth) == 1.0
        assert assign.silhouette >= 0.6

    def test_n_equals_k(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assign = kmeans(points, 3, seed=1)
        assert assign.inertia == 0.0
        assert sorted(assign.labels.tolist()) == [0, 1, 2]

    def test_deterministic_under_seed(self):
        points, _ = three_blobs(seed=3)
        a = kmeans(points, 3, seed=42)
        b = kmeans(points, 3, seed=42)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_rotation_invariance(self):
        points, _ = three_blobs(seed=4)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = points @ q.T
        a = kmeans(points, 3, seed=7)
        b = kmeans(rotated, 3, seed=7)
        assert adjusted_rand_index(a.labels, b.labels) == 1.0
        assert a.inertia == pytest.approx(b.inertia, rel=1e-8)

    def test_duplicate_points_unrecoverable(self):
        points = np.zeros((4, 2))
        with pytest.raises(EmptyClusterUnrecoverable):
            kmeans(points, 2, seed=0)

    def test_k_bounds(self):
        points = np.zeros((3, 2))
        with pytest.raises(ValueError, match="k must be"):
            kmeans(points, 4)
        with pytest.raises(ValueError, match="k must be"):
            kmeans(points, 0)


class TestSilhouette:
    def test_two_tight_far_pairs(self):
        points = np.array([[0.0, 0.0], [0.01, 0.0], [10.0, 0.0], [10.01, 0.0]])
        overall, per_sample = silhouette(points, np.array([0, 0, 1, 1]))
        assert overall >= 0.95
        assert per_sample.shape == (4,)

    def test_interleaved_identical_points(self):
        points = np.array([[0.0], [1.0], [0.0], [1.0]])
        overall, _ = silhouette(points, np.array([0, 0, 1, 1]))
        assert overall <= 0.0

    def test_singleton_scores_zero(self):
        points = np.array([[0.0], [5.0], [5.1]])
        _, per_sample = silhouette(points, np.array([0, 1, 1]))
        assert per_sample[0] == 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError, match="two clusters"):
            silhouette(np.zeros((3, 2)), np.zeros(3, dtype=int))

    def test_matches_sklearn(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(8)
        points = rng.standard_normal((40, 3))
        labels = rng.integers(0, 3, size=40)
        overall, per_sample = silhouette(points, labels)
        assert overall == pytest.approx(
            float(sklearn_metrics.silhouette_score(points, labels)), abs=1e-10
        )
        np.testing.assert_allclose(
            per_sample, sklearn_metrics.silhouette_samples(points, labels), atol=1e-10
        )

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_matches_pairwise_oracle(self, offset):
        # 300 points span three row blocks, the last one partial; far from
        # the origin, a difference of squared norms would cancel to 1e-8
        rng = np.random.default_rng(30)
        points = offset + rng.random((300, 3))
        labels = rng.integers(0, 4, size=300)
        labels[17] = 4  # a singleton
        overall, per_sample = silhouette(points, labels)
        expect = silhouette_by_pairs(points, labels)
        np.testing.assert_allclose(per_sample, expect, rtol=0, atol=1e-12)
        assert overall == pytest.approx(expect.mean(), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 33, 129, 961])
    def test_same_bits_at_every_block_size(self, monkeypatch, n):
        # n - 1 is a multiple of several of the sizes, where blocks of that
        # size alone would leave a lone last row
        rng = np.random.default_rng(32)
        points = rng.random((n, 3))
        labels = rng.integers(0, 3, size=n)
        labels[:2] = (0, 1)
        monkeypatch.setattr(patterns_module, "_SILHOUETTE_BLOCK", n)
        overall, whole = silhouette(points, labels)
        for size in (2, 3, 4, 8, 32, 128):
            monkeypatch.setattr(patterns_module, "_SILHOUETTE_BLOCK", size)
            got = silhouette(points, labels)
            assert (got[0], got[1].tobytes()) == (overall, whole.tobytes()), size

    def test_memory_linear_in_points(self):
        # the Gram form's traced peak was three n x n float64 arrays (384 MB)
        n = 4000
        rng = np.random.default_rng(31)
        points = rng.random((n, 3))
        labels = rng.integers(0, 5, size=n)
        peak = traced_peak(lambda: silhouette(points, labels))
        assert peak <= 0.25 * 3 * n * n * 8, peak


# ---------------------------------------------------------------------------
# temporal views


def toy_model(users, time):
    """Model whose feature columns are unit mass on one feature, so the
    temporal product equals the raw outer product of users and time."""
    users = np.asarray(users, dtype=float)
    time = np.asarray(time, dtype=float)
    rank = users.shape[1]
    feats = np.zeros((max(rank, 2), rank))
    feats[np.arange(rank), np.arange(rank)] = 1.0
    return as_factor_model(users, feats, time)


class TestTemporalModulation:
    def test_single_player_flat_profile(self):
        users = np.array([[1.0]])
        time = np.ones((6, 1))
        model = toy_model(users, time)
        profile = temporal_modulation(model, np.array([0]))
        # weight absorbs the column norms, so the product restores a * c = 1
        np.testing.assert_allclose(profile.means[0, 0], np.ones(6), atol=1e-12)
        np.testing.assert_array_equal(profile.stderrs[0, 0], np.zeros(6))

    def test_identical_players_zero_stderr(self):
        users = np.array([[0.5], [0.5]])
        time = np.linspace(0.1, 1.0, 5).reshape(-1, 1)
        model = toy_model(users, time)
        profile = temporal_modulation(model, np.array([0, 0]))
        np.testing.assert_allclose(profile.stderrs, 0.0, atol=1e-15)

    def test_aggregation_identity(self):
        rng = np.random.default_rng(11)
        users = rng.random((12, 2))
        time = rng.random((7, 2))
        model = toy_model(users, time)
        labels = rng.integers(0, 3, size=12)
        profile = temporal_modulation(model, labels)
        sizes = np.array(profile.cluster_sizes, dtype=float)
        for r in range(2):
            weighted = (
                profile.means[:, r, :] * sizes[:, None]
            ).sum(axis=0) / sizes.sum()
            global_mean = (
                model.weights[r]
                * np.outer(model.factors[0][:, r], model.factors[2][:, r])
            ).mean(axis=0)
            np.testing.assert_allclose(weighted, global_mean, atol=1e-10)

    def test_cluster_dominates_own_component(self):
        # three groups, each loading one component strongly
        users = np.vstack(
            [
                np.hstack([np.full((5, 1), 0.9), np.full((5, 2), 0.05)]),
                np.hstack([np.full((5, 1), 0.05), np.full((5, 1), 0.9), np.full((5, 1), 0.05)]),
                np.hstack([np.full((5, 2), 0.05), np.full((5, 1), 0.9)]),
            ]
        )
        time = np.random.default_rng(12).uniform(0.3, 1.0, (8, 3))
        model = toy_model(users, time)
        labels = np.repeat([0, 1, 2], 5)
        profile = temporal_modulation(model, labels)
        for c in range(3):
            own = profile.means[c, c]
            for r in range(3):
                if r != c:
                    assert (own > profile.means[c, r]).all()

    def test_empty_cluster_rejected(self):
        model = toy_model(np.ones((3, 1)), np.ones((4, 1)))
        with pytest.raises(ValueError, match="one entry per user"):
            temporal_modulation(model, np.array([0, 0]))


class TestClusterTrajectories:
    def test_identical_players(self):
        slice_ = np.random.default_rng(13).random((3, 5))
        t = np.stack([slice_, slice_, slice_])
        traj = cluster_feature_trajectories(t, np.zeros(3, dtype=int))
        np.testing.assert_allclose(traj.means[0], slice_, atol=1e-14)
        np.testing.assert_allclose(traj.stderrs, 0.0, atol=1e-14)

    def test_single_cluster_equals_global_mean(self):
        t = np.random.default_rng(14).random((6, 4, 5))
        traj = cluster_feature_trajectories(t, np.zeros(6, dtype=int))
        np.testing.assert_allclose(traj.means[0], t.mean(axis=0), atol=1e-14)

    def test_planted_behaviors_dominate(self):
        rng = np.random.default_rng(15)
        high_kills = rng.uniform(0.7, 1.0, (10, 4, 6))
        high_kills[:, 0, :] = rng.uniform(0.0, 0.2, (10, 6))  # low assists
        high_assists = rng.uniform(0.7, 1.0, (10, 4, 6))
        high_assists[:, 2, :] = rng.uniform(0.0, 0.2, (10, 6))  # low kills
        t = np.vstack([high_kills, high_assists])
        labels = np.repeat([0, 1], 10)
        traj = cluster_feature_trajectories(t, labels)
        assert (traj.means[0, 2] > traj.means[1, 2]).all()  # kills
        assert (traj.means[1, 0] > traj.means[0, 0]).all()  # assists


# ---------------------------------------------------------------------------
# statistics kernels


class TestKde:
    def test_repeated_value_is_gaussian_bump(self):
        h = 0.3
        grid = np.linspace(-2, 4, 101)
        dens = kde_gaussian(np.full(5, 1.0), grid, bandwidth=h)
        expect = np.exp(-0.5 * ((grid - 1.0) / h) ** 2) / (h * np.sqrt(2 * np.pi))
        np.testing.assert_allclose(dens, expect, atol=1e-12)

    def test_standard_normal_accuracy(self):
        rng = np.random.default_rng(16)
        sample = rng.standard_normal(10_000)
        h = silverman_bandwidth(sample)
        grid = kde_grid(sample, h)
        dens = kde_gaussian(sample, grid, bandwidth=h)
        true = np.exp(-0.5 * grid**2) / np.sqrt(2 * np.pi)
        assert np.abs(dens - true).max() <= 0.02

    @pytest.mark.parametrize("seed", range(4))
    def test_integrates_to_one(self, seed):
        rng = np.random.default_rng(seed)
        sample = rng.gamma(2.0, 1.5, size=200)
        h = silverman_bandwidth(sample)
        grid = kde_grid(sample, h)
        dens = kde_gaussian(sample, grid, bandwidth=h)
        assert (dens >= 0).all()
        integral = float(np.sum((dens[1:] + dens[:-1]) / 2 * np.diff(grid)))
        assert abs(integral - 1.0) <= 1e-3

    def test_raw_mode_blocked_memory_and_bytes(self):
        # raw mode estimates the density of every match outcome of a cluster
        rng = np.random.default_rng(32)
        outcomes = rng.integers(0, 2, size=10_000).astype(float)
        h = silverman_bandwidth(outcomes)
        grid = kde_grid(outcomes, h)
        dens = kde_gaussian(outcomes, grid, bandwidth=h)
        assert dens.tobytes() == kde_by_full_matrix(outcomes, grid, h).tobytes()
        blocked = traced_peak(lambda: kde_gaussian(outcomes, grid, bandwidth=h))
        whole = traced_peak(lambda: kde_by_full_matrix(outcomes, grid, h))
        assert blocked <= 0.25 * whole, (blocked, whole)

    def test_zero_variance_without_bandwidth(self):
        with pytest.raises(ConstantColumn):
            silverman_bandwidth(np.full(10, 3.0))
        for h in (0.0, -1.0):
            with pytest.raises(ValueError, match="^bandwidth must be positive$"):
                kde_gaussian(np.ones(3), np.ones(2), bandwidth=h)


class TestWelch:
    def test_identical_samples(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        t, p = welch_t_test(x, x)
        assert t == 0.0
        assert p == 1.0

    def test_fixture_matches_quadrature_oracle(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        t, p = welch_t_test(x, y)
        t_expect, p_expect = welch_p_by_quadrature(x, y)
        assert t == pytest.approx(t_expect, abs=1e-12)
        assert p == pytest.approx(p_expect, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_samples_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, size=rng.integers(5, 40))
        y = rng.normal(0.3, 2.0, size=rng.integers(5, 40))
        t, p = welch_t_test(x, y)
        t_expect, p_expect = welch_p_by_quadrature(x, y)
        assert t == pytest.approx(t_expect, abs=1e-10)
        assert p == pytest.approx(p_expect, abs=1e-9)

    def test_antisymmetry(self):
        rng = np.random.default_rng(21)
        x = rng.normal(0, 1, 20)
        y = rng.normal(1, 1, 25)
        t_xy, p_xy = welch_t_test(x, y)
        t_yx, p_yx = welch_t_test(y, x)
        assert t_xy == -t_yx
        assert p_xy == p_yx

    def test_constant_equal_samples(self):
        t, p = welch_t_test(np.full(5, 2.0), np.full(7, 2.0))
        assert (t, p) == (0.0, 1.0)

    def test_constant_unequal_samples_flagged(self):
        t, p = welch_t_test(np.full(5, 2.0), np.full(7, 3.0))
        assert p == 0.0
        assert t == -np.inf

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            welch_t_test([1.0], [1.0, 2.0])

    def test_t_tail_matches_scipy(self):
        rng = np.random.default_rng(33)
        df = 10 ** rng.uniform(0, 5, size=4000)
        t = 10 ** rng.uniform(-4, np.log10(60), size=4000)
        # large df with tiny t (p near 1), and t near the continued
        # fraction's switch at t^2 = 3
        corners = [(d, u) for d in (1.0, 3e4, 7e4, 1e5) for u in (1e-4, 1e-3, 1.73, 1.74, 60.0)]
        df = np.concatenate([df, [d for d, _ in corners]])
        t = np.concatenate([t, [u for _, u in corners]])
        got = np.array([_t_two_tail(float(u), float(d)) for u, d in zip(t, df)])
        np.testing.assert_allclose(got, 2 * stdtr(df, -t), rtol=1e-12, atol=sys.float_info.min)

    def test_t_tail_edges(self):
        assert _t_two_tail(0.0, 5.0) == 1.0
        assert _t_two_tail(-np.inf, 5.0) == 0.0
        assert np.isnan(_t_two_tail(np.nan, 5.0))


class TestHolm:
    """Holm's step-down adjustment on hand-worked examples."""

    @pytest.mark.parametrize(
        "p, adjusted",
        [
            # the seed-0 paper pipeline's pairs (0, 1), (0, 2) and (1, 2) at rank 3
            ([0.03063, 0.06429, 1.283e-05], [0.06126, 0.06429, 3.849e-05]),
            # 0.04 times 1 is raised to the 0.06 before it
            ([0.01, 0.04, 0.03, 0.005], [0.03, 0.06, 0.06, 0.02]),
            # 0.7 times 2 is capped at 1, and 0.9 raised to it
            ([0.7, 0.2, 0.9], [1.0, 0.6, 1.0]),
            # ties keep one value
            ([0.02, 0.02], [0.04, 0.04]),
            ([0.3], [0.3]),
            ([], []),
        ],
    )
    def test_hand_examples(self, p, adjusted):
        assert patterns_module._holm(p) == pytest.approx(adjusted, rel=1e-12, abs=0)


class TestWinRateStats:
    def make_winners(self, rng, biases, n_per=60, k=40):
        rows = []
        labels = []
        for g, bias in enumerate(biases):
            rows.append(rng.random((n_per, k)) < 0.5 + bias)
            labels.extend([g] * n_per)
        return np.vstack(rows).astype(float), np.array(labels)

    def test_player_mean_mode(self):
        rng = np.random.default_rng(22)
        winners, labels = self.make_winners(rng, (0.05, -0.05))
        stats = win_rate_stats(winners, labels)
        assert stats.mode == "player-mean"
        assert stats.cluster_sizes == (60, 60)
        assert stats.cluster_means[0] > stats.cluster_means[1]
        assert len(stats.pairwise_tests) == 1
        *_, p, p_holm = stats.pairwise_tests[0]
        assert p_holm == p  # one pair: nothing to adjust
        assert stats.densities.shape == (2, len(stats.grid))
        for dens in stats.densities:
            integral = float(np.sum((dens[1:] + dens[:-1]) / 2 * np.diff(stats.grid)))
            assert abs(integral - 1.0) <= 1e-3

    def test_raw_mode(self):
        rng = np.random.default_rng(23)
        winners, labels = self.make_winners(rng, (0.0, 0.0))
        stats = win_rate_stats(winners, labels, mode="raw")
        assert stats.mode == "raw"
        assert (stats.densities >= 0).all()

    @pytest.mark.parametrize(
        "winners, error, message",
        [
            ([[1, 0], [1, 1], [1, 1]], ValueError, "cluster 1: bandwidth selection needs"),
            ([[1, 0], [1, 1], [0, 1], [0, 1]], ConstantColumn, "cluster 1: zero-variance"),
        ],
        ids=["one-player", "one-win-rate"],
    )
    def test_cluster_without_bandwidth_is_named(self, winners, error, message):
        labels = [0, 0] + [1] * (len(winners) - 2)
        with pytest.raises(error, match=f"^{message}"):
            win_rate_stats(np.array(winners), np.array(labels))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            win_rate_stats(np.zeros((4, 3)), np.zeros(4, dtype=int), mode="weird")
        with pytest.raises(ValueError, match="^winner matrix must be players x matches$"):
            win_rate_stats(np.zeros(4), np.zeros(4, dtype=int))


# ---------------------------------------------------------------------------
# temporal modulation as a cluster series


@hst.composite
def models_and_labels(draw, max_users=8):
    """A model from non-negative factors, and a cluster label for each user."""
    n_users, rank, k_steps = (draw(hst.integers(1, hi)) for hi in (max_users, 3, 6))
    entries = hst.floats(0.0, 1.0)

    def matrix(rows):
        values = draw(hst.lists(entries, min_size=rows * rank, max_size=rows * rank))
        return np.array(values).reshape(rows, rank)

    model = as_factor_model(matrix(n_users), matrix(2), matrix(k_steps))
    labels = np.array(draw(hst.lists(hst.integers(0, 3), min_size=n_users, max_size=n_users)))
    if draw(hst.booleans()):
        labels[draw(hst.integers(0, n_users - 1))] = 9  # a singleton cluster
    return model, labels


@hst.composite
def tensors_and_labels(draw):
    """A players x features x time tensor, and a cluster label for each player."""
    shape = draw(hst.tuples(hst.integers(1, 30), hst.integers(1, 4), hst.integers(1, 6)))
    t = draw(hnp.arrays(np.float64, shape, elements=hst.floats(0.0, 1e4)))
    labels = np.array(draw(hst.lists(hst.integers(0, 3), min_size=shape[0], max_size=shape[0])))
    if draw(hst.booleans()):
        labels[draw(hst.integers(0, shape[0] - 1))] = 9  # a singleton cluster
    return t, labels


def assert_same_series(got, t, labels):
    """``got`` has the bits of the whole-array cluster series of ``t``.

    One series at a time, the bits are always the same.  Over the whole
    array they are too, except where the series are single steps: then
    numpy adds the members of each whole (members x 1) column pairwise,
    and the rows of a (members x J x 1) array one by one.
    """
    for j in range(t.shape[1]):
        means, stderrs, sizes = cluster_series_by_whole_array(t[:, j : j + 1], labels)
        assert got.means[:, j : j + 1].tobytes() == means.tobytes()
        assert got.stderrs[:, j : j + 1].tobytes() == stderrs.tobytes()
        assert got.cluster_sizes == sizes
    if t.shape[2] > 1 or t.shape[1] == 1:
        means, stderrs, _ = cluster_series_by_whole_array(t, labels)
        assert got.means.tobytes() == means.tobytes()
        assert got.stderrs.tobytes() == stderrs.tobytes()


class TestTemporalModulationProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=models_and_labels(max_users=30))
    def test_same_bits_as_the_whole_membership_array(self, case):
        model, labels = case
        assert_same_series(temporal_modulation(model, labels), membership_by_broadcast(model), labels)

    @settings(max_examples=300, deadline=None)
    @given(case=tensors_and_labels())
    def test_trajectories_same_bits_as_the_whole_tensor(self, case):
        t, labels = case
        assert_same_series(cluster_feature_trajectories(t, labels), t, labels)

    @settings(max_examples=200, deadline=None)
    @given(case=models_and_labels())
    def test_equals_cluster_series_of_membership_tensor(self, case):
        model, labels = case
        users, _, time = model.factors
        profile = temporal_modulation(model, labels)

        # the cluster series of the user x component x time membership tensor
        membership = model.weights[None, :, None] * (users[:, :, None] * time.T[None])
        series = cluster_feature_trajectories(membership, labels)
        assert profile.means.tobytes() == series.means.tobytes()
        assert profile.stderrs.tobytes() == series.stderrs.tobytes()
        assert profile.cluster_sizes == series.cluster_sizes

        # and the definition: one outer product per cluster and component
        for ci, c in enumerate(np.unique(labels)):
            rows = np.flatnonzero(labels == c)
            for r in range(model.rank):
                p = model.weights[r] * np.outer(users[rows, r], time[:, r])
                assert profile.means[ci, r].tobytes() == p.mean(axis=0).tobytes()
                stderr = np.zeros(p.shape[1])
                if rows.size > 1:
                    stderr = p.std(axis=0, ddof=1) / np.sqrt(rows.size)
                assert profile.stderrs[ci, r].tobytes() == stderr.tobytes()


# ---------------------------------------------------------------------------
# memory of the stages that read a fitted paper tensor


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """The seed-0 paper tensor as ingest saves it, its planted model and labels."""
    result = generate_synthetic(SyntheticSpec(seed=0))
    tensor = normalize_minmax(result.dataset).tensor
    path = tmp_path_factory.mktemp("paper") / "tensor.json"
    save_tensor3(path, tensor, {"player_ids": list(result.dataset.player_ids)})
    return path, tensor, result.truth, result.labels


class TestStageMemory:
    """Traced peaks of warm second calls on the paper tensor (961 x 4 x 100):
    each stage holds the tensor about once, and no per-cluster view holds a
    players x components x time array."""

    # one 961 x 3 x 100 float64 array
    MEMBERSHIP_BYTES = 961 * 3 * 100 * 8

    def warm_peak(self, call):
        call()
        return traced_peak(call)

    def test_load_tensor3(self, paper):
        path, tensor, _, _ = paper
        assert load_tensor3(path)[0].tobytes() == tensor.tobytes()
        peak = self.warm_peak(lambda: load_tensor3(path))
        assert peak <= 2.5 * tensor.nbytes, (peak, tensor.nbytes)

    def test_temporal_modulation(self, paper):
        _, _, truth, labels = paper
        peak = self.warm_peak(lambda: temporal_modulation(truth, labels))
        assert peak < self.MEMBERSHIP_BYTES, peak

    def test_cluster_feature_trajectories(self, paper):
        _, tensor, _, labels = paper
        peak = self.warm_peak(lambda: cluster_feature_trajectories(tensor, labels))
        assert peak < self.MEMBERSHIP_BYTES, peak

    def test_silhouette(self, paper):
        _, _, truth, labels = paper
        peak = self.warm_peak(lambda: silhouette(truth.factors[0], labels))
        assert peak < self.MEMBERSHIP_BYTES, peak
