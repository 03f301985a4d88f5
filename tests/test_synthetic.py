import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from matchfactor import (
    DecomposeConfig,
    SyntheticSpec,
    align_components,
    apply_relative_noise,
    decompose,
    generate_synthetic,
    ingest,
    kruskal_tensor,
    normalize_minmax,
    planted_factors,
    welch_t_test,
)
from matchfactor._rng import SeededRandom
from matchfactor.synthetic import _planted_factors

from helpers import planted_factors_by_loops, relative_noise_by_expression


def small_spec(**overrides):
    base = dict(
        n_players=30,
        n_matches=20,
        rank=3,
        signatures=((0, 3), (2, 3), (1, 2, 3)),
        group_sizes=(10, 10, 10),
        noise=0.0,
        seed=0,
        win_bias=(0.0, 0.0, 0.0),
        exact=True,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_group_sizes_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            small_spec(group_sizes=(10, 10, 11))
        with pytest.raises(ValueError, match="^group sizes must sum to n_users, one per"):
            planted_factors(30, 4, 20, 3, group_sizes=(10, 10, 11))

    def test_one_signature_per_component(self):
        with pytest.raises(ValueError, match="signature"):
            small_spec(signatures=((0, 3), (2, 3)))

    def test_win_bias_range(self):
        with pytest.raises(ValueError, match="bias"):
            small_spec(win_bias=(0.7, 0.0, 0.0))

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            small_spec(noise=-0.1)

    def test_group_sizes_must_be_non_negative(self):
        with pytest.raises(ValueError, match=r"^group sizes \(-1, 19, 12\) must be >= 0$"):
            small_spec(group_sizes=(-1, 19, 12))
        labels = generate_synthetic(small_spec(group_sizes=(0, 15, 15))).labels
        assert labels.tolist() == [1] * 15 + [2] * 15

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            small_spec(seed=-1)

    @pytest.mark.parametrize("arena", [2**63, -(2**63) - 1])
    def test_arena_id_beyond_int64(self, arena):
        # ingest would refuse every record of the export
        with pytest.raises(ValueError, match=rf"^arena_id {arena} is outside int64$"):
            small_spec(arena_id=arena)

    @pytest.mark.parametrize("arena", [2**63 - 1, -(2**63)])
    def test_arena_id_at_the_int64_limits_is_ingested(self, tmp_path, arena):
        dataset = generate_synthetic(small_spec(arena_id=arena)).dataset
        dataset.write_csv(tmp_path / "d.csv")
        result = ingest(tmp_path / "d.csv", arena_id=arena, n_matches=20)
        assert result.dataset.player_ids == dataset.player_ids
        np.testing.assert_array_equal(result.dataset.counts, dataset.counts)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"noise": 1e306},
            {"noise": 1e306, "exact": False},
            # finite counts, but the one player's constant features leave the
            # truth's feature factor at 1e300, whose norm overflows
            {"n_players": 1, "n_matches": 1, "rank": 1, "group_sizes": (1,), "signatures": ((0,),),
             "win_bias": (0.0,), "noise": 1e306, "feature_scales": (1e300, 1.0, 1.0, 1.0)},
        ],
        ids=["noise", "noise, rounded", "truth"],
    )
    def test_overflow_rejected(self, overrides):
        # warnings are errors in this suite, so the overflow must not warn either
        spec = small_spec(**overrides)
        message = f"noise 1e+306 or feature_scales {spec.feature_scales} overflow"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_synthetic(spec)


class TestGenerate:
    def test_default_spec_shape(self):
        result = generate_synthetic(SyntheticSpec())
        assert result.dataset.n_players == 961
        assert result.dataset.n_matches == 100
        assert result.dataset.counts.shape == (961, 4, 100)
        assert result.dataset.winners.shape == (961, 100)
        assert result.labels.shape == (961,)
        counts = np.bincount(result.labels)
        assert counts.tolist() == [411, 304, 246]
        normalized = normalize_minmax(result.dataset)
        assert normalized.tensor.shape == (961, 4, 100)

    def test_integer_counts_by_default(self):
        result = generate_synthetic(small_spec(exact=False, noise=0.02))
        counts = result.dataset.counts
        np.testing.assert_array_equal(counts, np.round(counts))

    def test_seed_changes_data_not_schema(self):
        a = generate_synthetic(small_spec(seed=1, exact=False, noise=0.02))
        b = generate_synthetic(small_spec(seed=2, exact=False, noise=0.02))
        assert a.dataset.player_ids == b.dataset.player_ids
        assert not np.array_equal(a.dataset.counts, b.dataset.counts)

    def test_noise_follows_the_planted_draws_on_one_stream(self):
        # exact mode: counts are the clean tensor times the noise, unrounded
        spec = small_spec(noise=0.05, seed=3)
        counts = generate_synthetic(spec).dataset.counts
        rng = SeededRandom(spec.seed)
        users, features, time, _ = _planted_factors(
            rng, 30, 4, 20, 3, spec.signatures, spec.group_sizes, True
        )
        clean = kruskal_tensor(np.ones(3), users, features, time)
        scales = np.asarray(spec.feature_scales)[None, :, None]
        positive = clean > 0
        jitter = counts[positive] / (clean * scales)[positive]
        # not the first normals of a fresh generator: those drew the factors
        replayed = 1.0 + spec.noise * SeededRandom(spec.seed).standard_normal(clean.shape)
        assert not np.allclose(jitter, np.clip(replayed, 0.0, None)[positive], rtol=1e-9)
        # the normals drawn right after the planted factors, from one stream
        expect = apply_relative_noise(clean, spec.noise, rng)
        expect *= scales
        np.testing.assert_array_equal(counts, expect)

    def test_planted_draws_match_the_per_component_loops(self):
        # one draw per planted factor takes the same words in the same order
        # as one draw per group, per signature and per phase
        gen = np.random.default_rng(30)
        specs = [
            (4, 1, [7], [(2,)], False),  # rank 1
            # empty groups, a feature repeated within a signature, the zero row
            (4, 3, [0, 5, 0], [(0, 3), (1,), (2, 2, 0)], True),
        ]
        for _ in range(200):
            n_features, rank = (int(v) for v in gen.integers(1, 6, size=2))
            sizes = gen.integers(0, 6, size=rank)
            sizes[gen.integers(rank)] += 1  # at least one user
            sigs = [tuple(gen.integers(0, n_features, size=gen.integers(1, 5)).tolist())
                    for _ in range(rank)]
            specs.append((n_features, rank, sizes.tolist(), sigs, bool(gen.integers(2))))
        for seed, (n_features, rank, sizes, sigs, anchor) in enumerate(specs):
            args = (sum(sizes), n_features, 1 + seed % 128, rank, tuple(sigs), tuple(sizes), anchor)
            rng, loops = SeededRandom(seed), SeededRandom(seed)
            got = _planted_factors(rng, *args)
            expect = planted_factors_by_loops(loops, *args)
            for a, b in zip(got, expect):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            # the noise and the wins that follow draw the same words
            assert rng.random(4).tolist() == loops.random(4).tolist()

    def test_deterministic_given_seed(self):
        a = generate_synthetic(small_spec(seed=5))
        b = generate_synthetic(small_spec(seed=5))
        assert a.dataset.player_ids == b.dataset.player_ids
        np.testing.assert_array_equal(a.dataset.counts, b.dataset.counts)
        np.testing.assert_array_equal(a.dataset.winners, b.dataset.winners)
        np.testing.assert_array_equal(a.truth.weights, b.truth.weights)


class TestEndToEndRecovery:
    def test_exact_rank1_single_group(self):
        spec = small_spec(
            rank=1, signatures=((0, 1, 2, 3),), group_sizes=(30,), win_bias=(0.0,)
        )
        result = generate_synthetic(spec)
        normalized = normalize_minmax(result.dataset)
        model = decompose(normalized.tensor, 1, DecomposeConfig(n_restarts=2))
        assert model.fit <= 1e-6
        _, scores = align_components(model, result.truth)
        assert min(scores) >= 0.999

    def test_exact_rank3_fit(self):
        result = generate_synthetic(small_spec())
        normalized = normalize_minmax(result.dataset)
        model = decompose(normalized.tensor, 3, DecomposeConfig(n_restarts=3))
        assert model.fit <= 1e-6
        _, scores = align_components(model, result.truth)
        assert min(scores) >= 0.999

    def test_null_win_bias_not_significant(self):
        # with no planted skew, cluster win rates should rarely differ
        insignificant = 0
        trials = 10
        for seed in range(trials):
            result = generate_synthetic(
                small_spec(seed=seed, n_players=90, group_sizes=(30, 30, 30))
            )
            w = result.dataset.winners
            means = [w[result.labels == g].mean(axis=1) for g in range(3)]
            pvals = [
                welch_t_test(means[a], means[b])[1]
                for a in range(3)
                for b in range(a + 1, 3)
            ]
            if min(pvals) > 0.05:
                insignificant += 1
        assert insignificant >= trials * 0.7


class TestRelativeNoise:
    @settings(max_examples=200, deadline=None)
    @given(
        t=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=3, max_dims=3, max_side=5),
            elements=hst.floats(0.0, 1e6),
        ),
        level=hst.sampled_from([0.0, 1e-3, 0.05, 0.5, 3.0]) | hst.floats(0.0, 10.0),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_one_expression(self, t, level, seed):
        before = t.copy()
        got = apply_relative_noise(t, level, np.random.default_rng(seed))
        expect = relative_noise_by_expression(t, level, np.random.default_rng(seed))
        assert (got.dtype, got.shape) == (expect.dtype, expect.shape)
        assert got.tobytes() == expect.tobytes()
        assert t.tobytes() == before.tobytes()  # the argument is never modified
        if level == 0.0:
            assert got is t
        else:
            assert not np.shares_memory(got, t)
