import numpy as np
import pytest

from matchfactor._rng import _BLOCK, SeededRandom

N = 100_000


class TestFingerprint:
    def test_first_draws_of_seed_zero(self):
        # one stream for all three kinds of draw: a change to Python's Mersenne
        # Twister, to randbytes or to how the draws consume it fails here
        rng = SeededRandom(0)
        assert rng.random(3).tolist() == [0.38524530801093704, 0.8902439183457648, 0.040484381006232306]
        # normals go through log, sqrt, cos and sin, which may differ in the
        # last bit between platforms
        assert rng.standard_normal(3).tolist() == pytest.approx(
            [2.259592875626119, 0.554814335519881, -1.2750676616312548], rel=1e-12
        )
        assert [rng.integers(1000) for _ in range(3)] == [310, 991, 488]

    def test_same_seed_same_draws(self):
        a, b = SeededRandom(5), SeededRandom(5)
        np.testing.assert_array_equal(a.standard_normal((7, 3)), b.standard_normal((7, 3)))
        np.testing.assert_array_equal(a.random((4, 2)), b.random((4, 2)))
        assert a.choice(3, [0.2, 0.3, 0.5]) == b.choice(3, [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises((ValueError, TypeError)):
            SeededRandom(seed)


class TestUniforms:
    def test_on_the_53_bit_grid_in_zero_to_one(self):
        u = SeededRandom(1).random(N)
        assert u.dtype == np.float64 and u.shape == (N,)
        assert ((u >= 0.0) & (u < 1.0)).all()
        scaled = u * 2.0**53
        np.testing.assert_array_equal(scaled, np.floor(scaled))
        # standard error of the mean is 0.0009; of the variance, 0.0003
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.002

    def test_shapes(self):
        rng = SeededRandom(2)
        assert rng.random((3, 4)).shape == (3, 4)
        assert rng.random(()).shape == ()
        assert rng.uniform(0.6, 1.0, size=2).shape == (2,)
        assert isinstance(rng.uniform(0.0, 6.0), float)

    def test_uniform_range(self):
        u = SeededRandom(3).uniform(0.75, 1.0, size=N)
        assert ((u >= 0.75) & (u < 1.0)).all()
        assert abs(u.mean() - 0.875) < 0.002


class TestStandardNormal:
    def test_moments_and_tail(self):
        z = SeededRandom(4).standard_normal(N)
        assert np.isfinite(z).all()
        # standard errors: mean 0.0032, variance 0.0045, 3-sigma share 0.00016
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03
        assert 0.0017 < (np.abs(z) > 3.0).mean() < 0.0037

    @pytest.mark.parametrize("shape", [(1,), (5,), (3, 7, 1), (2 * _BLOCK + 3,)])
    def test_fills_every_entry_of_any_shape(self, shape):
        # odd sizes and sizes across blocks: no entry is left unwritten
        z = SeededRandom(6).standard_normal(shape)
        assert z.shape == shape
        assert np.isfinite(z).all() and (z != 0).all()
        assert len(np.unique(z)) == z.size


class TestDiscrete:
    def test_integers_cover_the_range(self):
        rng = SeededRandom(7)
        draws = np.array([rng.integers(5) for _ in range(N // 10)])
        assert draws.min() == 0 and draws.max() == 4
        assert (np.abs(np.bincount(draws) / draws.size - 0.2) < 0.01).all()

    def test_choice_follows_p_and_never_draws_a_zero_weight(self):
        p = np.array([0.0, 0.5, 0.0, 0.3, 0.2, 0.0])
        rng = SeededRandom(8)
        draws = np.array([rng.choice(p.size, p) for _ in range(N)])
        freq = np.bincount(draws, minlength=p.size) / N
        assert (freq[p == 0] == 0).all()
        # standard errors at most 0.0016
        np.testing.assert_allclose(freq, p, atol=0.008)

    def test_choice_takes_weights_that_do_not_sum_to_one(self):
        rng = SeededRandom(9)
        assert {rng.choice(3, [0.0, 0.0, 7.5]) for _ in range(100)} == {2}

    @pytest.mark.parametrize("p", [[0.0, 0.0], [0.5, 0.5, 0.0]])
    def test_choice_rejects_weights_it_cannot_draw_from(self, p):
        with pytest.raises(ValueError, match="weights"):
            SeededRandom(0).choice(2, p)
