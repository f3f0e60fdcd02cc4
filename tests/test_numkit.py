"""Oracle tests for the numerical kernel.

mpmath at 60 digits is the ground truth.  Tail values are always computed
by reflection (mp.ncdf(-y)), never as 1 - ncdf(y), which cancels to zero
long before the contract range ends.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hamsel import numkit
from oracles import gaussian_tail_bounds, poisson_tail_exact

mp.mp.dps = 60


def _rel_err(got: float, y: float) -> float:
    exact = mp.ncdf(mp.mpf(float(y)))
    return float(abs((mp.mpf(got) - exact) / exact))


class TestGaussianCdf:
    def test_exact_half_at_zero(self):
        assert numkit.gaussian_cdf(0.0) == 0.5

    def test_frozen_value(self):
        assert_allclose(numkit.gaussian_cdf(-1.0), 0.15865525393145707, rtol=5e-16)

    def test_relative_error_on_contract_range(self):
        """rel err <= 1e-14 on [-37, 8]; plain erfc alone misses this."""
        worst = 0.0
        for y in np.arange(-37.0, 8.0 + 1e-9, 0.25):
            worst = max(worst, _rel_err(numkit.gaussian_cdf(float(y)), float(y)))
        assert worst <= 1e-14

    def test_random_points(self):
        rng = np.random.default_rng(20260819)
        for y in rng.uniform(-37.0, 8.0, size=300):
            assert _rel_err(numkit.gaussian_cdf(float(y)), float(y)) <= 1e-14

    def test_seam_accuracy(self):
        # the continued fraction takes over below -8
        for y in (-8.0 - 1e-9, -8.0, -8.0 + 1e-9, -7.999, -8.001):
            assert _rel_err(numkit.gaussian_cdf(y), y) <= 1e-14

    def test_symmetry(self):
        for y in (0.3, 1.7, 4.2, 7.9):
            assert_allclose(
                numkit.gaussian_cdf(y) + numkit.gaussian_cdf(-y), 1.0, rtol=1e-15
            )

    def test_limits(self):
        assert numkit.gaussian_cdf(float("-inf")) == 0.0
        assert numkit.gaussian_cdf(float("inf")) == 1.0
        # beyond the subnormal edge the value degrades but stays a valid tail
        assert 0.0 <= numkit.gaussian_cdf(-38.5) < 1e-300
        # past the 2^-20 split's range the value saturates, and no
        # intermediate overflows on the way
        assert numkit.gaussian_cdf(-1e303) == 0.0
        assert numkit.gaussian_cdf(-1e303, 1e300) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            numkit.gaussian_cdf(float("nan"))

    @pytest.mark.parametrize(
        "y, scale",
        [(1.0, -math.inf), (-9.0, -1.0), (1.0, math.nan), (-20.0, math.inf), (-9.0, 0.0)],
    )
    def test_scale_outside_open_half_line_rejected(self, y, scale):
        """Each would scale Phi(y) into a value that is no scaled probability."""
        with pytest.raises(ValueError):
            numkit.gaussian_cdf(y, scale)

    def test_monotone_spot(self):
        ys = [-30.0, -10.0, -2.0, 0.0, 1.0, 5.0]
        vals = [numkit.gaussian_cdf(y) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLogGaussianTail:
    def test_matches_oracle_across_seam(self):
        pts = [-5.0, 0.0, 1.0, 5.0, 20.0, 34.9, 35.0, 35.0 + 1e-9, 36.0, 50.0, 100.0, 1000.0]
        for y in pts:
            exact = float(mp.log(mp.ncdf(-mp.mpf(y))))
            assert_allclose(numkit.log_gaussian_tail(y), exact, rtol=1e-13, atol=1e-12)

    def test_equals_log_cdf_in_direct_range(self):
        for y in (-3.0, 0.5, 10.0, 34.0):
            assert numkit.log_gaussian_tail(y) == math.log(numkit.gaussian_cdf(-y))

    def test_huge_argument(self):
        # way past any representable tail; only the log form survives
        got = numkit.log_gaussian_tail(1e6)
        exact = float(mp.log(mp.ncdf(-mp.mpf(1e6))))
        assert_allclose(got, exact, rtol=1e-13)
        # log Q(y) ~ -y^2/2 leaves double range; it saturates, never raises
        assert numkit.log_gaussian_tail(1e303) == -math.inf
        assert numkit.log_gaussian_tail(math.inf) == -math.inf

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            numkit.log_gaussian_tail(float("nan"))


class TestGaussianTailBounds:
    def test_frozen_at_zero(self):
        lower, upper = gaussian_tail_bounds(0.0)
        assert_allclose(lower, 0.3989422804014327, rtol=1e-15)
        assert upper == 0.5

    def test_bracket_spot_positions(self):
        for y in (0.0, 0.01, 0.5, 1.0, 3.3, 10.0, 25.0, 37.0):
            lower, upper = gaussian_tail_bounds(y)
            tail = numkit.gaussian_cdf(-y)
            assert lower < tail
            assert tail <= upper

    def test_upper_strict_away_from_zero(self):
        _, upper = gaussian_tail_bounds(0.3)
        assert numkit.gaussian_cdf(-0.3) < upper

    def test_bounds_tighten(self):
        # relative gap between the two closed forms shrinks as y grows
        def gap(y):
            lower, upper = gaussian_tail_bounds(y)
            return (upper - lower) / lower

        assert gap(10.0) < gap(1.0) < gap(0.0)

    def test_saturates_at_huge_arguments(self):
        assert gaussian_tail_bounds(1e303) == (0.0, 0.0)
        assert gaussian_tail_bounds(math.inf) == (0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_tail_bounds(-0.1)
        with pytest.raises(ValueError):
            gaussian_tail_bounds(float("nan"))


class TestArccoshExp:
    def test_equals_direct_composition_below_seam(self):
        for t in (0.0, 1e-3, 0.5, 5.0, 29.999999, 30.0):
            assert numkit.arccosh_exp(t) == math.acosh(math.exp(t))

    def test_seam_continuity(self):
        below = numkit.arccosh_exp(30.0)
        above = numkit.arccosh_exp(math.nextafter(30.0, 31.0))
        assert abs(above - below) < 1e-13

    def test_overflow_safe_form(self):
        assert numkit.arccosh_exp(1000.0) == 1000.0 + math.log(2.0)
        exact = float(mp.acosh(mp.e ** mp.mpf(40)))
        assert_allclose(numkit.arccosh_exp(40.0), exact, rtol=1e-15)

    def test_inverts_log_cosh(self):
        # the event |x| >= arccosh_exp(t) must be log cosh(x) >= t exactly
        for t in (0.3, 3.0, 25.0):
            x = numkit.arccosh_exp(t)
            log_cosh = x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)
            assert_allclose(log_cosh, t, rtol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            numkit.arccosh_exp(-1e-12)


class TestPoissonCdf:
    def test_frozen_value(self):
        assert_allclose(numkit.poisson_cdf(5, 2.0), 0.9834363915193857, rtol=1e-15)

    def test_against_gamma_oracle(self):
        """abs err <= 1e-12 up to lambda = 1e4, on both sides of lambda = 32."""
        for lam in (0.1, 1.0, 2.0, 5.0, 17.3, 31.9, 32.0, 32.1, 100.0, 1000.0, 10000.0):
            ks = sorted(
                {0, 1, int(lam), int(lam + 4.0 * math.sqrt(lam)), 2 * int(lam) + 5}
            )
            for k in ks:
                exact = mp.gammainc(k + 1, a=mp.mpf(lam), regularized=True)
                assert abs(numkit.poisson_cdf(k, lam) - float(exact)) <= 1e-12

    def test_oracle_self_check(self):
        # the regularized upper gamma really is the pmf sum
        lam, k = mp.mpf("3.5"), 7
        direct = sum(mp.e ** (-lam) * lam**i / mp.factorial(i) for i in range(k + 1))
        via_gamma = mp.gammainc(k + 1, a=lam, regularized=True)
        assert abs(direct - via_gamma) < mp.mpf("1e-40")

    def test_seam_consistency(self):
        for lam in (31.999999, 32.0, 32.000001):
            for k in (10, 32, 80):
                exact = mp.gammainc(k + 1, a=mp.mpf(lam), regularized=True)
                assert abs(numkit.poisson_cdf(k, lam) - float(exact)) <= 1e-13

    def test_monotone_in_k(self):
        vals = [numkit.poisson_cdf(k, 12.0) for k in range(40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0

    def test_edges(self):
        assert numkit.poisson_cdf(-1, 3.0) == 0.0
        assert_allclose(numkit.poisson_cdf(0, 1e-12), 1.0, rtol=1e-11)
        assert_allclose(numkit.poisson_cdf(10_000, 0.5), 1.0, rtol=1e-15)
        assert numkit.poisson_cdf(10_000, 0.5) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            numkit.poisson_cdf(-2, 1.0)
        with pytest.raises(TypeError):
            numkit.poisson_cdf(1.5, 1.0)
        with pytest.raises(ValueError):
            numkit.poisson_cdf(3, 0.0)
        with pytest.raises(ValueError):
            numkit.poisson_cdf(3, -2.0)
        with pytest.raises(ValueError):
            numkit.poisson_cdf(3, float("inf"))
        # a rate over the limit is refused, not summed
        with pytest.raises(ValueError, match="over the limit"):
            numkit.poisson_cdf(int(2.56e305), 1.7e308)


# Rates on both sides of the lambda = 32 seam, up to the limit.
_TAIL_RATES = (1e-3, 0.5, 1.0, 5.0, 17.3, 31.9, 32.0, 32.5, 100.0, 1e3, 1e4, 1e5, 1e6,
               numkit.POISSON_RATE_MAX)
_TAIL_Z = (-30.0, -10.0, -3.0, -1.0, 0.0, 1.0, 3.0, 10.0, 30.0)


class TestPoissonTails:
    """poisson_cdf and poisson_sf each to 1e-12 relative of mpmath, at
    k = lambda + z sqrt(lambda) from far below the mode to far above it."""

    @pytest.mark.parametrize("lam", _TAIL_RATES)
    def test_relative_error_against_mpmath(self, lam):
        ks = {max(0, round(lam + z * math.sqrt(lam))) for z in _TAIL_Z} | {0, 1}
        checked = 0
        for k in sorted(ks):
            for upper, f in ((False, numkit.poisson_cdf), (True, numkit.poisson_sf)):
                exact = poisson_tail_exact(k, lam, upper)
                got = f(k, lam)
                if exact < mp.mpf(2.2250738585072014e-308):
                    assert got < 2.3e-308, (k, lam, upper, got)
                    continue
                assert abs(got - exact) <= 1e-12 * exact, (k, lam, upper, got)
                checked += 1
        assert checked >= len(ks)

    def test_oracle_self_check(self):
        """Both tails of the oracle are the pmf summed in 60 digits."""
        lam = mp.mpf("40.5")
        pmf = [mp.e ** (-lam) * lam**i / mp.factorial(i) for i in range(400)]
        for k in (0, 1, 20, 40, 41, 90, 150):
            assert abs(poisson_tail_exact(k, 40.5, False) - sum(pmf[: k + 1])) < mp.mpf("1e-45")
            want = sum(pmf[k:])
            assert abs(poisson_tail_exact(k, 40.5, True) - want) < mp.mpf("1e-30") * want

    def test_tails_meet_at_every_k(self):
        """P(X <= k - 1) + P(X >= k) = 1, the smaller summed and the larger
        taken as 1 minus it, on both sides of lambda = 32."""
        for lam in (3.7, 31.9, 32.5, 250.0, 1e5):
            spread = 12.0 * math.sqrt(lam)
            for k in range(max(0, int(lam - spread)), int(lam + spread) + 2, 7):
                total = numkit.poisson_cdf(k - 1, lam) + numkit.poisson_sf(k, lam)
                assert abs(total - 1.0) <= 4e-16, (lam, k)

    def test_sf_edges(self):
        assert numkit.poisson_sf(0, 3.0) == 1.0
        assert numkit.poisson_sf(10_000, 0.5) == 0.0
        assert numkit.poisson_sf(2**70, 1e4) == 0.0
        assert numkit.poisson_sf(10**400, 5.0) == 0.0
        assert numkit.poisson_cdf(10**400, 5e5) == 1.0

    def test_the_limit_is_accepted_and_the_next_float_refused(self):
        limit = numkit.POISSON_RATE_MAX
        assert 0.0 < numkit.poisson_sf(int(limit) + 1, limit) < 0.5
        above = math.nextafter(limit, math.inf)
        for f in (numkit.poisson_cdf, numkit.poisson_sf):
            with pytest.raises(ValueError, match=f"lambda = {above} is over the limit {limit}"):
                f(3, above)

    def test_sf_validation(self):
        with pytest.raises(ValueError, match="need k >= 0"):
            numkit.poisson_sf(-1, 1.0)
        with pytest.raises(TypeError):
            numkit.poisson_sf(1.5, 1.0)
        for lam in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                numkit.poisson_sf(3, lam)

    def test_stirlerr_table_and_series_against_mpmath(self):
        """log(n!) - log(sqrt(2 pi n) (n/e)^n): the table is the correctly
        rounded value for n <= 15, and the series is within 2e-16 above."""
        def exact(n):
            return mp.loggamma(n + 1) - (n + mp.mpf(0.5)) * mp.log(n) + n - mp.log(mp.sqrt(2 * mp.pi))

        assert len(numkit._STIRLERR) == 15
        for n in range(1, 16):
            assert numkit._stirlerr(n) == float(exact(n)), n
        for n in (16, 17, 20, 35, 36, 80, 81, 500, 501, 10**4, 10**7):
            assert abs(numkit._stirlerr(n) - exact(n)) <= 2e-16, n


def _inverse_mills_ratio_recurrence(y: float) -> float:
    """Reference: the same 16-level fraction as a backward recurrence."""
    f = 0.0
    for k in range(16, 0, -1):
        f = k / (y + f)
    return y + f


def _scaled_exp_neg_half_square_round(y: float, scale: float = 1.0) -> float:
    """Reference: the same split of y, its grid point taken with round()."""
    if y >= 64.0:
        return 0.0
    yh = round(y * 1048576.0) / 1048576.0
    e = math.exp(-0.25 * yh * yh)
    return scale * e * e * math.exp(-0.5 * (y - yh) * (y + yh))


class TestTailKernelReferences:
    """The far-tail kernels equal their plain references bit for bit."""

    @settings(max_examples=500)
    @given(y=st.floats(8.0, 1e6))
    @example(y=8.0)
    @example(y=8.5)
    @example(y=36.5)
    @example(y=64.0)
    @example(y=1e300)
    def test_inverse_mills_ratio(self, y):
        assert numkit._inverse_mills_ratio(y) == _inverse_mills_ratio_recurrence(y)

    @settings(max_examples=500)
    @given(y=st.floats(0.0, 70.0), scale=st.floats(1.0, 1e7))
    # halfway between grid points, where rounding half up changes the result
    @example(y=16777217 / 2097152, scale=1.0)
    @example(y=41943045 / 2097152, scale=19.0)
    @example(y=477 / 2097152, scale=1.0)
    @example(y=math.nextafter(64.0, 0.0), scale=1e7)
    @example(y=5e-324, scale=1.0)
    def test_scaled_exp_neg_half_square(self, y, scale):
        want = _scaled_exp_neg_half_square_round(y, scale)
        assert numkit._scaled_exp_neg_half_square(y, scale) == want


_PROPERTY = settings(max_examples=100)


class TestSeamProperties:
    """Around each point where a kernel switches evaluation route, values on
    both sides follow mpmath at the tolerance of that kernel's tests above."""

    @_PROPERTY
    @given(y=st.floats(-8.5, -7.5))
    @example(y=-8.0)
    @example(y=math.nextafter(-8.0, 0.0))
    @example(y=math.nextafter(-8.0, -9.0))
    def test_gaussian_cdf_at_minus_8(self, y):
        assert _rel_err(numkit.gaussian_cdf(y), y) <= 1e-14

    @_PROPERTY
    @given(y=st.floats(34.5, 35.5))
    @example(y=35.0)
    @example(y=math.nextafter(35.0, 36.0))
    @example(y=math.nextafter(35.0, 34.0))
    def test_log_gaussian_tail_at_35(self, y):
        exact = float(mp.log(mp.ncdf(-mp.mpf(y))))
        assert_allclose(numkit.log_gaussian_tail(y), exact, rtol=1e-13, atol=1e-12)

    @_PROPERTY
    @given(y=st.floats(8.0, 1e6))
    @example(y=8.0)
    @example(y=math.nextafter(8.0, 9.0))
    @example(y=10.0)
    @example(y=34.0)
    @example(y=64.0)
    @example(y=1e6)
    def test_log_gaussian_tail_beyond_8(self, y):
        """The Mills-ratio route keeps log Q(y) to a few ulp."""
        exact = float(mp.log(mp.ncdf(-mp.mpf(y))))
        assert_allclose(numkit.log_gaussian_tail(y), exact, rtol=1e-15)

    @_PROPERTY
    @given(t=st.floats(29.5, 30.5))
    @example(t=30.0)
    @example(t=math.nextafter(30.0, 31.0))
    @example(t=math.nextafter(30.0, 29.0))
    def test_arccosh_exp_at_30(self, t):
        exact = float(mp.acosh(mp.e ** mp.mpf(t)))
        assert_allclose(numkit.arccosh_exp(t), exact, rtol=1e-15)

    @_PROPERTY
    @given(lam=st.floats(31.5, 32.5), k=st.integers(0, 100))
    @example(lam=32.0, k=32)
    @example(lam=math.nextafter(32.0, 33.0), k=32)
    @example(lam=math.nextafter(32.0, 31.0), k=32)
    def test_poisson_cdf_at_32(self, lam, k):
        exact = mp.gammainc(k + 1, a=mp.mpf(lam), regularized=True)
        assert abs(numkit.poisson_cdf(k, lam) - float(exact)) <= 1e-13
