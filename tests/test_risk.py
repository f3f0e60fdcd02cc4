"""Closed-form risk tests.

Every nontrivial formula is checked against an independent route: each
threshold rule's closed form against its selection event read literally at
60 digits (oracles.threshold_rates_exact), the Gaussian seams against mpmath,
and the crowd enumeration against MC and a hand count.
"""

import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hamsel import numkit
from hamsel.model import (
    Adaptive,
    CrowdInstance,
    Family,
    Interval,
    LowerBound,
    ProblemInstance,
    Threshold,
    TopS,
    TwoSided,
    rng_stream,
    uniform_support,
)
from hamsel.numkit import POISSON_RATE_MAX
from hamsel.risk import (
    PhasePoint,
    RecoveryBounds,
    WrongRecoveryBounds,
    a0_adaptive,
    adaptive_A_min,
    delta_bounds,
    phase_point,
    psi_bar,
    psi_crowd,
    psi_general,
    psi_plus,
    psi_two_sided,
    threshold_risk,
    wrong_recovery_bounds,
)
from hamsel.selectors import (
    SELECTOR_KINDS,
    adaptive_plan,
    adaptive_selector,
    check_observations,
    cosh_selector,
    cosh_threshold,
    crowd_selector,
    llr_threshold,
    minimax_threshold,
    resolve_selector,
    select_row,
    spec_for_kind,
    universal_threshold,
)
from hamsel.simulate import MCConfig, phase_sweep
from oracles import llr_cut_exact, psi_crowd_mc, threshold_rates_exact

mp.mp.dps = 60


def _psi_exact(p, rule):
    """P_miss + ((d-s)/s) P_sel of a threshold rule on p: Psi+ for plus,
    PsiBar for cosh, psi_general for llr."""
    miss, select = threshold_rates_exact(p, rule)
    return float(miss + mp.mpf(p.d - p.s) / p.s * select)


class TestPsiPlus:
    def test_two_coordinate_case(self):
        # d=2, s=1: both tails coincide and psi+ = 2 Phi(-a/2)
        for a in (0.5, 1.0, 2.0, 6.0):
            want = 2.0 * scipy.stats.norm.cdf(-a / 2.0)
            assert_allclose(psi_plus(2, 1, a), want, rtol=1e-14)

    def test_frozen_reference_point(self):
        assert_allclose(10.0 * psi_plus(200, 10, 3.0), 4.263439046527823, rtol=1e-14)

    def test_against_mpmath_oracle(self):
        for d, s, a, sigma in (
            (200, 10, 3.0, 1.0),
            (100, 10, 2.0, 1.0),
            (1000, 7, 1.5, 0.7),
            (50, 20, 4.0, 2.0),
            (10, 4, 0.2, 1.0),
        ):
            want = _psi_exact(ProblemInstance(d, s, LowerBound(a), sigma=sigma), "plus")
            assert_allclose(psi_plus(d, s, a, sigma), want, rtol=1e-13)

    def test_huge_signal_vanishes_without_underflow(self):
        val = psi_plus(100, 10, 50.0)
        assert 0.0 < val < 1e-15

    def test_product_keeps_precision_through_subnormal_tails(self):
        """ratio * Phi stays accurate even when Phi alone is subnormal."""
        d, s, a = 10**9 + 1, 1, 75.45
        want = _psi_exact(ProblemInstance(d, s, LowerBound(a)), "plus")
        got = psi_plus(d, s, a)
        assert want > 1e-308  # the product itself is a normal float
        assert_allclose(got, want, rtol=1e-10)

    def test_strictly_decreasing_in_a(self):
        vals = [psi_plus(100, 10, a) for a in np.linspace(0.2, 8.0, 25)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_scale_invariance(self):
        for lam in (0.1, 3.0, 50.0):
            assert_allclose(
                psi_plus(200, 10, 3.0 * lam, 1.0 * lam),
                psi_plus(200, 10, 3.0, 1.0),
                rtol=1e-13,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_plus(10, 10, 1.0)
        with pytest.raises(ValueError):
            psi_plus(10, 1, -1.0)
        with pytest.raises(ValueError):
            psi_plus(10, 1, 1.0, 0.0)


class TestPsiTwoSided:
    def test_clamp_below_critical_level(self):
        # a^2 < 2 sigma^2 log(ratio): the miss term saturates at Phi(0) = 1/2
        d, s, a = 101, 1, 1.0
        r = (d - s) / s
        want = r * scipy.stats.norm.cdf(-0.5 - math.log(r)) + 0.5
        assert_allclose(psi_two_sided(d, s, a), want, rtol=1e-13)

    def test_equals_psi_plus_when_unclamped(self):
        # above the critical level the min is inactive
        for d, s, a in ((2, 1, 1.0), (100, 10, 4.0)):
            assert psi_two_sided(d, s, a) == psi_plus(d, s, a)

    def test_never_exceeds_psi_plus(self):
        rng = np.random.default_rng(20260819)
        for _ in range(40):
            d = int(rng.integers(3, 400))
            s = int(rng.integers(1, d))
            a = float(rng.uniform(0.1, 6.0))
            assert psi_two_sided(d, s, a) <= psi_plus(d, s, a)

    def test_against_mpmath_oracle(self):
        # (200, 10, 2.4): the miss argument -a/2 + log(19)/a = 0.027 is clipped
        for d, s, a in ((101, 1, 1.0), (200, 10, 3.0), (30, 10, 0.7), (200, 10, 2.4)):
            # Psi = ((d-s)/s) P_sel + min(P_miss, 1/2) of the plus cut
            miss, select = threshold_rates_exact(ProblemInstance(d, s, LowerBound(a)), "plus")
            want = float(mp.mpf(d - s) / s * select + min(miss, mp.mpf(0.5)))
            assert_allclose(psi_two_sided(d, s, a), want, rtol=1e-13)


class TestPsiBar:
    def test_select_all_regime_returns_ratio_exactly(self):
        # u = e^{a^2/2} (d-s)/s <= 1: the symmetric selector keeps everything
        assert psi_bar(3, 2, 0.5) == 0.5
        assert psi_bar(10, 9, 0.1) == (10 - 9) / 9

    def test_frozen_reference_point(self):
        assert_allclose(10.0 * psi_bar(200, 10, 3.0), 5.1374252955622595, rtol=1e-14)

    def test_against_mpmath_oracle(self):
        for d, s, a, sigma in (
            (200, 10, 3.0, 1.0),
            (100, 10, 2.0, 1.0),
            (1000, 7, 1.5, 1.0),
            (64, 16, 2.5, 1.3),
        ):
            want = _psi_exact(ProblemInstance(d, s, LowerBound(a), sigma=sigma), "cosh")
            assert_allclose(psi_bar(d, s, a, sigma), want, rtol=1e-13)

    def test_scale_invariance(self):
        for lam in (0.25, 4.0):
            assert_allclose(
                psi_bar(200, 10, 3.0 * lam, lam), psi_bar(200, 10, 3.0), rtol=1e-13
            )

    def test_vanishes_for_huge_signal(self):
        assert 0.0 <= psi_bar(100, 10, 50.0) < 1e-15


class TestSandwich:
    def test_spot_points(self):
        """psi+ <= psi_bar <= 2 psi <= 2 psi+ (the acceptance grid is wider)."""
        for d, s, a in ((100, 10, 2.0), (200, 10, 3.0), (12, 5, 0.8)):
            lo = psi_plus(d, s, a)
            mid = psi_bar(d, s, a)
            two = 2.0 * psi_two_sided(d, s, a)
            hi = 2.0 * psi_plus(d, s, a)
            assert lo <= mid + 1e-12
            assert mid <= two + 1e-12
            assert two <= hi + 1e-12


# Orderings between closed forms hold up to the relative error every closed
# form is held to against its mpmath oracle in this file: two values that
# are each accurate to 1e-13 cannot be ordered more finely than that.  Psi+
# <= PsiBar is the exception, exact by construction: where PsiBar is (d-s)/s,
# Psi+ is (d-s)/s less a nonnegative gain.
_ORDER_RTOL = 1e-13
_PROPERTY = settings(max_examples=100)
_LEVELS = st.floats(1e-3, 60.0)
_SIGMAS = st.floats(0.1, 10.0)


@st.composite
def _dims(draw, d_min=2, d_max=10**7):
    d = draw(st.integers(d_min, d_max))
    return d, draw(st.integers(1, d - 1))


class TestRiskProperties:
    @_PROPERTY
    @given(ds=_dims(), a=_LEVELS, sigma=_SIGMAS)
    @example(ds=(9348, 8408), a=0.03174975351945268, sigma=0.11795816053132187)
    def test_sandwich(self, ds, a, sigma):
        """psi+ <= psi_bar <= 2 psi <= 2 psi+."""
        d, s = ds
        plus = psi_plus(d, s, a, sigma)
        bar = psi_bar(d, s, a, sigma)
        two = psi_two_sided(d, s, a, sigma)
        assert plus <= bar
        assert bar <= 2.0 * two * (1.0 + _ORDER_RTOL)
        assert two <= plus

    @_PROPERTY
    @given(ds=_dims(), a0=st.floats(-50.0, 50.0), a=_LEVELS, sigma=_SIGMAS)
    def test_gaussian_general_is_psi_plus_of_the_separation(self, ds, a0, a, sigma):
        d, s = ds
        a1 = a0 + a
        assert psi_general(Family.GAUSSIAN, d, s, a0, a1, sigma) == psi_plus(d, s, a1 - a0, sigma)

    @_PROPERTY
    @given(ds=_dims(), levels=st.tuples(_LEVELS, _LEVELS), sigma=_SIGMAS)
    def test_non_increasing_in_a(self, ds, levels, sigma):
        d, s = ds
        lo, hi = sorted(levels)
        for psi in (psi_plus, psi_bar):
            assert psi(d, s, hi, sigma) <= psi(d, s, lo, sigma) * (1.0 + _ORDER_RTOL)


class TestScaleInvariance:
    """The Gaussian closed forms read a and sigma only through r = a/sigma,
    so each is the same function of (d, s, a, sigma) and (d, s, a/sigma, 1)
    bit for bit, at either end of the float range too."""

    _POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)

    @settings(max_examples=500)
    @given(ds=_dims(d_min=3, d_max=10**9), a=_POSITIVE, sigma=_POSITIVE)
    @example(ds=(200, 10), a=1e-170, sigma=1e-170)
    @example(ds=(500, 5), a=1e300, sigma=1e300)
    def test_depends_on_ratio_only(self, ds, a, sigma):
        r = a / sigma
        assume(0.0 < r * r < math.inf)
        d, s = ds
        for fn in (psi_plus, psi_two_sided, psi_bar, wrong_recovery_bounds):
            assert fn(d, s, a, sigma) == fn(d, s, r, 1.0)
        if 2 * s < d:
            assert delta_bounds(d, s, a, sigma) == delta_bounds(d, s, r, 1.0)


class TestScaledTailSeam:
    """scale Phi(y) from the Mills-ratio seam at -8 down through the far
    tail the closed forms reach, against mpmath, to the closed forms' 1e-13
    wherever the result is a normal float: the scale enters before the
    exponentials, so no digits are lost to an underflowing Phi(y)."""

    @_PROPERTY
    @given(y=st.floats(-60.0, -8.0), scale=st.floats(1.0, 1e7))
    @example(y=-37.0, scale=19.0)
    @example(y=math.nextafter(-37.0, 0.0), scale=19.0)
    @example(y=math.nextafter(-37.0, -38.0), scale=19.0)
    @example(y=math.nextafter(-37.0, -38.0), scale=1e7)
    @example(y=-36.0, scale=19.0)
    @example(y=-37.75, scale=1e7)
    @example(y=-37.9, scale=1e7)
    @example(y=math.nextafter(-8.0, -9.0), scale=1e7)
    def test_matches_mpmath(self, y, scale):
        exact = float(mp.mpf(scale) * mp.ncdf(mp.mpf(y)))
        got = numkit.gaussian_cdf(y, scale)
        if exact >= sys.float_info.min:
            assert_allclose(got, exact, rtol=1e-13)
        else:
            assert 0.0 <= got < sys.float_info.min


class TestPsiGeneralGaussian:
    def test_depends_only_on_separation(self):
        assert psi_general(Family.GAUSSIAN, 50, 5, -1.0, 2.0) == psi_plus(50, 5, 3.0)
        assert psi_general(Family.GAUSSIAN, 50, 5, 10.0, 13.0) == psi_plus(50, 5, 3.0)

    def test_against_direct_threshold_integral(self):
        """P_a1(x < t) + ratio P_a0(x >= t) at the llr cut."""
        for d, s, a0, a1, sigma in (
            (50, 5, -1.0, 2.0, 1.0),
            (200, 10, 0.0, 3.0, 1.0),
            (30, 12, 1.0, 1.5, 0.6),
        ):
            want = _psi_exact(ProblemInstance(d, s, Interval(a0, a1), sigma=sigma), "llr")
            assert_allclose(psi_general(Family.GAUSSIAN, d, s, a0, a1, sigma), want, rtol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_general(Family.GAUSSIAN, 10, 2, 2.0, 1.0)


class TestPsiGeneralBernoulli:
    def test_symmetric_example_is_one(self):
        # rates (0.1, 0.9) at ratio 9 put the cut exactly on x = 1
        assert psi_general(Family.BERNOULLI, 10, 1, 0.1, 0.9) == 1.0

    def test_middle_branch_value(self):
        # cut strictly between the atoms: risk (1-a1) + a0 ratio
        val = psi_general(Family.BERNOULLI, 3, 1, 0.2, 0.8)
        assert val == (1.0 - 0.8) + 0.2 * 2.0

    def test_select_all_branch_returns_ratio(self):
        # dense regime s > d/2 drives the cut below zero
        assert psi_general(Family.BERNOULLI, 5, 4, 0.4, 0.6) == 0.25

    def test_never_select_branch_returns_one(self):
        assert psi_general(Family.BERNOULLI, 50, 1, 0.3, 0.7) == 1.0

    def test_zero_sparsity_rejected_before_the_ratio(self):
        with pytest.raises(ValueError, match="need 1 <= s < d"):
            psi_general(Family.BERNOULLI, 10, 0, 0.1, 0.9)

    def test_matches_atom_enumeration_exactly(self):
        rng = np.random.default_rng(7)
        hits = {0, 1, 2}
        while hits:
            a0 = float(rng.uniform(0.02, 0.9))
            a1 = float(rng.uniform(a0 + 0.02, 0.98))
            d = int(rng.integers(3, 40))
            s = int(rng.integers(1, d))
            t = llr_threshold(Family.BERNOULLI, d, s, a0, a1)
            branch = 0 if t <= 0.0 else (2 if t > 1.0 else 1)
            if t == 1.0:
                continue
            hits.discard(branch)
            p = ProblemInstance(d, s, Interval(a0, a1), Family.BERNOULLI)
            miss, select = map(float, threshold_rates_exact(p, "llr"))
            assert psi_general(Family.BERNOULLI, d, s, a0, a1) == miss + (d - s) / s * select


class TestPsiGeneralPoisson:
    def test_unit_slope_example(self):
        # a0=1, a1=e, d=2s: cut at e-1, so the selector keeps x >= 2
        val = psi_general(Family.POISSON, 4, 2, 1.0, math.e)
        p = ProblemInstance(4, 2, Interval(1.0, math.e), Family.POISSON)
        assert_allclose(val, _psi_exact(p, "llr"), rtol=1e-13)

    def test_against_count_enumeration(self):
        rng = np.random.default_rng(11)
        saw_select_all = False
        for _ in range(60):
            a0 = float(rng.uniform(0.2, 6.0))
            a1 = a0 + float(rng.uniform(0.3, 5.0))
            d = int(rng.integers(3, 60))
            s = int(rng.integers(1, d))
            saw_select_all |= llr_threshold(Family.POISSON, d, s, a0, a1) <= 0.0
            want = _psi_exact(ProblemInstance(d, s, Interval(a0, a1), Family.POISSON), "llr")
            assert_allclose(psi_general(Family.POISSON, d, s, a0, a1), want, rtol=1e-12)
        assert saw_select_all  # the dense draws must exercise the ratio branch

    def test_select_all_branch(self):
        # s > d/2 with close rates pushes the cut below zero
        val = psi_general(Family.POISSON, 5, 4, 1.0, 2.0)
        assert val == 0.25

    def test_zero_sparsity_rejected_before_the_ratio(self):
        with pytest.raises(ValueError, match="need 1 <= s < d"):
            psi_general(Family.POISSON, 10, 0, 1.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_general(Family.POISSON, 10, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            psi_general("cauchy", 10, 2, 1.0, 2.0)

    @pytest.mark.parametrize(
        "d, s, a0, a1",
        # the cases where 1 - P(X <= k - 1) lost 1e-7 to all of its digits
        [(200, 10, 1.0, 3.0), (10**6, 1, 1.0, 30.0), (10**9, 1, 2.0, 60.0),
         (10**12, 3, 5.0, 120.0), (10**12, 1, 100.0, 600.0)]
        + [(d, s, a0, a1)
           for d, s in ((2, 1), (200, 10), (10**6, 1), (10**15 + 1, 1))
           for a0, a1 in ((0.5, 2.0), (31.0, 33.0), (40.0, 60.0), (1e3, 1.2e3),
                          (1e5, 1.02e5), (9.99e6, POISSON_RATE_MAX))],
    )
    def test_relative_error_against_mpmath(self, d, s, a0, a1):
        """(d-s)/s P_{a0}(X >= k) keeps its digits however large (d-s)/s is:
        within 1e-12 of mpmath up to (d-s)/s = 1e15 and the largest rate."""
        assert llr_threshold(Family.POISSON, d, s, a0, a1) > 0.0
        exact = _psi_exact(ProblemInstance(d, s, Interval(a0, a1), Family.POISSON), "llr")
        got = psi_general(Family.POISSON, d, s, a0, a1)
        assert abs(got - exact) <= 1e-12 * exact, (got, exact)


def _log_uniform(lo: float, hi: float):
    """Floats in [lo, hi], uniform in log."""
    return st.floats(math.log(lo), math.log(hi)).map(lambda u: min(max(math.exp(u), lo), hi))


@st.composite
def _discrete_llr_instances(draw):
    """A Bernoulli or Poisson Interval instance at (d, s), s < d <= 10^9,
    its rates drawn log-uniformly: each Bernoulli rate, or its distance
    from 1, down to 5e-324; Poisson rates over [1e-320, 1e7]."""
    d = draw(st.integers(2, 10**9))
    s = draw(st.integers(1, d - 1))
    if draw(st.booleans()):
        family = Family.BERNOULLI
        rate = st.builds(lambda a, near_one: min(1.0 - a, 1.0 - 2.0**-53) if near_one else a,
                         _log_uniform(5e-324, 0.5), st.booleans())
    else:
        family, rate = Family.POISSON, _log_uniform(1e-320, POISSON_RATE_MAX)
    a0, a1 = sorted(draw(st.lists(rate, min_size=2, max_size=2, unique=True)))
    return ProblemInstance(d, s, Interval(a0, a1), family)


class TestDiscreteLlrCut:
    @settings(max_examples=200)
    @given(p=_discrete_llr_instances())
    @example(p=ProblemInstance(10, 1, Interval(1e-305, 1e4), Family.POISSON))
    @example(p=ProblemInstance(10**9, 1, Interval(1e-320, POISSON_RATE_MAX), Family.POISSON))
    @example(p=ProblemInstance(2, 1, Interval(5e-324, 1.0 - 2.0**-53), Family.BERNOULLI))
    @example(p=ProblemInstance(10, 1, Interval(5e-324, 0.9), Family.BERNOULLI))
    def test_cut_and_risk_match_the_log_space_cut(self, p):
        """llr_threshold against oracles.llr_cut_exact, formed from logs of
        the rates, within 1e-12 of the cut's terms over the slope: log((d-s)/s),
        the intercept and 1, since a log of a quotient near 1 (the Bernoulli
        intercept's) keeps only absolute digits.  psi_general against the
        rates of the exact cut within 1e-12, plus the few smallest subnormals
        a tail below the normal range carries, scaled by (d-s)/s."""
        (d, s), (a0, a1) = (p.d, p.s), (p.signal.a0, p.signal.a1)
        exact = llr_cut_exact(p)
        with mp.workdps(60):
            m0, m1, log_ratio = mp.mpf(a0), mp.mpf(a1), mp.log(mp.mpf(d - s) / s)
            slope = (mp.log(m1 / m0) if p.family is Family.POISSON
                     else mp.log(m1 / (1 - m1)) - mp.log(m0 / (1 - m0)))
            scale = (abs(log_ratio) + abs(exact * slope - log_ratio) + 1) / slope
        assume(slope >= 1e-3)  # closer rates leave the double cut fewer digits
        t = llr_threshold(p.family, d, s, a0, a1)
        assert abs(t - exact) <= 1e-12 * (abs(exact) + scale), (t, exact)
        if p.family is Family.BERNOULLI:
            same_atoms = (t <= 0.0, t < 1.0) == (exact <= 0, exact < 1)
        else:
            same_atoms = max(math.ceil(t), 0) == max(int(mp.ceil(exact)), 0)
        assume(same_atoms)  # a cut within rounding of an atom may fall either side
        want = _psi_exact(p, "llr")
        assert abs(psi_general(p.family, d, s, a0, a1) - want) <= 1e-12 * want + 2e-323 * (d - s) / s


# (d, s, a, sigma): sparse, dense (s > d/2), and dense with the two-sided
# cut clamped to q = 0 (the third)
_THRESHOLD_CELLS = [
    (200, 10, 3.0, 1.0),
    (50, 30, 3.0, 1.0),
    (50, 30, 0.5, 1.0),
    (1000, 5, 4.0, 2.0),
    (10**6, 10, 6.0, 0.7),
    (7, 6, 0.2, 0.3),
]


class TestThresholdRisk:
    @pytest.mark.parametrize("cell", _THRESHOLD_CELLS, ids=str)
    @pytest.mark.parametrize(
        "signal, kind",
        [
            (LowerBound, "universal"),
            (TwoSided, "universal"),
            (LowerBound, "two-sided"),
            (TwoSided, "two-sided"),
            (TwoSided, "plus"),
        ],
        ids=["universal-plus", "universal-two-sided", "two-sided-plus",
             "two-sided-two-sided", "plus-two-sided"],
    )
    def test_against_the_literal_event(self, cell, signal, kind):
        d, s, a, sigma = cell
        p = ProblemInstance(d, s, signal(a), sigma=sigma)
        miss, select = threshold_rates_exact(p, kind)
        assert_allclose(threshold_risk(p, kind), float(s * miss + (d - s) * select), rtol=1e-12)

    def test_two_sided_cut_clamped_at_zero_selects_everything(self):
        p = ProblemInstance(50, 30, TwoSided(0.5))
        assert minimax_threshold(50, 30, 0.5) < 0.0
        assert threshold_risk(p, "two-sided") == 20.0

    @pytest.mark.parametrize("cell", _THRESHOLD_CELLS, ids=str)
    def test_minimax_kinds_are_the_psi_functions_exactly(self, cell):
        d, s, a, sigma = cell
        lower = ProblemInstance(d, s, LowerBound(a), sigma=sigma)
        two = ProblemInstance(d, s, TwoSided(a), sigma=sigma)
        interval = ProblemInstance(d, s, Interval(-0.5, a), sigma=sigma)
        assert threshold_risk(lower, "plus") == s * psi_plus(d, s, a, sigma)
        assert threshold_risk(lower, "llr") == s * psi_plus(d, s, a, sigma)
        assert threshold_risk(lower, "cosh") == s * psi_bar(d, s, a, sigma)
        assert threshold_risk(two, "cosh") == s * psi_bar(d, s, a, sigma)
        assert threshold_risk(interval, "llr") == s * psi_general(
            Family.GAUSSIAN, d, s, -0.5, a, sigma
        )
        # a Gaussian interval class with a0 = 0 is the one-sided class
        at_zero = ProblemInstance(d, s, Interval(0.0, a), sigma=sigma)
        for kind in ("llr", "universal"):
            assert threshold_risk(at_zero, kind) == threshold_risk(lower, kind)

    @pytest.mark.parametrize(
        "family, a0, a1", [(Family.BERNOULLI, 0.2, 0.7), (Family.POISSON, 1.0, 4.0)]
    )
    def test_discrete_llr_is_psi_general_exactly(self, family, a0, a1):
        p = ProblemInstance(40, 4, Interval(a0, a1), family)
        assert threshold_risk(p, "llr") == 4 * psi_general(family, 40, 4, a0, a1)

    @pytest.mark.parametrize(
        "p, kind",
        [
            (ProblemInstance(40, 4, LowerBound(2.0)), "tops"),
            (ProblemInstance(40, 4, TwoSided(2.0)), "adaptive"),
            (ProblemInstance(40, 4, Interval(0.5, 2.0)), "universal"),
            (ProblemInstance(40, 4, Interval(0.2, 0.7), Family.BERNOULLI), "universal"),
        ],
        ids=["tops", "adaptive", "universal-interval", "universal-bernoulli"],
    )
    def test_none_off_threshold_rules(self, p, kind):
        assert threshold_risk(p, kind) is None

    @pytest.mark.parametrize(
        "p, kind",
        [
            (ProblemInstance(40, 4, TwoSided(2.0)), "llr"),
            (ProblemInstance(40, 4, Interval(0.0, 2.0)), "plus"),
            (ProblemInstance(40, 4, Interval(0.0, 2.0)), "cosh"),
            (ProblemInstance(40, 4, LowerBound(2.0)), "argmax"),
        ],
        ids=["llr-two-sided", "plus-interval", "cosh-interval", "unknown"],
    )
    def test_pairings_spec_for_kind_rejects_are_rejected(self, p, kind):
        with pytest.raises(ValueError):
            threshold_risk(p, kind)


class TestPsiCrowd:
    def test_single_worker_equals_bernoulli_formula_exactly(self):
        # one case per piecewise branch of the single-observation rule
        cases = (
            (3, 1, 0.2, 0.8),   # cut between the atoms
            (5, 4, 0.4, 0.6),   # select-all
            (50, 1, 0.3, 0.7),  # never-select
        )
        for d, s, a0, a1 in cases:
            assert psi_crowd([(a0, a1)], d, s) == psi_general(Family.BERNOULLI, d, s, a0, a1)

    def test_two_reliable_workers_enumeration_vs_mc(self):
        rates = [(0.01, 0.99), (0.01, 0.99)]
        exact = psi_crowd(rates, 2, 1)
        mean, stderr = psi_crowd_mc(rates, 2, 1, replications=200_000, seed=606)
        assert abs(mean - exact) <= 3.0 * stderr

    def test_three_workers_enumeration_vs_mc(self):
        rng = np.random.default_rng(13)
        rates = [
            (float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.6, 0.95)))
            for _ in range(3)
        ]
        exact = psi_crowd(rates, 8, 3)
        mean, stderr = psi_crowd_mc(rates, 8, 3, replications=400_000, seed=607)
        assert abs(mean - exact) <= 3.0 * stderr

    def test_manual_two_worker_enumeration(self):
        """Spell out all four vote patterns by hand and match the report."""
        rates = [(0.2, 0.7), (0.3, 0.9)]
        d, s = 6, 2
        ratio = (d - s) / s
        cut = math.log(ratio)
        w1 = math.log((0.7 * 0.8) / (0.3 * 0.2))
        w2 = math.log((0.9 * 0.7) / (0.1 * 0.3))
        b = math.log(0.3 / 0.8) + math.log(0.1 / 0.7)
        miss = 0.0
        fp = 0.0
        for v1 in (0, 1):
            for v2 in (0, 1):
                llr = b + v1 * w1 + v2 * w2
                p1 = (0.7 if v1 else 0.3) * (0.9 if v2 else 0.1)
                p0 = (0.2 if v1 else 0.8) * (0.3 if v2 else 0.7)
                if llr >= cut:
                    fp += p0
                else:
                    miss += p1
        want = miss + ratio * fp
        assert_allclose(psi_crowd(rates, d, s), want, rtol=1e-13)

    def test_mc_determinism_and_report_fields(self):
        rates = [(0.2, 0.8)]
        r1 = psi_crowd_mc(rates, 4, 1, replications=5000, seed=99)
        r2 = psi_crowd_mc(rates, 4, 1, replications=5000, seed=99)
        assert r1 == r2

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_crowd([(0.1, 0.9)] * 21, 4, 1)
        with pytest.raises(ValueError):
            psi_crowd([(0.5, 0.5)], 4, 1)

    @staticmethod
    def _selector_risk(rates, s):
        """Risk of crowd_selector's own decisions on the instance whose
        d = 2^m items are all the vote patterns, worker i voting bit i of the
        item's index: the miss and false-positive masses over its decisions,
        each summed in pattern order with np.sum as psi_crowd sums them."""
        m = len(rates)
        d = 1 << m
        votes = (np.arange(d) >> np.arange(m)[:, None]) & 1
        selected = crowd_selector(CrowdInstance(votes, tuple(rates)), s).support.bits
        mass0, mass1 = (
            np.array([math.prod(r[k] if v else 1.0 - r[k] for r, v in zip(rates, col))
                      for col in votes.T])
            for k in (0, 1)
        )
        return float(np.sum(mass1[~selected])) + ((d - s) / s) * float(np.sum(mass0[selected]))

    def test_enumeration_decides_as_crowd_selector(self):
        """At d = 16, s = 1 the first rate set puts pattern (0, 1, 1, 0) at
        log-likelihood ratio log 15, exactly the cut; the seeded sets draw
        from a grid of round rates, whose weights often sum to a cut too."""
        grid = (0.1, 0.2, 0.25, 0.3, 0.4, 0.6, 0.7, 0.75, 0.8, 0.9)
        rng = np.random.default_rng(2026)
        rate_sets = [[(0.8, 0.75), (0.25, 0.9), (0.3, 0.4), (0.7, 0.25)]] + [
            [tuple(float(a) for a in rng.choice(grid, 2, replace=False))
             for _ in range(int(rng.integers(1, 6)))]
            for _ in range(200)
        ]
        for rates in rate_sets:
            d = 1 << len(rates)
            for s in range(1, d):
                assert self._selector_risk(rates, s) == psi_crowd(rates, d, s), (rates, s)

    def test_enumeration_memory_is_linear_in_patterns(self):
        """At m = 16 each of the enumeration's float arrays takes 512 KiB; an
        (m, 2^m) int64 pattern matrix alone would take 8 MiB."""
        rates = [(0.05 + 0.02 * i, 0.9 - 0.015 * i) for i in range(16)]
        tracemalloc.start()
        try:
            psi_crowd(rates, 100, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_anti_informative_worker_supported(self):
        # a flipped worker carries the same information as its mirror image
        straight = psi_crowd([(0.2, 0.8)], 6, 2)
        flipped = psi_crowd([(0.8, 0.2)], 6, 2)
        assert_allclose(flipped, straight, rtol=1e-13)


class TestWrongRecoveryBounds:
    @settings(max_examples=500)
    @given(ds=_dims(d_min=3, d_max=10**9), a=st.floats(1e-3, 80.0))
    @example(ds=(100, 10), a=2.5)
    @example(ds=(101, 1), a=1.0)  # miss argument clipped
    @example(ds=(200, 190), a=0.01)  # false-positive argument positive
    def test_component_identities(self, ds, a):
        """The bounds share one evaluation of each cut with psi_plus,
        psi_two_sided and psi_bar, and equal their single calls exactly;
        Psi = Psi+ wherever the miss argument is not positive."""
        d, s = ds
        b = wrong_recovery_bounds(d, s, a)
        sp = s * psi_plus(d, s, a)
        sb = s * psi_bar(d, s, a)
        assert b.upper_plus == sp
        assert b.upper_bar == sb
        assert b.upper_two_sided == 2.0 * (s * psi_two_sided(d, s, a))
        assert b.lower_plus == sp / (1.0 + sp)
        assert b.lower_bar == sb / (1.0 + sb)
        if -(a / 2.0) + math.log((d - s) / s) / a <= 0.0:
            assert psi_two_sided(d, s, a) == psi_plus(d, s, a)

    def test_two_coordinate_example(self):
        b = wrong_recovery_bounds(2, 1, 2.0)
        sp = 2.0 * scipy.stats.norm.cdf(-1.0)
        assert_allclose(b.lower_plus, sp / (1.0 + sp), rtol=1e-13)

    def test_ordering(self):
        for a in (0.5, 2.0, 5.0):
            b = wrong_recovery_bounds(60, 6, a)
            assert b.lower_plus <= b.upper_plus
            assert b.lower_bar <= b.upper_bar

    def test_bounds_pinch_together_for_strong_signals(self):
        b = wrong_recovery_bounds(100, 5, 10.0)
        assert b.upper_plus - b.lower_plus < 1e-6


class TestDeltaBounds:
    def test_exact_boundary_case(self):
        # a^2 = 2 log ratio lands exactly on W = 0
        rb = delta_bounds(3, 1, math.sqrt(2.0 * math.log(2.0)))
        assert rb.w == 0.0
        assert rb.delta == 0.0
        assert rb.lower == 0.5
        assert_allclose(rb.upper / rb.lower, 2.0 + math.sqrt(2.0 * math.pi), rtol=1e-15)

    def test_delta_identity(self):
        """Delta = W / (2 sqrt(2 log ratio + W)) in the supercritical regime."""
        for d, s, mult in ((100, 10, 1.3), (1000, 30, 2.0), (50, 3, 4.0)):
            L = math.log((d - s) / s)
            a = mult * math.sqrt(2.0 * L)
            rb = delta_bounds(d, s, a)
            assert rb.w > 0.0
            assert_allclose(rb.delta, rb.w / (2.0 * math.sqrt(2.0 * L + rb.w)), rtol=1e-12)
            assert_allclose(rb.lower, s * scipy.stats.norm.cdf(-rb.delta), rtol=1e-13)
            assert_allclose(rb.upper / rb.lower, 2.0 + math.sqrt(2.0 * math.pi), rtol=1e-13)

    def test_subcritical_regime(self):
        rb = delta_bounds(100, 10, 0.5)
        assert rb.w < 0.0
        assert rb.delta == 0.0
        assert rb.lower == 0.0
        assert rb.upper == (2.0 + math.sqrt(2.0 * math.pi)) * 10 * 0.5

    def test_lower_bound_below_hamming_upper(self):
        # the envelope's floor never contradicts the selector's risk ceiling
        for d, s, mult in ((100, 10, 1.2), (400, 20, 1.8), (1000, 9, 3.0)):
            L = math.log((d - s) / s)
            a = mult * math.sqrt(2.0 * L)
            rb = delta_bounds(d, s, a)
            assert rb.lower <= 2.0 * s * psi_two_sided(d, s, a) + 1e-12

    def test_dense_case_rejected(self):
        with pytest.raises(ValueError):
            delta_bounds(10, 5, 1.0)


class TestPhasePoint:
    def test_w_star_identity(self):
        """2 log ratio + w* = 2 (sqrt(log(d-s)) + sqrt(log s))^2."""
        for d, s in ((1000, 30), (100, 4), (10**6, 500), (64, 2)):
            pp = phase_point(d, s)
            left = 2.0 * math.log((d - s) / s) + pp.w_star
            right = 2.0 * (math.sqrt(math.log(d - s)) + math.sqrt(math.log(s))) ** 2
            assert_allclose(left, right, rtol=1e-12)

    def test_threshold_collapse_at_exact_boundary(self):
        """At a_exact the minimax cut equals sqrt(2 log(d-s)); the point is in
        units of sigma, so at noise scale sigma the level sigma a_exact has
        the cut sigma t_star."""
        for d, s, sigma in ((1000, 30, 1.0), (500, 5, 1.0), (2048, 64, 2.0)):
            pp = phase_point(d, s)
            assert_allclose(
                minimax_threshold(d, s, sigma * pp.a_exact, sigma), sigma * pp.t_star, rtol=1e-10
            )

    def test_boundary_ordering(self):
        rng = np.random.default_rng(20260819)
        for _ in range(40):
            d = int(rng.integers(8, 10**6))
            s = int(rng.integers(2, d // 2))
            pp = phase_point(d, s)
            assert pp.a_exact >= pp.a_almost_full
            assert pp.t_star <= pp.a_exact

    def test_frozen_point(self):
        pp = phase_point(500, 5)
        assert_allclose(pp.a_exact, 5.316780030136926, rtol=1e-14)
        assert_allclose(pp.t_star, 3.522657452142825, rtol=1e-14)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            phase_point(100, 1)
        with pytest.raises(ValueError):
            phase_point(10, 5)


class TestA0Adaptive:
    def test_reduces_to_almost_full_boundary_at_zero(self):
        for d, s in ((1000, 30), (10**4, 64), (50, 3)):
            want = math.sqrt(2.0 * math.log((d - s) / s))
            assert a0_adaptive(d, s, 0.0) == want
            if s >= 2:
                assert a0_adaptive(d, s, 0.0) == phase_point(d, s).a_almost_full

    def test_monotone_in_planner_constant(self):
        vals = [a0_adaptive(10**4, 16, A) for A in (0.0, 1.0, 5.0, 20.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_formula(self):
        d, s, A = 10**4, 64, 20.0
        L = math.log((d - s) / s)
        assert a0_adaptive(d, s, A) == math.sqrt(2.0 * L + A * math.sqrt(L))

    def test_validation(self):
        with pytest.raises(ValueError):
            a0_adaptive(10, 5, 1.0)
        with pytest.raises(ValueError):
            a0_adaptive(100, 10, -0.5)


class TestAdaptiveAMin:
    def test_frozen_point(self):
        assert_allclose(adaptive_A_min(10**4, 64), 20.354647201636293, rtol=1e-14)

    def test_formula(self):
        d, s_star = 10**4, 64
        want = 16.0 * math.sqrt(math.log(math.log((d - s_star) / s_star)))
        assert adaptive_A_min(d, s_star) == want

    def test_needs_log_log_headroom(self):
        # ratio must exceed e for the double log to be positive
        with pytest.raises(ValueError):
            adaptive_A_min(5, 2)


class TestReturnTypes:
    def test_named_tuples(self):
        assert isinstance(wrong_recovery_bounds(10, 2, 1.0), WrongRecoveryBounds)
        assert isinstance(delta_bounds(10, 2, 1.0), RecoveryBounds)
        assert isinstance(phase_point(10, 2), PhasePoint)


# One input per function at which its formula overflows to inf, or, for
# psi_general, a Poisson rate over the limit.
_NON_FINITE_AT = {
    "minimax_threshold": (minimax_threshold, (200, 10, 1e308, 1.7e308)),
    "cosh_threshold": (cosh_threshold, (200, 10, 1e308, 1.7e308)),
    "llr_threshold": (llr_threshold, (Family.GAUSSIAN, 200, 10, 0.0, 1e308, 1.7e308)),
    "universal_threshold": (universal_threshold, (3, 1.7e308)),
    "a0_adaptive": (a0_adaptive, (200, 10, 1.0, 1.7e308)),
    "psi_general": (psi_general, (Family.POISSON, 10**18, 5, 1e20, 1.7e308)),
}

_EDGE_INTS = [-1, 0, 1, 2, 3, 5, 10, 200, 10**6, 10**18, 2**70, 10**400]
_INTS = st.sampled_from(_EDGE_INTS)
# (d, s) as one draw: drawn apart, Hypothesis makes them equal far more often
_D_S = st.sampled_from([(d, s) for d in _EDGE_INTS for s in _EDGE_INTS])
_FLOATS = st.sampled_from(
    [0.0, -0.0, 1e-300, 1e-170, 0.5, 1.0, 3.0, 1e8, 1e170, 1e300, 1.7e308,
     math.inf, -math.inf, math.nan, -1.0]
)
_FAMILIES = st.sampled_from(list(Family))
# Inputs the checks accept more often, for the range properties: valid
# (d, s), the positive finite members of _FLOATS and 0.7 for a Bernoulli
# a1, and lower levels or rates from -1 to 1e8.
_VALID_D_S = st.sampled_from([(d, s) for d in _EDGE_INTS for s in _EDGE_INTS if 1 <= s < d])
_LEVELS_AND_SCALES = st.sampled_from(
    [1e-300, 1e-170, 0.5, 0.7, 1.0, 3.0, 1e8, 1e170, 1e300, 1.7e308]
)
_A0S = st.sampled_from([-1.0, -0.0, 0.0, 1e-300, 0.2, 0.5, 3.0, 1e8])

# Ordered (a0, a1) pairs from rates that each family accepts some of:
# Bernoulli's in (0, 1), Poisson's on both sides of lambda = 32 and at the limit.
_RATES = [0.2, 0.7, 3.0, 31.0, 33.0, 1e3, POISSON_RATE_MAX]
_RATE_PAIRS = st.sampled_from([(a0, a1) for a0 in _RATES for a1 in _RATES if a0 < a1])
_ACCEPTED_D = _VALID_D_S.map(lambda d_s: d_s[0])

# Every public closed form, cut and level of risk and selectors, with two
# tuples of strategies for its positional arguments: edge values, and inputs
# the checks accept more often.  _D_S and _RATE_PAIRS stand for two of them.
_L = _LEVELS_AND_SCALES
_CLOSED_FORMS = [
    (psi_plus, (_D_S, _FLOATS, _FLOATS), (_VALID_D_S, _L, _L)),
    (psi_two_sided, (_D_S, _FLOATS, _FLOATS), (_VALID_D_S, _L, _L)),
    (psi_bar, (_D_S, _FLOATS, _FLOATS), (_VALID_D_S, _L, _L)),
    (delta_bounds, (_D_S, _FLOATS, _FLOATS), (_VALID_D_S, _L, _L)),
    (wrong_recovery_bounds, (_D_S, _FLOATS, _FLOATS), (_VALID_D_S, _L, _L)),
    (psi_general, (_FAMILIES, _D_S, _FLOATS, _FLOATS, _FLOATS),
     (_FAMILIES, _VALID_D_S, _RATE_PAIRS, _L)),
    (llr_threshold, (_FAMILIES, _D_S, _FLOATS, _FLOATS, _FLOATS),
     (_FAMILIES, _VALID_D_S, _RATE_PAIRS, _L)),
    (phase_point, (_D_S,), (_VALID_D_S,)),
    (a0_adaptive, (_D_S, _FLOATS, _FLOATS), (_VALID_D_S, _L, _L)),
    (adaptive_A_min, (_D_S,), (_VALID_D_S,)),
    (minimax_threshold, (_D_S, _FLOATS, _FLOATS), (_VALID_D_S, _L, _L)),
    (cosh_threshold, (_D_S, _FLOATS, _FLOATS), (_VALID_D_S, _L, _L)),
    (universal_threshold, (_INTS, _FLOATS), (_ACCEPTED_D, _L)),
]


class TestFiniteOrRejected:
    """A closed form, cut or level is finite in every field, or the call
    raises ValueError; the numkit kernels, which saturate to +-inf by
    definition, are not among them."""

    @pytest.mark.parametrize("name", list(_NON_FINITE_AT))
    def test_non_finite_value_is_rejected(self, name):
        f, args = _NON_FINITE_AT[name]
        with pytest.raises(ValueError, match="not finite|over the limit"):
            f(*args)

    @settings(max_examples=500)
    @given(
        call=st.sampled_from(
            [(f, parts) for f, edges, accepted in _CLOSED_FORMS for parts in (edges, accepted)]
        ).flatmap(lambda fa: st.tuples(st.just(fa[0]), st.tuples(*fa[1])))
    )
    def test_closed_forms_and_cuts(self, call):
        f, parts = call
        args = [x for part in parts for x in (part if isinstance(part, tuple) else (part,))]
        try:
            value = f(*args)
        except ValueError:
            event(f"{f.__name__} rejected")
            return
        event(f"{f.__name__} returned")
        fields = value if isinstance(value, tuple) else (value,)
        assert all(math.isfinite(v) for v in fields), (f.__name__, args, value)

    @settings(max_examples=300)
    @given(
        d_s=_VALID_D_S,
        f=st.sampled_from([psi_plus, psi_two_sided, psi_bar, psi_general]),
        family=_FAMILIES,
        a0=_A0S,
        a=_LEVELS_AND_SCALES,
        sigma=_LEVELS_AND_SCALES,
    )
    def test_psi_lies_in_0_ratio_plus_1(self, d_s, f, family, a0, a, sigma):
        """Each Psi is a miss probability plus (d-s)/s times a false-positive
        probability, so 0 <= Psi <= (d-s)/s + 1."""
        d, s = d_s
        args = (family, d, s, a0, a, sigma) if f is psi_general else (d, s, a, sigma)
        try:
            value = f(*args)
        except ValueError:
            event(f"{f.__name__} rejected")
            return
        event(f"{f.__name__} returned")
        assert 0.0 <= value <= (d - s) / s + 1.0, (f.__name__, args, value)

    @settings(max_examples=500)
    @given(
        d_s=_VALID_D_S,
        signal_family=st.sampled_from(
            [("lower", Family.GAUSSIAN), ("two-sided", Family.GAUSSIAN)]
            + [("interval", family) for family in Family]
        ),
        a0=_A0S,
        a1=_LEVELS_AND_SCALES,
        sigma=_LEVELS_AND_SCALES,
        kind=st.sampled_from(SELECTOR_KINDS),
    )
    @example(d_s=(200, 10), signal_family=("lower", Family.GAUSSIAN), a0=0.0, a1=1e-300,
             sigma=1.0, kind="universal")
    def test_threshold_risk_lies_in_0_d(self, d_s, signal_family, a0, a1, sigma, kind):
        """For every kind spec_for_kind accepts, threshold_risk is None or
        in [0, d]; for every threshold kind it rejects, threshold_risk raises
        too (adaptive, whose budget it does not take, is always None)."""
        (d, s), (signal, family) = d_s, signal_family
        sig = {"lower": LowerBound, "two-sided": TwoSided}.get(signal)
        try:
            p = ProblemInstance(d, s, sig(a1) if sig else Interval(a0, a1), family, sigma)
        except ValueError:
            return
        try:
            spec_for_kind(kind, p, s_star=s)
        except ValueError:
            event("pairing rejected")
            if kind != "adaptive":
                with pytest.raises(ValueError):
                    threshold_risk(p, kind)
            return
        value = threshold_risk(p, kind)
        event(f"{kind} {'None' if value is None else 'returned'}")
        assert value is None or 0.0 <= value <= d, (p, kind, value)


# Every public entry that takes a dimension d or a sparsity s (or s_star),
# called at d = 200 and s = 10 with its other arguments fixed.  The array
# kernels (floyd_resolve, top_s_into, adaptive_into) are left out: they read
# d and s from the shapes of blocks that a checked entry built.
_X = np.linspace(-3.0, 4.0, 200)
_RATES3 = ((0.2, 0.7), (0.1, 0.6), (0.3, 0.9))
_CROWD = CrowdInstance((np.arange(600).reshape(3, 200) * 7 % 5 < 2).astype(int), _RATES3)


def _resolved_top_s(d):
    bits = np.empty((1, 200), dtype=bool)
    resolve_selector(TopS(10), d)(1)(_X[None].copy(), bits)
    return bits


def _adaptive_result(s_star):
    result = adaptive_selector(_X, s_star)
    return result.support.bits, result.diagnostics


_TAKES_D_AND_S = {
    "ProblemInstance": lambda d, s: ProblemInstance(d, s, LowerBound(3.0)),
    "uniform_support": lambda d, s: uniform_support(d, s, rng_stream(7, 0)).bits,
    "minimax_threshold": lambda d, s: minimax_threshold(d, s, 3.0),
    "cosh_threshold": lambda d, s: cosh_threshold(d, s, 3.0),
    "cosh_selector": lambda d, s: cosh_selector(_X, d, s, 3.0).bits,
    **{
        f"llr_threshold-{f.value}": (lambda d, s, f=f: llr_threshold(f, d, s, 0.2, 0.7))
        for f in Family
    },
    "adaptive_plan": lambda d, s: adaptive_plan(d, s),
    "psi_plus": lambda d, s: psi_plus(d, s, 3.0),
    "psi_two_sided": lambda d, s: psi_two_sided(d, s, 3.0),
    "psi_bar": lambda d, s: psi_bar(d, s, 3.0),
    **{
        f"psi_general-{f.value}": (lambda d, s, f=f: psi_general(f, d, s, 0.2, 0.7))
        for f in Family
    },
    "psi_crowd": lambda d, s: psi_crowd(_RATES3, d, s),
    "wrong_recovery_bounds": lambda d, s: wrong_recovery_bounds(d, s, 3.0),
    "delta_bounds": lambda d, s: delta_bounds(d, s, 3.0),
    "phase_point": lambda d, s: phase_point(d, s),
    "a0_adaptive": lambda d, s: a0_adaptive(d, s, 1.0),
    "adaptive_A_min": lambda d, s: adaptive_A_min(d, s),
    "phase_sweep": lambda d, s: phase_sweep([d], s, [1.0], ["plus"], MCConfig(4, seed=5)),
}
_TAKES_D = {
    "universal_threshold": universal_threshold,
    "check_observations": lambda d: check_observations(_X, d),
    "resolve_selector": _resolved_top_s,
    "select_row": lambda d: select_row(Threshold(0.5), _X, d).support.bits,
}
_TAKES_S = {
    "TopS": TopS,
    "Adaptive": Adaptive,
    "crowd_selector": lambda s: crowd_selector(_CROWD, s).support.bits,
    "adaptive_selector": _adaptive_result,
}
_INTEGER_ENTRIES = {
    **{name: (f, ("d", "s")) for name, f in _TAKES_D_AND_S.items()},
    **{name: (f, ("d",)) for name, f in _TAKES_D.items()},
    **{name: (f, ("s",)) for name, f in _TAKES_S.items()},
}


def _exact(value):
    """value with each float as float.hex and each array as a list, so that
    == compares bit for bit."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return _exact(value.tolist())
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    return value


class TestIntegerDS:
    """d and s are integers at every public entry: 200.0 and 10.5 are a
    TypeError, and numpy integers give the ints' results bit for bit."""

    @pytest.mark.parametrize(
        "name, bad",
        [(name, bad) for name, (_, params) in _INTEGER_ENTRIES.items()
         for bad in ("d", "s") if bad in params],
    )
    def test_float_is_a_type_error(self, name, bad):
        f, params = _INTEGER_ENTRIES[name]
        values = {"d": 200, "s": 10, bad: {"d": 200.0, "s": 10.5}[bad]}
        with pytest.raises(TypeError):
            f(*(values[p] for p in params))

    @pytest.mark.parametrize("name", list(_INTEGER_ENTRIES))
    def test_numpy_integers_match_ints(self, name):
        f, params = _INTEGER_ENTRIES[name]
        ints = {"d": 200, "s": 10}
        want = f(*(ints[p] for p in params))
        got = f(*(np.int64(ints[p]) for p in params))
        assert _exact(got) == _exact(want)
