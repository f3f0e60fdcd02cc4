"""Selector tests.

The closed "x >= t" convention is load-bearing everywhere here: boundary
observations are selected, and the dual |x|-threshold forms must agree with
the literal likelihood-ratio events they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from hamsel.model import (
    CrowdInstance,
    Adaptive,
    Family,
    Interval,
    LowerBound,
    ProblemInstance,
    SupportVector,
    Threshold,
    TopS,
    TwoSided,
    rng_stream,
)
from hamsel.selectors import (
    SELECTOR_KINDS,
    adaptive_into,
    adaptive_plan,
    adaptive_selector,
    cosh_selector,
    cosh_threshold,
    crowd_selector,
    crowd_weights,
    llr_threshold,
    minimax_threshold,
    resolve_selector,
    row_counts,
    select_row,
    spec_for_kind,
    top_s_into,
    universal_threshold,
)
from hamsel.simulate import apply_selector
from oracles import selection_cases, selection_rule


def _select(spec, x) -> SupportVector:
    """apply_selector on a Gaussian instance sized to x; the spec alone
    decides the selection."""
    return apply_selector(spec, x, ProblemInstance(len(x), 1, LowerBound(1.0)))


def _top_s(key, s) -> np.ndarray:
    """top_s_into on a (rows, d) block of keys, into fresh buffers."""
    bits = np.empty(key.shape, dtype=bool)
    top_s_into(key, s, bits, np.empty(key.shape))
    return bits


def _llr_select(x, family, d, s, a0, a1, sigma=1.0) -> SupportVector:
    """The "llr" kind's spec at an Interval(a0, a1) instance, run on x."""
    p = ProblemInstance(d, s, Interval(a0, a1), family=family, sigma=sigma)
    return apply_selector(spec_for_kind("llr", p), x, p)


def _log_cosh(z: float) -> float:
    """Literal log cosh, stable for large |z|; the oracle for dual forms."""
    az = abs(z)
    return az + math.log1p(math.exp(-2.0 * az)) - math.log(2.0)


class TestThresholdSelectors:
    def test_one_sided_basic(self):
        sv = _select(Threshold(1.0), [0.1, 2.3, -1.0])
        assert sv.bitstring() == "010"

    def test_boundary_is_selected(self):
        assert _select(Threshold(1.0), [1.0, 0.999999]).bitstring() == "10"

    def test_two_sided_basic(self):
        sv = _select(Threshold(1.0, two_sided=True), [0.1, 2.3, -1.5])
        assert sv.bitstring() == "011"

    def test_two_sided_boundary_both_signs(self):
        assert _select(Threshold(1.0, two_sided=True), [1.0, -1.0, 0.5]).bitstring() == "110"

    def test_two_sided_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            Threshold(-0.5, two_sided=True)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError):
            Threshold(float("nan"))

    def test_observation_validation(self):
        p = ProblemInstance(2, 1, LowerBound(1.0))
        with pytest.raises(ValueError):
            apply_selector(Threshold(0.0), [], p)
        with pytest.raises(ValueError):
            apply_selector(Threshold(0.0), [[1.0, 2.0]], p)
        with pytest.raises(ValueError):
            apply_selector(Threshold(0.0), [1.0, float("nan")], p)


class TestMinimaxThreshold:
    def test_balanced_case_is_midpoint(self):
        # d = 2s makes the log term vanish
        assert minimax_threshold(2, 1, 3.0) == 1.5
        assert minimax_threshold(10, 5, 3.0) == 1.5

    def test_frozen_example(self):
        # a/2 + log(4)/a at d=5, s=1, a=2
        assert_allclose(minimax_threshold(5, 1, 2.0), 1.6931471805599454, rtol=1e-15)
        assert_allclose(
            minimax_threshold(5, 1, 2.0), 1.0 + math.log(4.0) / 2.0, rtol=1e-15
        )

    def test_threshold_equals_a_at_critical_level(self):
        # a^2 = 2 sigma^2 log((d-s)/s) collapses both terms to a/2
        for d, s, sigma in ((101, 1, 1.0), (400, 25, 2.0)):
            a = sigma * math.sqrt(2.0 * math.log((d - s) / s))
            assert_allclose(minimax_threshold(d, s, a, sigma), a, rtol=1e-13)

    def test_negative_threshold_returned_as_is(self):
        t = minimax_threshold(5, 4, 1.0)
        assert t == 0.5 + math.log(0.25)
        assert t < 0.0

    def test_sigma_scaling(self):
        t1 = minimax_threshold(30, 3, 2.0, 1.0)
        t2 = minimax_threshold(30, 3, 4.0, 2.0)
        assert_allclose(t2, 2.0 * t1, rtol=1e-15)

    def test_validation(self):
        """The cut is the Gaussian llr cut at a0 = 0, but its checks name the
        one-sided level a, not a1 - a0."""
        for args, message in (
            ((5, 5, 1.0), "need 1 <= s < d"),
            ((5, 1, 0.0), "need a > 0, got 0.0"),
            ((5, 1, math.inf), "need a > 0, got inf"),
            ((5, 1, 1.0, 0.0), "need sigma > 0, got 0.0"),
            ((5, 1, 1e-200, 1e200), "need (a/sigma)^2 finite and nonzero"),
        ):
            with pytest.raises(ValueError) as info:
                minimax_threshold(*args)
            assert str(info.value).startswith(message)


class TestCoshSelector:
    def test_dual_form_matches_literal_llr_event(self):
        """|x| >= cosh_threshold must equal log cosh(a x / sigma^2) >= cut."""
        d, s, a, sigma = 200, 10, 3.0, 1.0
        cut = a * a / (2.0 * sigma * sigma) + math.log((d - s) / s)
        x = rng_stream(42, 0).normal(0.0, 2.0, size=d)
        got = cosh_selector(x, d, s, a, sigma)
        want = [_log_cosh(a * v / (sigma * sigma)) >= cut for v in x]
        assert_array_equal(got.bits, want)

    def test_dual_form_with_sigma(self):
        d, s, a, sigma = 64, 4, 1.5, 2.5
        cut = a * a / (2.0 * sigma * sigma) + math.log((d - s) / s)
        x = rng_stream(43, 0).normal(0.0, 3.0, size=d)
        got = cosh_selector(x, d, s, a, sigma)
        want = [_log_cosh(a * v / (sigma * sigma)) >= cut for v in x]
        assert_array_equal(got.bits, want)

    def test_select_all_regime(self):
        # d=3, s=2, a=0.5: u = e^{a^2/2} (d-s)/s < 1, so every x qualifies
        assert cosh_threshold(3, 2, 0.5) == 0.0
        assert len(cosh_selector([0.0, -0.2, 10.0], 3, 2, 0.5).indices()) == 3

    def test_frozen_threshold(self):
        assert_allclose(cosh_threshold(200, 10, 3.0), 2.7125286914208404, rtol=1e-15)

    def test_threshold_against_direct_arccosh(self):
        d, s, a, sigma = 200, 10, 3.0, 1.0
        u = math.exp(a * a / 2.0) * (d - s) / s
        assert_allclose(cosh_threshold(d, s, a), math.acosh(u) / a, rtol=1e-13)

    def test_sign_symmetry(self):
        x = rng_stream(44, 0).normal(0.0, 2.0, size=50)
        a = cosh_selector(x, 50, 5, 2.0)
        b = cosh_selector(-x, 50, 5, 2.0)
        assert a == b

    def test_overflow_safe_cut(self):
        # log-scale cut far beyond exp range still yields a finite threshold
        t = cosh_threshold(20, 4, 40.0)
        assert_allclose(t, (800.0 + math.log(4.0) + math.log(2.0)) / 40.0, rtol=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            cosh_selector([1.0, 2.0], 3, 1, 1.0)


class TestLlrSelector:
    def test_gaussian_reduces_to_one_sided_minimax(self):
        """a0 = 0 must reproduce the one-sided rule bit for bit."""
        d, s, a, sigma = 200, 10, 3.0, 1.5
        assert llr_threshold(Family.GAUSSIAN, d, s, 0.0, a, sigma) == minimax_threshold(
            d, s, a, sigma
        )
        x = rng_stream(45, 0).normal(0.0, 2.0, size=d)
        got = _llr_select(x, Family.GAUSSIAN, d, s, 0.0, a, sigma)
        want = _select(Threshold(minimax_threshold(d, s, a, sigma)), x)
        assert got == want

    def test_gaussian_shifted_interval(self):
        t = llr_threshold(Family.GAUSSIAN, 10, 5, -1.0, 3.0, 1.0)
        # midpoint 1.0 plus vanishing log term at d = 2s
        assert t == 1.0

    def test_bernoulli_symmetric_example(self):
        # d=10, s=1, rates (0.1, 0.9): cut lands exactly at x = 1
        t = llr_threshold(Family.BERNOULLI, 10, 1, 0.1, 0.9)
        assert t == 1.0
        x = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        sv = _llr_select(x, Family.BERNOULLI, 10, 1, 0.1, 0.9)
        assert_array_equal(sv.bits, x.astype(bool))

    def test_poisson_example(self):
        # a0=1, a1=e makes the slope exactly 1, so t = log(ratio) + e - 1
        t = llr_threshold(Family.POISSON, 4, 2, 1.0, math.e)
        assert t == math.e - 1.0
        sv = _llr_select([0.0, 1.0, 2.0, 3.0], Family.POISSON, 4, 2, 1.0, math.e)
        assert sv.bitstring() == "0011"

    def test_poisson_oracle_threshold(self):
        # independent reconstruction from the likelihood-ratio inequality
        d, s, a0, a1 = 30, 4, 2.0, 5.0
        t = llr_threshold(Family.POISSON, d, s, a0, a1)
        L = math.log((d - s) / s)
        for x in range(0, 15):
            llr = x * math.log(a1 / a0) - (a1 - a0)
            assert (llr >= L) == (x >= t)

    def test_bernoulli_oracle_threshold(self):
        d, s, a0, a1 = 12, 5, 0.2, 0.7
        t = llr_threshold(Family.BERNOULLI, d, s, a0, a1)
        L = math.log((d - s) / s)
        for x in (0.0, 1.0):
            llr = x * math.log(a1 / a0) + (1.0 - x) * math.log((1.0 - a1) / (1.0 - a0))
            assert (llr >= L) == (x >= t)

    def test_bernoulli_observations_validated(self):
        with pytest.raises(ValueError):
            _llr_select([0.0, 0.5], Family.BERNOULLI, 2, 1, 0.1, 0.9)

    def test_poisson_observations_validated(self):
        with pytest.raises(ValueError):
            _llr_select([1.0, -1.0], Family.POISSON, 2, 1, 1.0, 2.0)
        with pytest.raises(ValueError):
            _llr_select([1.0, 2.5], Family.POISSON, 2, 1, 1.0, 2.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            llr_threshold(Family.GAUSSIAN, 10, 1, 2.0, 1.0)
        with pytest.raises(ValueError):
            llr_threshold(Family.BERNOULLI, 10, 1, 0.0, 0.9)
        with pytest.raises(ValueError):
            llr_threshold(Family.POISSON, 10, 1, 0.0, 2.0)
        # adjacent floats whose log-odds ratio rounds to 1: a zero slope
        with pytest.raises(ValueError, match="too close"):
            llr_threshold(Family.BERNOULLI, 200, 10, 0.0938595867742349, 0.09385958677423491)


class TestCrowdSelector:
    def test_single_worker_matches_bernoulli_llr(self):
        d, s, a0, a1 = 9, 2, 0.15, 0.85
        votes = rng_stream(46, 0).integers(0, 2, size=(1, d))
        c = CrowdInstance(votes=votes, rates=[(a0, a1)])
        got = crowd_selector(c, s).support
        want = _llr_select(votes[0].astype(float), Family.BERNOULLI, d, s, a0, a1)
        assert got == want

    def test_identical_workers_reduce_to_majority_count(self):
        """Symmetric rates (q, 1-q) collapse the rule to a vote-count cutoff."""
        q, m, d, s = 0.2, 5, 6, 2
        votes = rng_stream(47, 0).integers(0, 2, size=(m, d))
        c = CrowdInstance(votes=votes, rates=[(q, 1.0 - q)] * m)
        logit = math.log((1.0 - q) / q)
        L = math.log((d - s) / s)
        # smallest integer count c with (2c - m) logit >= L
        c_min = math.ceil((m + L / logit) / 2.0 - 1e-12)
        counts = votes.sum(axis=0)
        want = counts >= c_min
        assert_array_equal(crowd_selector(c, s).support.bits, want)

    def test_three_workers_against_bayes_enumeration(self):
        """Posterior-odds oracle computed with raw probability products."""
        m, d, s = 3, 8, 3
        rng = rng_stream(48, 0)
        rates = [(0.05 + 0.3 * rng.random(), 0.6 + 0.35 * rng.random()) for _ in range(m)]
        votes = rng.integers(0, 2, size=(m, d))
        c = CrowdInstance(votes=votes, rates=rates)
        got = crowd_selector(c, s).support
        want = []
        for j in range(d):
            f1 = f0 = 1.0
            for i, (a0, a1) in enumerate(rates):
                v = votes[i, j]
                f1 *= a1 if v else (1.0 - a1)
                f0 *= a0 if v else (1.0 - a0)
            want.append(f1 >= ((d - s) / s) * f0)
        assert_array_equal(got.bits, want)

    def test_anti_informative_worker_gets_negative_weight(self):
        weights, _ = crowd_weights([(0.9, 0.1)])
        assert weights[0] < 0.0

    def test_sparsity_validation(self):
        c = CrowdInstance(votes=[[1, 0, 1]], rates=[(0.1, 0.9)])
        with pytest.raises(ValueError):
            crowd_selector(c, 0)
        with pytest.raises(ValueError):
            crowd_selector(c, 3)


class TestTopS:
    def test_full_selection(self):
        assert len(_select(TopS(2), [3.0, -1.0]).indices()) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            _select(TopS(0), [1.0, 2.0])
        with pytest.raises(ValueError):
            _select(TopS(3), [1.0, 2.0])


class TestUniversal:
    def test_threshold_formula(self):
        assert universal_threshold(8, 2.0) == 2.0 * math.sqrt(2.0 * math.log(8.0))
        assert_allclose(universal_threshold(2), math.sqrt(2.0 * math.log(2.0)), rtol=1e-15)

    def test_matches_two_sided_threshold(self):
        d = 40
        x = rng_stream(50, 0).normal(0.0, 3.0, size=d)
        p = ProblemInstance(d, 1, TwoSided(1.0))
        got = apply_selector(spec_for_kind("universal", p), x, p)
        want = _select(Threshold(universal_threshold(d), two_sided=True), x)
        assert got == want

    def test_all_noise_usually_empty(self):
        # the universal level is chosen so pure noise rarely crosses it
        x = rng_stream(51, 0).standard_normal(1000)
        p = ProblemInstance(1000, 1, TwoSided(1.0))
        assert len(apply_selector(spec_for_kind("universal", p), x, p).indices()) <= 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            p = ProblemInstance(3, 1, TwoSided(1.0))
            apply_selector(spec_for_kind("universal", p), [1.0, 2.0], p)


class TestAdaptive:
    def test_grid(self):
        assert adaptive_plan(64, 16).grid == [1, 2, 4, 8, 16]
        assert adaptive_plan(64, 2).grid == [1, 2]
        assert adaptive_plan(80, 20).grid == [1, 2, 4, 8, 16]

    def test_quiet_data_picks_smallest_block(self):
        res = adaptive_selector(np.zeros(64), 16)
        assert res.diagnostics["chosen_m"] == 2
        assert len(res.support.indices()) == 0
        w2 = math.sqrt(2.0 * math.log((64 - 2) / 2))
        assert res.diagnostics["threshold_used"] == w2

    def test_saturated_bands_fall_back_to_largest_block(self):
        """g_k entries in the middle of each band k overfill it, since tau < 1."""
        d, s_star = 64, 16
        grid, w, tau = adaptive_plan(d, s_star)
        assert tau < 1.0
        x = np.zeros(d)
        x[: sum(grid[1:])] = np.repeat([(w[k] + w[k - 1]) / 2.0 for k in range(1, len(w))], grid[1:])
        res = adaptive_selector(x, s_star)
        assert res.diagnostics["chosen_m"] == len(grid)
        assert list(res.diagnostics["block_counts"].values()) == grid[1:]

    def test_threshold_always_on_grid(self):
        rng = rng_stream(53, 0)
        for _ in range(10):
            x = rng.normal(0.0, 2.0, size=128)
            diag = adaptive_selector(x, 32).diagnostics
            assert diag["threshold_used"] in diag["thresholds"]
            # bench/workloads.py checks the cli workload's adaptive select against this key
            assert diag["threshold_used"] == diag["thresholds"][diag["chosen_m"] - 1]

    def test_diagnostics_content(self):
        res = adaptive_selector(np.zeros(40), 10)
        diag = res.diagnostics
        assert diag["grid"] == [1, 2, 4, 8]
        assert_allclose(diag["tau"], math.log(3.0) ** (-1.0 / 7.0), rtol=1e-15)
        assert sorted(diag["block_counts"]) == [2, 3, 4]
        assert diag["thresholds"][0] == math.sqrt(2.0 * math.log(39.0))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            adaptive_selector(np.zeros(64), 1)
        with pytest.raises(ValueError):
            adaptive_selector(np.zeros(30), 8)
        with pytest.raises(TypeError):  # s_star is an integer, as in Adaptive
            adaptive_selector(np.zeros(64), 4.5)
        x = np.linspace(-4.0, 4.0, 64)
        assert adaptive_selector(x, np.int64(16)) == adaptive_selector(x, 16)


class TestThresholdMonotonicity:
    def test_one_sided_nesting(self):
        """Raising the threshold can only shrink the selection."""
        x = rng_stream(54, 0).normal(0.0, 2.0, size=100)
        prev = None
        for t in np.linspace(-3.0, 3.0, 13):
            cur = _select(Threshold(float(t)), x)
            if prev is not None:
                assert not (cur.bits & ~prev.bits).any()
            prev = cur

    def test_two_sided_nesting(self):
        x = rng_stream(55, 0).normal(0.0, 2.0, size=100)
        prev = None
        for t in np.linspace(0.0, 4.0, 9):
            cur = _select(Threshold(float(t), two_sided=True), x)
            if prev is not None:
                assert not (cur.bits & ~prev.bits).any()
            prev = cur

    def test_minimax_threshold_monotone_in_sparsity(self):
        # more allowed signals -> lower cut
        ts = [minimax_threshold(100, s, 2.0) for s in range(1, 50)]
        assert all(b < a for a, b in zip(ts, ts[1:]))


class TestSpecForKind:
    def test_kind_list(self):
        assert SELECTOR_KINDS == (
            "plus",
            "two-sided",
            "cosh",
            "llr",
            "tops",
            "universal",
            "adaptive",
        )

    def test_plus(self):
        p = ProblemInstance(d=20, s=4, signal=LowerBound(2.0))
        assert spec_for_kind("plus", p) == Threshold(minimax_threshold(20, 4, 2.0))

    def test_two_sided_clamps_at_zero(self):
        p = ProblemInstance(d=5, s=4, signal=TwoSided(1.0))
        assert spec_for_kind("two-sided", p) == Threshold(0.0, two_sided=True)

    def test_cosh(self):
        p = ProblemInstance(d=20, s=4, signal=TwoSided(2.0))
        spec = spec_for_kind("cosh", p)
        assert spec.two_sided
        assert spec.t == cosh_threshold(20, 4, 2.0)

    def test_llr(self):
        p = ProblemInstance(d=20, s=4, signal=Interval(1.0, 2.0))
        assert spec_for_kind("llr", p) == Threshold(llr_threshold(Family.GAUSSIAN, 20, 4, 1.0, 2.0))

    @pytest.mark.parametrize(
        "d, s, a, sigma",
        [(200, 10, 5.837869, 1.0), (20, 4, 2.0, 1.0), (1000, 3, 0.7, 2.5), (9, 8, 0.3, 0.4)]
        + [(200, 10, float(a), 1.0) for a in np.random.default_rng(6).uniform(0.5, 8.0, 40)],
    )
    def test_cut_is_the_public_threshold_bit_for_bit(self, d, s, a, sigma):
        """spec_for_kind computes every thresholded kind's cut through the
        public threshold function, so the engine and the selectors cut at
        the same float (at d=200, s=10, a=5.837869 a second formula for the
        cosh cut lands one ulp away)."""
        lower = ProblemInstance(d, s, LowerBound(a), sigma=sigma)
        two = ProblemInstance(d, s, TwoSided(a), sigma=sigma)
        interval = ProblemInstance(d, s, Interval(-0.5, a), sigma=sigma)
        poisson = ProblemInstance(d, s, Interval(a, 2.0 * a), family=Family.POISSON)
        t = minimax_threshold(d, s, a, sigma)
        want = [
            (spec_for_kind("plus", lower), Threshold(t)),
            (spec_for_kind("two-sided", two), Threshold(max(t, 0.0), two_sided=True)),
            (spec_for_kind("cosh", two), Threshold(cosh_threshold(d, s, a, sigma), two_sided=True)),
            (spec_for_kind("cosh", lower), Threshold(cosh_threshold(d, s, a, sigma), two_sided=True)),
            (spec_for_kind("llr", lower), Threshold(llr_threshold(Family.GAUSSIAN, d, s, 0.0, a, sigma))),
            (spec_for_kind("llr", interval), Threshold(llr_threshold(Family.GAUSSIAN, d, s, -0.5, a, sigma))),
            (spec_for_kind("llr", poisson), Threshold(llr_threshold(Family.POISSON, d, s, a, 2.0 * a))),
            (spec_for_kind("universal", two), Threshold(universal_threshold(d, sigma), two_sided=True)),
        ]
        for got, expected in want:
            assert got == expected

    def test_tops_sidedness_follows_signal(self):
        plus = ProblemInstance(d=20, s=4, signal=LowerBound(2.0))
        sym = ProblemInstance(d=20, s=4, signal=TwoSided(2.0))
        assert spec_for_kind("tops", plus) == TopS(4, one_sided=True)
        assert spec_for_kind("tops", sym) == TopS(4, one_sided=False)

    def test_universal(self):
        p = ProblemInstance(d=20, s=4, signal=TwoSided(2.0))
        assert spec_for_kind("universal", p) == Threshold(universal_threshold(20), two_sided=True)

    def test_adaptive_needs_s_star(self):
        p = ProblemInstance(d=64, s=4, signal=TwoSided(2.0))
        spec = spec_for_kind("adaptive", p, s_star=8)
        assert spec == Adaptive(8)
        with pytest.raises(ValueError):
            spec_for_kind("adaptive", p)

    def test_unknown_kind(self):
        p = ProblemInstance(d=20, s=4, signal=LowerBound(2.0))
        with pytest.raises(ValueError):
            spec_for_kind("argmax", p)

    def test_unknown_spec_type_is_rejected(self):
        for spec in ("plus", LowerBound(2.0), None):
            with pytest.raises(TypeError, match="unknown selector spec"):
                resolve_selector(spec, 20)

    def test_threshold_kinds_need_threshold_signal(self):
        p = ProblemInstance(d=20, s=4, signal=Interval(1.0, 2.0))
        with pytest.raises(ValueError):
            spec_for_kind("plus", p)
        with pytest.raises(ValueError):
            spec_for_kind("cosh", p)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _threshold_cases(draw):
    """(spec, x): random x salted with values on the cut, one ulp either side
    of it, its negation and both zeros."""
    two_sided = draw(st.booleans())
    t = draw(_FINITE | st.sampled_from([0.0, -0.0, 5e-324, 1.0]))
    if two_sided:
        t = abs(t)
    near = [t, -t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf), 0.0, -0.0]
    near = [v for v in near if math.isfinite(v)]
    x = draw(st.lists(_FINITE | st.sampled_from(near), min_size=2, max_size=40))
    return Threshold(t, two_sided=two_sided), x


class TestThresholdProperty:
    """Threshold against its literal selection event, coordinate by coordinate."""

    @settings(max_examples=200)
    @given(case=_threshold_cases())
    def test_selects_exactly_the_literal_event(self, case):
        spec, x = case
        p = ProblemInstance(len(x), 1, LowerBound(1.0))
        assert apply_selector(spec, x, p).bits.tolist() == selection_rule(spec, x)[0]

    def test_cut_must_be_finite_and_two_sided_nonnegative(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                Threshold(bad)
            with pytest.raises(ValueError, match="finite"):
                Threshold(bad, two_sided=True)
        with pytest.raises(ValueError, match=">= 0"):
            Threshold(-1e-300, two_sided=True)
        assert Threshold(-1e300).t == -1e300
        assert Threshold(-0.0, two_sided=True).t == 0.0


@pytest.mark.parametrize("case", selection_cases().values(), ids=lambda case: case.name)
def test_every_case_selects_as_its_rule_reads(case):
    """Each checked case of oracles.selection_cases, row by row through
    select_row (diagnostics included), and as a block through
    resolve_selector, whole and in the engine's strided z[:, 1:] layout,
    against selection_rule."""
    spec, family, sigma, rows = case.spec, case.family, case.sigma, case.rows
    d = rows.shape[1]
    want = [selection_rule(spec, row, sigma) for row in rows]
    for row, (bits, diagnostics) in zip(rows, want):
        got = select_row(spec, row, d, family, sigma)
        assert (got.support.bits.tolist(), got.diagnostics) == (bits, diagnostics)
    z = np.zeros((len(rows), d + 1))
    z[:, 1:] = rows
    for block in (rows.copy(), z[:, 1:]):
        out = np.empty(block.shape, dtype=bool)
        handed = resolve_selector(spec, d, family, sigma)(len(block))(block, out)
        assert out.tolist() == [bits for bits, _ in want]
        if isinstance(spec, Adaptive):
            _, chosen, counts = handed
            assert chosen.tolist() == [diagnostics["chosen_m"] for _, diagnostics in want]
            assert [dict(enumerate(c, start=2)) for c in counts.tolist()] == [
                diagnostics["block_counts"] for _, diagnostics in want
            ]


class TestSelectionCores:
    """The O(d) cores on what the selection table does not cover."""

    def test_observations_are_never_written(self):
        """The selectors take |x| in place only on a block the engine owns:
        every spec kind of both sidednesses through apply_selector, and
        cosh_selector, adaptive_selector and the block cores leave the
        caller's observations as they were."""
        rng = rng_stream(59, 0)
        d, s, s_star = 64, 4, 8
        x = rng.normal(0.0, 2.0, size=d)
        x[:6] = [-5.0, -3.0, -2.5, -2.5, -0.0, -1.0]  # |x| in place would change these
        block = np.array([x, -x, x[::-1]])
        want, want_block = x.copy(), block.copy()
        specs = []
        for signal in (LowerBound(2.0), TwoSided(2.0)):
            p = ProblemInstance(d, s, signal)
            kinds = [k for k in SELECTOR_KINDS if not (k == "llr" and isinstance(signal, TwoSided))]
            specs += [(spec_for_kind(k, p, s_star=s_star), p) for k in kinds]
        p = ProblemInstance(d, s, LowerBound(2.0))
        specs += [(spec, p) for spec in (Threshold(1.0), Threshold(1.0, two_sided=True))]
        specs += [(TopS(s, one_sided), p) for one_sided in (True, False)]
        for spec, p in specs:
            apply_selector(spec, x, p)
        cosh_selector(x, d, s, 2.0)
        adaptive_selector(x, s_star)
        plan = adaptive_plan(d, s_star)
        adaptive_into(block, plan, np.empty(block.shape, dtype=bool))
        _top_s(block, s)
        assert_array_equal(x, want)
        assert_array_equal(np.signbit(x), np.signbit(want))
        assert_array_equal(block, want_block)
        assert_array_equal(np.signbit(block), np.signbit(want_block))

    def test_row_counts(self):
        """row_counts equals a count_nonzero per row on random blocks, on
        all-True rows either side of the switch to a uint32 sum at d = 2^16,
        on one-row blocks and on column-strided views."""
        rng = rng_stream(58, 0)
        blocks = [rng.random((rows, d)) < 0.3 for rows, d in
                  ((1, 5), (3, 2000), (7, 10), (8, 10), (40, 1023), (9, 1024), (1, 50_000))]
        blocks += [np.ones((rows, d), dtype=bool) for rows in (1, 2) for d in (2**16 - 1, 2**16)]
        blocks += [blocks[4][:, ::2], blocks[1][:, 1::3]]
        for bits in blocks:
            got = row_counts(bits)
            assert got.dtype == np.intp
            assert_array_equal(got, [np.count_nonzero(b) for b in bits])


@st.composite
def _adaptive_blocks(draw):
    """(block, s_star): B = 1..6 rows of Gaussian noise at a drawn spread,
    each with a drawn share of coordinates moved onto a band cut or one
    ulp either side of it, with either sign."""
    s_star = draw(st.integers(2, 40))
    d = 4 * s_star + draw(st.integers(0, 60))
    w = adaptive_plan(d, s_star).thresholds
    near = [v for t in w for v in (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(0.0, draw(st.floats(0.25, 4.0)), size=d)
        on_cut = rng.random(d) < draw(st.floats(0.0, 0.6))
        x[on_cut] = rng.choice(near, size=on_cut.sum()) * rng.choice([-1.0, 1.0], size=on_cut.sum())
        rows.append(x)
    return np.array(rows), s_star


class TestAdaptiveBlockProperty:
    """The adaptive block core against the per-row rule, row by row."""

    @settings(max_examples=200)
    @given(case=_adaptive_blocks())
    @example(case=(np.zeros((1, 8)), 2))  # M = 2, which no table case can pick below
    def test_block_core_matches_the_rule(self, case):
        block, s_star = case
        plan = adaptive_plan(block.shape[1], s_star)
        bits = np.empty(block.shape, dtype=bool)
        chosen, counts = adaptive_into(np.abs(block), plan, bits)
        for r, row in enumerate(block):
            want_bits, diagnostics = selection_rule(Adaptive(s_star), row)
            assert bits[r].tolist() == want_bits
            assert chosen[r] == diagnostics["chosen_m"]
            assert dict(enumerate(counts[r].tolist(), start=2)) == diagnostics["block_counts"]
