"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (run with -s to see them) and
then asserts, so a failing criterion is visible both in the line and in
the pytest report.  Tolerances are fixed: closed-form comparisons allow
1e-12 of slack, Monte Carlo comparisons use the stated multiple of the
estimated standard error, and the timed criteria enforce their wall-time
budgets with perf_counter.  All seeds are frozen; every Monte Carlo
number below reproduces bitwise on rerun.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from hamsel.model import (
    Family,
    LossKind,
    LowerBound,
    ProblemInstance,
    TwoSided,
    _check_d_s,
)
from hamsel.numkit import gaussian_cdf
from hamsel.risk import (
    _two_sided_cut,
    a0_adaptive,
    adaptive_A_min,
    phase_point,
    psi_bar,
    psi_crowd,
    psi_general,
    psi_plus,
    psi_two_sided,
    threshold_risk,
    wrong_recovery_bounds,
)
from hamsel.selectors import llr_threshold, spec_for_kind
from hamsel.simulate import MCConfig, estimate_risk
from oracles import gaussian_tail_bounds, psi_bar_printed_mc, psi_crowd_mc, top_s_risk

_R = 100_000


def _report(
    num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float | None = None
) -> bool:
    """Print the criterion's PASS/FAIL line, ending in its elapsed wall time
    and, for a timed criterion, its budget."""
    status = "PASS" if ok else "FAIL"
    took = f"{elapsed:.3f}s" + ("" if budget is None else f" of a {budget:g}s budget")
    print(f"criterion {num:02d} [{status}] {name}: {detail}, {took}")
    return ok


def test_criterion_01_one_sided_minimax_identity():
    # The one-sided selector at its closed-form threshold attains s*PsiPlus
    # exactly under the uniform boundary prior, so the MC estimate has to
    # sit within sampling error of the closed form.
    p = ProblemInstance(d=200, s=10, signal=LowerBound(3.0))
    want = 10.0 * psi_plus(200, 10, 3.0)
    budget = 10.0
    start = time.perf_counter()
    rep = estimate_risk(
        p, spec_for_kind("plus", p), MCConfig(replications=_R, seed=101)
    )
    elapsed = time.perf_counter() - start
    z = (rep.mc_estimate - want) / rep.mc_stderr
    ok = abs(z) <= 3.0 and elapsed < budget
    detail = f"estimate={rep.mc_estimate:.4f}, target={want:.4f}, z={z:+.2f}"
    assert _report(1, "one-sided minimax identity (200,10,3)", ok, detail, elapsed, budget)


def test_criterion_02_two_sided_exact_identity():
    start = time.perf_counter()
    p = ProblemInstance(d=200, s=10, signal=TwoSided(3.0))
    want = 10.0 * psi_bar(200, 10, 3.0)
    rep = estimate_risk(p, spec_for_kind("cosh", p), MCConfig(replications=_R, seed=102))
    z_sel = (rep.mc_estimate - want) / rep.mc_stderr

    # Independent check of the arccosh reduction: evaluate the defining
    # log-cosh expectation directly and compare to the closed form.
    mean, se = psi_bar_printed_mc(200, 10, 3.0, draws=10_000_000, seed=0)
    z_form = (mean - psi_bar(200, 10, 3.0)) / se

    ok = abs(z_sel) <= 3.0 and abs(z_form) <= 4.0
    detail = f"selector z={z_sel:+.2f}, log-cosh MC z={z_form:+.2f}"
    elapsed = time.perf_counter() - start
    assert _report(2, "two-sided exact identity (200,10,3)", ok, detail, elapsed)


def test_criterion_03_sandwich_ordering():
    start = time.perf_counter()
    cells = 0
    worst = 0.0
    for d in (10, 100, 1000):
        for s in sorted({1, d // 10, d // 3}):
            for a in (0.5, 1.0, 2.0, 4.0, 8.0):
                chain = (
                    psi_plus(d, s, a),
                    psi_bar(d, s, a),
                    2.0 * psi_two_sided(d, s, a),
                    2.0 * psi_plus(d, s, a),
                )
                cells += 1
                for lhs, rhs in zip(chain, chain[1:]):
                    worst = max(worst, lhs - rhs)
    ordered = worst <= 1e-12

    # Spot-check PsiBar against the direct log-cosh MC at three grid points.
    zs = []
    for d, s, a, seed in ((10, 1, 1.0, 303), (100, 10, 2.0, 301), (1000, 333, 0.5, 302)):
        mean, se = psi_bar_printed_mc(d, s, a, draws=1_000_000, seed=seed)
        zs.append((mean - psi_bar(d, s, a)) / se)
    mc_ok = max(abs(z) for z in zs) <= 4.0

    ok = ordered and mc_ok
    detail = (
        f"{cells} cells, worst ordering slack={worst:.1e}, "
        f"spot |z| max={max(abs(z) for z in zs):.2f}"
    )
    elapsed = time.perf_counter() - start
    assert _report(3, "risk sandwich PsiPlus <= PsiBar <= 2 Psi <= 2 PsiPlus", ok, detail, elapsed)


def test_criterion_04_tail_bound_bracketing():
    budget = 1.0
    start = time.perf_counter()
    violations = 0
    for k in range(3701):
        y = k * 0.01
        tail = gaussian_cdf(-y)
        lower, upper = gaussian_tail_bounds(y)
        if not (lower < tail <= upper):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < budget
    detail = f"3701 points on [0, 37], violations={violations}"
    assert _report(4, "tail bounds bracket the Gaussian tail", ok, detail, elapsed, budget)


def test_criterion_05_bayes_floor_all_selectors():
    # No selector can beat the exact Bayes risk of the boundary prior, the
    # risk of the class's minimax rule; the optimal one sits on the floor
    # and the rest stay above it.  Top-s, which has no closed form, is also
    # held to its quadrature value.
    start = time.perf_counter()
    p = ProblemInstance(d=200, s=10, signal=LowerBound(3.0))
    floor = threshold_risk(p, "plus")
    kinds = ("plus", "two-sided", "cosh", "tops", "universal", "adaptive")
    worst_kind = None
    worst_margin = math.inf
    all_passed = True
    for kind in kinds:
        spec = spec_for_kind(kind, p, s_star=50 if kind == "adaptive" else None)
        rep = estimate_risk(p, spec, MCConfig(replications=_R, seed=501))
        margin = (rep.mc_estimate - floor) / rep.mc_stderr
        if margin < worst_margin:
            worst_kind, worst_margin = kind, margin
        all_passed = all_passed and rep.mc_estimate >= floor - 3.0 * rep.mc_stderr
        if kind == "tops":
            z_tops = (rep.mc_estimate - top_s_risk(200, 10, 3.0)) / rep.mc_stderr
    ok = all_passed and abs(z_tops) <= 4.0
    detail = (
        f"6 selectors, tightest={worst_kind} at {worst_margin:+.2f} SE above floor, "
        f"top-s z={z_tops:+.2f} against its exact risk"
    )
    elapsed = time.perf_counter() - start
    assert _report(5, "uniform-prior risk never beats the Bayes floor", ok, detail, elapsed)


def test_criterion_06_correlation_invariance():
    # Equicorrelated noise leaves the selector's risk unchanged because
    # each coordinate's marginal law is the same.
    start = time.perf_counter()
    p = ProblemInstance(d=200, s=10, signal=LowerBound(3.0))
    reps = [
        estimate_risk(
            p, spec_for_kind("plus", p), MCConfig(replications=_R, seed=601, rho=rho)
        )
        for rho in (0.0, 0.5, 0.9)
    ]
    z_max = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            se = math.hypot(reps[i].mc_stderr, reps[j].mc_stderr)
            z_max = max(z_max, abs(reps[i].mc_estimate - reps[j].mc_estimate) / se)
    ok = z_max <= 3.0
    detail = f"rho in (0, 0.5, 0.9), max pairwise z={z_max:.2f}"
    elapsed = time.perf_counter() - start
    assert _report(6, "risk is invariant to equicorrelation", ok, detail, elapsed)


def test_criterion_07_wrong_recovery_window():
    start = time.perf_counter()
    pp = phase_point(500, 5)
    assert_allclose(pp.a_exact, 5.316780030136926, rtol=1e-12)
    b = wrong_recovery_bounds(500, 5, pp.a_exact)
    assert_allclose(b.upper_plus, 0.28772670124651034, rtol=1e-12)

    p = ProblemInstance(d=500, s=5, signal=LowerBound(pp.a_exact))
    rep = estimate_risk(
        p,
        spec_for_kind("plus", p),
        MCConfig(replications=_R, seed=701, loss_kind=LossKind.WRONG_RECOVERY),
    )
    lo = b.lower_plus - 3.0 * rep.mc_stderr
    hi = b.upper_plus + 3.0 * rep.mc_stderr
    ok = lo <= rep.mc_estimate <= hi
    detail = f"P(miss)={rep.mc_estimate:.4f} inside [{lo:.4f}, {hi:.4f}]"
    elapsed = time.perf_counter() - start
    assert _report(7, "wrong-recovery probability sits in its window", ok, detail, elapsed)


def test_criterion_08_phase_floor_at_boundary():
    # At a = sigma sqrt(2 log(d/s - 1)) the second term of PsiPlus is
    # Phi(0), so the normalized risk cannot drop below one half.
    start = time.perf_counter()
    a = math.sqrt(2.0 * math.log(100.0))
    closed = psi_plus(101, 1, a)
    assert_allclose(closed, 0.6203259729411379, rtol=1e-13)

    p = ProblemInstance(d=101, s=1, signal=LowerBound(a))
    rep = estimate_risk(
        p,
        spec_for_kind("plus", p),
        MCConfig(replications=_R, seed=801, loss_kind=LossKind.NORMALIZED_HAMMING),
    )
    ok = closed >= 0.5 and rep.mc_estimate >= 0.5 - 3.0 * rep.mc_stderr
    detail = f"closed form={closed:.4f} >= 0.5, MC={rep.mc_estimate:.4f}"
    elapsed = time.perf_counter() - start
    assert _report(8, "normalized risk floor of 1/2 at the boundary", ok, detail, elapsed)


def test_criterion_09_exact_recovery_trend():
    # Above the exact-recovery boundary the universal threshold's failure
    # probability falls as d grows, without using s or a.
    budget = 120.0
    start = time.perf_counter()
    estimates = []
    for d in (100, 1000, 10_000):
        s = math.ceil(math.sqrt(d))
        pp = phase_point(d, s)
        p = ProblemInstance(d=d, s=s, signal=TwoSided(pp.a_exact))
        rep = estimate_risk(
            p,
            spec_for_kind("universal", p),
            MCConfig(replications=10_000, seed=901, loss_kind=LossKind.WRONG_RECOVERY),
        )
        estimates.append(rep.mc_estimate)
    elapsed = time.perf_counter() - start
    ok = estimates[0] > estimates[1] > estimates[2] and elapsed < budget
    detail = f"P(miss)={estimates[0]:.4f} > {estimates[1]:.4f} > {estimates[2]:.4f}"
    assert _report(9, "universal threshold failure rate falls with d", ok, detail, elapsed, budget)


def test_criterion_10_adaptive_almost_full_recovery():
    # The data-driven threshold must track the oracle two-sided threshold
    # that knows s (within a constant factor and additive slack), and its
    # normalized risk must improve as d grows under the same s rule.  The
    # oracle's normalized risk is exact: Psi of |x| >= a0_adaptive(d, s, 0).
    start = time.perf_counter()
    results = []
    for s in (4, 16, 64):
        a_big = a0_adaptive(10_000, s, adaptive_A_min(10_000, 64))
        p_big = ProblemInstance(d=10_000, s=s, signal=TwoSided(a_big))
        mc = MCConfig(replications=10_000, seed=1001, loss_kind=LossKind.NORMALIZED_HAMMING)
        adaptive = estimate_risk(
            p_big, spec_for_kind("adaptive", p_big, s_star=64), mc
        )
        oracle = _two_sided_cut(_check_d_s(10_000, s), a0_adaptive(10_000, s, 0.0), a_big)
        a_small = a0_adaptive(1_000, s, adaptive_A_min(1_000, 64))
        p_small = ProblemInstance(d=1_000, s=s, signal=TwoSided(a_small))
        smaller = estimate_risk(
            p_small, spec_for_kind("adaptive", p_small, s_star=64), mc
        )
        results.append((s, adaptive.mc_estimate, oracle, smaller.mc_estimate))

    tracks = all(ad <= 3.0 * orc + 0.05 for _, ad, orc, _ in results)
    improves = all(ad <= small for _, ad, _, small in results)
    ok = tracks and improves
    parts = ", ".join(
        f"s={s}: {ad:.4f} vs bound {3.0 * orc + 0.05:.4f}, d=1e3 gives {small:.4f}"
        for s, ad, orc, small in results
    )
    elapsed = time.perf_counter() - start
    assert _report(10, "adaptive threshold reaches almost full recovery", ok, parts, elapsed)


def test_criterion_11_crowd_enumeration_vs_mc():
    start = time.perf_counter()
    rng = np.random.default_rng(1100)
    mc_seeds = {1: 1101, 2: 1102, 3: 1113, 8: 1108}
    z_max = 0.0
    single_exact = False
    for m in (1, 2, 3, 8):
        a0s = rng.uniform(0.05, 0.45, size=m)
        a1s = rng.uniform(0.55, 0.95, size=m)
        rates = tuple((float(a0s[i]), float(a1s[i])) for i in range(m))
        exact = psi_crowd(rates, 8, 3)
        mean, stderr = psi_crowd_mc(rates, 8, 3, replications=400_000, seed=mc_seeds[m])
        z_max = max(z_max, abs(mean - exact) / stderr)
        if m == 1:
            single_exact = exact == psi_general(
                Family.BERNOULLI, 8, 3, rates[0][0], rates[0][1]
            )
    ok = z_max <= 3.0 and single_exact
    detail = f"m in (1,2,3,8), max |z|={z_max:.2f}, m=1 matches piecewise exactly"
    elapsed = time.perf_counter() - start
    assert _report(11, "crowd risk enumeration agrees with MC", ok, detail, elapsed)


def test_criterion_12_bernoulli_piecewise_enumeration():
    # Exhaustive two-atom enumeration of the Bayes risk; masses are summed
    # per side before scaling so the arithmetic matches the closed form.
    start = time.perf_counter()
    def atom_risk(d, s, a0, a1, t):
        miss = 0.0
        false = 0.0
        for x in (0, 1):
            if x >= t:
                false += a0 if x == 1 else 1.0 - a0
            else:
                miss += a1 if x == 1 else 1.0 - a1
        return miss + false * ((d - s) / s)

    rng = np.random.default_rng(1200)
    need = 50
    checked = {"low": 0, "mid": 0, "high": 0}
    mismatches = 0
    draws = 0
    while min(checked.values()) < need and draws < 100_000:
        draws += 1
        if checked["low"] < need and draws % 2 == 0:
            # t <= 0 needs a dense instance, (d-s)/s below (1-a1)/(1-a0)
            d = int(rng.integers(5, 9))
            s = d - 1
            a0 = float(rng.uniform(0.02, 0.3))
            a1 = float(rng.uniform(a0 + 0.05, 0.9))
        else:
            d = int(rng.integers(3, 120))
            s = int(rng.integers(1, d))
            a0 = float(rng.uniform(0.02, 0.6))
            a1 = float(rng.uniform(a0 + 1e-3, 0.98))
        t = llr_threshold(Family.BERNOULLI, d, s, a0, a1)
        if t == 1.0:
            continue  # selection and the printed piecewise split at the knot
        branch = "low" if t <= 0.0 else ("mid" if t < 1.0 else "high")
        if checked[branch] >= need:
            continue
        if psi_general(Family.BERNOULLI, d, s, a0, a1) != atom_risk(d, s, a0, a1, t):
            mismatches += 1
        checked[branch] += 1
    ok = mismatches == 0 and min(checked.values()) >= need
    detail = (
        f"50 draws per branch in {draws} proposals, exact mismatches={mismatches}"
    )
    elapsed = time.perf_counter() - start
    assert _report(12, "Bernoulli piecewise risk matches atom enumeration", ok, detail, elapsed)
