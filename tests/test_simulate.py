"""Monte Carlo engine tests.

Determinism is the backbone: every estimate is a pure function of
(instance, selector, config, stream offset), independent of worker count,
and each replication can be reproduced in isolation from its stream index.
"""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from hamsel import simulate
from hamsel.model import (
    Adaptive,
    Family,
    Interval,
    LossKind,
    LowerBound,
    ProblemInstance,
    SupportVector,
    Threshold,
    TopS,
    TwoSided,
    hamming_distance,
    least_favorable_draw,
    rng_stream,
    uniform_support,
)
from hamsel.numkit import POISSON_RATE_MAX, gaussian_cdf
from hamsel.risk import phase_point, psi_bar, psi_general, psi_plus, threshold_risk
from hamsel.selectors import (
    check_observations,
    cosh_threshold,
    llr_threshold,
    minimax_threshold,
    resolve_selector,
    select_row,
    spec_for_kind,
)
from hamsel.simulate import (
    MAX_REPLICATIONS,
    MCConfig,
    _block_layout,
    _stream_rekeyer,
    apply_selector,
    estimate_risk,
    generate_family,
    generate_gaussian,
    phase_sweep,
)
from oracles import psi_bar_printed_mc, replay_reduction, threshold_loss_moments, top_s_risk


@contextmanager
def _workers(n):
    """estimate_risk splits every run of n or more replications over n
    processes, the calling one and n - 1 workers, whatever its size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "SHARE_MIN_WORK", 1)
        mp.setattr(simulate, "_usable_cpus", lambda: n)
        yield


class _ThreadWorker(simulate._Worker):
    """Stands in for a worker process: serves its connection from a thread,
    which ends when the caller's end closes."""

    pid = None

    def __init__(self):
        self.conn, child = multiprocessing.Pipe()
        self.alive, self.exitcode = True, None
        self.thread = threading.Thread(target=lambda: (simulate._serve(child), child.close()))
        self.thread.start()

    def exited(self, wait=False):
        if wait:
            self.thread.join()
        return not self.thread.is_alive()

    def stop(self):
        self.conn.close()
        self.thread.join()


@pytest.fixture
def thread_workers(monkeypatch):
    """Workers are threads running simulate._serve, started in a pool of
    their own; returns the list of those started.  The usable CPU count can
    then be faked as high as a test needs without starting a process."""
    started = []

    class Started(_ThreadWorker):
        def __init__(self):
            super().__init__()
            started.append(self)

    monkeypatch.setattr(simulate, "_pool", [])
    monkeypatch.setattr(simulate, "_Worker", Started)
    yield started
    simulate._stop_workers(list(simulate._pool))


@pytest.fixture
def no_pooled_workers():
    """Stops the worker processes earlier runs left, so that a test forks
    its own and at most one is alive at a time."""
    simulate._stop_workers(list(simulate._pool))
    yield
    simulate._stop_workers(list(simulate._pool))


def _plus_instance(d=200, s=10, a=3.0):
    return ProblemInstance(d=d, s=s, signal=LowerBound(a))


def _plus_spec(p):
    return Threshold(minimax_threshold(p.d, p.s, p.signal.a, p.sigma))


class TestMCConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MCConfig(replications=0, seed=1)
        with pytest.raises(ValueError):
            MCConfig(replications=10, seed=-1)
        with pytest.raises(ValueError):
            MCConfig(replications=10, seed=2**64)
        with pytest.raises(ValueError):
            MCConfig(replications=10, seed=1, rho=1.0)
        with pytest.raises(ValueError):
            MCConfig(replications=10, seed=1, rho=-0.1)

    def test_rho_and_seed_messages(self):
        """The rho and seed checks are the ones generate_gaussian and
        rng_stream run, with the same messages."""
        with pytest.raises(ValueError, match=r"^need rho in \[0,1\), got 1\.0$"):
            MCConfig(replications=10, seed=1, rho=1.0)
        with pytest.raises(ValueError, match=r"^seed must be a 64-bit unsigned integer, got -1$"):
            MCConfig(replications=10, seed=-1)

    def test_run_keys_are_integers(self):
        """Seed and replications are taken as integers: a float seed would
        run another seed's streams while the report echoed the float, so
        it is refused like a float count; numpy integers are stored as the
        ints they hold."""
        for reps, seed in ((500, 1.7), (500, 1.0), (500.5, 1), (500.0, 1)):
            with pytest.raises(TypeError):
                MCConfig(replications=reps, seed=seed)
        cfg = MCConfig(replications=np.int64(500), seed=np.uint64(2**64 - 1))
        assert (type(cfg.replications), type(cfg.seed)) == (int, int)
        assert (cfg.replications, cfg.seed) == (500, 2**64 - 1)
        p = _plus_instance()
        report = estimate_risk(p, _plus_spec(p), MCConfig(np.int32(500), np.uint64(1)))
        assert (report.mc_estimate, report.seed, type(report.seed)) == (4.204, 1, int)

    def test_loss_kind_coercion(self):
        cfg = MCConfig(replications=10, seed=1, loss_kind="normalized-hamming")
        assert cfg.loss_kind is LossKind.NORMALIZED_HAMMING


class TestGenerateGaussian:
    def test_moments(self):
        rng = rng_stream(20260819, 1)
        x = generate_gaussian(np.zeros(1_000_000), 1.7, 0.0, rng)
        assert abs(x.var() - 1.7**2) < 0.01 * 1.7**2
        assert abs(x.mean()) < 3.0 * 1.7 / 1000.0

    def test_pairwise_correlation(self):
        rng = rng_stream(20260819, 2)
        draws = np.array(
            [generate_gaussian(np.zeros(2), 1.0, 0.5, rng) for _ in range(100_000)]
        )
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr - 0.5) < 0.01

    def test_rho_zero_is_iid_bitwise(self):
        """rho = 0 consumes Z0 but adds exactly 0.0 of it."""
        theta = np.arange(5.0)
        x = generate_gaussian(theta, 2.0, 0.0, rng_stream(3, 3))
        rng = rng_stream(3, 3)
        rng.standard_normal()  # the factor draw
        want = theta + 2.0 * rng.standard_normal(5)
        assert_array_equal(x, want)

    def test_validation(self):
        rng = rng_stream(3, 4)
        with pytest.raises(ValueError):
            generate_gaussian([], 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            generate_gaussian([1.0], 0.0, 0.0, rng)
        with pytest.raises(ValueError):
            generate_gaussian([1.0], 1.0, 1.0, rng)
        with pytest.raises(ValueError):
            generate_gaussian([float("inf")], 1.0, 0.0, rng)
        with pytest.raises(ValueError, match=r"^need rho in \[0,1\), got -0\.1$"):
            generate_gaussian([1.0], 1.0, -0.1, rng)


class TestGenerateFamily:
    def test_bernoulli_rates(self):
        eta = SupportVector([1] * 500 + [0] * 1500)
        rng = rng_stream(20260819, 3)
        x = generate_family(eta, Family.BERNOULLI, 0.05, 0.95, rng)
        assert set(np.unique(x)) <= {0.0, 1.0}
        on = x[:500].mean()
        off = x[500:].mean()
        assert abs(on - 0.95) < 3.0 * math.sqrt(0.95 * 0.05 / 500)
        assert abs(off - 0.05) < 3.0 * math.sqrt(0.95 * 0.05 / 1500)

    def test_poisson_means(self):
        eta = SupportVector([1] * 1000 + [0] * 1000)
        rng = rng_stream(20260819, 4)
        x = generate_family(eta, Family.POISSON, 1.0, 6.0, rng)
        assert (x >= 0).all()
        assert (x == np.floor(x)).all()
        assert abs(x[:1000].mean() - 6.0) < 3.0 * math.sqrt(6.0 / 1000)
        assert abs(x[1000:].mean() - 1.0) < 3.0 * math.sqrt(1.0 / 1000)

    def test_poisson_counts_have_poisson_variance(self):
        """On the support a count is Poisson(a0) plus Poisson(a1 - a0):
        variance a1, as for a Poisson(a1) draw, not a1 - a0 or a0."""
        n = 20_000
        eta = SupportVector([1] * n + [0] * n)
        x = generate_family(eta, Family.POISSON, 1.0, 6.0, rng_stream(20261018, 5))
        for part, lam in ((x[:n], 6.0), (x[n:], 1.0)):
            # sd of a Poisson sample variance: sqrt((lam + 2 lam^2) / n)
            assert abs(part.var(ddof=1) - lam) < 3.0 * math.sqrt((lam + 2.0 * lam * lam) / n)
            assert abs(part.mean() - lam) < 3.0 * math.sqrt(lam / n)

    def test_gaussian_rejected(self):
        with pytest.raises(ValueError):
            generate_family(SupportVector([1, 0]), Family.GAUSSIAN, 0.0, 1.0, rng_stream(1, 0))


class TestEstimateRisk:
    def test_deterministic_in_seed(self):
        p = _plus_instance(d=40, s=4)
        cfg = MCConfig(replications=300, seed=12345)
        r1 = estimate_risk(p, _plus_spec(p), cfg)
        r2 = estimate_risk(p, _plus_spec(p), cfg)
        assert r1.mc_estimate == r2.mc_estimate
        assert r1.mc_stderr == r2.mc_stderr

    def test_worker_count_invariance(self, thread_workers):
        """One process, two, and three (shares of 66, 67 and 67
        replications) give the same bits."""
        p = _plus_instance(d=40, s=4)
        cfg = MCConfig(replications=200, seed=777)
        with _workers(1):
            r1 = estimate_risk(p, _plus_spec(p), cfg)
        reports = []
        for n in (2, 3):
            with _workers(n):
                reports.append(estimate_risk(p, _plus_spec(p), cfg))
        assert len(thread_workers) == 2
        for r in reports:
            assert (r.mc_estimate, r.mc_stderr) == (r1.mc_estimate, r1.mc_stderr)

    def test_stream_offset_shifts_draws(self):
        p = _plus_instance(d=40, s=4)
        cfg = MCConfig(replications=200, seed=777)
        base = estimate_risk(p, _plus_spec(p), cfg)
        moved = estimate_risk(p, _plus_spec(p), cfg, stream_offset=1 << 40)
        assert base.mc_estimate != moved.mc_estimate

    def test_noiseless_recovery(self):
        p = ProblemInstance(d=50, s=5, signal=LowerBound(1.0), sigma=0.001)
        cfg = MCConfig(replications=100, seed=5)
        r = estimate_risk(p, _plus_spec(p), cfg)
        assert r.mc_estimate == 0.0
        assert r.mc_stderr == 0.0

    def test_matches_bayes_risk_two_coordinates(self):
        # d=2, s=1 at the minimax cut: expected Hamming loss 2 Phi(-a/2)
        p = ProblemInstance(d=2, s=1, signal=LowerBound(2.0))
        cfg = MCConfig(replications=20_000, seed=2026)
        r = estimate_risk(p, _plus_spec(p), cfg)
        want = psi_plus(2, 1, 2.0)
        assert abs(r.mc_estimate - want) <= 3.0 * r.mc_stderr

    def test_matches_closed_form_reference_instance(self):
        p = _plus_instance()
        cfg = MCConfig(replications=4000, seed=101)
        r = estimate_risk(p, _plus_spec(p), cfg)
        want = 10.0 * psi_plus(200, 10, 3.0)
        assert abs(r.mc_estimate - want) <= 3.0 * r.mc_stderr

    def test_correlation_leaves_risk_unchanged(self):
        p = _plus_instance(d=60, s=6, a=2.5)
        spec = _plus_spec(p)
        r0 = estimate_risk(p, spec, MCConfig(replications=20_000, seed=31))
        r8 = estimate_risk(p, spec, MCConfig(replications=20_000, seed=31, rho=0.8))
        joint = math.hypot(r0.mc_stderr, r8.mc_stderr)
        assert abs(r0.mc_estimate - r8.mc_estimate) <= 3.0 * joint

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_reported_stderr_follows_the_loss_law(self, rho):
        """n stderr^2, the losses' sample variance, is within 4 of its own
        sds (from the law's fourth moment) of the variance of the error
        count's law (oracles.threshold_loss_moments).  Hamming risk does not
        depend on rho but its variance does, so an engine that dropped the
        common factor Z0 would pass every mean gate and fail this one."""
        p = _plus_instance()
        spec = _plus_spec(p)
        n = 20_000
        report = estimate_risk(p, spec, MCConfig(replications=n, seed=2024, rho=rho))
        mean, variance, fourth = threshold_loss_moments(p, spec, rho)
        assert mean == pytest.approx(10.0 * psi_plus(200, 10, 3.0), rel=1e-12)
        sd = math.sqrt((fourth - variance**2 * (n - 3) / (n - 1)) / n)
        assert abs(n * report.mc_stderr**2 - variance) <= 4.0 * sd

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("kind", ["cosh", "universal"])
    def test_two_sided_stderr_follows_the_loss_law(self, kind, rho):
        """The same gate for cuts on |x| on TwoSided (200, 10, 3), whose
        law mixes the global sign outside Z0.  n d = 4 10^6 splits each run
        over the worker processes wherever there are two usable CPUs, so
        their shares are checked against the law, not only against a
        one-process run."""
        p = ProblemInstance(200, 10, TwoSided(3.0))
        spec = spec_for_kind(kind, p)
        n = 20_000
        report = estimate_risk(p, spec, MCConfig(replications=n, seed=2025, rho=rho))
        mean, variance, fourth = threshold_loss_moments(p, spec, rho)
        assert mean == pytest.approx(threshold_risk(p, kind), rel=1e-12)
        sd = math.sqrt((fourth - variance**2 * (n - 3) / (n - 1)) / n)
        assert abs(n * report.mc_stderr**2 - variance) <= 4.0 * sd

    def test_loss_kind_relations(self):
        """Same seed: wrong-recovery <= Hamming pathwise, normalized = /s."""
        p = _plus_instance(d=30, s=5, a=1.0)
        spec = _plus_spec(p)
        ham = estimate_risk(p, spec, MCConfig(replications=2000, seed=9))
        norm = estimate_risk(
            p, spec, MCConfig(replications=2000, seed=9, loss_kind="normalized-hamming")
        )
        wrong = estimate_risk(
            p, spec, MCConfig(replications=2000, seed=9, loss_kind="wrong-recovery")
        )
        assert_allclose(norm.mc_estimate, ham.mc_estimate / 5.0, rtol=1e-12)
        assert wrong.mc_estimate <= ham.mc_estimate + 1e-12
        assert wrong.mc_estimate <= 1.0

    def test_report_carries_config(self):
        p = _plus_instance(d=30, s=5)
        cfg = MCConfig(replications=50, seed=4, loss_kind="wrong-recovery")
        r = estimate_risk(p, _plus_spec(p), cfg)
        assert r.replications == 50
        assert r.seed == 4
        assert r.loss_kind is LossKind.WRONG_RECOVERY

    def test_single_replication_has_zero_stderr(self):
        p = _plus_instance(d=30, s=5)
        r = estimate_risk(p, _plus_spec(p), MCConfig(replications=1, seed=4))
        assert r.mc_stderr == 0.0


class TestEstimateRiskFamilies:
    def test_gaussian_interval_path(self):
        p = ProblemInstance(d=50, s=5, signal=Interval(1.0, 3.0))
        cfg = MCConfig(replications=8000, seed=17)
        r = estimate_risk(p, spec_for_kind("llr", p), cfg)
        want = 5.0 * psi_general(Family.GAUSSIAN, 50, 5, 1.0, 3.0)
        assert abs(r.mc_estimate - want) <= 3.0 * r.mc_stderr

    def test_bernoulli_path(self):
        p = ProblemInstance(
            d=10, s=1, signal=Interval(0.1, 0.9), family=Family.BERNOULLI
        )
        cfg = MCConfig(replications=8000, seed=18)
        r = estimate_risk(p, spec_for_kind("llr", p), cfg)
        want = 1.0 * psi_general(Family.BERNOULLI, 10, 1, 0.1, 0.9)
        assert abs(r.mc_estimate - want) <= 3.0 * r.mc_stderr

    def test_poisson_path(self):
        p = ProblemInstance(
            d=4, s=2, signal=Interval(1.0, math.e), family=Family.POISSON
        )
        cfg = MCConfig(replications=8000, seed=19)
        r = estimate_risk(p, spec_for_kind("llr", p), cfg)
        want = 2.0 * psi_general(Family.POISSON, 4, 2, 1.0, math.e)
        assert abs(r.mc_estimate - want) <= 3.0 * r.mc_stderr

    def test_cosh_matches_symmetric_bayes_risk(self):
        p = ProblemInstance(d=100, s=10, signal=TwoSided(2.0))
        spec = spec_for_kind("cosh", p)
        cfg = MCConfig(replications=8000, seed=20)
        r = estimate_risk(p, spec, cfg)
        want = 10.0 * psi_bar(100, 10, 2.0)
        assert abs(r.mc_estimate - want) <= 3.0 * r.mc_stderr

    def test_remaining_selector_dispatch(self):
        p = ProblemInstance(d=64, s=4, signal=TwoSided(3.0))
        cfg = MCConfig(replications=50, seed=21)
        for spec in (
            Threshold(2.0, two_sided=True),
            TopS(4, one_sided=False),
            spec_for_kind("universal", p),
            Adaptive(16),
        ):
            r = estimate_risk(p, spec, cfg)
            assert 0.0 <= r.mc_estimate

    def test_tops_loss_parity(self):
        # a weight-s selection differs from a weight-s truth on an even count
        p = ProblemInstance(d=20, s=3, signal=LowerBound(0.5))
        cfg = MCConfig(replications=1, seed=22)
        for offset in range(20):
            r = estimate_risk(p, TopS(3), cfg, stream_offset=offset)
            assert r.mc_estimate % 2.0 == 0.0


class TestEstimateRiskCompat:
    def test_rho_needs_gaussian(self):
        p = ProblemInstance(
            d=10, s=1, signal=Interval(0.1, 0.9), family=Family.BERNOULLI
        )
        with pytest.raises(ValueError):
            estimate_risk(p, spec_for_kind("llr", p), MCConfig(replications=5, seed=1, rho=0.3))

    def test_symmetric_selectors_need_gaussian(self):
        p = ProblemInstance(
            d=10, s=1, signal=Interval(0.1, 0.9), family=Family.BERNOULLI
        )
        for spec in (Threshold(1.0, two_sided=True), Adaptive(2)):
            with pytest.raises(ValueError, match="requires the Gaussian family"):
                estimate_risk(p, spec, MCConfig(replications=5, seed=1))
            with pytest.raises(ValueError, match="requires the Gaussian family"):
                apply_selector(spec, [0.0] * 10, p)

    def test_llr_needs_interval_or_lower_bound(self):
        p = ProblemInstance(d=10, s=1, signal=TwoSided(1.0))
        with pytest.raises(ValueError, match="LowerBound or Interval"):
            spec_for_kind("llr", p)

    def test_top_s_needs_s_at_most_d(self):
        p = ProblemInstance(d=10, s=1, signal=TwoSided(1.0))
        with pytest.raises(ValueError, match="s <= d"):
            estimate_risk(p, TopS(11), MCConfig(replications=5, seed=1))
        with pytest.raises(ValueError, match="s <= d"):
            apply_selector(TopS(11), [0.0] * 10, p)

    def test_adaptive_budget(self):
        p = ProblemInstance(d=10, s=1, signal=TwoSided(1.0))
        with pytest.raises(ValueError):
            estimate_risk(p, Adaptive(4), MCConfig(replications=5, seed=1))


def _by_family(f, family: Family) -> list:
    """What each public entry that takes a family returns for family f
    (the member or its name) on fixed inputs, as bytes where it is an array."""
    a0, a1 = (0.2, 0.6) if family is Family.BERNOULLI else (1.0, 3.0)
    x = generate_family(uniform_support(200, 10, rng_stream(5, 0)), Family.POISSON, a0, a1,
                        rng_stream(5, 1))
    if family is Family.BERNOULLI:
        x = (x > 1.0).astype(float)
    p = ProblemInstance(200, 10, Interval(a0, a1), family=f)
    spec = spec_for_kind("llr", p)
    out = [
        p.family,
        llr_threshold(f, 200, 10, a0, a1),
        psi_general(f, 200, 10, a0, a1),
        check_observations(x, 200, f).tobytes(),
        select_row(spec, x, 200, f).support.bits.tobytes(),
        estimate_risk(p, spec, MCConfig(replications=50, seed=3)).mc_estimate,
    ]
    if family is Family.GAUSSIAN:
        for spec in (Threshold(1.0, two_sided=True), Adaptive(16), TopS(10, one_sided=False)):
            out.append(select_row(spec, x, 200, f).support.bits.tobytes())
            block, bits = x[None].copy(), np.empty((1, 200), dtype=bool)
            resolve_selector(spec, 200, f)(1)(block, bits)
            out.append(bits.tobytes())
        q = ProblemInstance(200, 10, LowerBound(3.0), family=f)
        out.append(estimate_risk(q, spec_for_kind("plus", q), MCConfig(50, seed=3)).mc_estimate)
    else:
        eta = uniform_support(200, 10, rng_stream(5, 2))
        out.append(generate_family(eta, f, a0, a1, rng_stream(5, 3)).tobytes())
    return out


class TestFamilyByName:
    """Family is a str enum: every public entry that takes a family takes
    its name ("poisson") too, once, through Family(...)."""

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_name_gives_the_members_bits(self, family):
        assert _by_family(family.value, family) == _by_family(family, family)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda: ProblemInstance(200, 10, Interval(1.0, 3.0), family="cauchy"),
            lambda: llr_threshold("cauchy", 200, 10, 1.0, 3.0),
            lambda: psi_general("cauchy", 200, 10, 1.0, 3.0),
            lambda: generate_family(uniform_support(20, 2, rng_stream(1, 0)), "cauchy", 1.0,
                                    3.0, rng_stream(1, 1)),
            lambda: check_observations([0.0, 1.0], 2, "cauchy"),
            lambda: resolve_selector(Threshold(1.0), 2, "cauchy"),
            lambda: select_row(Threshold(1.0), [0.0, 1.0], 2, "cauchy"),
        ],
        ids=["ProblemInstance", "llr_threshold", "psi_general", "generate_family",
             "check_observations", "resolve_selector", "select_row"],
    )
    def test_unknown_name_raises(self, entry):
        with pytest.raises(ValueError, match="cauchy"):
            entry()


class TestIntegerFields:
    """d, s, TopS.s and Adaptive.s_star go through operator.index: a numpy
    integer runs as the int it holds (a float fails at construction, see
    test_model)."""

    @pytest.mark.parametrize("kind", ["plus", "tops", "adaptive"])
    def test_numpy_integers_give_the_int_estimate(self, kind):
        def run(n):
            p = ProblemInstance(n(200), n(10), TwoSided(3.0) if kind != "plus" else LowerBound(3.0))
            spec = {"plus": Threshold(2.0), "tops": TopS(n(10)), "adaptive": Adaptive(n(16))}[kind]
            r = estimate_risk(p, spec, MCConfig(replications=300, seed=11))
            return r.mc_estimate.hex(), r.mc_stderr.hex()

        assert run(np.int64) == run(int)


class TestStress:
    def test_boosted_magnitudes_never_hurt_one_sided_rule(self):
        """Interval(0, a) is LowerBound(a) draw for draw, and Interval(0, m a)
        shares its support and noise, so at the boundary cut the one-sided
        threshold's loss can only drop pathwise as m grows."""
        d, s, a = 40, 6, 1.5
        p = _plus_instance(d=d, s=s, a=a)
        spec = _plus_spec(p)
        cfg = MCConfig(replications=3000, seed=23)
        plain = estimate_risk(p, spec, cfg)
        same = estimate_risk(ProblemInstance(d, s, Interval(0.0, a)), spec, cfg)
        assert (same.mc_estimate, same.mc_stderr) == (plain.mc_estimate, plain.mc_stderr)
        one = MCConfig(replications=1, seed=23)
        for m in (2.0, 10.0):
            boosted = ProblemInstance(d, s, Interval(0.0, m * a))
            assert estimate_risk(boosted, spec, cfg).mc_estimate <= plain.mc_estimate
            for r in range(100):
                loss = estimate_risk(boosted, spec, one, stream_offset=r).mc_estimate
                assert loss <= estimate_risk(p, spec, one, stream_offset=r).mc_estimate


class TestBayesFloor:
    """No rule's risk under the least-favorable prior falls more than 3
    stderr below the exact risk of the class's minimax rule."""

    def test_optimal_selector_sits_on_the_floor(self):
        p = _plus_instance(d=100, s=5, a=2.0)
        cfg = MCConfig(replications=20_000, seed=1)
        rep = estimate_risk(p, _plus_spec(p), cfg)
        floor = threshold_risk(p, "plus")
        assert_allclose(floor, 5.0 * psi_plus(100, 5, 2.0), rtol=1e-13)
        assert abs(rep.mc_estimate - floor) <= 3.0 * rep.mc_stderr

    def test_suboptimal_selector_stays_above(self):
        p = _plus_instance(d=100, s=5, a=2.0)
        cfg = MCConfig(replications=5000, seed=26)
        rep = estimate_risk(p, TopS(5), cfg)
        assert rep.mc_estimate >= threshold_risk(p, "plus") - 3.0 * rep.mc_stderr

    def test_two_sided_floor_uses_symmetric_rate(self):
        p = ProblemInstance(d=100, s=5, signal=TwoSided(2.0))
        cfg = MCConfig(replications=5000, seed=27)
        rep = estimate_risk(p, spec_for_kind("cosh", p), cfg)
        floor = threshold_risk(p, "cosh")
        assert rep.mc_estimate >= floor - 3.0 * rep.mc_stderr
        assert_allclose(floor, 5.0 * psi_bar(100, 5, 2.0), rtol=1e-13)

    def test_normalized_floor_scaling(self):
        p = _plus_instance(d=100, s=5, a=2.0)
        cfg = MCConfig(replications=500, seed=28, loss_kind="normalized-hamming")
        rep = estimate_risk(p, _plus_spec(p), cfg)
        floor = threshold_risk(p, "plus") / p.s
        assert_allclose(floor, psi_plus(100, 5, 2.0), rtol=1e-13)
        assert rep.mc_estimate >= floor - 3.0 * rep.mc_stderr


class TestTopSExact:
    """Top-s against the quadrature value of its risk under the class's
    least-favorable prior: the one rule with no closed form is held to an
    equality, not only to the floor above."""

    def test_oracle_closed_case(self):
        # d = 2, s = 1: the support coordinate is missed iff the null one
        # exceeds it, so the risk is 2 P(Z' - Z > a) = 2 Phi(-a/sqrt 2)
        for a in (0.1, 0.5, 1.0, 2.0, 3.0, 6.0):
            want = 2.0 * gaussian_cdf(-a / math.sqrt(2.0))
            assert abs(top_s_risk(2, 1, a) - want) <= 1e-12

    @pytest.mark.parametrize(
        "d, s, a, one_sided, seed",
        [
            (200, 10, 3.0, True, 1801),
            (1000, 5, 4.0, True, 1802),
            (50, 3, 2.0, True, 1803),
            (200, 10, 3.0, False, 1804),
            (50, 3, 2.0, False, 1805),
            (500, 20, 3.5, False, 1806),
        ],
    )
    def test_estimate_matches_quadrature(self, d, s, a, one_sided, seed):
        signal = LowerBound(a) if one_sided else TwoSided(a)
        p = ProblemInstance(d=d, s=s, signal=signal)
        spec = spec_for_kind("tops", p)
        assert spec == TopS(s, one_sided=one_sided)
        rep = estimate_risk(p, spec, MCConfig(replications=20_000, seed=seed))
        z = (rep.mc_estimate - top_s_risk(d, s, a, one_sided)) / rep.mc_stderr
        assert abs(z) <= 4.0, z


class TestPhaseSweep:
    def test_grid_shape_and_columns(self):
        cfg = MCConfig(replications=40, seed=33)
        rows = phase_sweep([30, 60], 3, [1.0, 2.0], ["plus", "cosh"], cfg)
        assert len(rows) == 8
        want_keys = {
            "d", "s", "a", "sigma", "rho", "family", "selector", "loss_kind",
            "estimate", "stderr", "replications", "seed", "a_multiplier",
            "a_almost_full", "a_exact", "t_star",
        }
        assert all(set(r) == want_keys for r in rows)

    def test_deterministic(self):
        cfg = MCConfig(replications=40, seed=33)
        a = phase_sweep([30], 3, [1.5], ["plus"], cfg)
        b = phase_sweep([30], 3, [1.5], ["plus"], cfg)
        assert a == b

    def test_cells_reproducible_in_isolation(self):
        """Row k can be recomputed alone from its stream offset."""
        cfg = MCConfig(replications=60, seed=34)
        rows = phase_sweep([30, 60], 3, [1.5], ["plus", "tops"], cfg)
        cell = 3  # d=60, tops
        row = rows[cell]
        p = ProblemInstance(d=60, s=3, signal=LowerBound(row["a"]))
        spec = spec_for_kind("tops", p)
        again = estimate_risk(p, spec, cfg, stream_offset=cell << 40)
        assert again.mc_estimate == row["estimate"]
        assert again.mc_stderr == row["stderr"]

    def test_one_sided_kinds_get_lower_bound_signal(self):
        cfg = MCConfig(replications=30, seed=35)
        rows = phase_sweep([64], 4, [1.0], ["plus", "two-sided", "adaptive"], cfg, s_star=16)
        assert [r["selector"] for r in rows] == ["plus", "two-sided", "adaptive"]

    def test_callable_s_rule(self):
        cfg = MCConfig(replications=30, seed=36)
        rows = phase_sweep(
            [100, 400], lambda d: math.ceil(d**0.5), [1.2], ["plus"], cfg
        )
        assert [r["s"] for r in rows] == [10, 20]

    def test_exact_reference(self):
        cfg = MCConfig(replications=30, seed=37)
        rows = phase_sweep([100], 4, [1.0], ["plus"], cfg, a_ref="exact")
        pp = phase_point(100, 4)
        assert rows[0]["a"] == 1.0 * pp.a_exact
        assert rows[0]["a_exact"] == pp.a_exact

    def test_validation(self, monkeypatch):
        cfg = MCConfig(replications=30, seed=38)
        with pytest.raises(ValueError):
            phase_sweep([100], 4, [1.0], ["plus"], cfg, a_ref="critical")
        with pytest.raises(ValueError):
            phase_sweep([], 4, [1.0], ["plus"], cfg)
        with pytest.raises(ValueError):
            phase_sweep([100], 4, [-1.0], ["plus"], cfg)
        with pytest.raises(ValueError):
            phase_sweep([100], 4, [1.0], ["argmax"], cfg)
        with pytest.raises(ValueError):
            phase_sweep([100], 4, [1.0], ["adaptive"], cfg)  # s_star missing
        # a fractional s from the rule is refused, not truncated, before any cell runs
        monkeypatch.setattr(simulate, "estimate_risk", lambda *a, **k: pytest.fail("a cell ran"))
        with pytest.raises(TypeError):
            phase_sweep([100, 200], lambda d: 4 if d == 100 else 10.7, [1.0], ["plus"], cfg)


class TestPsiBarPrintedMc:
    def test_agrees_with_closed_form(self):
        mean, stderr = psi_bar_printed_mc(100, 10, 2.0, draws=400_000, seed=40)
        assert abs(mean - psi_bar(100, 10, 2.0)) <= 4.0 * stderr
        assert stderr > 0.0

    def test_deterministic(self):
        a = psi_bar_printed_mc(50, 5, 1.5, draws=30_000, seed=41)
        b = psi_bar_printed_mc(50, 5, 1.5, draws=30_000, seed=41)
        assert a == b

    def test_select_all_regime(self):
        # cut below the log-cosh floor: every draw selects, w = ratio exactly
        mean, stderr = psi_bar_printed_mc(3, 2, 0.5, draws=10_000, seed=42)
        assert mean == 0.5
        assert stderr == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            psi_bar_printed_mc(10, 1, 2.0, draws=1)
        with pytest.raises(ValueError):
            psi_bar_printed_mc(10, 1, -2.0)
        with pytest.raises(ValueError):
            psi_bar_printed_mc(10, 10, 2.0)


def _contract_cases():
    """(id, instance, spec, rho values) over every spec kind and family."""
    d, s = 40, 4
    lower = ProblemInstance(d, s, LowerBound(2.5))
    two = ProblemInstance(d, s, TwoSided(2.5))
    interval = ProblemInstance(d, s, Interval(-0.5, 2.0))
    t = minimax_threshold(d, s, 2.5)
    gaussian_specs = {
        "plus": Threshold(t),
        "two-sided": Threshold(t, two_sided=True),
        "cosh": Threshold(cosh_threshold(d, s, 2.5), two_sided=True),
        "tops": TopS(s),
        "tops-abs": TopS(s, one_sided=False),
        "tops-all": TopS(d),
        "universal": spec_for_kind("universal", two),
        "adaptive": Adaptive(8),
    }
    cases = []
    for name, p in (("lower", lower), ("two", two), ("interval", interval)):
        specs = dict(gaussian_specs)
        if not isinstance(p.signal, TwoSided):
            specs["llr"] = spec_for_kind("llr", p)
        for kind, spec in specs.items():
            cases.append((f"gaussian-{name}-{kind}", p, spec, (0.0, 0.5)))
    for family, a0, a1 in ((Family.BERNOULLI, 0.2, 0.7), (Family.POISSON, 1.0, 3.0)):
        p = ProblemInstance(d, s, Interval(a0, a1), family=family)
        for kind, spec in (("llr", spec_for_kind("llr", p)), ("tops", TopS(s)), ("plus", Threshold(1.0))):
            cases.append((f"{family.value}-{kind}", p, spec, (0.0,)))
    return cases


_CONTRACT_CASES = _contract_cases()


def _replayed_errors(p, spec, seed, offset, reps, rho):
    """Per-replication Hamming errors rebuilt from the public calls, one
    fresh rng_stream per replication."""
    errors = []
    for r in range(reps):
        rng = rng_stream(seed, offset + r)
        sig = p.signal
        if p.family is Family.GAUSSIAN:
            if isinstance(sig, Interval):
                eta = uniform_support(p.d, p.s, rng)
                theta = np.where(eta.bits, sig.a1, sig.a0)
            else:
                theta, eta = least_favorable_draw(p, rng)
            x = generate_gaussian(theta, p.sigma, rho, rng)
        else:
            eta = uniform_support(p.d, p.s, rng)
            x = generate_family(eta, p.family, sig.a0, sig.a1, rng)
        errors.append(hamming_distance(apply_selector(spec, x, p), eta))
    return errors


class TestStreamContract:
    """estimate_risk is the loop of public calls, one stream per replication."""

    @pytest.mark.parametrize(
        "p, spec, rhos",
        [case[1:] for case in _CONTRACT_CASES],
        ids=[case[0] for case in _CONTRACT_CASES],
    )
    def test_engine_equals_public_replay(self, p, spec, rhos):
        seed, offset, reps = 20261018, 5 << 40, 25
        for rho in rhos:
            errors = _replayed_errors(p, spec, seed, offset, reps, rho)
            for kind in LossKind:
                want = replay_reduction(errors, p.s, kind)
                cfg = MCConfig(replications=reps, seed=seed, rho=rho, loss_kind=kind)
                for workers in (1, 2):
                    with _workers(workers):
                        report = estimate_risk(p, spec, cfg, stream_offset=offset)
                    assert (report.mc_estimate, report.mc_stderr) == want

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_rekeyed_generator_state(self, seed):
        rng, rekey = _stream_rekeyer(seed)
        for index in (0, 1, 5 << 40, 2**64 - 1):
            rekey(index)
            fresh = rng_stream(seed, index)
            state, want = rng.bit_generator.state, fresh.bit_generator.state
            assert state["state"]["key"].tolist() == want["state"]["key"].tolist()
            assert state["state"]["counter"].tolist() == want["state"]["counter"].tolist()
            assert state["buffer"].tolist() == want["buffer"].tolist()
            for field in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
                assert state[field] == want[field]
            assert_array_equal(rng.standard_normal(7), fresh.standard_normal(7))
            # leave a partly used buffer and a cached 32-bit half behind
            rng.integers(0, 10, size=3, dtype=np.uint32)
            rng.random()

    def test_stream_indices_checked_up_front(self):
        p = _plus_instance(d=40, s=4)
        cfg = MCConfig(replications=2, seed=1)
        estimate_risk(p, _plus_spec(p), cfg, stream_offset=2**64 - 2)
        for offset in (-1, 2**64 - 1):
            with pytest.raises(ValueError, match="stream indices"):
                estimate_risk(p, _plus_spec(p), cfg, stream_offset=offset)

    def test_stream_offset_must_be_an_integer(self):
        """A float offset is refused before the run's loss array (8 MB
        here) or any block buffer is allocated; a numpy integer offset
        gives the bits of the equal Python int."""
        p = _plus_instance(d=40, s=4)
        spec, big = _plus_spec(p), MCConfig(replications=10**6, seed=1)
        tracemalloc.start()
        try:
            for offset in (1.5, 2.0):
                with pytest.raises(TypeError):
                    estimate_risk(p, spec, big, stream_offset=offset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        cfg = MCConfig(replications=50, seed=1, loss_kind=LossKind.NORMALIZED_HAMMING)
        for offset in (7, 2**64 - 50):
            want = estimate_risk(p, spec, cfg, stream_offset=offset)
            for np_int in (np.int64, np.uint64):
                if offset <= np.iinfo(np_int).max:
                    got = estimate_risk(p, spec, cfg, stream_offset=np_int(offset))
                    assert (got.mc_estimate, got.mc_stderr) == (want.mc_estimate, want.mc_stderr)

    @pytest.mark.parametrize("d", [200, 1000, 2048, 10_000])
    def test_engine_equals_public_replay_across_blocks(self, d):
        """Three or more blocks, the last one partial, so the two-sided
        signs and the selector's block calls cross block ends: 407-row
        blocks at d = 200 and 8-row blocks at d = 10,000."""
        rows = _block_layout(d, 10**6)
        reps = 2 * rows + rows // 2 + 1
        assert _block_layout(d, reps) == rows
        assert -(-reps // rows) >= 3 and reps % rows
        layouts = {200: 407, 1000: 81, 2048: 39, 10_000: 8}
        assert layouts[d] == rows
        s, a = 10, 2.5
        lower = ProblemInstance(d, s, LowerBound(a))
        two = ProblemInstance(d, s, TwoSided(a))
        two_wide = ProblemInstance(d, s, TwoSided(a), sigma=1.7)
        bernoulli = ProblemInstance(d, s, Interval(0.2, 0.7), family=Family.BERNOULLI)
        poisson = ProblemInstance(d, s, Interval(1.0, 3.0), family=Family.POISSON)
        cases = [
            (lower, _plus_spec(lower), 0.0),
            (lower, _plus_spec(lower), 0.5),
            (lower, spec_for_kind("llr", lower), 0.0),
            (lower, TopS(s), 0.0),
            (two, spec_for_kind("two-sided", two), 0.0),
            (two, spec_for_kind("cosh", two), 0.0),
            (two, TopS(s, one_sided=False), 0.5),
            (two, spec_for_kind("universal", two), 0.0),
            (two, Adaptive(16), 0.0),
            (two_wide, spec_for_kind("two-sided", two_wide), 0.5),
            (bernoulli, spec_for_kind("llr", bernoulli), 0.0),
            (poisson, spec_for_kind("llr", poisson), 0.0),
        ]
        seed, offset = 20261018, 3 << 40
        for p, spec, rho in cases:
            errors = _replayed_errors(p, spec, seed, offset, reps, rho)
            want = replay_reduction(errors, p.s, LossKind.HAMMING)
            cfg = MCConfig(replications=reps, seed=seed, rho=rho)
            for workers in (1, 2):
                with _workers(workers):
                    report = estimate_risk(p, spec, cfg, stream_offset=offset)
                assert (report.mc_estimate, report.mc_stderr) == want


def _one_worker_peak(p, spec, reps, loss_kind=LossKind.HAMMING):
    """Bytes tracemalloc sees at the peak of a one-worker estimate_risk run."""
    with _workers(1):
        estimate_risk(p, spec, MCConfig(replications=2, seed=1))  # lazy imports
        tracemalloc.start()
        try:
            estimate_risk(p, spec, MCConfig(replications=reps, seed=1, loss_kind=loss_kind))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestEngineLimits:
    def test_workers_capped_at_cpus_replications_and_work(self, monkeypatch, thread_workers):
        """min(usable CPUs, n, n d // SHARE_MIN_WORK) processes, at least
        one: the calling process runs the first share and starts the
        workers it lacks, which later runs reuse."""
        work = simulate.SHARE_MIN_WORK
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
        assert simulate._worker_count(256, 1) == 1
        assert simulate._worker_count(256, 2 * work // 256 - 1) == 1
        assert simulate._worker_count(256, 2 * work // 256) == 2
        assert simulate._worker_count(10**6, 5) == 5
        assert simulate._worker_count(4, 10**8) == 64
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        assert simulate._worker_count(10**6, 5) == 3
        p = _plus_instance(d=1000, s=10)
        spec = _plus_spec(p)
        cfg = MCConfig(replications=5 * 81 - 2, seed=3)  # in one share, 5 blocks, the last partial
        with _workers(1):
            want = estimate_risk(p, spec, cfg)
        assert thread_workers == []
        monkeypatch.setattr(simulate, "SHARE_MIN_WORK", 60_000)  # n d // work = 6
        for cpus, started in ((3, 2), (64, 5), (10**6, 5), (1, 5)):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
            got = estimate_risk(p, spec, cfg)
            assert (got.mc_estimate, got.mc_stderr) == (want.mc_estimate, want.mc_stderr)
            assert len(thread_workers) == started
        assert len(simulate._pool) == 5
        tiny = MCConfig(replications=3, seed=3)
        want = estimate_risk(p, spec, tiny)  # n d // work = 0: one process
        with _workers(10**6):
            assert simulate._worker_count(p.d, 3) == 3  # n caps it
            got = estimate_risk(p, spec, tiny)
        assert (got.mc_estimate, got.mc_stderr) == (want.mc_estimate, want.mc_stderr)
        assert len(thread_workers) == 5

    def test_workers_capped_at_usable_cpus(self, monkeypatch, thread_workers):
        """A process pinned to 2 of 64 CPUs runs on at most 2 processes."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 9}, raising=False)
        assert simulate._usable_cpus() == 2
        p = _plus_instance(d=1000, s=10)
        estimate_risk(p, _plus_spec(p), MCConfig(replications=10**4, seed=3))
        assert len(thread_workers) == 1
        # without an affinity call the installed count is the cap
        monkeypatch.delattr(os, "sched_getaffinity")
        assert simulate._usable_cpus() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._usable_cpus() == 1

    def test_concurrent_callers_get_the_same_bits(self, no_pooled_workers):
        """Two threads running split runs at once share the worker pool one
        run at a time, and each gets the bits of its run alone."""
        p = _plus_instance()
        spec = _plus_spec(p)
        cfgs = [MCConfig(replications=3000, seed=seed, rho=rho) for seed, rho in ((5, 0.0), (6, 0.5))]
        with _workers(2):
            want = [estimate_risk(p, spec, cfg) for cfg in cfgs]
            got = [None, None]

            def run(k):
                for _ in range(5):
                    report = estimate_risk(p, spec, cfgs[k])
                    got[k] = report if got[k] in (None, report) else "differs"

            threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert len(simulate._pool) == 1

    def test_worker_killed_between_runs_is_replaced(self, no_pooled_workers):
        p = _plus_instance()
        spec = _plus_spec(p)
        cfg = MCConfig(replications=3000, seed=8)
        with _workers(1):
            want = estimate_risk(p, spec, cfg)
        with _workers(2):
            assert estimate_risk(p, spec, cfg) == want
            (worker,) = simulate._pool
            os.kill(worker.pid, signal.SIGKILL)
            assert worker.conn.poll(10)  # at EOF once the process has gone
            assert estimate_risk(p, spec, cfg) == want
            (fresh,) = simulate._pool
        assert fresh.pid != worker.pid and not fresh.exited()
        assert (worker.alive, worker.exitcode) == (False, -signal.SIGKILL)

    def test_worker_killed_mid_run_raises(self, monkeypatch, no_pooled_workers):
        """A worker that dies in its share makes the run raise, naming the
        process and its exit signal, without waiting on it or returning a
        number; the pool drops it and the next run forks a sound one."""
        p = _plus_instance()
        spec = _plus_spec(p)
        cfg = MCConfig(replications=3000, seed=9)
        with _workers(1):
            want = estimate_risk(p, spec, cfg)
        caller, counts = os.getpid(), simulate.row_counts

        def dies_in_a_worker(bits):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return counts(bits)

        monkeypatch.setattr(simulate, "row_counts", dies_in_a_worker)
        with _workers(2):
            with pytest.raises(RuntimeError, match=r"worker process \d+ stopped during the run \(exit code -9\)"):
                estimate_risk(p, spec, cfg)
            assert simulate._pool == []
            monkeypatch.setattr(simulate, "row_counts", counts)
            assert estimate_risk(p, spec, cfg) == want

    def test_forked_process_does_not_share_the_workers(self, thread_workers):
        """A process forked while the pool has a worker and its lock is held
        starts with an empty pool and a free lock, so it never talks to its
        parent's workers or waits on a lock no thread of its own holds."""
        p = _plus_instance()
        with _workers(2):
            estimate_risk(p, _plus_spec(p), MCConfig(replications=100, seed=1))
        assert len(simulate._pool) == 1
        read, write = os.pipe()
        with simulate._pool_lock:
            pid = os.fork()
            if pid == 0:
                try:
                    os.write(write, b"%d" % (simulate._pool == [] and not simulate._pool_lock.locked()))
                finally:
                    os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as fh:
            assert fh.read() == b"1"
        assert os.waitpid(pid, 0)[1] == 0
        assert len(simulate._pool) == 1 and not simulate._pool[0].exited()

    def test_no_worker_outlives_its_process(self, no_pooled_workers):
        """A process that ran split runs and exits leaves no worker behind."""
        code = """if True:
            from hamsel import simulate
            from hamsel.model import ProblemInstance, LowerBound
            from hamsel.selectors import spec_for_kind
            simulate._usable_cpus = lambda: 2
            p = ProblemInstance(200, 10, LowerBound(3.0))
            spec = spec_for_kind("plus", p)
            for seed in (1, 2):
                simulate.estimate_risk(p, spec, simulate.MCConfig(replications=5000, seed=seed))
            print(*(worker.pid for worker in simulate._pool))
        """
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=60,
        )
        pids = [int(pid) for pid in result.stdout.split()]
        assert len(pids) == 1
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_oversized_d_rejected_before_allocating(self, monkeypatch):
        """Checking a selector spec makes none of its buffers: top-s's
        partition block is made per worker, after the checks, and no worker
        starts."""
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(simulate, "_Worker", lambda: pytest.fail("a worker started"))
        p = ProblemInstance(10**9, 10, LowerBound(3.0))
        cfg = MCConfig(replications=10, seed=1)
        tracemalloc.start()
        try:
            for spec in (_plus_spec(p), TopS(10), Adaptive(16)):
                with pytest.raises(ValueError, match=r"d=1000000000 .*limit"):
                    estimate_risk(p, spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_row_limit_counts_poisson_support_counts(self):
        """A Poisson draw row holds d + s counts, a Gaussian one d + 1
        floats, so at the same (d, s) near the limit only the Poisson run
        is refused."""
        d, s, cfg = 4_194_000, 1000, MCConfig(replications=10, seed=1)
        gauss = ProblemInstance(d, s, Interval(1.0, 3.0))
        simulate._check_run(gauss, spec_for_kind("llr", gauss), cfg, 0)
        poisson = ProblemInstance(d, s, Interval(1.0, 3.0), family=Family.POISSON)
        with pytest.raises(ValueError, match=f"d={d} needs {8 * (2 * d + s)} bytes"):
            simulate._check_run(poisson, spec_for_kind("llr", poisson), cfg, 0)

    @pytest.mark.parametrize("kind", ["tops", "adaptive", "universal", "poisson"])
    def test_large_d_blocks_stay_small(self, kind):
        """At d = 10,000 a block holds 8 replications, which the selector
        takes in one call; a one-worker run of 200 replications then peaks
        at the 640 KiB draw budget plus the selector's buffers and the
        bookkeeping of a run: under 0.9 MiB, or 1.5 MiB with top-s's
        partition block.  A block-sized temporary, such as a copy of |x|,
        does not fit under 0.9 MiB.  From d = 40,960 a block holds one
        replication."""
        assert _block_layout(10_000, 200) == 8
        assert _block_layout(40_960, 200) == 1
        if kind == "poisson":
            p = ProblemInstance(10_000, 100, Interval(1.0, 3.0), family=Family.POISSON)
            spec = spec_for_kind("llr", p)
        else:
            p = ProblemInstance(10_000, 100, TwoSided(3.0))
            spec = spec_for_kind(kind, p, s_star=16)
        assert _one_worker_peak(p, spec, 200) < (3 << 19 if kind == "tops" else 0.9 * 2**20)

    @pytest.mark.parametrize("kind", ["tops", "adaptive"])
    def test_large_d_blocks_fault_in_no_fresh_pages(self, kind):
        """A warm one-worker run of 200 replications at d = 10,000 takes
        fewer than 8 minor page faults per replication: the selector makes
        no block-sized temporaries.  Enough of them, freed at the top of
        the heap, are trimmed and fault in again on every block, about 20
        faults per replication for top-s.  Measured in a fresh interpreter,
        since malloc's mmap and trim thresholds rise with the largest block
        freed so far, which earlier tests in this process set."""
        code = f"""if True:
            import resource
            from hamsel import simulate
            from hamsel.model import ProblemInstance, TwoSided
            from hamsel.selectors import spec_for_kind
            simulate._usable_cpus = lambda: 1
            p = ProblemInstance(10_000, 100, TwoSided(3.0))
            spec = spec_for_kind({kind!r}, p, s_star=16)
            cfg = simulate.MCConfig(replications=200, seed=1)
            simulate.estimate_risk(p, spec, cfg)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            simulate.estimate_risk(p, spec, cfg)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = os.path.dirname(os.path.dirname(simulate.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert int(result.stdout) < 8 * 200

    @pytest.mark.parametrize("kind", ["plus", "cosh", "poisson"])
    def test_d200_blocks_stay_within_budget(self, kind):
        """At d = 200 a block holds 407 replications; a one-worker run of
        2,000 replications peaks under 1.25 MiB: the 640 KiB draw budget,
        the block's support resolution and its selection."""
        assert _block_layout(200, 2000) == 407
        if kind == "poisson":
            p = ProblemInstance(200, 10, Interval(1.0, 3.0), family=Family.POISSON)
            spec = spec_for_kind("llr", p)
        else:
            p = ProblemInstance(200, 10, (LowerBound if kind == "plus" else TwoSided)(3.0))
            spec = spec_for_kind(kind, p)
        assert _one_worker_peak(p, spec, 2000) < 5 << 18

    def test_one_loss_array_per_run(self):
        """Each replication's loss is kept once, as one float64, for every
        loss kind: from 10^3 to 10^5 replications at d = 200 the peak grows
        by under 1.25 x 8 bytes per added replication.  An int64 count array
        beside a float loss array would grow it by 16 bytes and more."""
        p = _plus_instance()
        spec = _plus_spec(p)
        small, large = (
            _one_worker_peak(p, spec, n, LossKind.WRONG_RECOVERY) for n in (10**3, 10**5)
        )
        assert large - small < 1.25 * 8 * (10**5 - 10**3)

    def test_oversized_replication_count_rejected_before_allocating(self):
        """MCConfig takes up to MAX_REPLICATIONS = 2^27 replications and
        refuses the next count, naming it, before a run allocates anything."""
        assert MAX_REPLICATIONS == 2**27
        assert MCConfig(replications=MAX_REPLICATIONS, seed=1).replications == 2**27
        reps = MAX_REPLICATIONS + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{reps} replications .*limit of {2**27}$"):
                MCConfig(replications=reps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_poisson_rates_up_to_the_limit_run(self):
        """estimate_risk runs with a1 at POISSON_RATE_MAX, which numpy's
        sampler takes; ProblemInstance refuses the next float, naming it."""
        limit = POISSON_RATE_MAX
        cfg = MCConfig(replications=2, seed=1)
        at = ProblemInstance(20, 2, Interval(limit / 2.0, limit), Family.POISSON)
        assert 0 <= estimate_risk(at, spec_for_kind("llr", at), cfg).mc_estimate <= 20
        above = math.nextafter(limit, math.inf)
        with pytest.raises(ValueError, match=f"Poisson a1 = {above} is over the limit {limit}"):
            ProblemInstance(20, 2, Interval(1.0, above), Family.POISSON)


@st.composite
def _engine_cases(draw):
    """(instance, spec, rho, loss kind, seed, offset, reps) over every
    spec kind and family, the Gaussian classes at sigma 0.5, 1 or 1.7; reps
    up to 40 span several blocks for d >= 2,048, and the examples of
    TestBlockEngineProperty span them at d = 200 and 400."""
    d = draw(st.integers(2, 3000))
    s = draw(st.integers(1, min(d - 1, 40)))
    a = draw(st.floats(0.25, 6.0))
    cls = draw(st.sampled_from(["lower", "two", "interval", "bernoulli", "poisson"]))
    rho = 0.0
    if cls in ("bernoulli", "poisson"):
        family = Family(cls)
        a0, a1 = (0.2, 0.7) if cls == "bernoulli" else (1.0, 1.0 + a)
        p = ProblemInstance(d, s, Interval(a0, a1), family=family)
        kinds = ["llr", "tops", "plus"]
    else:
        signal = {"lower": LowerBound(a), "two": TwoSided(a), "interval": Interval(-0.5, a)}[cls]
        p = ProblemInstance(d, s, signal, sigma=draw(st.sampled_from([0.5, 1.0, 1.7])))
        kinds = ["plus", "two-sided", "cosh", "tops", "tops-abs", "universal"]
        kinds += ["adaptive"] if d >= 8 else []
        kinds += ["llr"] if cls != "two" else []
        rho = draw(st.sampled_from([0.0, 0.5, 0.9]))
    kind = draw(st.sampled_from(kinds))
    t = draw(st.floats(0.0, 4.0))
    spec = {
        "plus": lambda: Threshold(t),
        "two-sided": lambda: Threshold(t, two_sided=True),
        "cosh": lambda: Threshold(cosh_threshold(d, s, a), two_sided=True),
        "tops": lambda: TopS(draw(st.integers(1, d))),
        "tops-abs": lambda: TopS(draw(st.integers(1, d)), one_sided=False),
        "universal": lambda: spec_for_kind("universal", p),
        "adaptive": lambda: Adaptive(draw(st.integers(2, d // 4))),
        "llr": lambda: spec_for_kind("llr", p),
    }[kind]()
    loss_kind = draw(st.sampled_from(list(LossKind)))
    seed = draw(st.integers(0, 2**64 - 1))
    reps = draw(st.integers(1, 40))
    offset = draw(st.integers(0, 2**64 - reps))
    return p, spec, rho, loss_kind, seed, offset, reps


_POISSON_1500 = ProblemInstance(1500, 5, Interval(1.0, 2.5), family=Family.POISSON)
_TWO_200 = ProblemInstance(200, 10, TwoSided(3.0))
_POISSON_400 = ProblemInstance(400, 10, Interval(1.0, 3.0), family=Family.POISSON)


class TestBlockEngineProperty:
    @settings(max_examples=60)
    @given(case=_engine_cases())
    @example(
        case=(
            ProblemInstance(2000, 20, TwoSided(3.0)), TopS(20, one_sided=False),
            0.5, LossKind.HAMMING, 7, 11, 17,
        )
    )
    @example(
        case=(
            _POISSON_1500, spec_for_kind("llr", _POISSON_1500),
            0.0, LossKind.WRONG_RECOVERY, 2**64 - 1, 2**64 - 21, 21,
        )
    )
    @example(  # two full blocks and one row
        case=(
            _TWO_200, spec_for_kind("cosh", _TWO_200),
            0.5, LossKind.HAMMING, 11, 3 << 40, 2 * _block_layout(200, 10**6) + 1,
        )
    )
    @example(  # two full blocks and one row
        case=(
            _POISSON_400, spec_for_kind("llr", _POISSON_400),
            0.0, LossKind.NORMALIZED_HAMMING, 5, 0, 2 * _block_layout(400, 10**6) + 1,
        )
    )
    def test_engine_equals_public_replay(self, case):
        p, spec, rho, loss_kind, seed, offset, reps = case
        rows = _block_layout(p.d, reps)
        event("one block" if reps == rows else f"several blocks, last {'partial' if reps % rows else 'full'}")
        errors = _replayed_errors(p, spec, seed, offset, reps, rho)
        want = replay_reduction(errors, p.s, loss_kind)
        cfg = MCConfig(replications=reps, seed=seed, rho=rho, loss_kind=loss_kind)
        for workers in (1, 2):
            with _workers(workers):
                report = estimate_risk(p, spec, cfg, stream_offset=offset)
            assert (report.mc_estimate, report.mc_stderr) == want
