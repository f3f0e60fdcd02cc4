"""Tests for problem descriptions, supports, streams, and file readers."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from hamsel.model import (
    Adaptive,
    CrowdInstance,
    DataFormatError,
    Family,
    Interval,
    LossKind,
    LowerBound,
    ProblemInstance,
    RiskReport,
    SupportVector,
    TopS,
    TwoSided,
    floyd_resolve,
    fresh_seed,
    hamming_distance,
    least_favorable_draw,
    read_observations_csv,
    read_rates_csv,
    read_votes_csv,
    rng_stream,
    support_summary,
    uniform_support,
    uniform_supports,
)
from hamsel.risk import psi_plus


class TestSignalClasses:
    def test_records_hold_their_fields(self):
        assert LowerBound(2.0).a == 2.0
        assert TwoSided(0.5).a == 0.5
        assert (Interval(-1.0, 2.0).a0, Interval(-1.0, 2.0).a1) == (-1.0, 2.0)

    def test_frozen(self):
        sig = LowerBound(1.0)
        with pytest.raises(AttributeError):
            sig.a = 2.0

    def test_level_validated_at_instance(self):
        # signal records are passive; ProblemInstance enforces the class rules
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ProblemInstance(d=4, s=1, signal=LowerBound(bad))
            with pytest.raises(ValueError):
                ProblemInstance(d=4, s=1, signal=TwoSided(bad))

    def test_interval_validated_at_instance(self):
        for a0, a1 in ((2.0, 2.0), (3.0, 1.0), (0.0, float("inf"))):
            with pytest.raises(ValueError):
                ProblemInstance(d=4, s=1, signal=Interval(a0, a1))


class TestProblemInstance:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(d=1, s=1, signal=LowerBound(1.0))
        with pytest.raises(ValueError):
            ProblemInstance(d=10, s=0, signal=LowerBound(1.0))
        with pytest.raises(ValueError):
            ProblemInstance(d=10, s=10, signal=LowerBound(1.0))
        with pytest.raises(ValueError):
            ProblemInstance(d=10, s=11, signal=LowerBound(1.0))

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(d=4, s=1, signal=LowerBound(1.0), sigma=0.0)
        with pytest.raises(ValueError):
            ProblemInstance(d=4, s=1, signal=LowerBound(1.0), sigma=-1.0)

    def test_none_is_neither_a_level_nor_a_noise_scale(self):
        """None is an invalid value like any other, caught by the check; no
        argument value stands for "not given"."""
        for build, named in (
            (lambda: ProblemInstance(200, 10, LowerBound(None)), "signal level a"),
            (lambda: ProblemInstance(200, 10, LowerBound(3.0), sigma=None), "sigma"),
            (lambda: psi_plus(200, 10, None), "a"),
        ):
            with pytest.raises(ValueError, match=f"^need {named} > 0, got None$"):
                build()

    def test_unknown_signal_type(self):
        with pytest.raises(TypeError, match="unknown signal type str"):
            ProblemInstance(200, 10, "strong")

    def test_threshold_classes_are_gaussian_only(self):
        for family in (Family.BERNOULLI, Family.POISSON):
            with pytest.raises(ValueError):
                ProblemInstance(d=4, s=1, signal=LowerBound(1.0), family=family)
            with pytest.raises(ValueError):
                ProblemInstance(d=4, s=1, signal=TwoSided(1.0), family=family)

    def test_family_interval_constraints(self):
        # Bernoulli rates live strictly inside (0, 1)
        ProblemInstance(d=4, s=1, signal=Interval(0.1, 0.9), family=Family.BERNOULLI)
        with pytest.raises(ValueError):
            ProblemInstance(d=4, s=1, signal=Interval(0.0, 0.9), family=Family.BERNOULLI)
        with pytest.raises(ValueError):
            ProblemInstance(d=4, s=1, signal=Interval(0.1, 1.0), family=Family.BERNOULLI)
        # Poisson means are positive
        ProblemInstance(d=4, s=1, signal=Interval(1.0, 2.0), family=Family.POISSON)
        with pytest.raises(ValueError):
            ProblemInstance(d=4, s=1, signal=Interval(0.0, 2.0), family=Family.POISSON)
        # Gaussian intervals may sit anywhere
        ProblemInstance(d=4, s=1, signal=Interval(-3.0, -1.0))

    def test_family_given_by_name_is_stored_as_the_member(self):
        p = ProblemInstance(200, 10, Interval(1.0, 3.0), family="poisson")
        assert p.family is Family.POISSON
        q = ProblemInstance(200, 10, LowerBound(3.0), family="gaussian")
        assert q.family is Family.GAUSSIAN
        with pytest.raises(ValueError, match="requires the Gaussian family"):
            ProblemInstance(200, 10, LowerBound(3.0), family="poisson")
        with pytest.raises(ValueError):
            ProblemInstance(200, 10, Interval(1.0, 3.0), family="cauchy")

    def test_integer_fields_are_ints_at_construction(self):
        p = ProblemInstance(np.int64(200), np.int32(10), LowerBound(3.0))
        assert (type(p.d), type(p.s)) == (int, int) and (p.d, p.s) == (200, 10)
        assert type(TopS(np.int64(3)).s) is int
        assert type(Adaptive(np.int64(4)).s_star) is int
        for build in (
            lambda: ProblemInstance(200.0, 10, LowerBound(3.0)),
            lambda: ProblemInstance(200, 10.0, LowerBound(3.0)),
            lambda: TopS(2.5),
            lambda: TopS(2.0),
            lambda: Adaptive(4.5),
        ):
            with pytest.raises(TypeError):
                build()


class TestSupportVector:
    def test_from_bool_sequence(self):
        sv = SupportVector([True, False, True])
        assert sv.d == 3
        assert len(sv.indices()) == 2
        assert sv.indices() == [1, 3]
        assert sv.bitstring() == "101"

    def test_from_int_array(self):
        sv = SupportVector(np.array([0, 1, 0, 1]))
        assert sv.bitstring() == "0101"

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            SupportVector(np.array([0, 2, 0]))
        with pytest.raises(ValueError):
            SupportVector(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            SupportVector([])

    def test_equality_semantics(self):
        a = SupportVector([1, 0, 1])
        b = SupportVector([1, 0, 1])
        c = SupportVector([1, 1, 0])
        assert a == b
        assert a != c
        assert a != [1, 0, 1]

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SupportVector([1, 0]))

    def test_bits_read_only(self):
        sv = SupportVector([1, 0])
        with pytest.raises(ValueError):
            sv.bits[0] = False

    def test_summary_payload(self):
        out = support_summary(SupportVector([0, 1, 1]))
        assert out == {"selected": [2, 3], "bits": "011"}


class TestHammingDistance:
    def test_basic(self):
        a = SupportVector([1, 0, 1, 0])
        b = SupportVector([1, 1, 0, 0])
        assert hamming_distance(a, b) == 2
        assert hamming_distance(a, a) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(SupportVector([1, 0]), SupportVector([1, 0, 0]))


class TestRngStream:
    def test_deterministic(self):
        a = rng_stream(123, 4).standard_normal(8)
        b = rng_stream(123, 4).standard_normal(8)
        assert_array_equal(a, b)

    def test_streams_differ(self):
        a = rng_stream(123, 4).standard_normal(8)
        b = rng_stream(123, 5).standard_normal(8)
        c = rng_stream(124, 4).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_range_validation(self):
        rng_stream(0, 0)
        rng_stream(2**64 - 1, 2**64 - 1)
        for seed, index in ((-1, 0), (0, -1), (2**64, 0), (0, 2**64)):
            with pytest.raises(ValueError):
                rng_stream(seed, index)
        with pytest.raises(ValueError, match=rf"^seed must be a 64-bit unsigned integer, got {2**64}$"):
            rng_stream(2**64, 0)

    def test_seed_and_index_are_integers(self):
        """A float seed or index is refused, not truncated to another
        stream; numpy integers are taken as the ints they hold."""
        for seed, index in ((1.7, 0), (1.0, 0), (0, 2.0), (0, 0.5)):
            with pytest.raises(TypeError):
                rng_stream(seed, index)
        want = rng_stream(7, 3).standard_normal(4)
        assert_array_equal(rng_stream(np.uint64(7), np.int64(3)).standard_normal(4), want)

    def test_fresh_seed_in_range(self):
        for _ in range(8):
            seed = fresh_seed()
            assert 0 <= seed < 2**64


class TestUniformSupport:
    def test_weight(self):
        rng = rng_stream(7, 0)
        for _ in range(20):
            assert len(uniform_support(9, 4, rng).indices()) == 4

    def test_full_support_allowed(self):
        rng = rng_stream(7, 1)
        assert uniform_support(4, 4, rng).bitstring() == "1111"

    def test_uniform_over_subsets(self):
        """Every 2-subset of 5 coordinates appears at the same frequency."""
        rng = rng_stream(20260819, 0)
        n = 20_000
        bins = {}
        for _ in range(n):
            key = tuple(uniform_support(5, 2, rng).indices())
            bins[key] = bins.get(key, 0) + 1
        assert len(bins) == 10
        expected = n / 10.0
        stat = sum((c - expected) ** 2 / expected for c in bins.values())
        assert stat < scipy.stats.chi2.ppf(0.999, df=9)

    @pytest.mark.parametrize("d, s", [(6, 3), (7, 2)])
    def test_block_draws_uniform_over_subsets(self, d, s):
        """Every s-subset appears at the same frequency in rows of the
        block sampler, the one estimate_risk runs."""
        n = 2000 * math.comb(d, s)
        rows = np.sort(uniform_supports(rng_stream(20261018, d).random((n, s)), d), axis=1)
        assert (np.diff(rows, axis=1) > 0).all()
        subsets, counts = np.unique(rows, axis=0, return_counts=True)
        assert len(subsets) == math.comb(d, s)
        expected = n / len(subsets)
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < scipy.stats.chi2.ppf(0.999, df=len(subsets) - 1)

    def test_one_row_of_the_block_sampler(self):
        """uniform_support spends s uniforms and places them as
        uniform_supports places a row of them."""
        for d, s in ((9, 4), (200, 10), (10_000, 100), (5, 5)):
            rng, same = rng_stream(3, d), rng_stream(3, d)
            eta = uniform_support(d, s, rng)
            want = uniform_supports(same.random((1, s)), d)[0]
            assert eta.indices() == sorted(int(j) + 1 for j in want)
            assert rng.random() == same.random()  # both streams moved on by s words

    def test_validation(self):
        rng = rng_stream(7, 2)
        with pytest.raises(ValueError):
            uniform_support(4, 0, rng)
        with pytest.raises(ValueError):
            uniform_support(4, 5, rng)


def _sequential_floyd(t_row, d):
    """Floyd's algorithm one step at a time: step k adds t_k, or
    d - s + k when t_k is already chosen."""
    s = len(t_row)
    chosen = []
    for k, t in enumerate(t_row):
        chosen.append(d - s + k if t in chosen else t)
    return chosen


@st.composite
def _floyd_blocks(draw):
    """(d, t): a block of valid step draws, 0 <= t[r, k] <= d - s + k.

    Negative raw values map into the high band d - s .. d - s + k, where
    collisions chain, so about half the draws land there."""
    d = draw(st.integers(1, 40))
    s = draw(st.integers(1, d))
    rows = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(-d, d), min_size=rows * s, max_size=rows * s))
    t = np.array(raw, dtype=np.intp).reshape(rows, s)
    k = np.arange(s)
    return d, np.where(t >= 0, t % (d - s + k + 1), d - s + (-t - 1) % (k + 1))


class TestFloydResolve:
    @settings(max_examples=200)
    @given(block=_floyd_blocks())
    @example(block=(1, np.array([[0]])))  # s = d = 1
    @example(block=(9, np.array([[4]])))  # s = 1
    @example(block=(4, np.array([[0, 1, 2, 3], [0, 0, 0, 0], [0, 1, 1, 2]])))  # s = d
    # a chain: step 1 repeats t_0 and adds 2, t_2 = 2 then collides and
    # adds 3, and t_3 = 3 collides and adds 4; row 2 has no collision
    @example(block=(5, np.array([[0, 0, 2, 3], [1, 2, 3, 4]])))
    @example(block=(12, np.array([[0, 0, 8, 9, 10]])))  # a chain through every step
    def test_block_equals_sequential_floyd(self, block):
        d, t = block
        got = floyd_resolve(t, d)
        assert got.shape == t.shape
        for row, t_row in zip(got, t):
            want = _sequential_floyd([int(v) for v in t_row], d)
            assert row.tolist() == want
            assert len(set(want)) == len(want)


class TestLeastFavorableDraw:
    def test_lower_bound_magnitudes(self):
        p = ProblemInstance(d=12, s=3, signal=LowerBound(2.5))
        rng = rng_stream(11, 0)
        theta, eta = least_favorable_draw(p, rng)
        assert len(eta.indices()) == 3
        assert_array_equal(theta[eta.bits], 2.5)
        assert_array_equal(theta[~eta.bits], 0.0)

    def test_two_sided_sign_is_global(self):
        p = ProblemInstance(d=10, s=4, signal=TwoSided(1.5))
        rng = rng_stream(12, 0)
        for _ in range(50):
            theta, eta = least_favorable_draw(p, rng)
            on = theta[eta.bits]
            assert set(np.unique(on)) in ({1.5}, {-1.5})

    def test_two_sided_sign_frequency(self):
        p = ProblemInstance(d=6, s=2, signal=TwoSided(1.0))
        rng = rng_stream(13, 0)
        n = 4000
        neg = 0
        for _ in range(n):
            theta, _ = least_favorable_draw(p, rng)
            neg += int(theta.sum() < 0)
        # binomial(4000, 1/2), three sigma band
        assert abs(neg - n / 2) < 3.0 * math.sqrt(n / 4.0)

    def test_draw_order_support_then_sign(self):
        """The documented stream contract: support consumed first, sign second."""
        p = ProblemInstance(d=8, s=3, signal=TwoSided(2.0))
        theta, eta = least_favorable_draw(p, rng_stream(99, 7))
        rng = rng_stream(99, 7)
        eta2 = uniform_support(8, 3, rng)
        value = -2.0 if rng.random() < 0.5 else 2.0
        assert eta == eta2
        assert_array_equal(theta, np.where(eta2.bits, value, 0.0))

    def test_interval_rejected(self):
        p = ProblemInstance(d=8, s=3, signal=Interval(1.0, 2.0))
        with pytest.raises(ValueError):
            least_favorable_draw(p, rng_stream(1, 0))

    def test_non_gaussian_rejected(self):
        p = ProblemInstance(
            d=8, s=3, signal=Interval(0.1, 0.9), family=Family.BERNOULLI
        )
        with pytest.raises(ValueError):
            least_favorable_draw(p, rng_stream(1, 0))


class TestCrowdInstance:
    def test_basic(self):
        votes = np.array([[1, 0, 1], [0, 0, 1]])
        c = CrowdInstance(votes=votes, rates=[(0.1, 0.8), (0.2, 0.9)])
        assert c.votes.shape == (2, 3)
        assert c.d == 3

    def test_votes_read_only(self):
        c = CrowdInstance(votes=[[1, 0]], rates=[(0.1, 0.9)])
        with pytest.raises(ValueError):
            c.votes[0, 0] = 0

    def test_non_binary_votes(self):
        with pytest.raises(ValueError):
            CrowdInstance(votes=[[1, 2]], rates=[(0.1, 0.9)])

    def test_votes_must_be_a_nonempty_matrix(self):
        for votes in ([1, 0, 1], np.zeros((1, 0)), np.zeros((0, 3))):
            with pytest.raises(ValueError, match="nonempty m x d matrix"):
                CrowdInstance(votes=votes, rates=[(0.1, 0.9)])

    def test_no_workers(self):
        with pytest.raises(ValueError, match="need at least one worker"):
            CrowdInstance(votes=[[1, 0, 1]], rates=[])

    def test_rate_count_mismatch(self):
        with pytest.raises(ValueError):
            CrowdInstance(votes=[[1, 0], [0, 1]], rates=[(0.1, 0.9)])

    def test_rate_bounds_name_the_worker(self):
        with pytest.raises(ValueError, match="worker 2"):
            CrowdInstance(votes=[[1], [0]], rates=[(0.1, 0.9), (0.0, 0.9)])

    def test_uninformative_worker_rejected(self):
        with pytest.raises(ValueError, match="worker 1"):
            CrowdInstance(votes=[[1, 0]], rates=[(0.5, 0.5)])

    def test_anti_informative_allowed(self):
        CrowdInstance(votes=[[1, 0]], rates=[(0.9, 0.1)])


class TestRiskReport:
    def test_requires_some_value(self):
        # MC-only: an estimate is required, and there is no closed-form field
        with pytest.raises(TypeError):
            RiskReport(loss_kind=LossKind.HAMMING)
        with pytest.raises(TypeError):
            RiskReport(loss_kind=LossKind.HAMMING, closed_form=1.0)

    def test_mc_fields_travel_together(self):
        with pytest.raises(TypeError):
            RiskReport(loss_kind=LossKind.HAMMING, mc_estimate=0.3)
        fields = dict(loss_kind=LossKind.HAMMING, mc_estimate=0.3, mc_stderr=0.01, seed=5)
        with pytest.raises(ValueError, match="replications >= 1"):
            RiskReport(replications=0, **fields)
        with pytest.raises(ValueError, match="mc_stderr >= 0"):
            RiskReport(replications=100, **{**fields, "mc_stderr": -0.01})
        r = RiskReport(replications=100, **fields)
        assert r.replications == 100

    def test_loss_kind_values(self):
        assert LossKind("hamming") is LossKind.HAMMING
        assert LossKind("normalized-hamming") is LossKind.NORMALIZED_HAMMING
        assert LossKind("wrong-recovery") is LossKind.WRONG_RECOVERY


class TestCsvReaders:
    def test_observations_basic(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0.5\n-2.25\n3e-1\n")
        assert_allclose(read_observations_csv(f), [0.5, -2.25, 0.3])

    def test_observations_trailing_blank_ok(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0\n2.0\n\n\n")
        assert_allclose(read_observations_csv(f), [1.0, 2.0])

    def test_observations_interior_blank_line_number(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0\n\n2.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_observations_csv(f)

    def test_observations_non_numeric_line_number(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0\ntwo\n3.0\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_observations_csv(f)

    def test_observations_non_finite(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0\nnan\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_observations_csv(f)
        f.write_text("inf\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_observations_csv(f)

    def test_observations_empty(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("")
        with pytest.raises(DataFormatError):
            read_observations_csv(f)

    def test_votes_basic(self, tmp_path):
        f = tmp_path / "v.csv"
        f.write_text("1,0,1\n0,1,1\n")
        votes = read_votes_csv(f)
        assert votes.shape == (2, 3)
        assert_array_equal(votes, [[1, 0, 1], [0, 1, 1]])

    def test_votes_ragged(self, tmp_path):
        f = tmp_path / "v.csv"
        f.write_text("1,0,1\n0,1\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_votes_csv(f)

    def test_votes_non_binary(self, tmp_path):
        f = tmp_path / "v.csv"
        f.write_text("1,0\n0,3\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_votes_csv(f)

    def test_rates_basic(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1,0.9\n0.2,0.7\n")
        assert read_rates_csv(f) == [(0.1, 0.9), (0.2, 0.7)]

    def test_rates_field_count(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1,0.9\n0.2\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_rates_csv(f)

    def test_rates_non_numeric(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("a,0.9\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_rates_csv(f)

    @pytest.mark.parametrize(
        "reader, row", [(read_votes_csv, "1,0,1"), (read_rates_csv, "0.1,0.9")],
        ids=["votes", "rates"],
    )
    def test_blank_lines_only_trail(self, tmp_path, reader, row):
        f = tmp_path / "f.csv"
        f.write_text(f"{row}\n\n{row}\n")
        with pytest.raises(DataFormatError, match="line 2: empty row"):
            reader(f)
        f.write_text(f"{row}\n{row}\n\n\n")
        assert len(reader(f)) == 2

    def test_data_format_error_is_value_error(self):
        assert issubclass(DataFormatError, ValueError)
