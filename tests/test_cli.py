"""Command-line interface tests.

Each command is exercised through main(argv) so stdout/stderr and exit
codes are checked exactly as a shell user would see them; one smoke test
goes through a real subprocess.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hamsel import cli, selectors, simulate
from hamsel.model import (
    Adaptive,
    Family,
    Interval,
    LowerBound,
    ProblemInstance,
    Threshold,
    TopS,
    TwoSided,
)
from hamsel.numkit import POISSON_RATE_MAX
from hamsel.risk import (
    psi_bar,
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
    cosh_threshold,
    crowd_selector,
    llr_threshold,
    resolve_selector,
    select_row,
    spec_for_kind,
    universal_threshold,
)
from hamsel.simulate import MCConfig, apply_selector, estimate_risk

from checkout import checkout_env
from oracles import llr_cut_exact


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRiskCommand:
    def test_psi_plus_golden_line(self, capsys):
        code, out, err = run_cli(
            capsys, "risk", "--class", "plus", "--d", "2", "--s", "1",
            "--a", "2", "--sigma", "1", "--which", "psi-plus",
        )
        assert code == 0
        assert err == ""
        assert out == '{"psi_plus": 0.31731050786291415}\n'

    def test_bernoulli_default_which(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk", "--class", "bernoulli", "--d", "10", "--s", "1",
            "--a0", "0.1", "--a1", "0.9",
        )
        assert code == 0
        assert out == '{"psi": 1.0, "t": 1.0}\n'

    def test_default_which_per_class(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk", "--class", "two-sided", "--d", "100", "--s", "10", "--a", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"psi_bar": psi_bar(100, 10, 2.0)}

    def test_poisson_general(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk", "--class", "poisson", "--d", "4", "--s", "2",
            "--a0", "1", "--a1", repr(math.e),
        )
        assert code == 0
        payload = json.loads(out)
        assert_allclose(
            payload["psi"], psi_general(Family.POISSON, 4, 2, 1.0, math.e), rtol=1e-15
        )
        assert_allclose(payload["t"], math.e - 1.0, rtol=1e-15)

    def test_llr_cut_survives_an_overflowing_rate_quotient(self, capsys):
        """a1/a0 (Poisson) and the odds product (Bernoulli) overflow here; the
        cut is the difference of the logs, not a 0 that selects everything."""
        code, out, _ = run_cli(capsys, "risk", "--class", "poisson", "--d", "10", "--s", "1",
                               "--a0", "1e-305", "--a1", "10000")
        payload = json.loads(out)
        exact = llr_cut_exact(ProblemInstance(10, 1, Interval(1e-305, 1e4), Family.POISSON))
        assert (code, payload["psi"]) == (0, 0.0)
        assert_allclose(payload["t"], float(exact), rtol=1e-12)
        code, out, _ = run_cli(capsys, "risk", "--class", "bernoulli", "--d", "10", "--s", "1",
                               "--a0", "5e-324", "--a1", "0.9")
        assert (code, json.loads(out)["psi"]) == (0, (1.0 - 0.9) + 5e-324 * 9.0)

    def test_interval_uses_gaussian_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk", "--class", "interval", "--d", "50", "--s", "5",
            "--a0", "-1", "--a1", "2",
        )
        assert code == 0
        assert json.loads(out)["psi"] == psi_plus(50, 5, 3.0)

    def test_negative_exponent_value_is_not_an_option(self, capsys):
        """A negative float in exponent form is a value, spaced or with '='."""
        head = ("risk", "--class", "interval", "--d", "200", "--s", "10")
        spaced = run_cli(capsys, *head, "--a0", "-6.1e-05", "--a1", "3.564359")
        joined = run_cli(capsys, *head, "--a0=-6.1e-05", "--a1", "3.564359")
        assert spaced == joined
        assert spaced[0] == 0
        assert json.loads(spaced[1])["psi"] == psi_plus(200, 10, 3.564359 + 6.1e-05)

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-.5e1", "-3.e0", "-7"])
    def test_negative_float_forms_on_every_numeric_flag(self, capsys, value):
        code, out, err = run_cli(
            capsys, "select", "--input", "missing.csv", "--method", "threshold", "--t", value,
        )
        # parsed as --t's value: the run gets as far as opening the file
        assert (code, out) == (2, "")
        assert "missing.csv" in err
        code, _, err = run_cli(
            capsys, "phase", "--d-list", "100", "--s-rule", "fixed:5", "--a-mult", value,
            "--selectors", "plus", "--reps", "2", "--seed", "1",
        )
        assert code == 2
        assert "multiplier" in err

    def test_wrong_recovery_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk", "--class", "plus", "--d", "100", "--s", "10",
            "--a", "2.5", "--which", "wrong-recovery",
        )
        assert code == 0
        b = wrong_recovery_bounds(100, 10, 2.5)
        payload = json.loads(out)
        assert payload["upper_plus"] == b.upper_plus
        assert payload["lower_bar"] == b.lower_bar

    def test_bounds_reject_dense_instance(self, capsys):
        code, out, err = run_cli(
            capsys, "risk", "--class", "plus", "--d", "10", "--s", "5",
            "--a", "2", "--which", "bounds",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_general_needs_rates(self, capsys):
        code, _, err = run_cli(
            capsys, "risk", "--class", "bernoulli", "--d", "10", "--s", "1",
            "--a0", "0.1",
        )
        assert code == 2
        assert "--a1" in err

    def test_general_which_rejects_threshold_classes(self, capsys):
        code, _, err = run_cli(
            capsys, "risk", "--class", "plus", "--d", "10", "--s", "1",
            "--a", "2", "--which", "general",
        )
        assert code == 2

    def test_missing_a_is_named(self, capsys):
        code, _, err = run_cli(
            capsys, "risk", "--class", "plus", "--d", "10", "--s", "1",
        )
        assert code == 2
        assert "--a" in err

    @pytest.mark.parametrize("klass, a0, a1", [("bernoulli", "0.1", "0.9"), ("poisson", "1", "2")])
    @pytest.mark.parametrize("sigma", ["0", "-1"])
    def test_sigma_on_a_discrete_class_is_not_read_as_by_mc(self, capsys, klass, a0, a1, sigma):
        """risk and mc take the same class route, which reads --sigma only on
        a Gaussian class: a Bernoulli or Poisson run refuses any value of it,
        with the same line from both commands."""
        head = ("--class", klass, "--d", "10", "--s", "1", "--a0", a0, "--a1", a1, f"--sigma={sigma}")
        code, out, err = run_cli(capsys, "risk", *head)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "sigma" in err
        mc = run_cli(capsys, "mc", *head, "--selector", "llr", "--reps", "5", "--seed", "1")
        assert mc == (code, out, err)

    @pytest.mark.parametrize("klass, a0, a1", [("bernoulli", "0.1", "0.9"), ("poisson", "1", "2")])
    def test_zero_sparsity_is_a_usage_error(self, capsys, klass, a0, a1):
        code, out, err = run_cli(
            capsys, "risk", "--class", klass, "--d", "10", "--s", "0", "--a0", a0, "--a1", a1,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "s=0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("risk", "--class", "two-sided", "--sigma", "1e-300"),
            ("mc", "--class", "two-sided", "--selector", "cosh", "--sigma", "1e-300",
             "--reps", "5", "--seed", "1"),
            ("risk", "--class", "plus", "--sigma", "1e-303"),
        ],
    )
    def test_squared_level_ratio_out_of_range_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--d", "200", "--s", "10", "--a", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "(a/sigma)^2" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, level",
        [
            (("--class", "two-sided", "--d", "200", "--s", "10"), "1e-170"),
            (("--class", "plus", "--d", "500", "--s", "5", "--which", "bounds"), "1e300"),
        ],
    )
    def test_level_and_scale_enter_only_through_their_ratio(self, capsys, argv, level):
        """a = sigma at either end of the float range prints what a = sigma = 1 does."""
        code, out, err = run_cli(capsys, "risk", *argv, "--a", level, "--sigma", level)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, "risk", *argv, "--a", "1", "--sigma", "1")


class TestSelectCommand:
    def test_threshold_abs_golden(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0.1\n2.3\n-1.5\n")
        code, out, _ = run_cli(
            capsys, "select", "--input", str(f), "--method", "threshold-abs", "--t", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["selected"] == [2, 3]
        assert payload["bits"] == "011"
        assert payload["threshold_used"] == 1.0
        assert payload["diagnostics"] == {}

    def test_one_sided_threshold(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0.1\n2.3\n-1.5\n")
        code, out, _ = run_cli(
            capsys, "select", "--input", str(f), "--method", "threshold", "--t", "1",
        )
        assert code == 0
        assert json.loads(out)["selected"] == [2]

    def test_empty_file_is_a_data_error(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("")
        code, _, err = run_cli(
            capsys, "select", "--input", str(f), "--method", "threshold", "--t", "1",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_line_is_located(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0\noops\n")
        code, _, err = run_cli(
            capsys, "select", "--input", str(f), "--method", "threshold", "--t", "1",
        )
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("method", ["threshold", "threshold-abs"])
    @pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
    def test_non_finite_cut_rejected(self, capsys, tmp_path, method, t):
        """A cut of inf would print "threshold_used": inf, which is not JSON."""
        f = tmp_path / "x.csv"
        f.write_text("0.1\n2.3\n-1.5\n")
        code, out, err = run_cli(capsys, "select", "--input", str(f), "--method", method, f"--t={t}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_universal_reports_its_cut(self, capsys, tmp_path):
        values = np.random.default_rng(7).normal(0.0, 1.0, size=50)
        values[[3, 9]] = [4.5, -5.0]
        f = tmp_path / "x.csv"
        f.write_text("".join(f"{float(v)!r}\n" for v in values))
        code, out, _ = run_cli(
            capsys, "select", "--input", str(f), "--method", "universal", "--sigma", "1.5",
        )
        assert code == 0
        payload = json.loads(out)
        p = ProblemInstance(50, 1, TwoSided(1.0), sigma=1.5)
        assert payload["selected"] == apply_selector(spec_for_kind("universal", p), values, p).indices()
        assert payload["threshold_used"] == universal_threshold(50, 1.5)

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(
            capsys, "select", "--input", "/nonexistent/x.csv", "--method", "universal",
        )
        assert code == 2

    def test_cosh_reports_equivalent_cut(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 2.0, size=12)
        f = tmp_path / "x.csv"
        f.write_text("".join(f"{float(v)!r}\n" for v in values))
        code, out, _ = run_cli(
            capsys, "select", "--input", str(f), "--method", "cosh", "--s", "2", "--a", "1.5",
        )
        assert code == 0
        payload = json.loads(out)
        from hamsel.selectors import cosh_selector, cosh_threshold

        want = cosh_selector(values, 12, 2, 1.5)
        assert payload["selected"] == want.indices()
        assert payload["threshold_used"] == cosh_threshold(12, 2, 1.5)

    def test_llr_bernoulli(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0\n1\n1\n0\n0\n0\n0\n0\n0\n0\n")
        code, out, _ = run_cli(
            capsys, "select", "--input", str(f), "--method", "llr",
            "--family", "bernoulli", "--s", "1", "--a0", "0.1", "--a1", "0.9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["selected"] == [2, 3]
        assert payload["threshold_used"] == 1.0

    def test_tops_has_no_threshold(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0.5\n-2.0\n1.0\n")
        code, out, _ = run_cli(
            capsys, "select", "--input", str(f), "--method", "tops", "--s", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["selected"] == [3]
        assert payload["threshold_used"] is None

    def test_tops_by_abs(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0.5\n-2.0\n1.0\n")
        code, out, _ = run_cli(
            capsys, "select", "--input", str(f), "--method", "tops", "--s", "1", "--by-abs",
        )
        assert code == 0
        assert json.loads(out)["selected"] == [2]

    def test_adaptive_diagnostics_match_library(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 1.0, size=64)
        values[:3] += 5.0
        f = tmp_path / "x.csv"
        f.write_text("".join(f"{float(v)!r}\n" for v in values))
        code, out, _ = run_cli(
            capsys, "select", "--input", str(f), "--method", "adaptive", "--s-star", "8",
        )
        assert code == 0
        payload = json.loads(out)
        res = adaptive_selector(values, 8)
        assert payload["selected"] == res.support.indices()
        assert payload["diagnostics"]["chosen_m"] == res.diagnostics["chosen_m"]
        assert payload["diagnostics"]["grid"] == res.diagnostics["grid"]
        assert payload["diagnostics"]["block_counts"] == {
            str(k): v for k, v in res.diagnostics["block_counts"].items()
        }
        assert payload["threshold_used"] == res.diagnostics["threshold_used"]

    def test_adaptive_plan_is_formed_once(self, capsys, tmp_path, monkeypatch):
        """select --method adaptive forms its plan once, in resolve_selector,
        and reports what that plan's selection computed."""
        calls = []

        def counted(*args):
            calls.append(args)
            return adaptive_plan(*args)

        monkeypatch.setattr(selectors, "adaptive_plan", counted)
        f = tmp_path / "x.csv"
        f.write_text("".join(f"{v!r}\n" for v in (0.3, -2.1, 4.4, 0.0, -0.7, 1.9, 5.2, -3.3)))
        code, _, _ = run_cli(capsys, "select", "--input", str(f), "--method", "adaptive",
                             "--s-star", "2")
        assert (code, len(calls)) == (0, 1)

    def test_crowd_selection(self, capsys, tmp_path):
        votes = tmp_path / "v.csv"
        votes.write_text("1,0,1,1\n0,0,1,0\n1,1,1,0\n")
        rates = tmp_path / "r.csv"
        rates.write_text("0.2,0.9\n0.1,0.6\n0.3,0.8\n")
        code, out, _ = run_cli(
            capsys, "select", "--votes", str(votes), "--rates", str(rates), "--s", "1",
        )
        assert code == 0
        payload = json.loads(out)
        from hamsel.model import CrowdInstance
        from hamsel.model import read_rates_csv, read_votes_csv

        crowd = CrowdInstance(read_votes_csv(votes), tuple(read_rates_csv(rates)))
        want = crowd_selector(crowd, 1).support
        assert payload["selected"] == want.indices()
        assert payload["threshold_used"] == math.log(3.0)
        assert len(payload["diagnostics"]["weights"]) == 3

    @pytest.mark.parametrize("rates, bits", [("5e-324,0.9", "10100"), ("0.9999999999999999,5e-324", "01011")])
    def test_crowd_weights_stay_finite_at_extreme_rates(self, capsys, tmp_path, rates, bits):
        """The worker's odds product overflows (an informative worker) or
        underflows (an anti-informative one): its weight is still finite."""
        (tmp_path / "v.csv").write_text("1,0,1,0,0\n")
        (tmp_path / "r.csv").write_text(rates + "\n")
        code, out, err = run_cli(capsys, "select", "--votes", str(tmp_path / "v.csv"),
                                 "--rates", str(tmp_path / "r.csv"), "--s", "1")
        payload = json.loads(out)
        assert (code, err, payload["bits"]) == (0, "", bits)
        assert all(math.isfinite(w) for w in payload["diagnostics"]["weights"])

    @pytest.mark.parametrize(
        "route, spec",
        [
            (["--method", "threshold", "--t", "1"], Threshold(1.0)),
            (["--method", "threshold-abs", "--t", "1"], Threshold(1.0, two_sided=True)),
            (["--method", "universal"], Threshold(universal_threshold(10), two_sided=True)),
            (["--method", "tops", "--s", "1"], TopS(1)),
            (["--method", "tops", "--s", "1", "--by-abs"], TopS(1, one_sided=False)),
            (["--method", "cosh", "--s", "2", "--a", "1.5"],
             Threshold(cosh_threshold(10, 2, 1.5), two_sided=True)),
            (["--method", "llr", "--s", "1", "--a0", "0", "--a1", "2"],
             Threshold(llr_threshold(Family.GAUSSIAN, 10, 1, 0.0, 2.0))),
            (["--method", "llr", "--family", "bernoulli", "--s", "1", "--a0", "0.1", "--a1", "0.9"],
             Threshold(llr_threshold(Family.BERNOULLI, 10, 1, 0.1, 0.9))),
            (["--method", "llr", "--family", "poisson", "--s", "1", "--a0", "0.5", "--a1", "3"],
             Threshold(llr_threshold(Family.POISSON, 10, 1, 0.5, 3.0))),
            (["--method", "adaptive", "--s-star", "2"], Adaptive(2)),
            (["--votes", "VOTES", "--rates", "RATES", "--s", "1"], None),
        ],
        ids=["threshold", "threshold-abs", "universal", "tops", "tops-by-abs", "cosh",
             "llr-gaussian", "llr-bernoulli", "llr-poisson", "adaptive", "crowd"],
    )
    def test_one_record_shape_for_every_route(self, capsys, tmp_path, route, spec):
        """Every route prints {selected, bits, threshold_used, diagnostics} in
        that order: threshold_used null only for tops, and diagnostics empty
        but for adaptive (chosen_m first) and crowd voting (its weights and
        intercept).  A file route prints select_row's SelectResult for its
        spec, whose diagnostics are threshold_used alone (t, or None for
        TopS) but for Adaptive's."""
        files = {
            "VOTES": "1,0,1,1,0,0,0,0,0,0\n0,0,1,0,0,0,0,1,0,0\n1,1,1,0,0,0,0,0,0,0\n",
            "RATES": "0.2,0.9\n0.1,0.6\n0.3,0.8\n",
            "OBSERVATIONS": "0\n1\n1\n0\n0\n0\n0\n0\n1\n0\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / part) if part in files else part for part in route]
        if "--votes" not in route:
            argv = ["--input", str(tmp_path / "OBSERVATIONS"), *argv]
        code, out, err = run_cli(capsys, "select", *argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert list(payload) == ["selected", "bits", "threshold_used", "diagnostics"]
        assert (payload["threshold_used"] is None) == ("tops" in route)
        diagnostics = list(payload["diagnostics"])
        if "adaptive" in route:
            assert diagnostics[0] == "chosen_m"
        elif "--votes" in route:
            assert sorted(diagnostics) == ["intercept", "weights"]
        else:
            assert diagnostics == []
        if spec is None:
            return
        family = route[route.index("--family") + 1] if "--family" in route else "gaussian"
        result = select_row(spec, [0, 1, 1, 0, 0, 0, 0, 0, 1, 0], 10, family)
        if isinstance(spec, Adaptive):
            assert list(result.diagnostics) == [
                "chosen_m", "grid", "thresholds", "tau", "block_counts", "threshold_used"
            ]
        else:
            assert result.diagnostics == {"threshold_used": getattr(spec, "t", None)}
        assert payload["selected"] == result.support.indices()
        assert payload["threshold_used"] == result.diagnostics["threshold_used"]
        assert diagnostics == list(result.diagnostics)[:-1]

    def test_crowd_needs_both_files(self, capsys, tmp_path):
        votes = tmp_path / "v.csv"
        votes.write_text("1,0\n")
        code, _, err = run_cli(capsys, "select", "--votes", str(votes), "--s", "1")
        assert code == 2
        assert "--rates" in err

    def test_method_required_without_crowd_files(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0\n")
        code, _, err = run_cli(capsys, "select", "--input", str(f))
        assert code == 2
        assert "--method" in err

    _COUNTS = "0\n3\n1\n0\n7\n2\n0\n0\n1\n0\n"

    @staticmethod
    def _library_error(check):
        """The error line main prints for the ValueError check raises."""
        with pytest.raises(ValueError) as exc:
            check()
        return f"error: {exc.value}\n"

    @pytest.mark.parametrize(
        "route, check",
        [
            (["--method", "cosh", "--s", "2", "--a", "1.5"],
             lambda: ProblemInstance(10, 2, TwoSided(1.5), Family.POISSON)),
            (["--method", "universal"],
             lambda: resolve_selector(Threshold(1.0, two_sided=True), 10, Family.POISSON)),
            (["--method", "threshold-abs", "--t", "1"],
             lambda: resolve_selector(Threshold(1.0, two_sided=True), 10, Family.POISSON)),
            (["--method", "adaptive", "--s-star", "2"],
             lambda: resolve_selector(Adaptive(2), 10, Family.POISSON)),
        ],
        ids=["cosh", "universal", "threshold-abs", "adaptive"],
    )
    def test_gaussian_only_methods_reject_another_family(self, capsys, tmp_path, route, check):
        """--family is the observations' family for every method, and the
        library's own check rejects a Gaussian-only rule on counts."""
        f = tmp_path / "x.csv"
        f.write_text(self._COUNTS)
        got = run_cli(capsys, "select", "--input", str(f), *route, "--family", "poisson")
        assert got == (2, "", self._library_error(check))

    @pytest.mark.parametrize(
        "route",
        [["--method", "threshold", "--t", "1"], ["--method", "tops", "--s", "1"],
         ["--method", "tops", "--s", "1", "--by-abs"]],
        ids=["threshold", "tops", "tops-by-abs"],
    )
    @pytest.mark.parametrize("family", ["poisson", "bernoulli"])
    def test_family_checks_the_observations(self, capsys, tmp_path, route, family):
        f = tmp_path / "x.csv"
        f.write_text("0.5\n-1.0\n2.0\n")
        got = run_cli(capsys, "select", "--input", str(f), *route, "--family", family)
        want = self._library_error(lambda: check_observations([0.5, -1.0, 2.0], 3, family))
        assert got == (2, "", want)

    @pytest.mark.parametrize(
        "route",
        [["--method", "threshold", "--t", "1"], ["--method", "threshold", "--t", "2.5"],
         ["--method", "tops", "--s", "3"], ["--method", "tops", "--s", "3", "--by-abs"]],
        ids=["threshold-1", "threshold-2.5", "tops", "tops-by-abs"],
    )
    def test_count_data_selects_as_under_gaussian(self, capsys, tmp_path, route):
        f = tmp_path / "x.csv"
        f.write_text(self._COUNTS)
        poisson = run_cli(capsys, "select", "--input", str(f), *route, "--family", "poisson")
        gaussian = run_cli(capsys, "select", "--input", str(f), *route, "--family", "gaussian")
        assert poisson[0] == 0
        assert poisson == gaussian

    @pytest.mark.parametrize(
        "files, argv, line",
        [
            (
                {"x.csv": "".join(f"{v!r}\n" for v in (0.3, -2.1, 4.4, 0.0, -0.7, 1.9, 5.2, -3.3,
                                                        0.1, 0.2, 0.4, -0.5, 0.6, 2.2, -0.05, 3.1))},
                ["--input", "x.csv", "--method", "adaptive", "--s-star", "4"],
                '{"selected": [2, 3, 6, 7, 8, 14, 16], "bits": "0110011100000101", '
                '"threshold_used": 1.4823038073675112, "diagnostics": {"chosen_m": 3, '
                '"grid": [1, 2, 4], "thresholds": [2.3272516843273356, 1.9727697022487511, '
                '1.4823038073675112], "tau": 0.98665444824406023, "block_counts": {"2": 2, "3": 1}}}\n',
            ),
            (
                {"v.csv": "1,0,1,1,0,0,0,0,0,0\n0,0,1,0,0,0,0,1,0,0\n1,1,1,0,0,0,0,0,0,0\n",
                 "r.csv": "0.2,0.9\n0.1,0.6\n0.3,0.8\n"},
                ["--votes", "v.csv", "--rates", "r.csv", "--s", "3"],
                '{"selected": [1, 3], "bits": "1010000000", "threshold_used": 0.84729786038720367, '
                '"diagnostics": {"weights": [3.5835189384561104, 2.6026896854443837, '
                '2.2335922215070947], "intercept": -4.1431347263915335}}\n',
            ),
        ],
        ids=["adaptive", "crowd"],
    )
    def test_record_bytes(self, capsys, tmp_path, files, argv, line):
        """The adaptive and crowd records, byte for byte, as the README's
        threshold example is pinned."""
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / part) if part in files else part for part in argv]
        assert run_cli(capsys, "select", *argv) == (0, line, "")


class TestMcCommand:
    def test_estimate_matches_library_bitwise(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--class", "plus", "--d", "30", "--s", "3", "--a", "2",
            "--selector", "plus", "--reps", "400", "--seed", "11",
        )
        assert code == 0
        payload = json.loads(out)
        p = ProblemInstance(d=30, s=3, signal=LowerBound(2.0))
        spec = spec_for_kind("plus", p)
        want = estimate_risk(p, spec, MCConfig(replications=400, seed=11))
        assert payload["estimate"] == want.mc_estimate
        assert payload["stderr"] == want.mc_stderr
        assert payload["seed"] == 11
        assert payload["replications"] == 400
        assert payload["closed_form"] == 3.0 * psi_plus(30, 3, 2.0)
        assert payload["family"] == "gaussian"
        assert payload["loss"] == "hamming"
        assert payload["a"] == 2.0
        assert payload["a0"] is None

    def test_oversized_d_exits_2_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "mc", "--class", "plus", "--d", "1000000000", "--s", "10", "--a", "3",
                "--selector", "plus", "--reps", "10", "--seed", "1",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "d=1000000000" in err
        assert peak < 4 << 20

    def test_tiny_level_and_scale_run(self, capsys):
        code, out, err = run_cli(
            capsys, "mc", "--class", "two-sided", "--d", "200", "--s", "10", "--a", "1e-170",
            "--sigma", "1e-170", "--selector", "cosh", "--reps", "2000", "--seed", "1",
        )
        assert (code, err) == (0, "")
        assert math.isfinite(json.loads(out)["estimate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("mc", "--class", "plus", "--d", "200", "--s", "10", "--a", "3",
             "--selector", "plus"),
            ("phase", "--d-list", "200", "--s-rule", "fixed:10", "--a-mult", "1",
             "--selectors", "plus"),
        ],
    )
    def test_oversized_replication_count_exits_2_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv, "--reps", "1000000000000", "--seed", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("error: 1000000000000 replications") and "limit" in err
        assert err.count("\n") == 1
        assert peak < 4 << 20

    def test_auto_seed_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--class", "plus", "--d", "10", "--s", "1", "--a", "2",
            "--selector", "plus", "--reps", "5",
        )
        assert code == 0
        seed = json.loads(out)["seed"]
        assert isinstance(seed, int)
        assert 0 <= seed < 2**64

    def test_normalized_loss_scales_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--class", "plus", "--d", "30", "--s", "3", "--a", "2",
            "--selector", "plus", "--reps", "50", "--seed", "1", "--loss", "normalized",
        )
        assert code == 0
        payload = json.loads(out)
        # the CLI scales the per-instance total by s, so match that arithmetic
        assert payload["closed_form"] == (3.0 * psi_plus(30, 3, 2.0)) / 3.0
        assert payload["loss"] == "normalized-hamming"

    def test_wrong_recovery_has_no_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--class", "plus", "--d", "30", "--s", "3", "--a", "2",
            "--selector", "plus", "--reps", "50", "--seed", "1", "--loss", "wrong-recovery",
        )
        assert code == 0
        assert json.loads(out)["closed_form"] is None

    def test_non_minimax_pairing_has_no_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--class", "two-sided", "--d", "30", "--s", "3", "--a", "2",
            "--selector", "tops", "--reps", "50", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["closed_form"] is None

    def test_interval_llr_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--class", "bernoulli", "--d", "10", "--s", "1",
            "--a0", "0.1", "--a1", "0.9", "--selector", "llr", "--reps", "50", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"] == 1.0 * psi_general(Family.BERNOULLI, 10, 1, 0.1, 0.9)

    @pytest.mark.parametrize(
        "level, kind",
        [(["--class", "plus", "--a", "2"], kind)
         for kind in ("plus", "two-sided", "cosh", "llr", "universal")]
        + [(["--class", "two-sided", "--a", "2"], kind)
           for kind in ("plus", "two-sided", "cosh", "universal")]
        + [(["--class", "interval", "--a0", "0", "--a1", "2"], kind) for kind in ("llr", "universal")]
        + [(["--class", "interval", "--a0", "-0.5", "--a1", "2"], "llr")],
        ids=lambda v: v if isinstance(v, str) else " ".join(v[1::2]),
    )
    @pytest.mark.parametrize("loss", ["hamming", "normalized"])
    def test_every_threshold_rule_has_a_closed_form(self, capsys, level, kind, loss):
        """On every Gaussian class, the exact risk of the rule's cut, per
        signal coordinate under normalized loss."""
        argv = ["mc", *level, "--d", "30", "--s", "3", "--selector", kind, "--reps", "5"]
        code, out, _ = run_cli(capsys, *argv, "--seed", "1", "--loss", loss)
        assert code == 0
        base = threshold_risk(cli._build_instance(cli._build_parser().parse_args(argv)), kind)
        assert json.loads(out)["closed_form"] == (base if loss == "hamming" else base / 3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--class", "plus", "--a", "2", "--selector", "adaptive", "--s-star", "4"],
            ["--class", "interval", "--a0", "-0.5", "--a1", "2", "--selector", "universal"],
        ],
        ids=["adaptive", "universal-interval"],
    )
    def test_closed_form_is_null_off_threshold_rules(self, capsys, argv):
        """tops (test_non_minimax_pairing_has_no_closed_form), the adaptive
        rule, and a cut on |x| around an interval class's nonzero a0."""
        code, out, _ = run_cli(
            capsys, "mc", "--d", "30", "--s", "3", *argv, "--reps", "5", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["closed_form"] is None

    @pytest.mark.parametrize("rho", ["0", "0.5"])
    @pytest.mark.parametrize("klass", ["plus", "two-sided"])
    @pytest.mark.parametrize("kind", ["universal", "two-sided"])
    def test_closed_form_within_4_stderr_of_the_estimate(self, capsys, kind, klass, rho):
        code, out, _ = run_cli(
            capsys, "mc", "--class", klass, "--d", "100", "--s", "5", "--a", "2.5",
            "--selector", kind, "--reps", "8000", "--seed", "1607", "--rho", rho,
        )
        assert code == 0
        got = json.loads(out)
        assert abs(got["estimate"] - got["closed_form"]) <= 4.0 * got["stderr"]

    def test_poisson_rate_over_the_limit_exits_2_before_allocating(self, capsys):
        """mc and risk refuse a Poisson a1 one float above POISSON_RATE_MAX,
        naming the rate and the limit; mc before it allocates."""
        above = repr(math.nextafter(POISSON_RATE_MAX, math.inf))
        rates = ["--class", "poisson", "--d", "200", "--s", "10", "--a0", "1", "--a1", above]
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "mc", *rates, "--selector", "llr", "--reps", "2", "--seed", "1"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = f"error: Poisson a1 = {above} is over the limit {POISSON_RATE_MAX}\n"
        assert (code, out, err) == (2, "", want)
        assert peak < 4 << 20
        assert run_cli(capsys, "risk", *rates) == (2, "", want)

    def test_zero_replications_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "--class", "plus", "--d", "10", "--s", "1", "--a", "2",
            "--selector", "plus", "--reps", "0", "--seed", "1",
        )
        assert code == 2
        assert err.startswith("error:")

    def test_rho_one_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "--class", "plus", "--d", "10", "--s", "1", "--a", "2",
            "--selector", "plus", "--reps", "5", "--seed", "1", "--rho", "1.0",
        )
        assert code == 2

    def test_adaptive_selector_needs_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "--class", "two-sided", "--d", "64", "--s", "4", "--a", "3",
            "--selector", "adaptive", "--reps", "5", "--seed", "1",
        )
        assert code == 2
        code, out, _ = run_cli(
            capsys, "mc", "--class", "two-sided", "--d", "64", "--s", "4", "--a", "3",
            "--selector", "adaptive", "--reps", "5", "--seed", "1", "--s-star", "16",
        )
        assert code == 0
        assert json.loads(out)["selector"] == "adaptive"


def _parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class TestPhaseCommand:
    def test_table_structure_and_golden_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase", "--d-list", "30,60", "--s-rule", "fixed:3",
            "--a-mult", "1.0", "--selectors", "plus", "--reps", "40", "--seed", "3",
        )
        assert code == 0
        rows = _parse_csv(out)
        assert len(rows) == 2
        assert list(rows[0]) == [
            "d", "s", "a", "sigma", "rho", "family", "selector", "loss_kind",
            "estimate", "stderr", "replications", "seed", "a_multiplier",
            "a_almost_full", "a_exact", "t_star",
        ]
        assert [r["d"] for r in rows] == ["30", "60"]
        assert all(r["seed"] == "3" for r in rows)

    def test_rerun_is_byte_identical(self, capsys):
        args = (
            "phase", "--d-list", "40", "--s-rule", "fixed:4", "--a-mult", "0.8,1.2",
            "--selectors", "plus,cosh", "--reps", "30", "--seed", "9",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_power_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase", "--d-list", "100,400", "--s-rule", "power:0.5",
            "--a-mult", "1.0", "--selectors", "plus", "--reps", "20", "--seed", "5",
        )
        assert code == 0
        rows = _parse_csv(out)
        assert [r["s"] for r in rows] == ["10", "20"]

    def test_power_rule_keeps_exact_powers(self, capsys):
        """32^0.8 and 27^(2/3) evaluate just above 16 and 9; ceil must not
        round them up to 17 and 10."""
        assert cli._parse_s_rule("power:0.2")(32) == 16
        assert cli._parse_s_rule("power:0.3333333333333333")(27) == 9
        assert cli._parse_s_rule("power:0.5")(101) == 11
        code, out, _ = run_cli(
            capsys, "phase", "--d-list", "243", "--s-rule", "power:0.2",
            "--a-mult", "1.0", "--selectors", "plus", "--reps", "20", "--seed", "5",
        )
        assert code == 0
        assert [r["s"] for r in _parse_csv(out)] == ["81"]

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "phase", "--d-list", "30", "--s-rule", "fixed:3",
            "--a-mult", "1.0", "--selectors", "plus", "--reps", "20", "--seed", "5",
            "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        rows = _parse_csv(dest.read_text())
        assert len(rows) == 1

    def test_estimates_match_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase", "--d-list", "30", "--s-rule", "fixed:3",
            "--a-mult", "1.0", "--selectors", "plus", "--reps", "40", "--seed", "3",
        )
        rows = _parse_csv(out)
        from hamsel.simulate import phase_sweep

        want = phase_sweep([30], 3, [1.0], ["plus"], MCConfig(replications=40, seed=3))
        assert float(rows[0]["estimate"]) == want[0]["estimate"]
        assert float(rows[0]["a"]) == want[0]["a"]

    def test_bad_s_rule(self, capsys):
        code, _, err = run_cli(
            capsys, "phase", "--d-list", "30", "--s-rule", "linear:3",
            "--a-mult", "1.0", "--selectors", "plus", "--reps", "20", "--seed", "5",
        )
        assert code == 2
        assert "s-rule" in err or "s_rule" in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            ({"--a-mult": "1,-1"}, "multiplier"),
            ({"--d-list": "200,15"}, "15"),
            ({"--selectors": "plus,adaptive"}, "error: --s-star is required for --selector adaptive\n"),
            ({"--d-list": "200,40", "--selectors": "plus,adaptive", "--s-star": "16"}, "d/4"),
        ],
        ids=["negative-multiplier", "s-too-large", "no-s-star", "s-star-above-d/4"],
    )
    def test_invalid_last_cell_fails_before_any_cell_runs(
        self, capsys, monkeypatch, flags, message
    ):
        """Only the last cell of each grid is invalid; the sweep builds and
        checks every cell first, so no estimate runs before it exits 2."""
        calls = []
        monkeypatch.setattr(simulate, "estimate_risk", lambda *args, **kw: calls.append(args))
        argv = {
            "--d-list": "200", "--s-rule": "fixed:10", "--a-mult": "1", "--selectors": "plus",
            "--reps": "200000", "--seed": "1", **flags,
        }
        code, out, err = run_cli(capsys, "phase", *[w for kv in argv.items() for w in kv])
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("error: ") and message in err


class TestSweepCommand:
    @staticmethod
    def _config(tmp_path, **overrides):
        data = {
            "d_list": [30, 60],
            "s_rule": "fixed:3",
            "a_multipliers": [1.0],
            "selectors": ["plus"],
            "replications": 30,
            "seed": 7,
        }
        data.update(overrides)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        return path

    def test_matches_equivalent_phase_run(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        code, sweep_out, _ = run_cli(capsys, "sweep", str(cfg))
        assert code == 0
        code, phase_out, _ = run_cli(
            capsys, "phase", "--d-list", "30,60", "--s-rule", "fixed:3",
            "--a-mult", "1.0", "--selectors", "plus", "--reps", "30", "--seed", "7",
        )
        assert code == 0
        assert sweep_out == phase_out

    def test_unknown_key_is_named(self, capsys, tmp_path):
        cfg = self._config(tmp_path, replicas=10)
        code, _, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert "'replicas'" in err
        assert "unknown" in err

    def test_sigma_is_not_a_key(self, capsys, tmp_path):
        """The grid is in units of sigma, so neither phase nor sweep sets it."""
        code, out, err = run_cli(capsys, "sweep", str(self._config(tmp_path, sigma=2.0)))
        assert (code, out) == (2, "")
        assert err == "error: config key 'sigma': unknown\n"

    def test_missing_key_is_named(self, capsys, tmp_path):
        cfg = self._config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["seed"]
        cfg.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert "'seed'" in err
        assert "missing" in err

    def test_type_error_is_named(self, capsys, tmp_path):
        cfg = self._config(tmp_path, replications="many")
        code, _, err = run_cli(capsys, "sweep", str(cfg))
        assert code == 2
        assert "'replications'" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "sweep", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_out_key_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "rows.csv"
        cfg = self._config(tmp_path, d_list=[30], out=str(dest))
        code, out, _ = run_cli(capsys, "sweep", str(cfg))
        assert code == 0
        assert out == ""
        assert len(_parse_csv(dest.read_text())) == 1

    def test_s_star_without_adaptive_is_not_read(self, capsys, tmp_path):
        """--s-star, or the s_star key, on a grid without adaptive exits 2
        naming it and the --selectors route, as mc does for its --selector."""
        phase = run_cli(
            capsys, "phase", "--d-list", "30,60", "--s-rule", "fixed:3", "--a-mult", "1.0",
            "--selectors", "plus", "--reps", "30", "--seed", "7", "--s-star", "4",
        )
        sweep = run_cli(capsys, "sweep", str(self._config(tmp_path, s_star=4)))
        assert phase == sweep == (2, "", "error: --s-star is not read by --selectors plus\n")

    @pytest.mark.parametrize(
        "overrides, flags",
        [
            ({"rho": 0.3}, ["--rho", "0.3"]),
            ({"loss": "normalized"}, ["--loss", "normalized"]),
            ({"loss": "wrong-recovery"}, ["--loss", "wrong-recovery"]),
            ({"a_ref": "exact"}, ["--a-ref", "exact"]),
            (
                {"s_star": 16, "selectors": ["adaptive"], "d_list": [64]},
                ["--s-star", "16", "--selectors", "adaptive", "--d-list", "64"],
            ),
            ({"out": "table.csv"}, ["--out", "table.csv"]),
            ({"s_star": None}, []),
            ({"out": None}, []),
        ],
        ids=[
            "rho", "loss-normalized", "loss-wrong-recovery", "a_ref-exact",
            "s_star", "out", "s_star-null", "out-null",
        ],
    )
    def test_optional_key_matches_phase_flag(
        self, capsys, tmp_path, monkeypatch, overrides, flags
    ):
        """A sweep prints, or writes to its out file, exactly what phase
        does with the flags its keys map to (a repeated flag's last value wins)."""
        monkeypatch.chdir(tmp_path)
        table = tmp_path / "table.csv"

        def run(*argv):
            result = run_cli(capsys, *argv)
            written = table.read_text() if table.exists() else None
            table.unlink(missing_ok=True)
            return (*result, written)

        sweep = run("sweep", str(self._config(tmp_path, **overrides)))
        phase = run(
            "phase", "--d-list", "30,60", "--s-rule", "fixed:3", "--a-mult", "1.0",
            "--selectors", "plus", "--reps", "30", "--seed", "7", *flags,
        )
        assert sweep == phase
        code, out, err, written = sweep
        assert (code, err) == (0, "")
        assert (out == "", written is not None) == ("--out" in flags,) * 2

    @pytest.mark.parametrize(
        "key, value, flag",
        [
            ("replications", True, "--reps"),
            ("replications", 3.0, "--reps"),
            ("d_list", [], "--d-list"),
            ("selectors", "plus", "--selectors"),
            ("rho", None, "--rho"),
            ("loss", "hamming-ish", "--loss"),
            ("a_ref", "exactly", "--a-ref"),
        ],
    )
    def test_rejected_value_is_named(self, capsys, tmp_path, key, value, flag):
        code, out, err = run_cli(capsys, "sweep", str(self._config(tmp_path, **{key: value})))
        assert (code, out) == (2, "")
        assert f"'{key}'" in err or flag in err


_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """The files README.md shows with `$ cat`, (argv, stdout) for each of
    its `$ hamsel risk` and `$ hamsel select` examples, and (argv, shown
    lines) for its `$ hamsel mc` and `$ hamsel phase` examples, whose
    output it elides with "...".  A command continues over lines ending in
    a backslash; its output is the lines after it up to a blank line, a
    fence or the next `$`."""
    lines = _README.read_text(encoding="utf-8").splitlines()
    files, examples, elided = {}, [], []
    for i, line in enumerate(lines):
        words = line.split()[1:3]
        if line[:2] != "$ " or not (words[:1] == ["cat"] or words[:1] == ["hamsel"]):
            continue
        command, end = line[2:], i + 1
        while command.endswith("\\"):
            command, end = command[:-1] + lines[end], end + 1
        shown = []
        for nxt in lines[end:]:
            if not nxt or nxt.startswith(("$ ", "```")):
                break
            shown.append(nxt + "\n")
        argv = shlex.split(command)
        if argv[0] == "cat":
            files[argv[1]] = "".join(shown)
        elif argv[1] in ("risk", "select"):
            examples.append((argv[1:], "".join(shown)))
        elif argv[1] in ("mc", "phase"):
            elided.append((argv[1:], shown))
    return files, examples, elided


_README_FILES, _README_EXAMPLES, _README_ELIDED = _readme_examples()


def _readme_sweep():
    """The JSON config README.md shows under "`sweep` reads the same grid",
    and its table of config keys -> `phase` flags."""
    after = _README.read_text(encoding="utf-8").split("`sweep` reads the same grid", 1)[1]
    config = after.split("```json\n", 1)[1].split("```", 1)[0]
    flags = dict(re.findall(r"^\| `(\w+)` +\| `(--[\w-]+)` +\|", after, re.MULTILINE))
    return config, flags


_README_SWEEP_CONFIG, _README_SWEEP_FLAGS = _readme_sweep()


class TestReadmeExamples:
    def test_examples_found(self):
        commands = [argv[0] for argv, _ in _README_EXAMPLES]
        assert commands.count("risk") >= 4
        assert "select" in commands
        assert "obs.csv" in _README_FILES
        assert sorted(argv[0] for argv, _ in _README_ELIDED) == ["mc", "mc", "phase"]

    @pytest.mark.parametrize(
        "argv, shown", _README_EXAMPLES, ids=[" ".join(a) for a, _ in _README_EXAMPLES]
    )
    def test_output_is_what_the_readme_shows(self, capsys, tmp_path, monkeypatch, argv, shown):
        for name, text in _README_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (0, shown, "")

    @pytest.mark.parametrize(
        "argv, shown", _README_ELIDED, ids=[" ".join(a) for a, _ in _README_ELIDED]
    )
    def test_elided_output_shows_what_the_cli_prints(self, capsys, argv, shown):
        """Every `"key": value` of the mc example is in the output; each line
        of the phase example starts its output line, up to the "..."."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if argv[0] == "mc":
            got = json.loads(out)
            fields = re.findall(r'"(\w+)": ([^,{}\s]+)', "".join(shown))
            assert {"estimate", "stderr", "seed", "closed_form"} <= {key for key, _ in fields}
            for key, text in fields:
                assert got[key] == json.loads(text), key
        else:
            rows = out.splitlines()
            assert 2 <= len(shown) <= len(rows)
            for line, row in zip(shown, rows):
                assert row.startswith(line.rstrip("\n").removesuffix("..."))

    def test_sweep_config_prints_what_phase_prints(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(_README_SWEEP_CONFIG, encoding="utf-8")
        sweep = run_cli(capsys, "sweep", str(config))
        phase = run_cli(
            capsys, "phase", "--d-list", "100,200", "--s-rule", "power:0.5",
            "--a-mult", "0.8,1.0,1.2", "--selectors", "plus,universal", "--reps", "2000",
            "--seed", "5",
        )
        assert sweep == phase
        code, out, err = sweep
        assert (code, err, len(_parse_csv(out))) == (0, "", 12)

    def test_sweep_key_table_is_the_cli_mapping(self):
        assert _README_SWEEP_FLAGS == {key: flag for key, (flag, _) in cli._SWEEP_KEYS.items()}

    def test_determinism_section_matches_the_engine(self):
        """The B table of the "Determinism" section is
        simulate._block_layout at each d, a block holds one row from the d
        it names on, and the constants the section states are the code's."""
        text = _README.read_text(encoding="utf-8").split("## Determinism\n", 1)[1]
        text = text.split("\n## ", 1)[0]
        ds = re.search(r"^\| d \|(.+)\|$", text, re.MULTILINE).group(1).split("|")
        sizes = re.search(r"^\| B \|(.+)\|$", text, re.MULTILINE).group(1).split("|")
        table = {
            int(d.replace(",", "")): int(b.replace(",", ""))
            for d, b in zip(ds, sizes, strict=True)
        }
        assert len(table) >= 6
        assert table == {d: simulate._block_layout(d, 10**9) for d in table}
        one_row = re.search(r"A block holds 1 row from d = ([\d,]+)", text)[1]
        one_row = int(one_row.replace(",", ""))
        rows = [simulate._block_layout(d, 10**9) for d in (one_row - 1, one_row)]
        assert rows[0] > rows[1] == 1
        stated = {
            name: float(value.replace(",", ""))
            for name, value in re.findall(r"`(?:\w+\.)?([A-Z_]+)` = ([\d,.e]+\d)", text)
        }
        assert stated == {
            "SHARE_MIN_WORK": simulate.SHARE_MIN_WORK,
            "POISSON_RATE_MAX": POISSON_RATE_MAX,
            "MAX_REPLICATIONS": simulate.MAX_REPLICATIONS,
        }


class TestFormatting:
    def test_seventeen_digit_floats_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk", "--class", "plus", "--d", "200", "--s", "10",
            "--a", "3", "--which", "psi-bar",
        )
        value = json.loads(out)["psi_bar"]
        assert value == psi_bar(200, 10, 3.0)  # no precision lost in transit

    def test_integral_floats_keep_a_decimal_point(self, capsys):
        _, out, _ = run_cli(
            capsys, "risk", "--class", "bernoulli", "--d", "10", "--s", "1",
            "--a0", "0.1", "--a1", "0.9",
        )
        assert '"psi": 1.0' in out
        assert '"t": 1.0' in out


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "explode")[0] == 2

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_non_finite_float_is_never_printed(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="non-finite"):
                cli._json_text({"t": value})

    def test_unserializable_value_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot serialize tuple"):
            cli._json_text({"t": (1, 2)})

    def test_internal_error_exits_1_with_its_traceback(self, capsys, monkeypatch):
        """A fault that is no usage error prints its traceback to stderr,
        nothing to stdout, and exits 1."""

        def fault(*args):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli.risk, "psi_plus", fault)
        code, out, err = run_cli(
            capsys, "risk", "--class", "plus", "--d", "200", "--s", "10", "--a", "3",
        )
        assert (code, out) == (1, "")
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: injected fault\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["risk", "--class", "interval", "--d", "200", "--s", "10",
             "--a0", "0", "--a1", "1e308", "--sigma", "1.7e308"],
            ["risk", "--class", "poisson", "--d", "1000000000000000000", "--s", "5",
             "--a0", "1e20", "--a1", "1.7e308"],
        ],
        ids=["interval-cut-overflows", "poisson-cdf-nan"],
    )
    def test_non_finite_result_exits_2_before_printing(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


_PHASE_ARGV = {
    "--d-list": "100", "--s-rule": "fixed:4", "--a-mult": "1.0",
    "--selectors": "plus", "--reps": "5", "--seed": "1",
}


def _phase_argv(**flags):
    """phase argv with the given flags (by name, underscores for dashes)
    replacing the defaults above."""
    merged = dict(_PHASE_ARGV, **{f"--{k.replace('_', '-')}": v for k, v in flags.items()})
    return ["phase", *(part for item in merged.items() for part in item)]


class TestUsageErrors:
    def test_which_psi_is_the_two_sided_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk", "--class", "two-sided", "--d", "200", "--s", "10",
            "--a", "1", "--which", "psi",
        )
        assert code == 0
        assert out == '{"psi": 0.50543633498867391}\n'
        assert json.loads(out)["psi"] == psi_two_sided(200, 10, 1.0)
        assert psi_plus(200, 10, 1.0) > 0.99

    def test_risk_and_mc_name_an_overflowing_separation_alike(self, capsys):
        levels = ["--class", "interval", "--d", "10", "--s", "1", "--a0", "-1e308", "--a1", "1e308"]
        risk = run_cli(capsys, "risk", *levels)
        mc = run_cli(capsys, "mc", *levels, "--selector", "llr", "--reps", "10", "--seed", "1")
        assert risk == mc == (2, "", "error: need a1 - a0 > 0, got inf\n")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["risk", "--class", "interval", "--d", "200", "--s", "10",
              "--a0", "0", "--a1", "1", "--which", "psi-plus"], "--which psi-plus"),
            (_phase_argv(d_list="1,x"), "--d-list"),
            (_phase_argv(d_list=","), "--d-list"),
            (_phase_argv(s_rule="fixed:x"), "--s-rule"),
            (_phase_argv(s_rule="power:x"), "--s-rule"),
            (_phase_argv(s_rule="power:1.5"), "--s-rule"),
            (_phase_argv(selectors="plus,bogus"), "--selectors"),
            ([*_phase_argv(), "--sigma", "2"], "--sigma"),
            (["sweep", "ARRAY_CONFIG"], "config must be a JSON object"),
            (["risk", "--class", "plus", "--d", "x", "--s", "1", "--a", "1"], "--d"),
            (["risk", "--class", "bogus", "--d", "3", "--s", "1"], "--class"),
            (["mc", "--class", "plus", "--d", "3", "--s", "1", "--a", "1",
              "--selector", "plus"], "--reps"),
            (["risk", "--class", "plus", "--d", str(10**400), "--s", "10", "--a", "3"],
             "(d - s)/s"),
            (["mc", "--class", "plus", "--d", str(10**400), "--s", "10", "--a", "3",
              "--selector", "plus", "--reps", "5", "--seed", "1"], "(d - s)/s"),
            (_phase_argv(d_list=str(10**400), s_rule="fixed:10"), "(d - s)/s"),
            (_phase_argv(d_list=str(10**400), s_rule="power:0.5"), "--s-rule"),
            (["select", "--votes", "v", "--rates", "r", "--s", "1", "--method", "cosh",
              "--input", "missing.csv"], "--input is not read by crowd selection"),
            (["select", "--votes", "v", "--rates", "r", "--s", "1", "--family", "poisson"],
             "--family is not read by crowd selection"),
            (["select", "--votes", "v", "--rates", "r", "--s", "1", "--sigma", "2"],
             "--sigma is not read by crowd selection"),
            (["select", "--votes", "v", "--rates", "r", "--s", "1", "--method", "tops"],
             "--method is not read by crowd selection"),
            (["select", "--input", "x.csv", "--method", "threshold", "--t", "1", "--by-abs"],
             "--by-abs is not read by --method threshold"),
            (["select", "--input", "x.csv", "--method", "tops", "--s", "1", "--t", "1"],
             "--t is not read by --method tops"),
        ],
        ids=[
            "which-psi-plus-interval", "d-list-not-int", "d-list-empty", "s-rule-fixed",
            "s-rule-power", "s-rule-power-range", "selectors-unknown", "phase-sigma",
            "sweep-array", "d-not-int", "class-unknown", "mc-reps-missing",
            "risk-ratio-overflows", "mc-ratio-overflows", "phase-ratio-overflows",
            "s-rule-power-overflows",
            "select-crowd-input", "select-crowd-family", "select-crowd-sigma",
            "select-crowd-method", "select-by-abs-off-tops", "select-t-off-threshold",
        ],
    )
    def test_exit_2_with_one_error_line_naming_the_input(self, capsys, tmp_path, argv, named):
        config = tmp_path / "sweep.json"
        config.write_text("[1, 2]")
        argv = [str(config) if part == "ARRAY_CONFIG" else part for part in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert named in err


    @pytest.mark.parametrize(
        "argv, line",
        [
            (["risk", "--class", "bernoulli", "--d", "10", "--s", "1", "--a0", "0.1", "--a1", "0.9",
              "--sigma", "5", "--a", "3"], "--a is not read by --class bernoulli"),
            (["risk", "--class", "plus", "--d", "200", "--s", "10", "--a", "3", "--a0", "1",
              "--a1", "7"], "--a0 is not read by --class plus"),
            (["mc", "--class", "poisson", "--d", "200", "--s", "10", "--a0", "1", "--a1", "3",
              "--selector", "llr", "--reps", "5", "--seed", "1", "--sigma", "3", "--s-star", "4"],
             "--sigma is not read by --class poisson"),
            (["mc", "--class", "poisson", "--d", "200", "--s", "10", "--a0", "1", "--a1", "3",
              "--selector", "llr", "--reps", "5", "--seed", "1", "--s-star", "4"],
             "--s-star is not read by --selector llr"),
            (["mc", "--class", "bernoulli", "--d", "200", "--s", "10", "--a0", "0.1", "--a1", "0.9",
              "--selector", "llr", "--reps", "5", "--seed", "1", "--rho", "0"],
             "--rho is not read by --class bernoulli"),
            ([*_phase_argv(), "--s-star", "16"], "--s-star is not read by --selectors plus"),
            (["select", "--input", "x.csv", "--method", "llr", "--family", "poisson", "--s", "1",
              "--a0", "1", "--a1", "2", "--sigma", "7"], "--sigma is not read by --family poisson"),
            (["select", "--input", "x.csv", "--method", "threshold", "--s", "1", "--t", "1",
              "--family", "bernoulli", "--sigma", "7"], "--s is not read by --method threshold"),
        ],
        ids=["risk-bernoulli-a", "risk-plus-a0", "mc-poisson-sigma", "mc-llr-s-star",
             "mc-bernoulli-rho", "phase-s-star", "select-llr-poisson-sigma", "select-first-foreign"],
    )
    def test_flag_its_route_does_not_read(self, capsys, argv, line):
        """A flag the command's route does not read exits 2 before any file
        is opened, naming the flag and the route: the first such flag in the
        route table's order when there are several."""
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["risk", "--class", "interval", "--d", "200", "--s", "10", "--a0", "0"],
             "--a1 is required for --class interval"),
            (["select", "--method", "tops", "--s", "1"], "--input is required for --method tops"),
            (["select", "--input", "x.csv", "--method", "cosh", "--s", "1"],
             "--a is required for --method cosh"),
            (["select", "--votes", "v.csv", "--s", "1"], "--rates is required for crowd selection"),
            (["select", "--rates", "r.csv", "--votes", "v.csv"], "--s is required for crowd selection"),
            (["select", "--votes", "v.csv", "--t", "1"], "--t is not read by crowd selection"),
            (["mc", "--class", "two-sided", "--d", "200", "--s", "10", "--a", "3", "--selector",
              "adaptive", "--reps", "5", "--seed", "1"], "--s-star is required for --selector adaptive"),
            (["sweep", "ADAPTIVE_CONFIG"], "--s-star is required for --selector adaptive"),
        ],
        ids=["risk-interval-a1", "select-input", "select-cosh-a", "crowd-rates", "crowd-s",
             "crowd-foreign-before-missing", "mc-adaptive-s-star", "sweep-adaptive-s-star-null"],
    )
    def test_flag_its_route_requires(self, capsys, tmp_path, argv, line):
        """A missing flag the route requires is named with the route, after
        every flag it does not read; a sweep's null key is a missing flag."""
        config = TestSweepCommand._config(tmp_path, selectors=["plus", "adaptive"], s_star=None)
        argv = [str(config) if part == "ADAPTIVE_CONFIG" else part for part in argv]
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")


# The kinds of route each command takes, in the order its check sees them
_COMMAND_KINDS = {
    "risk": ("class",),
    "mc": ("class", "noise", "selector"),
    "phase": ("selector",),
    "select": ("select", "family"),
}
# Flags a command reads on every route, though some route of another command
# reads them only there: risk's and mc's --s (argparse requires it), phase's --rho
_READ_ON_EVERY_ROUTE = {"risk": {"--s"}, "mc": {"--s"}, "phase": {"--rho"}}


def _route_flags(kinds):
    """Every flag a route of these kinds names."""
    return {f for kind in kinds for both in cli._ROUTES[kind].values() for f in sum(both, ())}


class TestRouteTable:
    """The route table and the parser agree, so a flag cannot be declared
    where no route reads it, nor named by a route where it is not declared."""

    @staticmethod
    def _subparsers() -> dict:
        parser = cli._build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    @pytest.mark.parametrize(
        "argv",
        [
            ["risk", "--class", "plus", "--d", "200", "--s", "10", "--a", "3"],
            ["mc", "--class", "plus", "--d", "200", "--s", "10", "--a", "3", "--selector", "plus",
             "--reps", "5", "--seed", "1"],
            _phase_argv(),
            ["select", "--input", "x.csv", "--method", "tops", "--s", "1"],
            ["sweep", "missing.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_command_checks_the_kinds_listed(self, capsys, monkeypatch, argv):
        seen = []

        def spy(args, routes):
            seen.append(tuple(routes))
            raise ValueError("checked")

        monkeypatch.setattr(cli, "_check_routes", spy)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert seen == ([_COMMAND_KINDS[argv[0]]] if argv[0] in _COMMAND_KINDS else [])

    def test_every_flag_a_route_names_is_declared_where_it_is_taken(self):
        parsers = self._subparsers()
        for command, kinds in _COMMAND_KINDS.items():
            missing = _route_flags(kinds) - set(parsers[command]._option_string_actions)
            assert not missing, (command, missing)

    def test_every_route_flag_declared_is_read_by_a_route_and_defaults_to_none(self):
        """A flag some route names, declared on a command, is read by one of
        that command's routes and defaults to None, so the check sees it
        given; a command that re-declared, say, phase --sigma would fail here."""
        named = _route_flags(cli._ROUTES)
        for command, parser in self._subparsers().items():
            reads = _route_flags(_COMMAND_KINDS.get(command, ()))
            for action in parser._actions:
                own = set(action.option_strings) & named - _READ_ON_EVERY_ROUTE.get(command, set())
                for flag in own:
                    assert flag in reads, (command, flag)
                    assert action.default is None, (command, flag)

    def test_select_methods_are_the_table_routes(self):
        methods = self._subparsers()["select"]._option_string_actions["--method"].choices
        assert sorted(f"--method {m}" for m in methods) == sorted(
            route for route in cli._ROUTES["select"] if route != "crowd selection"
        )


_EDGE_INTS = [-1, 0, 1, 2, 3, 5, 10, 200, 10**6, 10**18, 2**70, 10**400]
_ARGV_INTS = st.sampled_from(_EDGE_INTS)
_ARGV_FLOATS = st.sampled_from(
    [0.0, -0.0, 1e-300, 1e-170, 0.5, 1.0, 3.0, 1e8, 1e170, 1e300, 1.7e308,
     math.inf, -math.inf, math.nan, -1.0]
)

# (d, s) as one draw: drawn apart, Hypothesis makes them equal far more often
_ARGV_D_S = st.sampled_from([(d, s) for d in _EDGE_INTS for s in _EDGE_INTS])
_ARGV_CLASSES = st.sampled_from(["plus", "two-sided", "interval", "bernoulli", "poisson"])
_MC_RUN = st.tuples(st.sampled_from(SELECTOR_KINDS), st.integers(1, 3), _ARGV_INTS)


def _flag_parts(flag, values):
    """The argv parts of flag=value for each value drawn."""
    return values.map(lambda v: [f"{flag}={v!r}" if isinstance(v, float) else f"{flag}={v}"])


# Each risk and mc flag past --class, --d, --s and mc's run flags, as its drawn argv parts
_RISK_MC_FLAGS = {
    **{flag: _flag_parts(flag, _ARGV_FLOATS) for flag in ("--a", "--a0", "--a1", "--sigma", "--rho")},
    "--s-star": _flag_parts("--s-star", _ARGV_INTS),
    "--which": _flag_parts("--which", st.sampled_from(
        ["psi-plus", "psi", "psi-bar", "general", "bounds", "wrong-recovery"]
    )),
    "--loss": _flag_parts("--loss", st.sampled_from(list(cli._LOSS_FLAGS))),
}
# (d, s), mc run flags and the flags of _RISK_MC_FLAGS from values that make every class valid
_VALID_D_S = st.sampled_from([(10, 1), (40, 4), (200, 10), (1000, 3)])
_VALID_MC_RUN = st.tuples(st.sampled_from(SELECTOR_KINDS), st.integers(1, 3), st.sampled_from([1, 2**64 - 1]))
_RISK_MC_VALID = {**_RISK_MC_FLAGS, **{flag: _flag_parts(flag, st.sampled_from(values)) for flag, values in [
    ("--a", [0.5, 1.0, 3.0]), ("--a0", [0.1, 0.2]), ("--a1", [0.7, 0.9]), ("--sigma", [0.5, 1.0, 3.0]),
    ("--rho", [0.0, 0.5]), ("--s-star", [2])]}}
# The flags whose reading depends on the route, by command, written out here
# apart from the CLI's own table: the class's levels, --sigma (and mc's --rho)
# on a Gaussian class, and --s-star on mc's adaptive selector
_RISK_MC_ROUTE_FLAGS = {
    "risk": ("--a", "--a0", "--a1", "--sigma"),
    "mc": ("--a", "--a0", "--a1", "--sigma", "--rho", "--s-star"),
}


@st.composite
def _risk_or_mc_argv(draw):
    """(argv, foreign, route) for risk and mc over every class: (d, s), the
    class's levels and every other flag the class and selector read, drawn
    from valid values on about four examples in five and from edge values on
    the rest, each flag not required drawn or left out; on about one in three
    one flag neither reads, named as foreign with the route that refuses it
    (None, None when there is none).  mc runs 1 to 3 replications."""
    valid = draw(st.integers(0, 4).map(bool))
    event("valid instance" if valid else "edge values")
    flags = _RISK_MC_VALID if valid else _RISK_MC_FLAGS
    command = draw(st.sampled_from(["risk", "mc"]))
    klass = draw(_ARGV_CLASSES)
    d, s = draw(_VALID_D_S if valid else _ARGV_D_S)
    argv = [command, f"--class={klass}", f"--d={d}", f"--s={s}"]
    required = ("--a",) if klass in ("plus", "two-sided") else ("--a0", "--a1")
    gaussian = klass not in ("bernoulli", "poisson")
    optional = ("--sigma",) * gaussian
    selector = None
    if command == "risk":
        optional += ("--which",)
    else:
        selector, reps, seed = draw(_VALID_MC_RUN if valid else _MC_RUN)
        argv += [f"--selector={selector}", f"--reps={reps}", f"--seed={seed}"]
        required += ("--s-star",) * (selector == "adaptive")
        optional += ("--rho",) * gaussian + ("--loss",)
    for flag in required:
        argv += draw(flags[flag])
    for flag in optional:
        argv += draw(st.just([]) | flags[flag])
    others = [f for f in _RISK_MC_ROUTE_FLAGS[command] if f not in required + optional]
    if not draw(st.sampled_from([False, False, True])):
        return argv, None, None
    foreign = draw(st.sampled_from(others))
    argv += draw(flags[foreign])
    route = f"--selector {selector}" if foreign == "--s-star" else f"--class {klass}"
    return argv, foreign, route


# The flags each select method reads past --input and --method, written out
# here apart from the CLI's own table; a file route given any other select
# flag exits 2 naming it, as does one given --sigma on non-Gaussian data.
_SELECT_READS = {
    "threshold": ("--family", "--t"),
    "threshold-abs": ("--family", "--t"),
    "cosh": ("--family", "--s", "--a", "--sigma"),
    "llr": ("--family", "--s", "--a0", "--a1", "--sigma"),
    "tops": ("--family", "--s", "--by-abs"),
    "universal": ("--family", "--sigma"),
    "adaptive": ("--family", "--s-star", "--sigma"),
}


# Each select file-route flag past --input and --method, as its drawn argv parts
_SELECT_FLAGS = {
    **{flag: _flag_parts(flag, _ARGV_FLOATS) for flag in ("--t", "--a", "--a0", "--a1", "--sigma")},
    "--s": _flag_parts("--s", _ARGV_INTS),
    "--s-star": _flag_parts("--s-star", _ARGV_INTS),
    "--family": _flag_parts("--family", st.sampled_from(["gaussian", "bernoulli", "poisson"])),
    "--by-abs": st.just(["--by-abs"]),
}
# Observation files of up to 6 lines (none is the empty-file case)
_SELECT_OBSERVATIONS = st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, 5e-324]), max_size=6)


@st.composite
def _select_argv(draw):
    """(observations, argv, foreign, route) for select on a data file: every
    --method, each flag it reads drawn from the edge values or left out, and
    on some examples one flag it does not read, named as foreign with the
    route that refuses it (None, None when there is none); --sigma drawn on
    Bernoulli or Poisson data is foreign to that --family.  The argv names
    the file as OBSERVATIONS."""
    method = draw(st.sampled_from(list(_SELECT_READS)))
    argv = ["select", "--input=OBSERVATIONS", f"--method={method}"]
    for flag in _SELECT_READS[method]:
        argv += draw(st.just([]) | _SELECT_FLAGS[flag])
    observations = draw(_SELECT_OBSERVATIONS)
    family = next((part[9:] for part in argv if part.startswith("--family=")), "gaussian")
    if family != "gaussian" and any(part.startswith("--sigma=") for part in argv):
        event("--sigma on counts")
        return observations, argv, "--sigma", f"--family {family}"
    others = [flag for flag in _SELECT_FLAGS if flag not in _SELECT_READS[method]]
    foreign = draw(st.none() | st.sampled_from(others))
    if foreign is None:
        return observations, argv, None, None
    argv += draw(_SELECT_FLAGS[foreign])
    return observations, argv, foreign, f"--method {method}"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestNeverInvalidOutput:
    @staticmethod
    def _check(argv):
        """Exit 0 with one line of strict JSON (no NaN or Infinity), or exit 2
        with nothing on stdout; never the internal-error exit 1.  Returns the
        exit code and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert out.getvalue() == ""
        else:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1
            json.loads(lines[0], parse_constant=_reject_constant)
        return code, err.getvalue()

    @staticmethod
    def _check_foreign(got, foreign, route):
        """Exit 2 with exactly the line naming foreign and its route when
        the argv holds a flag its route does not read, whatever else it
        holds; no such line otherwise."""
        if foreign is None:
            assert "is not read by" not in got[1]
        else:
            assert got == (2, f"error: {foreign} is not read by {route}\n")

    @settings(max_examples=500)
    @given(case=_risk_or_mc_argv())
    @example(case=(["risk", "--class=two-sided", "--d=200", "--s=10", "--a=1.0", "--which=psi"],
                   None, None))
    @example(case=(["mc", "--class=plus", "--d=200", "--s=10", "--a=3.0", "--selector=plus",
                    "--reps=3", "--seed=1"], None, None))
    @example(case=(["mc", "--class=poisson", "--d=200", "--s=10", "--a0=1.0", "--a1=3.0",
                    "--selector=adaptive", "--reps=3", "--seed=1", "--s-star=4", "--rho=0.0"],
                   "--rho", "--class poisson"))
    def test_one_json_line_or_exit_2(self, case):
        argv, foreign, route = case
        self._check_foreign(self._check(argv), foreign, route)

    # one file per test, rewritten by each example
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_select_argv())
    @example(case=([1e308, -1e308, 5e-324], ["select", "--input=OBSERVATIONS", "--method=tops",
                                              "--s=2", "--by-abs"], None, None))
    @example(case=([], ["select", "--input=OBSERVATIONS", "--method=threshold", "--a=0.0"], "--a",
                   "--method threshold"))
    @example(case=([0.0, 1.0], ["select", "--input=OBSERVATIONS", "--method=llr", "--s=1",
                                "--family=bernoulli", "--sigma=1.0"], "--sigma", "--family bernoulli"))
    def test_select_one_json_line_or_exit_2(self, tmp_path, case):
        observations, argv, foreign, route = case
        path = tmp_path / "x.csv"
        path.write_text("".join(f"{v!r}\n" for v in observations))
        got = self._check(
            [f"--input={path}" if part == "--input=OBSERVATIONS" else part for part in argv]
        )
        self._check_foreign(got, foreign, route)


class TestSubprocess:
    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "hamsel.cli", "risk", "--class", "plus",
                "--d", "2", "--s", "1", "--a", "2", "--which", "psi-plus",
            ],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert result.returncode == 0
        assert result.stdout == '{"psi_plus": 0.31731050786291415}\n'

    def test_console_script_target(self):
        """The function pyproject.toml installs as the hamsel script, run as
        the generated script runs it."""
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["hamsel"]
        module, func = target.split(":")
        result = subprocess.run(
            [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())",
             "risk", "--class", "plus", "--d", "2", "--s", "1", "--a", "2", "--which", "psi-plus"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == '{"psi_plus": 0.31731050786291415}\n'

    def test_poisson_risk_loads_no_scipy(self):
        """A Poisson risk above lambda = 32 loads no scipy module: -X importtime
        lists every module the process imports on stderr."""
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "hamsel.cli", "risk", "--class", "poisson",
             "--d", "200", "--s", "10", "--a0", "40", "--a1", "60"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert result.returncode == 0
        imported = [
            line.rsplit("|", 1)[-1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        ]
        assert "hamsel.risk" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"]

    def test_only_mc_loads_the_engine(self, tmp_path):
        """risk and select never import hamsel.simulate; mc does. One fresh
        interpreter runs the three commands in turn through main."""
        f = tmp_path / "x.csv"
        f.write_text("0.1\n2.3\n-1.5\n")
        runs = [
            ["risk", "--class", "plus", "--d", "200", "--s", "10", "--a", "3"],
            ["select", "--input", str(f), "--method", "tops", "--s", "1"],
            ["mc", "--class", "plus", "--d", "20", "--s", "2", "--a", "3", "--selector", "plus",
             "--reps", "2", "--seed", "1"],
        ]
        code = (
            "import contextlib, io, sys; from hamsel.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    print(argv[0], code, 'hamsel.simulate' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=checkout_env()
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "risk 0 False\nselect 0 False\nmc 0 True\n"

    @pytest.mark.skipif(shutil.which("hamsel") is None, reason="script not on PATH")
    def test_console_script(self):
        result = subprocess.run(
            ["hamsel", "risk", "--class", "plus", "--d", "2", "--s", "1",
             "--a", "2", "--which", "psi-plus"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == '{"psi_plus": 0.31731050786291415}\n'
