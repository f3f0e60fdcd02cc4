"""The paper's non-asymptotic envelope and its recovery conditions, checked
exactly on the closed forms where no Monte Carlo run can reach.

The closed forms take any d whose (d - s)/s is a finite float, so the
asymptotic claims are read off along growing d, up to d = 10^300, in
microseconds.  Along s = ceil(d^(1 - beta)) the one-sided minimax risk Psi+
shows both transitions: almost full recovery (Psi+ -> 0) above
a_almost_full = sqrt(2 log((d-s)/s)) and not below it, and exact recovery
(s Psi+ -> 0) above a_exact = sqrt(2 log(d-s)) + sqrt(2 log s) and not
below it.  The symmetric rule's PsiBar shows the same four, and so does the
two-sided lower-bound rate Psi, except below a_almost_full: its miss term
is clipped at Phi(0), so there Psi tends to 1/2, not 1.
"""

import math
from fractions import Fraction

import pytest

from hamsel.risk import delta_bounds, phase_point, psi_bar, psi_plus, psi_two_sided

_BETAS = (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5))
_EXPONENTS = (2, 3, 4, 6, 8, 12, 16, 25, 50, 100, 150, 200, 250)


def _power_of_ten(exponent: Fraction) -> int:
    """ceil(10^exponent), exact where the exponent is an integer."""
    if exponent.denominator == 1:
        return 10 ** int(exponent)
    return math.ceil(10.0 ** float(exponent))


def _envelope_grid():
    """(d, s, a): d = 10^k up to 10^300, s = ceil(d^f) for f in {0, 0.3, 0.6,
    0.9} where 2s < d, and a from 0.1 to 64."""
    for k in (1, 2, 3, 5, 10, 20, 50, 100, 150, 200, 250, 300):
        d = 10**k
        for f in (Fraction(0), Fraction(3, 10), Fraction(3, 5), Fraction(9, 10)):
            s = _power_of_ten(k * f)
            if 2 * s < d:
                for a in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
                    yield d, s, a


def _along_sparsity(beta, boundary, multiplier, scaled, exponents=_EXPONENTS, psi=psi_plus):
    """psi (times s if scaled) at multiplier times phase_point's boundary,
    along d = 10^k, s = ceil(d^(1 - beta))."""
    values = []
    for k in exponents:
        d = 10**k
        s = _power_of_ten(k * (1 - beta))
        a = multiplier * getattr(phase_point(d, s), boundary)
        values.append((s if scaled else 1) * psi(d, s, a))
    return values


_symmetric_rates = pytest.mark.parametrize(
    "psi", (psi_bar, psi_two_sided), ids=lambda psi: psi.__name__
)


def _strictly_decreasing(values) -> bool:
    return all(later < earlier for earlier, later in zip(values, values[1:]))


def test_envelope_brackets_the_minimax_risks():
    """Claim: s Phi(-Delta) <= s Psi+ <= (2 + sqrt(2 pi)) s Phi(-Delta), and
    the symmetric rule's s PsiBar stays under the same upper end, at every
    (d, s, a) with 2s < d (delta_bounds' envelope; below the boundary the
    lower end is 0 and the upper keeps its W = 0 value)."""
    cells = list(_envelope_grid())
    assert len(cells) == 450
    outside = []
    for d, s, a in cells:
        bounds = delta_bounds(d, s, a)
        plus, bar = s * psi_plus(d, s, a), s * psi_bar(d, s, a)
        if not (bounds.lower <= plus <= bounds.upper and bar <= bounds.upper):
            outside.append((f"d=1e{len(str(d)) - 1}", s, a, bounds, plus, bar))
    assert not outside, outside


@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_almost_full_recovery_above_the_boundary(beta):
    """Claim: at a = 1.1 a_almost_full, Psi+ -> 0 (almost full recovery): it
    falls at every step of d = 10^2 .. 10^250, to under 0.05."""
    values = _along_sparsity(beta, "a_almost_full", 1.1, scaled=False)
    assert _strictly_decreasing(values), values
    assert values[-1] < 0.05


@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_no_almost_full_recovery_below_the_boundary(beta):
    """Claim: at a = 0.9 a_almost_full, Psi+ -> 1, so almost full recovery
    fails.  Psi+ dips first at beta = 0.3, so the claim is eventual: from
    d = 10^8 on it rises at every step, to above 0.97."""
    exponents = [k for k in _EXPONENTS if k >= 8]
    values = _along_sparsity(beta, "a_almost_full", 0.9, scaled=False, exponents=exponents)
    assert _strictly_decreasing(values[::-1]), values
    assert values[-1] > 0.97


@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_risk_at_the_almost_full_boundary_tends_to_one_half(beta):
    """Claim: at a = a_almost_full itself Psi+ falls toward 1/2 from above
    (criterion 8's floor), to within 0.025 of it at d = 10^250."""
    values = _along_sparsity(beta, "a_almost_full", 1.0, scaled=False)
    assert _strictly_decreasing(values), values
    assert 0.5 < values[-1] < 0.525


@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_exact_recovery_above_the_boundary(beta):
    """Claim: at a = 1.1 a_exact, s Psi+ -> 0 (exact recovery): it falls at
    every step of d = 10^2 .. 10^250, to under 1e-25."""
    values = _along_sparsity(beta, "a_exact", 1.1, scaled=True)
    assert _strictly_decreasing(values), values
    assert values[-1] < 1e-25


@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_no_exact_recovery_below_the_boundary(beta):
    """Claim: at a = 0.9 a_exact, s Psi+ -> infinity, so exact recovery
    fails: it grows at every step of d = 10^2 .. 10^250, past 10^18."""
    values = _along_sparsity(beta, "a_exact", 0.9, scaled=True)
    assert _strictly_decreasing(values[::-1]), values
    assert values[-1] > 1e18


@_symmetric_rates
@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_symmetric_almost_full_recovery_above_the_boundary(psi, beta):
    """Claim: at a = 1.1 a_almost_full, PsiBar -> 0 and Psi -> 0: each falls
    at every step of d = 10^2 .. 10^250, to under 0.05."""
    values = _along_sparsity(beta, "a_almost_full", 1.1, scaled=False, psi=psi)
    assert _strictly_decreasing(values), values
    assert values[-1] < 0.05


@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_no_symmetric_almost_full_recovery_below_the_boundary(beta):
    """Claim: at a = 0.9 a_almost_full, PsiBar -> 1.  It dips first, longest
    at beta = 0.3, so the claim is eventual: from d = 10^12 on at beta =
    0.3 and from d = 10^8 on otherwise it rises at every step, to above 0.97."""
    first = 12 if beta == Fraction(3, 10) else 8
    exponents = [k for k in _EXPONENTS if k >= first]
    values = _along_sparsity(
        beta, "a_almost_full", 0.9, scaled=False, exponents=exponents, psi=psi_bar
    )
    assert _strictly_decreasing(values[::-1]), values
    assert values[-1] > 0.97


@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_two_sided_rate_below_the_boundary_stays_above_one_half(beta):
    """Claim: at a = 0.9 a_almost_full, Psi stays above 1/2.  Its miss term
    is clipped at Phi(0), so it does not tend to 1: it falls at every step
    of d = 10^2 .. 10^250 toward 1/2 and never reaches it."""
    values = _along_sparsity(beta, "a_almost_full", 0.9, scaled=False, psi=psi_two_sided)
    assert _strictly_decreasing(values), values
    assert min(values) > 0.5


@_symmetric_rates
@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_symmetric_risk_at_the_almost_full_boundary_tends_to_one_half(psi, beta):
    """Claim: at a = a_almost_full itself PsiBar and Psi fall toward 1/2
    from above, to within 0.04 of it at d = 10^250."""
    values = _along_sparsity(beta, "a_almost_full", 1.0, scaled=False, psi=psi)
    assert _strictly_decreasing(values), values
    assert 0.5 < values[-1] < 0.54


@_symmetric_rates
@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_symmetric_exact_recovery_above_the_boundary(psi, beta):
    """Claim: at a = 1.1 a_exact, s PsiBar -> 0 and s Psi -> 0: each falls at
    every step of d = 10^2 .. 10^250, to under 1e-25."""
    values = _along_sparsity(beta, "a_exact", 1.1, scaled=True, psi=psi)
    assert _strictly_decreasing(values), values
    assert values[-1] < 1e-25


@_symmetric_rates
@pytest.mark.parametrize("beta", _BETAS, ids=str)
def test_no_symmetric_exact_recovery_below_the_boundary(psi, beta):
    """Claim: at a = 0.9 a_exact, s PsiBar and s Psi -> infinity: each grows
    at every step of d = 10^2 .. 10^250, past 10^18."""
    values = _along_sparsity(beta, "a_exact", 0.9, scaled=True, psi=psi)
    assert _strictly_decreasing(values[::-1]), values
    assert values[-1] > 1e18
