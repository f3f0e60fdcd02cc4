"""Golden pin of the closed forms: every value of a fixed grid, bit for bit.

The grid crosses each numeric seam of the closed forms: for the Gaussian
(d, s) pairs and each target Y of the false-positive argument -Y (on both
sides of gaussian_cdf's continued-fraction seam at -8, and deep in its far
tail), both signal levels a with a/2 + log((d-s)/s)/a = Y go through
psi_plus, psi_two_sided, psi_bar (the large roots through arccosh_exp's
asymptotic branch), delta_bounds and wrong_recovery_bounds; the psi_general
rows cover the Gaussian, Bernoulli and Poisson families (both Poisson CDF
routes); and phase_point takes each Gaussian (d, s).  No level is jittered.

``closed_form_golden.json`` holds ``float.hex`` of each value, keyed by the
call.  It pins what the code computes, so a mismatch is a change of some
returned value: it is fixed in the code, never by regenerating the file.
"""

import json
import math
from pathlib import Path

from hamsel import risk
from hamsel.model import Family

GOLDEN = Path(__file__).resolve().parent / "closed_form_golden.json"

GAUSS_DS = ((200, 10), (500, 5), (10_000, 100), (1_000_000, 10))
SEAM_Y = (5.0, 7.5, 8.5, 20.0, 35.5, 36.5)
GAUSS_GENERAL = ((-2.0, 1.5), (0.5, 9.0), (3.0, 40.0))
BERNOULLI_DS = ((200, 10), (4, 2), (4, 3))
BERNOULLI_RATES = ((0.1, 0.6), (0.3, 0.9), (0.01, 0.2))
POISSON_DS = ((200, 10), (4, 2))
POISSON_RATES = ((1.0, 3.0), (2.0, 5.5), (31.0, 33.0), (40.0, 60.0), (100.0, 130.0))


def _calls():
    """(key, function, args) for each call of the grid, in a fixed order."""
    for d, s in GAUSS_DS:
        log_ratio = math.log((d - s) / s)
        for y in SEAM_Y:
            root = math.sqrt(y * y - 2.0 * log_ratio)
            for a in (y + root, 2.0 * log_ratio / (y + root)):
                for fn in (
                    risk.psi_plus,
                    risk.psi_two_sided,
                    risk.psi_bar,
                    risk.delta_bounds,
                    risk.wrong_recovery_bounds,
                ):
                    yield f"{fn.__name__}({d}, {s}, {a!r})", fn, (d, s, a)
    for family, dims, levels in (
        (Family.GAUSSIAN, GAUSS_DS, GAUSS_GENERAL),
        (Family.BERNOULLI, BERNOULLI_DS, BERNOULLI_RATES),
        (Family.POISSON, POISSON_DS, POISSON_RATES),
    ):
        for d, s in dims:
            for a0, a1 in levels:
                key = f"psi_general({family.name}, {d}, {s}, {a0!r}, {a1!r})"
                yield key, risk.psi_general, (family, d, s, a0, a1)
    for d, s in GAUSS_DS:
        yield f"phase_point({d}, {s})", risk.phase_point, (d, s)


def _hex_values(value) -> list[str]:
    values = value if isinstance(value, tuple) else (value,)
    return [float(v).hex() for v in values]


def test_closed_forms_match_golden_bit_for_bit():
    want = json.loads(GOLDEN.read_text())
    got = {key: _hex_values(fn(*args)) for key, fn, args in _calls()}
    assert list(got) == list(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"{len(changed)} calls changed, first: {changed[:3]}"
