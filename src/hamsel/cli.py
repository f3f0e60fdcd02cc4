"""Command-line surface: risk queries, selection on files, MC runs, sweeps.

Every command is a thin wrapper over the library; outputs are JSON for
single results and long-format CSV for tables, with floats printed at 17
significant digits so replayed runs are byte-identical.  Exit codes:
0 success, 2 usage or validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import traceback

from . import risk
from .model import (
    Adaptive,
    CrowdInstance,
    Family,
    Interval,
    LossKind,
    LowerBound,
    ProblemInstance,
    Threshold,
    TopS,
    TwoSided,
    fresh_seed,
    read_observations_csv,
    read_rates_csv,
    read_votes_csv,
    support_summary,
)
from .selectors import (
    SELECTOR_KINDS,
    crowd_selector,
    llr_threshold,
    select_row,
    spec_for_kind,
    universal_threshold,
)

_LOSS_FLAGS = {
    "hamming": LossKind.HAMMING,
    "normalized": LossKind.NORMALIZED_HAMMING,
    "wrong-recovery": LossKind.WRONG_RECOVERY,
}

_DEFAULT_WHICH = {
    "plus": "psi-plus",
    "two-sided": "psi-bar",
    "interval": "general",
    "bernoulli": "general",
    "poisson": "general",
}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot print the non-finite value {v}")
    out = format(v, ".17g")
    return out if "." in out or "e" in out else out + ".0"


def _json_text(obj) -> str:
    """None, ints, floats (numpy's float64 is one), strings, and dicts and
    lists of them, as one line of JSON."""
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_table(rows: list[dict], stream) -> None:
    """phase_sweep's rows as CSV, its row keys (in order) as the header."""
    stream.write(",".join(rows[0]) + "\n")
    for row in rows:
        cells = (_fmt_float(v) if isinstance(v, float) else str(v) for v in row.values())
        stream.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Shared flag handling
# ---------------------------------------------------------------------------


def _require(value, flag: str, context: str):
    if value is None:
        raise ValueError(f"{flag} is required for {context}")
    return value


def _build_instance(args) -> ProblemInstance:
    klass = args.klass
    if klass == "plus":
        signal = LowerBound(_require(args.a, "--a", "--class plus"))
    elif klass == "two-sided":
        signal = TwoSided(_require(args.a, "--a", "--class two-sided"))
    else:
        a0 = _require(args.a0, "--a0", f"--class {klass}")
        a1 = _require(args.a1, "--a1", f"--class {klass}")
        signal = Interval(a0, a1)
    # the bernoulli and poisson classes are named after their family
    family = klass if klass in ("bernoulli", "poisson") else Family.GAUSSIAN
    return ProblemInstance(args.d, args.s, signal, family, args.sigma)


# How messages name a value of each type a flag list or sweep key takes: (one, several)
_TYPE_NAMES = {
    int: ("an integer", "integers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}


def _parse_list(text: str, flag: str, kind: type) -> list:
    """A nonempty comma-separated list of kind (int, float or str) values."""
    try:
        values = [kind(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(
            f"{flag}: expected comma-separated {_TYPE_NAMES[kind][1]}, got {text!r}"
        ) from None
    if not values:
        raise ValueError(f"{flag}: empty list")
    return values


def _power_s(d: int, beta: float) -> int:
    """ceil(d^(1-beta)), except that a power within a relative 1e-9 of an
    integer is that integer: 32^0.8 evaluates to 16.000000000000004."""
    try:
        value = d ** (1.0 - beta)
    except OverflowError:
        raise ValueError(f"--s-rule: d^(1-beta) is above the largest float at d={d}") from None
    nearest = round(value)
    if abs(value - nearest) <= 1e-9 * nearest:
        return nearest
    return math.ceil(value)


def _parse_s_rule(text: str):
    """'fixed:k' -> k, 'power:beta' -> d |-> ceil(d^(1-beta)) (see _power_s)."""
    kind, _, value = text.partition(":")
    if kind == "fixed":
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"--s-rule: 'fixed:' needs an integer, got {value!r}") from None
    if kind == "power":
        try:
            beta = float(value)
        except ValueError:
            raise ValueError(f"--s-rule: 'power:' needs a number, got {value!r}") from None
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"--s-rule: power exponent must lie in [0,1), got {beta}")
        return lambda d: _power_s(d, beta)
    raise ValueError(f"--s-rule: expected 'fixed:k' or 'power:beta', got {text!r}")


def _parse_selectors(text: str) -> list[str]:
    kinds = _parse_list(text, "--selectors", str)
    for kind in kinds:
        if kind not in SELECTOR_KINDS:
            raise ValueError(
                f"--selectors: unknown selector {kind!r}; choose from {', '.join(SELECTOR_KINDS)}"
            )
    return kinds


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------


def cmd_risk(args) -> int:
    p = _build_instance(args)
    which = args.which or _DEFAULT_WHICH[args.klass]
    d, s, sig, sigma = p.d, p.s, p.signal, p.sigma
    if isinstance(sig, Interval):
        if which != "general":
            raise ValueError(f"--which {which} needs --class plus or two-sided")
        out = {
            "psi": risk.psi_general(p.family, d, s, sig.a0, sig.a1, sigma),
            "t": llr_threshold(p.family, d, s, sig.a0, sig.a1, sigma),
        }
    elif which == "general":
        raise ValueError("--which general needs --class interval, bernoulli, or poisson")
    elif which == "psi-plus":
        out = {"psi_plus": risk.psi_plus(d, s, sig.a, sigma)}
    elif which == "psi":
        out = {"psi": risk.psi_two_sided(d, s, sig.a, sigma)}
    elif which == "psi-bar":
        out = {"psi_bar": risk.psi_bar(d, s, sig.a, sigma)}
    elif which == "bounds":
        out = risk.delta_bounds(d, s, sig.a, sigma)._asdict()
    else:
        out = risk.wrong_recovery_bounds(d, s, sig.a, sigma)._asdict()
    print(_json_text(out))
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


# The flags each select route reads: every file route reads --input, --method
# and --family and then its method's own flags, and crowd voting reads only
# _CROWD_FLAGS.  Any other flag given is an error that names it and the route;
# every select flag defaults to None, so that "given" can be seen.
_METHOD_FLAGS = {
    "threshold": ("--t",),
    "threshold-abs": ("--t",),
    "cosh": ("--s", "--a", "--sigma"),
    "llr": ("--s", "--a0", "--a1", "--sigma"),
    "tops": ("--s", "--by-abs"),
    "universal": ("--sigma",),
    "adaptive": ("--s-star", "--sigma"),
}
_FILE_FLAGS = ("--input", "--method", "--family")
_CROWD_FLAGS = ("--votes", "--rates", "--s")


def _check_select_flags(args, reads: tuple, route: str) -> None:
    """Reject any select flag given that the route does not read."""
    every = dict.fromkeys(_FILE_FLAGS + _CROWD_FLAGS + sum(_METHOD_FLAGS.values(), ()))
    for flag in every:
        if flag not in reads and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ValueError(f"{flag} is not read by {route}")


def _select_crowd(args):
    if not (args.votes and args.rates):
        raise ValueError("crowd selection needs both --votes and --rates")
    s = _require(args.s, "--s", "crowd selection")
    crowd = CrowdInstance(read_votes_csv(args.votes), tuple(read_rates_csv(args.rates)))
    return crowd_selector(crowd, s)


def _select_spec(args, d: int, family: str, sigma: float):
    """The spec of --method for d observations from family."""
    method = args.method
    if method in ("threshold", "threshold-abs"):
        t = _require(args.t, "--t", f"--method {method}")
        return Threshold(t, two_sided=method == "threshold-abs")
    if method == "universal":
        return Threshold(universal_threshold(d, sigma), two_sided=True)
    if method == "adaptive":
        return Adaptive(_require(args.s_star, "--s-star", "--method adaptive"))
    s = _require(args.s, "--s", f"--method {method}")
    if method == "tops":
        return TopS(s, one_sided=not args.by_abs)
    if method == "cosh":
        signal = TwoSided(_require(args.a, "--a", "--method cosh"))
    else:
        a0 = _require(args.a0, "--a0", "--method llr")
        signal = Interval(a0, _require(args.a1, "--a1", "--method llr"))
    return spec_for_kind(method, ProblemInstance(d, s, signal, family, sigma))


def _select_file(args):
    """--method run on the --input observations, which are from --family."""
    x = read_observations_csv(_require(args.input, "--input", "selection"))
    family = args.family or "gaussian"
    sigma = 1.0 if args.sigma is None else args.sigma
    return select_row(_select_spec(args, x.size, family, sigma), x, x.size, family, sigma)


def cmd_select(args) -> int:
    """Print the one record {selected, bits, threshold_used, diagnostics} of
    every route.  Each returns a SelectResult, whose threshold_used is the
    cut applied: it is printed on its own, ahead of the rest."""
    if args.votes or args.rates:
        route, reads, run = "crowd selection", _CROWD_FLAGS, _select_crowd
    elif args.method is None:
        raise ValueError("--method is required (or --votes/--rates for crowd data)")
    else:
        route, reads = f"--method {args.method}", _FILE_FLAGS + _METHOD_FLAGS[args.method]
        run = _select_file
    _check_select_flags(args, reads, route)
    support, diagnostics = run(args)
    shown = dict(diagnostics)
    t = shown.pop("threshold_used")
    print(_json_text({**support_summary(support), "threshold_used": t, "diagnostics": shown}))
    return 0


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def _mc_closed_form(p: ProblemInstance, kind: str, loss: LossKind) -> float | None:
    """risk.threshold_risk in the run's loss; None under wrong recovery."""
    base = None if loss is LossKind.WRONG_RECOVERY else risk.threshold_risk(p, kind)
    return base if base is None or loss is LossKind.HAMMING else base / p.s


def _mc_config(args):
    """The MCConfig of mc's and phase's run flags; a fresh seed, echoed in
    the output, when --seed is omitted."""
    from . import simulate
    return simulate.MCConfig(
        replications=args.reps,
        seed=args.seed if args.seed is not None else fresh_seed(),
        rho=args.rho,
        loss_kind=_LOSS_FLAGS[args.loss],
    )


def cmd_mc(args) -> int:
    from . import simulate
    p = _build_instance(args)
    spec = spec_for_kind(args.selector, p, s_star=args.s_star)
    cfg = _mc_config(args)
    report = simulate.estimate_risk(p, spec, cfg)
    sig = p.signal
    out = {
        "d": p.d,
        "s": p.s,
        "a": getattr(sig, "a", None),
        "a0": getattr(sig, "a0", None),
        "a1": getattr(sig, "a1", None),
        "sigma": p.sigma,
        "rho": cfg.rho,
        "family": p.family.value,
        "selector": args.selector,
        "loss": cfg.loss_kind.value,
        "estimate": report.mc_estimate,
        "stderr": report.mc_stderr,
        "replications": report.replications,
        "seed": report.seed,
        "closed_form": _mc_closed_form(p, args.selector, cfg.loss_kind),
    }
    print(_json_text(out))
    return 0


# ---------------------------------------------------------------------------
# phase / sweep
# ---------------------------------------------------------------------------


def cmd_phase(args) -> int:
    from . import simulate
    rows = simulate.phase_sweep(
        _parse_list(args.d_list, "--d-list", int),
        _parse_s_rule(args.s_rule),
        _parse_list(args.a_mult, "--a-mult", float),
        _parse_selectors(args.selectors),
        _mc_config(args),
        a_ref=args.a_ref,
        s_star=args.s_star,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_table(rows, fh)
    else:
        _write_table(rows, sys.stdout)
    return 0


# Each sweep config key -> the phase flag it is written to, and the JSON type
# of its value; [t] is a nonempty list of t, written joined by commas.  A
# float key takes any JSON number, and no key takes a bool.
_SWEEP_KEYS = {
    "d_list": ("--d-list", [int]),
    "s_rule": ("--s-rule", str),
    "a_multipliers": ("--a-mult", [float]),
    "selectors": ("--selectors", [str]),
    "replications": ("--reps", int),
    "seed": ("--seed", int),
    "rho": ("--rho", float),
    "loss": ("--loss", str),
    "a_ref": ("--a-ref", str),
    "s_star": ("--s-star", int),
    "out": ("--out", str),
}
_SWEEP_REQUIRED = ("d_list", "s_rule", "a_multipliers", "selectors", "replications", "seed")
_SWEEP_NULLABLE = ("s_star", "out")


def _json_is(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and bool(value) and all(
            _json_is(v, kind[0]) for v in value
        )
    accepted = (int, float) if kind is float else kind
    return not isinstance(value, bool) and isinstance(value, accepted)


def cmd_sweep(args) -> int:
    """Run phase on the flags the config's keys map to: prints exactly what phase prints."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    for key in data:
        if key not in _SWEEP_KEYS:
            raise ValueError(f"config key {key!r}: unknown")
    for key in _SWEEP_REQUIRED:
        if key not in data:
            raise ValueError(f"config key {key!r}: missing")
    argv = ["phase"]
    for key, (flag, kind) in _SWEEP_KEYS.items():
        if key not in data or (data[key] is None and key in _SWEEP_NULLABLE):
            continue
        value = data[key]
        if not _json_is(value, kind):
            what = (
                f"a nonempty list of {_TYPE_NAMES[kind[0]][1]}"
                if isinstance(kind, list)
                else _TYPE_NAMES[kind][0]
            )
            raise ValueError(f"config key {key!r} ({flag}): expected {what}, got {value!r}")
        entries = value if isinstance(kind, list) else [value]
        argv.append(f"{flag}={','.join(str(v) for v in entries)}")
    return cmd_phase(_build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads negative numbers as values and errs in one line.

    argparse reads "-6.1e-05" as an unknown option, because its own
    negative-number pattern has no exponent form; this one accepts any
    float literal.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"
        )

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--class",
        dest="klass",
        required=True,
        choices=["plus", "two-sided", "interval", "bernoulli", "poisson"],
        help="signal class / noise family",
    )
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--s", type=int, required=True, help="sparsity")
    p.add_argument("--a", type=float, help="signal level (plus/two-sided)")
    p.add_argument("--a0", type=float, help="null level or rate")
    p.add_argument("--a1", type=float, help="signal level or rate")
    p.add_argument("--sigma", type=float, default=1.0, help="noise level (default 1)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The Monte Carlo run flags of mc and phase (see _mc_config)."""
    p.add_argument("--s-star", dest="s_star", type=int, help="adaptive sparsity budget")
    p.add_argument("--reps", type=int, required=True, help="replications")
    p.add_argument("--seed", type=int, help="64-bit seed (auto-chosen and echoed if omitted)")
    p.add_argument("--rho", type=float, default=0.0, help="equicorrelation in [0,1)")
    p.add_argument("--loss", choices=list(_LOSS_FLAGS), default="hamming")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hamsel",
        description="Support selection under Hamming loss: closed-form risks, "
        "selectors, and seeded Monte Carlo experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("risk", help="closed-form risk values and bounds")
    _add_instance_flags(p)
    p.add_argument(
        "--which",
        choices=["psi-plus", "psi", "psi-bar", "general", "bounds", "wrong-recovery"],
        help="quantity to print (default depends on --class)",
    )
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("select", help="run a selector on a data file")
    p.add_argument("--input", help="observations file, one value per line")
    p.add_argument("--method", choices=list(_METHOD_FLAGS))
    p.add_argument("--t", type=float, help="threshold value")
    p.add_argument("--s", type=int, help="sparsity")
    p.add_argument("--a", type=float, help="signal level")
    p.add_argument("--a0", type=float)
    p.add_argument("--a1", type=float)
    p.add_argument(
        "--family",
        choices=[f.value for f in Family],
        help="family of the observations, for every --method (default gaussian)",
    )
    p.add_argument("--sigma", type=float, help="noise level (default 1)")
    p.add_argument("--s-star", dest="s_star", type=int, help="adaptive sparsity budget")
    p.add_argument(
        "--by-abs", action="store_true", default=None, help="rank --method tops by |value|"
    )
    p.add_argument("--votes", help="crowd votes file (m rows of d 0/1 entries)")
    p.add_argument("--rates", help="crowd rates file (m rows of 'a0,a1')")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("mc", help="Monte Carlo risk of a selector")
    _add_instance_flags(p)
    p.add_argument("--selector", required=True, choices=list(SELECTOR_KINDS))
    _add_run_flags(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("phase", help="risk table over a (d, a-multiplier, selector) grid")
    p.add_argument("--d-list", dest="d_list", required=True, help="e.g. 100,1000,10000")
    p.add_argument(
        "--s-rule",
        dest="s_rule",
        required=True,
        help="'fixed:k' or 'power:beta' (s = ceil(d^(1-beta)), exact powers kept)",
    )
    p.add_argument("--a-mult", dest="a_mult", required=True, help="e.g. 0.8,1,1.2")
    p.add_argument("--selectors", required=True, help=f"comma list from {','.join(SELECTOR_KINDS)}")
    p.add_argument("--a-ref", dest="a_ref", choices=["almost-full", "exact"], default="almost-full")
    p.add_argument("--out", help="CSV output path (default stdout)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("sweep", help="run a sweep from a JSON config file")
    p.add_argument("config", help="JSON config path (key set documented in README)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
