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

# The default --which: the class's own closed form, "general" on the other classes
_DEFAULT_WHICH = {"plus": "psi-plus", "two-sided": "psi-bar"}


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


# kind of choice -> route -> (required, optional) flags it reads past its command's own
_FILE = ("--input", "--method")  # what every select --method route requires
_ROUTES = {
    "class": {  # risk's and mc's
        "--class plus": (("--a",), ("--sigma",)),
        "--class two-sided": (("--a",), ("--sigma",)),
        "--class interval": (("--a0", "--a1"), ("--sigma",)),
        "--class bernoulli": (("--a0", "--a1"), ()),
        "--class poisson": (("--a0", "--a1"), ()),
    },
    "noise": {f"--class {k}": ((), ("--rho",)) for k in ("plus", "two-sided", "interval")},  # mc's
    "selector": {"--selector adaptive": (("--s-star",), ())},  # mc's, and phase's
    "family": {"--family gaussian": ((), ("--sigma",))},  # select's: no --sigma on counts
    "select": {
        "--method threshold": ((*_FILE, "--t"), ("--family",)),
        "--method threshold-abs": ((*_FILE, "--t"), ("--family",)),
        "--method cosh": ((*_FILE, "--s", "--a"), ("--family", "--sigma")),
        "--method llr": ((*_FILE, "--s", "--a0", "--a1"), ("--family", "--sigma")),
        "--method tops": ((*_FILE, "--s"), ("--family", "--by-abs")),
        "--method universal": (_FILE, ("--family", "--sigma")),
        "--method adaptive": ((*_FILE, "--s-star"), ("--family", "--sigma")),
        "crowd selection": (("--votes", "--rates", "--s"), ()),
    },
}


def _check_routes(args, routes: dict) -> None:
    """Refuse each flag given that the route taken of its kind does not read
    (a route _ROUTES leaves out reads none), then each one a route requires
    that is missing; routes maps kind -> route.  Every flag in _ROUTES
    defaults to None, so that "given" can be seen."""
    given = {f"--{dest.replace('_', '-')}" for dest, value in vars(args).items() if value is not None}
    for kind, route in routes.items():
        reads = sum(_ROUTES[kind].get(route, ()), ())
        for flag in dict.fromkeys(f for both in _ROUTES[kind].values() for f in sum(both, ())):
            if flag in given and flag not in reads:
                raise ValueError(f"{flag} is not read by {route}")
    for kind, route in routes.items():
        for flag in _ROUTES[kind].get(route, ((),))[0]:
            if flag not in given:
                raise ValueError(f"{flag} is required for {route}")


def _build_instance(args) -> ProblemInstance:
    if args.klass == "plus":
        signal = LowerBound(args.a)
    elif args.klass == "two-sided":
        signal = TwoSided(args.a)
    else:
        signal = Interval(args.a0, args.a1)
    # the bernoulli and poisson classes are named after their family
    family = args.klass if args.klass in ("bernoulli", "poisson") else Family.GAUSSIAN
    sigma = 1.0 if args.sigma is None else args.sigma
    return ProblemInstance(args.d, args.s, signal, family, sigma)


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
    _check_routes(args, {"class": f"--class {args.klass}"})
    p = _build_instance(args)
    which = args.which or _DEFAULT_WHICH.get(args.klass, "general")
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


def _select_file(args):
    """--method run on the --input observations, which are from --family."""
    x = read_observations_csv(args.input)
    d, method, family = x.size, args.method, args.family or "gaussian"
    sigma = 1.0 if args.sigma is None else args.sigma
    if method in ("threshold", "threshold-abs"):
        spec = Threshold(args.t, two_sided=method == "threshold-abs")
    elif method == "universal":
        spec = Threshold(universal_threshold(d, sigma), two_sided=True)
    elif method == "adaptive":
        spec = Adaptive(args.s_star)
    elif method == "tops":
        spec = TopS(args.s, one_sided=not args.by_abs)
    else:
        signal = TwoSided(args.a) if method == "cosh" else Interval(args.a0, args.a1)
        spec = spec_for_kind(method, ProblemInstance(d, args.s, signal, family, sigma))
    return select_row(spec, x, d, family, sigma)


def cmd_select(args) -> int:
    """Print the one record {selected, bits, threshold_used, diagnostics} of
    every route.  Each returns a SelectResult, whose threshold_used is the
    cut applied: it is printed on its own, ahead of the rest."""
    if args.votes or args.rates:
        route = "crowd selection"
    elif args.method is None:
        raise ValueError("--method is required (or --votes/--rates for crowd data)")
    else:
        route = f"--method {args.method}"
    _check_routes(args, {"select": route, "family": f"--family {args.family or 'gaussian'}"})
    if route == "crowd selection":
        crowd = CrowdInstance(read_votes_csv(args.votes), tuple(read_rates_csv(args.rates)))
        support, diagnostics = crowd_selector(crowd, args.s)
    else:
        support, diagnostics = _select_file(args)
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
        rho=0.0 if args.rho is None else args.rho,
        loss_kind=_LOSS_FLAGS[args.loss],
    )


def cmd_mc(args) -> int:
    from . import simulate
    route = f"--class {args.klass}"
    _check_routes(args, {"class": route, "noise": route, "selector": f"--selector {args.selector}"})
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
    kinds = _parse_selectors(args.selectors)
    route = "--selector adaptive" if "adaptive" in kinds else f"--selectors {','.join(kinds)}"
    _check_routes(args, {"selector": route})
    rows = simulate.phase_sweep(
        _parse_list(args.d_list, "--d-list", int),
        _parse_s_rule(args.s_rule),
        _parse_list(args.a_mult, "--a-mult", float),
        kinds,
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
    p.add_argument("--sigma", type=float, help="noise level, Gaussian classes only (default 1)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The Monte Carlo run flags of mc and phase (see _mc_config)."""
    p.add_argument("--s-star", dest="s_star", type=int, help="sparsity budget, adaptive only")
    p.add_argument("--reps", type=int, required=True, help="replications")
    p.add_argument("--seed", type=int, help="64-bit seed (auto-chosen and echoed if omitted)")
    p.add_argument("--rho", type=float, help="equicorrelation in [0,1), Gaussian only (default 0)")
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
    p.add_argument("--method", choices=[r.split()[1] for r in _ROUTES["select"] if "--method" in r])
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
    p.add_argument("--sigma", type=float, help="noise level, Gaussian --family only (default 1)")
    p.add_argument("--s-star", dest="s_star", type=int, help="sparsity budget, adaptive only")
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
