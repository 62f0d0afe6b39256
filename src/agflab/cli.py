"""Command-line front end: sequences, limits, function values, verification
suites, and CSV/JSON tables.

Commands, with the worlds of :mod:`agflab.worlds`:
    agf-lab seq {%(worlds)s|FILE} Z N_MAX    evaluate a recurrence
    agf-lab limit {%(worlds)s} Z    extrapolate a connection constant
    agf-lab agf {%(functions)s} Z    evaluate an additive Gamma function
    agf-lab verify {afe|duality|ode|slope|growth|all}
    agf-lab table {%(tables)s}

Every Z goes through :func:`holonomic.parse_scalar`, the reader of the
recurrence and AFE files too: an exact rational (-5/2, 0.7, 1e-3) or
a+bi, and it may start with '-' without a '--' before it.  The world of
``limit`` steps its recurrence and evaluates its shell at that one z.

Verification suites exit 0 iff every check lands inside its tolerance and
emit a single JSON object (or a text summary); tables are RFC-4180 CSV or
JSON.  All randomized checks take --seed and default to a fixed seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import random
import re
import sys
import time
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

from . import agf as agf_mod
from . import certify, worlds
from .certify import check_record
from .complexfn import (
    DOUBLE,
    MAX_DOUBLE_DIGITS,
    PoleError,
    PrecisionConfig,
    extended,
    format_cnum,
)
from .connection import (
    DEPTH,
    MAX_REACH,
    N_BASE,
    REACH,
    NonConvergence,
    SlopeKind,
    estimate_connection_constant,
    slope_ratio,
    slope_ratio_numeric_check,
)
from .exact import ConsistencyError
from .holonomic import (
    CoefficientPole,
    RecurrenceParseError,
    iter_sequence,
    parse_precurrence,
    parse_scalar,
)

DEFAULT_SEED = 20260808
DEFAULT_GRID = (-1.5, 5.0, -5.0, 5.0, 0.5)
MAX_GRID_POINTS = 10**6  # grid_points builds the whole list first


# ---------------------------------------------------------------------------
# value helpers

def _precision(digits: int) -> PrecisionConfig:
    return extended(digits) if digits > MAX_DOUBLE_DIGITS else DOUBLE


def _fmt_value(v, cfg: PrecisionConfig) -> str:
    if isinstance(v, Fraction):
        # Decimal is exact and, unlike str(int), not capped at 4300 digits
        num = format(Decimal(v.numerator), "f")
        if v.denominator == 1:
            return num
        return f"{num}/{format(Decimal(v.denominator), 'f')}"
    return format_cnum(v, cfg)


# ---------------------------------------------------------------------------
# output plumbing

def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(args, head: dict, header: list[str], rows: list[list]):
    """rows under header as CSV, whose fields (numbers, 'pole', 'p/q',
    'a+bi') need no quoting, or with ``--format json`` as one record per
    row after the fields of ``head``.  Python's cap on int-to-str (3.11+)
    is lifted meanwhile: duality-e's (m+1)! passes it at m = 1558."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            payload = {**head, "rows": [dict(zip(header, row)) for row in rows]}
            text = json.dumps(payload, indent=2, default=str) + "\n"
        else:
            text = "".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows])
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    _emit(text, args.out)


# ---------------------------------------------------------------------------
# seq / limit / agf

def cmd_seq(args) -> int:
    cfg = _precision(args.digits)
    z = parse_scalar(args.z)
    builtin = worlds.table().get(args.world)
    if builtin:
        rec = builtin.recurrence(z)
    else:
        with open(args.world) as fh:
            rec = dataclasses.replace(parse_precurrence(fh.read()), param=z)
    # numeric rows come from the fixed-point engine as mpmath values,
    # which format_cnum rounds once to the printed digits
    digits = args.digits if cfg.is_extended else None
    rows = [[n, _fmt_value(v, cfg)]
            for n, v in iter_sequence(rec, n_max=args.n_max, digits=digits)]
    if args.format == "text":
        _emit("".join(f"{n}\t{value}\n" for n, value in rows), args.out)
    else:
        _emit_rows(args, {"command": "seq", "world": args.world, "z": str(args.z)},
                   ["n", "value"], rows)
    return 0


def cmd_limit(args) -> int:
    z = parse_scalar(args.z)
    world = worlds.world(args.world)
    est = estimate_connection_constant(
        world.recurrence(z), world.shell, depth=args.depth, n_base=args.n_base,
        digits=args.digits)
    value = _fmt_value(est.value, DOUBLE)
    if args.format == "json":
        payload = {"command": "limit", "world": args.world, "z": str(args.z),
                   **dataclasses.asdict(est), "value": value}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(f"{value} ± {est.error_estimate:.2e}\n", args.out)
    return 0


def cmd_agf(args) -> int:
    cfg = _precision(args.digits)
    z = parse_scalar(args.z)
    try:
        value = worlds.functions()[args.which].evaluator(z, cfg)
    except PoleError:
        p = agf_mod.FIRST_POLE[args.which]
        raise PoleError(f"{args.which} has poles at {{{p}, {p - 1}, {p - 2}, "
                        f"...}}; z={args.z} is one")
    _emit(_fmt_value(value, cfg) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _suite_afe(seed: int) -> Iterator[dict]:
    pts = agf_mod.grid_points(*DEFAULT_GRID)
    functions = worlds.functions()
    tables = {}
    for name, w in functions.items():
        worst, tables[name] = agf_mod.residual_grid(w.spec, w.evaluator, pts,
                                                    w.pole_distance)
        yield check_record(f"afe_residual_grid_{name}", worst,
                           {"grid": DEFAULT_GRID}, tolerance=1e-10)

    # f at each point is read from its residual table, not evaluated again
    worst_route = 0.0
    for z, a, _, _ in tables["f"]:
        if a is None or abs(z - (-1)) < 1e-3:
            continue
        b = agf_mod.f_eval_gamma_route(z)
        c = agf_mod.f_eval_confluent_route(z)
        scale = max(abs(a), 1e-30)
        worst_route = max(worst_route, abs(a - b) / scale, abs(a - c) / scale)
    yield check_record("f_three_route_agreement", worst_route, {}, tolerance=1e-11)

    anchors = [(f"{name}({point:g})", w.evaluator(point), want)
               for name, w in functions.items() for point, want in w.spec.anchors]
    worst_anchor = max(abs(got - want) for _, got, want in anchors)
    yield check_record("explicit_anchors", worst_anchor, {},
                       [name for name, _, _ in anchors], tolerance=1e-12)


def _suite_duality(seed: int) -> Iterator[dict]:
    dual = [w for w in worlds.table().values() if w.forms]
    for world in dual:
        worst, rows = 0.0, []
        try:  # a form mismatch fails this world's check, and the next one too
            for form, _, residual in world.duality_residuals(15):
                worst = max(worst, residual)
                rows.append({**form.to_record(), "scaled_residual": residual})
        except ConsistencyError as exc:
            worst, rows = 1.0, [str(exc)]
        yield check_record(f"duality_{world.name}", worst, {"m_max": 15}, rows,
                           tolerance=1e-9)

    # closed forms equal recurrences exactly (construction cross-checks)
    detail = []
    try:
        for world in dual:
            world.forms(100)
    except ConsistencyError as exc:
        detail = [str(exc)]
    yield check_record("duality_closed_forms_exact", 1.0 if detail else 0.0,
                       {"m_max": 100}, detail, passed=not detail)


def _suite_ode(seed: int) -> Iterator[dict]:
    table = worlds.table().values()
    for values in zip(*(w.ode_values for w in table)):  # the i-th of each world
        for w, v in zip(table, values):
            res = certify.ode_series_check_recurrence(w.recurrence(v), 200)
            details = None if res.passed else [
                f"first nonzero residual coefficient at x^{res.first_failure}"]
            yield check_record(f"ode_{w.name}_{w.ode_param}{v}",
                               0.0 if res.passed else 1.0,
                               {w.ode_param: v, "order": 200}, details,
                               passed=res.passed)


def _suite_slope(seed: int) -> Iterator[dict]:
    rng = random.Random(seed)
    worst = 0.0
    grid = []
    for alpha in (-4, -3, -2, -1, 1, 2, 3, 4):
        for _ in range(5):
            beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            result = slope_ratio(alpha, beta)
            ok = result.kind is SlopeKind.RATIONAL
            samples = []
            while len(samples) < 10:
                zc = complex(rng.uniform(0.3, 4), rng.uniform(0.5, 3))
                if abs((alpha * zc + beta).imag) > 0.2:
                    samples.append(zc)
            dev = slope_ratio_numeric_check(result, alpha, beta, samples)
            worst = max(worst, dev)
            grid.append({"alpha": alpha, "beta": str(beta), "rational": ok,
                         "deviation": dev})
    yield check_record("slope_integer_rational", worst,
                       {"alphas": "[-4..-1, 1..4]"}, grid, tolerance=1e-9)
    nonint = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
              Fraction(5, 3)]
    all_nonrational = all(
        slope_ratio(a, 0.3).kind is SlopeKind.NON_RATIONAL for a in nonint
    )
    yield check_record("slope_non_integer_rejected", 0.0,
                       {"alphas": [str(a) for a in nonint]}, passed=all_nonrational)


def _suite_growth(seed: int) -> Iterator[dict]:
    ims = [10.0, 20.0, 40.0, 80.0]
    rows = agf_mod.growth_probe(agf_mod.f_eval, 1.0, ims, kind="f")
    normalized = [r["normalized"] for r in rows]
    decreasing = all(b < a for a, b in zip(normalized, normalized[1:]))
    yield check_record("growth_f_decay", normalized[-1],
                       {"im": ims, "final_bound": 0.05},
                       [f"{v:.5f}" for v in normalized],
                       passed=decreasing and normalized[-1] < 0.05)
    rows = agf_mod.growth_probe(agf_mod.g_eval, 1.0, ims, kind="g")
    normalized = [r["normalized"] for r in rows]
    variation = abs(normalized[-1] - normalized[-2]) / normalized[-2]
    yield check_record("growth_g_bounded", variation,
                       {"im": ims, "variation_bound": 0.25},
                       [f"{v:.5f}" for v in normalized], passed=variation < 0.25)


SUITES = {
    "afe": _suite_afe,
    "duality": _suite_duality,
    "ode": _suite_ode,
    "slope": _suite_slope,
    "growth": _suite_growth,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        # a suite yields its checks as it completes them: the time since
        # the previous one (or the suite's start) is spent on this check
        start = time.perf_counter()
        for check in SUITES[name](args.seed):
            now = time.perf_counter()
            checks.append({**check, "timing_s": now - start})
            start = now
    all_pass = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "pass": all_pass,
        "checks": checks,
    }
    if args.format == "text":
        lines = [
            f"{'PASS' if c['pass'] else 'FAIL'} {c['check']} "
            f"(max deviation {c['max_deviation']:.3g})"
            for c in checks
        ]
        lines.append(f"{'PASS' if all_pass else 'FAIL'} suite {args.suite}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(report, indent=2, default=str) + "\n", args.out)
    if not all_pass:
        first = next(c["check"] for c in checks if not c["pass"])
        print(f"first failing check: {first}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# tables

def _table_duality(world: str, m_max: int) -> tuple[list[str], list[list]]:
    records = [{**form.to_record(), "form_value": f"{value:.17g}",
                "residual": f"{residual:.3e}"}
               for form, value, residual in worlds.world(world).duality_residuals(m_max)]
    return list(records[0]), [list(r.values()) for r in records]


def _table_agf_grid(grid: tuple) -> tuple[list[str], list[list]]:
    """z, then value re, value im and AFE residual of each function per
    point; 'pole' where undefined.  g's pass runs first: a window past
    g's radius exits before f is evaluated anywhere."""
    pts = agf_mod.grid_points(*grid)
    functions = worlds.functions()
    cells = {}
    for name, w in reversed(functions.items()):
        table = agf_mod.residual_table(w.spec, w.evaluator, pts, w.pole_distance)
        cells[name] = [("pole", "pole", "pole") if value is None else
                       (f"{value.real:.17g}", f"{value.imag:.17g}",
                        "pole" if rel is None else f"{rel:.3e}")
                       for _, value, _, rel in table]
    rows = [[f"{z.real:g}", f"{z.imag:g}"] for z in pts]
    for name in functions:  # the columns in the order f, g
        for row, cell in zip(rows, cells.pop(name)):
            row += cell
    return ["re", "im", *(f"{name}_{part}" for name in functions
                          for part in ("re", "im", "afe_residual"))], rows


def cmd_table(args) -> int:
    if args.kind.startswith("duality-"):
        header, rows = _table_duality(args.kind[len("duality-"):], args.m_max)
    else:
        header, rows = _table_agf_grid(args.grid)
    _emit_rows(args, {"command": "table", "kind": args.kind}, header, rows)
    return 0


# ---------------------------------------------------------------------------

def _at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its message
    return parse


def _grid_spec(text: str) -> tuple:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            "grid must be re_min,re_max,im_min,im_max,step"
        )
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError("grid bounds and step must be finite")
    if parts[4] <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if parts[1] < parts[0] or parts[3] < parts[2]:
        raise argparse.ArgumentTypeError("grid max must not be below its min")
    try:
        count = math.prod(n + 1 for n in agf_mod.grid_steps(*parts))
    except OverflowError:  # a side with more steps than a double holds
        count = math.inf
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid has {count} points, more than {MAX_GRID_POINTS}")
    return tuple(parts)


def _choices() -> dict[str, list[str]]:
    """The world, function and table names the commands take."""
    table = worlds.table().values()
    return {"worlds": [w.name for w in table],
            "functions": [w.spec.name for w in table if w.spec],
            "tables": [*(f"duality-{w.name}" for w in table if w.forms), "agf-grid"]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agf-lab",
        description="Additive Gamma functions: mirror recurrences, "
        "connection constants, and functional-equation verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    choices = _choices()

    def common(p, func, *formats, digits=False):  # the first format is the default
        if digits:
            p.add_argument("--digits", type=_at_least(1), default=15,
                           help=f"working precision; above {MAX_DOUBLE_DIGITS} "
                           "switches to extended mode (limit accumulates at "
                           "it and prints double precision)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0],
                           help="output format")
        p.add_argument("--out", default=None, help="write output to this path")
        # read by name when called: the parser outlives a test's or tracer's swap
        p.set_defaults(func=lambda args: globals()[func.__name__](args))
        # an argument such as -5/2 or -1.5+0.7i is a value, not an option
        p._negative_number_matcher = re.compile(r"^-\.?\d")

    z_help = "a rational (-5/2, 0.7, 1e-3) or a+bi"

    p = sub.add_parser("seq", help="evaluate a built-in or file recurrence")
    p.add_argument("world", help=f"{', '.join(choices['worlds'])}, or a recurrence "
                   "file path")
    p.add_argument("z", help=z_help)
    p.add_argument("n_max", type=int, help="last index to evaluate")
    common(p, cmd_seq, "text", "csv", "json", digits=True)

    p = sub.add_parser("limit", help="extrapolate a connection constant",
                       description="Prints the connection constant and its "
                       "error estimate.  --format json also prints in n every "
                       "sample the engine reached, and in increments the "
                       "tableau's diagonal increments over the final window.")
    p.add_argument("world", choices=choices["worlds"])
    p.add_argument("z", help=z_help)
    p.add_argument("--depth", type=int, default=DEPTH,
                   help="tableau depth: each estimate extrapolates at most "
                   "the last depth+1 samples (from the third sample on); "
                   f"n-base*2^depth is at most {MAX_REACH}")
    p.add_argument("--n-base", type=int, default=N_BASE,
                   dest="n_base", help="first sample; samples double from it "
                   "(odd rounds up to even) until the tableau's last increment "
                   f"reaches its rounding floor, at most to max({REACH}, "
                   "n-base*2^depth)")
    common(p, cmd_limit, "text", "json", digits=True)

    p = sub.add_parser("agf", help="evaluate f or g at a complex point")
    p.add_argument("which", choices=choices["functions"])
    p.add_argument("z", help=z_help)
    common(p, cmd_agf, digits=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p, cmd_verify, "json", "text")

    p = sub.add_parser("table", help="emit a duality or grid table")
    p.add_argument("kind", choices=choices["tables"])
    p.add_argument("--m-max", type=_at_least(0), default=10, dest="m_max")
    p.add_argument("--grid", type=_grid_spec, default=DEFAULT_GRID)
    common(p, cmd_table, "csv", "json")

    return parser


# the stderr label and exit code of each typed error; the first match wins
_ERRORS = ((RecurrenceParseError, "parse error", 2),
           (CoefficientPole, "coefficient pole", 1), (PoleError, "pole error", 1),
           (agf_mod.DomainError, "domain error", 1),
           (NonConvergence, "non-convergence", 1),
           (ConsistencyError, "consistency error", 1), ((ValueError, OSError), "error", 2))


_parser = functools.cache(build_parser)  # built once (1.5 ms); parse_args keeps no state


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, ConsistencyError) as exc:
        label, code = next(((label, code) for kinds, label, code in _ERRORS
                            if isinstance(exc, kinds)),
                           (f"arithmetic error: {type(exc).__name__}", 1))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __doc__:  # the command list names the table's worlds
    __doc__ %= {kind: "|".join(names) for kind, names in _choices().items()}

if __name__ == "__main__":
    sys.exit(main())
