"""Command-line front end: sequences, limits, function values, verification
suites, and CSV/JSON tables.

Commands:
    agf-lab seq   {e|pi|FILE} Z N_MAX     evaluate a recurrence
    agf-lab limit {e|pi|gamma} Z          extrapolate a connection constant
    agf-lab agf   {f|g} Z                 evaluate an additive Gamma function
    agf-lab verify {afe|duality|ode|slope|growth|all}
    agf-lab table {duality-e|duality-pi|agf-grid}

Verification suites exit 0 iff every check lands inside its tolerance and
emit a single JSON object (or a text summary); tables are RFC-4180 CSV or
JSON.  All randomized checks take --seed and default to a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import random
import sys
import time
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction

from . import agf as agf_mod
from . import certify
from .complexfn import (
    DOUBLE,
    MAX_DOUBLE_DIGITS,
    PoleError,
    PrecisionConfig,
    extended,
    format_cnum,
)
from .connection import (
    F_SHELL,
    G_SHELL,
    GAMMA_SHELL,
    ExtrapolationConfig,
    NonConvergence,
    SlopeKind,
    estimate_connection_constant,
    slope_ratio,
    slope_ratio_numeric_check,
)
from .exact import ConsistencyError, duality_forms_e, duality_forms_pi
from .holonomic import (
    DEFAULT_DIGITS,
    CoefficientPole,
    RecurrenceParseError,
    _exact_data,
    eval_sequence,
    gamma_recurrence,
    mirror_e,
    mirror_pi,
    parse_precurrence,
)

DEFAULT_SEED = 20260808
DEFAULT_GRID = (-1.5, 5.0, -5.0, 5.0, 0.5)


# ---------------------------------------------------------------------------
# argument parsing helpers

def parse_scalar(text: str):
    """Exact rational if possible ('0', '-1', '1/2', '2.5'), else complex."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    return parse_complex_literal(text)


def parse_complex_literal(text: str) -> complex:
    """Complex literals 'a+bi' / 'a-bi' with optional spaces."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise ValueError("empty complex literal")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}")


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


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# seq / limit / agf

def cmd_seq(args) -> int:
    cfg = _precision(args.digits)
    n_max = args.n_max if args.n_max is not None else args.n_max_flag
    if n_max is None:
        raise ValueError("seq needs n_max (positional or --n-max)")
    builtin = {"e": mirror_e, "pi": mirror_pi}.get(args.world)
    if builtin:
        rec = builtin()
    else:
        with open(args.world) as fh:
            rec = parse_precurrence(fh.read())
    z = parse_scalar(args.z)
    # numeric rows come from the fixed-point engine as mpmath values,
    # which format_cnum rounds once to the printed digits
    digits = (args.digits if cfg.is_extended
              else None if _exact_data(rec, z) else DEFAULT_DIGITS)
    points = eval_sequence(rec, z=z, n_max=n_max, digits=digits)
    if args.format == "json":
        payload = {
            "command": "seq",
            "world": args.world,
            "z": str(args.z),
            "rows": [{"n": p.n, "value": _fmt_value(p.value, cfg)} for p in points],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        rows = [[p.n, _fmt_value(p.value, cfg)] for p in points]
        _emit(_rows_to_csv(["n", "value"], rows), args.out)
    else:
        lines = [f"{p.n}\t{_fmt_value(p.value, cfg)}" for p in points]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_limit(args) -> int:
    z = parse_scalar(args.z)
    worlds = {"e": (mirror_e, F_SHELL), "pi": (mirror_pi, G_SHELL),
              "gamma": (gamma_recurrence, GAMMA_SHELL)}
    recurrence, shell = worlds[args.world]
    # a shell whose exponent moves with z needs z itself
    est = estimate_connection_constant(
        recurrence(z), shell, z=complex(z) if shell.rho_slope else None,
        cfg=ExtrapolationConfig(depth=args.depth, n_base=args.n_base,
                                digits=args.digits))
    value = est.value.real if abs(est.value.imag) < 1e-13 else est.value
    value = _fmt_value(value, DOUBLE)
    if args.format == "json":
        payload = {"command": "limit", "world": args.world, "z": str(args.z),
                   **dataclasses.asdict(est), "value": value}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(f"{value} ± {est.error_estimate:.2e}\n", args.out)
    return 0


def cmd_agf(args) -> int:
    cfg = _precision(args.digits)
    z = parse_complex_literal(args.z)
    _, fn, _ = agf_mod.functions()[args.which]
    try:
        value = fn(z, cfg)
    except PoleError:
        p = agf_mod.FIRST_POLE[args.which]
        raise PoleError(f"{args.which} has poles at {{{p}, {p - 1}, {p - 2}, "
                        f"...}}; z={args.z} is one")
    _emit(_fmt_value(value, cfg) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _check(check: str, passed: bool, max_dev: float, params: dict,
           details: list | None = None) -> dict:
    return {
        "check": check,
        "params": params,
        "pass": bool(passed),
        "max_deviation": max_dev,
        "details": details or [],
    }


def _suite_afe(seed: int) -> Iterator[dict]:
    pts = agf_mod.grid_points(*DEFAULT_GRID)
    functions = agf_mod.functions()
    for name, (spec, h, pole_distance) in functions.items():
        worst, _ = agf_mod.residual_grid(spec, h, pts, pole_distance)
        yield _check(f"afe_residual_grid_{name}", worst <= 1e-10, worst,
                     {"grid": DEFAULT_GRID, "tolerance": 1e-10})

    worst_route = 0.0
    for z in pts:
        if abs(z - (-1)) < 1e-3:
            continue
        a = agf_mod.f_eval(z)
        b = agf_mod.f_eval_gamma_route(z)
        c = agf_mod.f_eval_confluent_route(z)
        scale = max(abs(a), 1e-30)
        worst_route = max(worst_route, abs(a - b) / scale, abs(a - c) / scale)
    yield _check("f_three_route_agreement", worst_route <= 1e-11,
                 worst_route, {"tolerance": 1e-11})

    anchors = [(f"{name}({point:g})", h(point), want)
               for name, (spec, h, _) in functions.items()
               for point, want in spec.anchors]
    worst_anchor = max(abs(got - want) for _, got, want in anchors)
    yield _check("explicit_anchors", worst_anchor <= 1e-12, worst_anchor,
                 {"tolerance": 1e-12}, [name for name, _, _ in anchors])


def _suite_duality(seed: int) -> Iterator[dict]:
    for world in ("e", "pi"):
        worst = 0.0
        rows = []
        for form, residual, scale in agf_mod.duality_residuals(
                world, 15, extended(40)):
            dev = residual / scale
            worst = max(worst, dev)
            terms = ({"a": form.a, "b": form.b} if world == "e"
                     else {"p": str(form.p), "q": str(form.q)})
            rows.append({"m": form.m, **terms, "scaled_residual": dev})
        yield _check(f"duality_{world}", worst <= 1e-9, worst,
                     {"m_max": 15, "tolerance": 1e-9}, rows)

    # closed forms equal recurrences exactly (construction cross-checks)
    ok = True
    detail = []
    try:
        duality_forms_pi(100)
        duality_forms_e(100)
    except ConsistencyError as exc:
        ok = False
        detail = [str(exc)]
    yield _check("duality_closed_forms_exact", ok, 0.0 if ok else 1.0,
                 {"m_max": 100}, detail)


def _suite_ode(seed: int) -> Iterator[dict]:
    for m in range(9):
        yield _ode_check(f"ode_e_m{m}", certify.ode_series_check_e(m, 200),
                         {"m": m, "order": 200})
        yield _ode_check(f"ode_pi_m{m}", certify.ode_series_check_pi(m, 200),
                         {"m": m, "order": 200})
        z = Fraction(2 * m + 1, 2)
        yield _ode_check(f"ode_gamma_z{z}", certify.ode_series_check_gamma(z, 200),
                         {"z": str(z), "order": 200})


def _ode_check(name: str, res, params: dict) -> dict:
    """The record of one ODE certificate; a failure names the first
    nonzero residual coefficient."""
    details = None if res.passed else [
        f"first nonzero residual coefficient at x^{res.first_failure}"]
    return _check(name, res.passed, 0.0 if res.passed else 1.0, params, details)


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
    yield _check("slope_integer_rational", worst <= 1e-9, worst,
                 {"alphas": "[-4..-1, 1..4]", "tolerance": 1e-9}, grid)
    nonint = [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2),
              Fraction(5, 3)]
    all_nonrational = all(
        slope_ratio(a, 0.3).kind is SlopeKind.NON_RATIONAL for a in nonint
    )
    yield _check("slope_non_integer_rejected", all_nonrational, 0.0,
                 {"alphas": [str(a) for a in nonint]})


def _suite_growth(seed: int) -> Iterator[dict]:
    ims = [10.0, 20.0, 40.0, 80.0]
    rows = agf_mod.growth_probe(agf_mod.f_eval, 1.0, ims, kind="f")
    normalized = [r["normalized"] for r in rows]
    decreasing = all(b < a for a, b in zip(normalized, normalized[1:]))
    yield _check("growth_f_decay", decreasing and normalized[-1] < 0.05,
                 normalized[-1], {"im": ims, "final_bound": 0.05},
                 [f"{v:.5f}" for v in normalized])
    rows = agf_mod.growth_probe(agf_mod.g_eval, 1.0, ims, kind="g")
    normalized = [r["normalized"] for r in rows]
    variation = abs(normalized[-1] - normalized[-2]) / normalized[-2]
    yield _check("growth_g_bounded", variation < 0.25, variation,
                 {"im": ims, "variation_bound": 0.25},
                 [f"{v:.5f}" for v in normalized])


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
    rows = [[*form.to_record().values(), f"{form.value():.17g}", f"{residual:.3e}"]
            for form, residual, _ in agf_mod.duality_residuals(
                world, m_max, extended(40))]
    header = ["m", "a", "b"] if world == "e" else ["m", "p", "q"]
    return header + ["form_value", "residual"], rows


def _grid_columns(pts, spec, h, pole_distance) -> list[list[str]]:
    """value re, value im and AFE residual per point; 'pole' where undefined."""
    columns = []
    for _, value, _, rel in agf_mod.residual_table(spec, h, pts, pole_distance):
        if value is None:
            columns.append(["pole", "pole", "pole"])
        else:
            columns.append([f"{value.real:.17g}", f"{value.imag:.17g}",
                            "pole" if rel is None else f"{rel:.3e}"])
    return columns


def _table_agf_grid(grid: tuple) -> tuple[list[str], list[list]]:
    pts = agf_mod.grid_points(*grid)
    f_cols, g_cols = (_grid_columns(pts, *fns)
                      for fns in agf_mod.functions().values())
    rows = [[f"{z.real:g}", f"{z.imag:g}", *f, *g]
            for z, f, g in zip(pts, f_cols, g_cols)]
    header = ["re", "im", "f_re", "f_im", "f_afe_residual",
              "g_re", "g_im", "g_afe_residual"]
    return header, rows


def cmd_table(args) -> int:
    if args.kind in ("duality-e", "duality-pi"):
        header, rows = _table_duality(args.kind[len("duality-"):], args.m_max)
    else:
        header, rows = _table_agf_grid(args.grid)
    if args.format == "json":
        payload = {
            "command": "table",
            "kind": args.kind,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _emit(json.dumps(payload, indent=2, default=str) + "\n", args.out)
    else:
        _emit(_rows_to_csv(header, rows), args.out)
    return 0


# ---------------------------------------------------------------------------

def _digits(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"digits must be at least 1, not {value}")
    return value


def _grid_spec(text: str) -> tuple:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            "grid must be re_min,re_max,im_min,im_max,step"
        )
    if parts[4] <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    return tuple(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agf-lab",
        description="Additive Gamma functions: mirror recurrences, "
        "connection constants, and functional-equation verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, *formats, digits=False):  # the first format is the default
        if digits:
            p.add_argument("--digits", type=_digits, default=15,
                           help=f"working precision; above {MAX_DOUBLE_DIGITS} "
                           "switches to extended mode (limit accumulates at "
                           "it and prints double precision)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0],
                           help="output format")
        p.add_argument("--out", default=None, help="write output to this path")
        p.set_defaults(func=func)

    p = sub.add_parser("seq", help="evaluate a built-in or file recurrence")
    p.add_argument("world", help="'e', 'pi', or a recurrence file path")
    p.add_argument("z", help="parameter (rational like 1/2, or a+bi)")
    p.add_argument("n_max", type=int, nargs="?", default=None,
                   help="last index to evaluate")
    p.add_argument("--n-max", type=int, default=None, dest="n_max_flag",
                   help="last index to evaluate (alternative to the positional)")
    common(p, cmd_seq, "text", "csv", "json", digits=True)

    p = sub.add_parser("limit", help="extrapolate a connection constant")
    p.add_argument("world", choices=["e", "pi", "gamma"])
    p.add_argument("z", help="parameter (rational like 1/2, or a+bi)")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--n-base", type=int, default=2**10, dest="n_base")
    common(p, cmd_limit, "text", "json", digits=True)

    p = sub.add_parser("agf", help="evaluate f or g at a complex point")
    p.add_argument("which", choices=["f", "g"])
    p.add_argument("z", help="complex literal a+bi")
    common(p, cmd_agf, digits=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p, cmd_verify, "json", "text")

    p = sub.add_parser("table", help="emit a duality or grid table")
    p.add_argument("kind", choices=["duality-e", "duality-pi", "agf-grid"])
    p.add_argument("--m-max", type=int, default=10, dest="m_max")
    p.add_argument("--grid", type=_grid_spec, default=DEFAULT_GRID)
    common(p, cmd_table, "csv", "json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecurrenceParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CoefficientPole as exc:
        print(f"coefficient pole: {exc}", file=sys.stderr)
        return 1
    except PoleError as exc:
        print(f"pole error: {exc}", file=sys.stderr)
        return 1
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"arithmetic error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
