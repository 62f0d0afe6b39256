"""The order-2 additive Gamma functions and their functional equations.

Two meromorphic functions anchor this module: the e-world connection
constant f(z), satisfying f(z+2) = (z+2)[f(z) - f(z+1)] with poles at
{-2, -3, ...}, and the pi-world constant g(z), satisfying
g(z+2) = g(z) - g(z+1)/(z+1) with simple poles at the negative integers.
f is evaluated by the branch-free real series

    f(z) = e^(-1) * sum_k 1 / (k! (z+2+k)),

with the incomplete-gamma and confluent-hypergeometric representations
kept as independent cross-check routes; g is evaluated through ratios of
Gamma values A(z) = Gamma(z/2+1)/Gamma((z+1)/2) via log-gamma
differences.  An :class:`AGFSpec` packages a general additive functional
equation sum_k R_k(z) h(z+k) = 0 with rational coefficients, normalized
by anchor values, for residual checking, propagation probing, and the
regular/irregular classification at infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .complexfn import (
    DOUBLE,
    PoleError,
    PrecisionConfig,
    _is_mp,
    _mp_context,
    _nearest_int,
    _to_ctx,
    hyp1f1,
    log_gamma,
    lower_incomplete_gamma,
)
from .exact import duality_form_e, duality_form_pi
from .holonomic import Poly2, RationalFn, RecurrenceParseError
from .holonomic import _check_coeffs, _parse_coeff_text

__all__ = [
    "AGFSpec",
    "RegularityClass",
    "afe_residual",
    "classify_regularity",
    "duality_residuals",
    "f_eval",
    "f_eval_confluent_route",
    "f_eval_gamma_route",
    "f_pole_distance",
    "f_spec",
    "format_agf_spec",
    "g_eval",
    "g_pole_distance",
    "g_spec",
    "gamma_ratio_A",
    "gamma_spec",
    "grid_points",
    "growth_probe",
    "parse_agf_spec",
    "residual_grid",
    "residual_table",
    "uniqueness_probe",
]


# ---------------------------------------------------------------------------
# AFE descriptions

@dataclass(frozen=True)
class AGFSpec:
    """Additive functional equation sum_k coeffs[k](z) h(z+k) = 0.

    Coefficients are rational functions of z alone; ``anchors`` holds the
    (point, value) normalization pairs on a unit-spaced window of length
    equal to the order.
    """

    order: int
    coeffs: tuple
    anchors: tuple
    name: str = ""

    def __post_init__(self):
        _check_coeffs(self.order, self.coeffs)
        for c in self.coeffs:
            if c.num.degree_n() > 0 or c.den.degree_n() > 0:
                raise ValueError("AFE coefficients must not involve n")
        if len(self.anchors) != self.order:
            raise ValueError("need exactly `order` anchor pairs")

    def coeff_at(self, k: int, z):
        return self.coeffs[k].eval(0, z)


def f_spec() -> AGFSpec:
    """AFE of f: h(z+2) + (z+2) h(z+1) - (z+2) h(z) = 0, anchored at 0, 1."""
    z = Poly2.var("z")
    two = Poly2.const(2)
    return AGFSpec(
        order=2,
        coeffs=(
            RationalFn(-(z + two)),
            RationalFn(z + two),
            RationalFn.const(1),
        ),
        anchors=((0.0, 1 / math.e), (1.0, 1 - 2 / math.e)),
        name="f",
    )


def g_spec() -> AGFSpec:
    """AFE of g: h(z+2) + h(z+1)/(z+1) - h(z) = 0, anchored at 0, 1."""
    z = Poly2.var("z")
    one = Poly2.const(1)
    return AGFSpec(
        order=2,
        coeffs=(
            RationalFn.const(-1),
            RationalFn(one, z + one),
            RationalFn.const(1),
        ),
        anchors=(
            (0.0, math.sqrt(2 / math.pi)),
            (1.0, (math.pi - 2) / math.sqrt(2 * math.pi)),
        ),
        name="g",
    )


def gamma_spec() -> AGFSpec:
    """AFE of Gamma: z h(z) - h(z+1) = 0, anchored at Gamma(1) = 1."""
    return AGFSpec(
        order=1,
        coeffs=(RationalFn(Poly2.var("z")), RationalFn.const(-1)),
        anchors=((1.0, 1.0),),
        name="gamma",
    )


# ---------------------------------------------------------------------------
# pole bookkeeping

def f_pole_distance(z) -> float:
    """Distance from z to the pole set {-2, -3, -4, ...} of f."""
    return _pole_row_distance(z, -2)


def g_pole_distance(z) -> float:
    """Distance from z to the pole set {-1, -2, -3, ...} of g."""
    return _pole_row_distance(z, -1)


def _pole_row_distance(z, first: int) -> float:
    zc = complex(z)
    return abs(zc - min(first, round(zc.real)))


# ---------------------------------------------------------------------------
# f: the irregular-world function

def f_eval(z, cfg: PrecisionConfig = DOUBLE):
    """f(z) = e^(-1) sum_k 1/(k! (z+2+k)), poles at z in {-2, -3, ...}.

    The series has factorially decaying terms and no branch factors; the
    incomplete-gamma and 1F1 representations are separate routes used for
    cross-checking, not called here.  It stops once 1/(k+1)! falls below
    a thousandth of the working epsilon.
    """
    n = _nearest_int(z)
    if n is not None and n <= -2:
        raise PoleError(f"f pole at z={n}")
    ctx = cfg.ctx
    zz = _to_ctx(z, ctx)
    tiny = ctx.eps / 1000
    total = ctx.mpc(0)
    term = ctx.mpf(1)
    for k in range(cfg.series_truncation_bound):
        total += term / (zz + 2 + k)
        term /= k + 1
        if term < tiny:
            break
    return total / ctx.e


def f_eval_gamma_route(z, cfg: PrecisionConfig = DOUBLE):
    """f(z) = e^(-1 - i pi z) gamma(z+2, -1), on the principal branch."""
    ctx = cfg.ctx
    zz = _to_ctx(z, ctx)
    inc = lower_incomplete_gamma(zz + 2, -1.0, cfg)
    return ctx.exp(-1 - 1j * ctx.pi * zz) * inc


def f_eval_confluent_route(z, cfg: PrecisionConfig = DOUBLE):
    """f(z) = 1F1(2; z+2; -1) / (z+1).

    The representation degenerates at z = -1 (a removable 0/0 of the
    formula, not a pole of f) and shares the poles z in {-2, -3, ...}.
    """
    if _nearest_int(z) == -1:
        raise PoleError("confluent representation of f degenerates at z=-1")
    zz = _to_ctx(z, cfg.ctx)
    return hyp1f1(2, zz + 2, -1, cfg) / (zz + 1)


# ---------------------------------------------------------------------------
# g: the regular-world function

def gamma_ratio_A(z, cfg: PrecisionConfig = DOUBLE):
    """A(z) = Gamma(z/2 + 1) / Gamma((z+1)/2) via log-gamma differences.

    When the denominator hits a Gamma pole the ratio is exactly 0 (the
    reciprocal-gamma convention); a numerator pole raises PoleError.
    """
    ctx = cfg.ctx
    zz = _to_ctx(z, ctx)
    num_idx = _nearest_int(zz / 2 + 1)
    den_idx = _nearest_int((zz + 1) / 2)
    num_pole = num_idx is not None and num_idx <= 0
    den_pole = den_idx is not None and den_idx <= 0
    if num_pole:
        raise PoleError(f"A(z) {'indeterminate' if den_pole else 'pole'} at z={z}")
    if den_pole:
        return ctx.mpc(0)
    return ctx.exp(log_gamma(zz / 2 + 1, cfg) - log_gamma((zz + 1) / 2, cfg))


def g_eval(z, cfg: PrecisionConfig = DOUBLE):
    """g(z) = sqrt(2) [A(z) - A(z-1)], poles at the negative integers.

    Holomorphic at z = 0 because A(-1) = 0 by the reciprocal-gamma
    convention.  Real on the real axis: there the imaginary part the
    log-gamma route leaves (a rounded multiple of pi where a Gamma
    argument is negative) is dropped.
    """
    n = _nearest_int(z)
    if n is not None and n <= -1:
        raise PoleError(f"g pole at z={n}")
    ctx = cfg.ctx
    zz = _to_ctx(z, ctx)
    g = ctx.sqrt(2) * (gamma_ratio_A(zz, cfg) - gamma_ratio_A(zz - 1, cfg))
    return g.real if zz.imag == 0 else g


# ---------------------------------------------------------------------------
# residuals, classification, probes

def afe_residual(spec: AGFSpec, h, z):
    """sum_k R_k(z) h(z+k); zero (to precision) when h satisfies the AFE."""
    total = None
    for k in range(spec.order + 1):
        term = spec.coeff_at(k, z) * h(z + k)
        total = term if total is None else total + term
    return total


def grid_points(re_min: float, re_max: float, im_min: float, im_max: float,
                step: float) -> list[complex]:
    """Rectangular complex grid, inclusive of the boundary (tolerant stop)."""
    if step <= 0:
        raise ValueError("step must be positive")
    points = []
    n_re = int(round((re_max - re_min) / step))
    n_im = int(round((im_max - im_min) / step))
    for i in range(n_re + 1):
        for j in range(n_im + 1):
            points.append(complex(re_min + i * step, im_min + j * step))
    return points


def residual_table(spec: AGFSpec, h, points, pole_distance=None,
                   skip_radius: float = 1e-3) -> list[tuple]:
    """(z, h(z), residual, relative) for each grid point z.

    The residual is sum_k R_k(z) h(z+k), and ``relative`` is its size over
    the largest term magnitude max_k |R_k(z) h(z+k)|.  h(z) is None where
    z is within skip_radius of a pole (as measured by ``pole_distance``)
    or h raises PoleError; residual and relative are None where any
    shifted argument z+k is.  Each argument is evaluated once per call,
    also when it is z+k for more than one grid point.
    """
    seen = {}

    def h_at(w):
        if w not in seen:
            seen[w] = h(w)
        return seen[w]

    rows = []
    for z in points:
        values = []
        for k in range(spec.order + 1):
            if pole_distance is not None and pole_distance(z + k) < skip_radius:
                break
            try:
                values.append(h_at(z + k))
            except PoleError:
                break
        value = values[0] if values else None
        if len(values) <= spec.order:
            rows.append((z, value, None, None))
            continue
        terms = [spec.coeff_at(k, z) * v for k, v in enumerate(values)]
        residual = sum(terms)
        scale = max(abs(t) for t in terms)
        rows.append((z, value, residual, abs(residual) / scale if scale > 0 else 0.0))
    return rows


def residual_grid(spec: AGFSpec, h, points, pole_distance=None,
                  skip_radius: float = 1e-3):
    """Max relative AFE residual of h over the grid, poles punctured.

    See :func:`residual_table`; points next to a pole are skipped.
    Returns (max_relative_residual, rows).
    """
    worst = 0.0
    rows = []
    for z, _, residual, rel in residual_table(spec, h, points, pole_distance,
                                              skip_radius):
        if rel is not None:
            rows.append({"z": z, "residual": abs(residual), "relative": rel})
            worst = max(worst, rel)
    return worst, rows


class RegularityClass(Enum):
    REGULAR = "regular"
    IRREGULAR = "irregular"


def classify_regularity(spec: AGFSpec) -> RegularityClass:
    """Regular iff every coefficient, normalized by R_r, stays bounded
    as |z| -> infinity; decided by exact degree comparison."""
    def net_degree(r: RationalFn) -> int:
        return r.num.degree_z() - r.den.degree_z()

    top = net_degree(spec.coeffs[-1])
    for k in range(spec.order):
        if spec.coeffs[k].is_zero():
            continue
        if net_degree(spec.coeffs[k]) > top:
            return RegularityClass.IRREGULAR
    return RegularityClass.REGULAR


def growth_probe(h, re_anchor: float, im_values, kind: str | None = None,
                 cfg: PrecisionConfig = DOUBLE) -> list[dict]:
    """Sample |h| along a vertical line and normalize per expected decay.

    kind 'f' reports |h(z)(z+2) - 1| (should decay like 1/|z|);
    kind 'g' reports |h(z) sqrt(z)| (should stay bounded); anything else
    reports the raw magnitude.
    """
    rows = []
    for im in im_values:
        z = complex(re_anchor, im)
        val = h(z)
        mag = abs(val)
        if kind == "f":
            normalized = abs(val * (z + 2) - 1)
        elif kind == "g":
            normalized = abs(val * cmath.sqrt(z))
        else:
            normalized = mag
        rows.append({"im": im, "magnitude": mag, "normalized": normalized})
    return rows


def uniqueness_probe(spec: AGFSpec, h1, h2, z0, grid_len: int,
                     anchor_tol: float = 1e-6) -> float:
    """Propagate h2's anchor values by the AFE and compare against h1.

    Returns the max relative deviation |h1 - propagated| / max(|h1|, eps)
    over z0 + k, k = 0..grid_len.  The anchor values of h1 and h2 must
    already agree to anchor_tol (relative).

    The propagation solves for h(z+r) at each step, so any anchor error
    is amplified by the AFE's dominant homogeneous solution; for the
    f-equation that growth is factorial, which is why callers should pass
    extended-precision evaluations of h1 and h2 for grid_len beyond a
    few steps.  When the callables return mpmath values, the propagation
    itself runs at a working precision sized to that factorial growth.
    """
    r = spec.order
    values = []
    for k in range(r):
        a1, a2 = h1(z0 + k), h2(z0 + k)
        if abs(a1 - a2) > anchor_tol * max(abs(a1), abs(a2), 1e-30):
            raise ValueError(f"anchors disagree at z={z0 + k}: {a1} vs {a2}")
        values.append(a2)
    if any(_is_mp(v) for v in values):
        # headroom for factorial error amplification along the propagation
        dps = max(30, int(math.lgamma(grid_len + 2) / math.log(10)) + 20)
        z0 = _mp_context(dps).convert(z0)
    for k in range(r, grid_len + 1):
        zk = z0 + (k - r)
        acc = None
        for j in range(r):
            term = spec.coeff_at(j, zk) * values[k - r + j]
            acc = term if acc is None else acc + term
        values.append(-acc / spec.coeff_at(r, zk))
    worst = 0.0
    for k in range(grid_len + 1):
        direct = h1(z0 + k)
        dev = abs(direct - values[k]) / max(abs(direct), 1e-300)
        worst = max(worst, float(dev))
    return worst


# ---------------------------------------------------------------------------
# arithmetic duality

def duality_residuals(world: str, m_max: int,
                      cfg: PrecisionConfig = DOUBLE) -> list[tuple]:
    """(-1)^m h(m)/h(0) against its exact linear form, for m = 0..m_max.

    World 'e' pairs h = f with a - e b (:func:`exact.duality_form_e`),
    world 'pi' pairs h = g with p - pi q (:func:`exact.duality_form_pi`).
    Returns one (form, residual, scale) per m: residual is
    |(-1)^m h(m)/h(0) - form| and scale the size a + e b (p + pi q) of the
    two terms the form combines, both as floats.
    """
    ctx = cfg.ctx
    if world == "e":
        h, const, form_at = f_eval, ctx.e, duality_form_e
    elif world == "pi":
        h, const, form_at = g_eval, ctx.pi, duality_form_pi
    else:
        raise ValueError(f"unknown world {world!r}")
    h0 = h(0, cfg)
    rows = []
    for m in range(m_max + 1):
        form = form_at(m)
        x, y = (form.a, form.b) if world == "e" else (form.p, form.q)
        lhs = (-1) ** m * h(m, cfg) / h0
        residual = abs(lhs - (ctx.convert(x) - const * ctx.convert(y)))
        rows.append((form, float(residual), float(x) + float(const) * float(y)))
    return rows


# ---------------------------------------------------------------------------
# text format

def parse_agf_spec(text: str) -> AGFSpec:
    """Parse an AFE description: 'coeffK: <expr in z>' lines plus one
    'z0=<point>: <value>' anchor line per normalization pair."""
    anchors: list[tuple] = []

    def on_key(key, rest, line_no, col_offset):
        if not key.startswith("z0="):
            raise RecurrenceParseError(line_no, 1, f"unknown key {key!r}")
        try:
            point = float(Fraction(key[3:]))
        except (ValueError, ZeroDivisionError):
            try:
                point = float(key[3:])
            except ValueError:
                raise RecurrenceParseError(
                    line_no, 1, f"bad anchor point {key[3:]!r}"
                )
        try:
            value = complex(rest.strip().replace("i", "j"))
        except ValueError:
            raise RecurrenceParseError(
                line_no, col_offset + 1, f"bad anchor value {rest.strip()!r}"
            )
        anchors.append((point, value))

    def build(coeffs):
        return AGFSpec(order=len(coeffs) - 1, coeffs=coeffs, anchors=tuple(anchors))

    return _parse_coeff_text(text, "'z0=...:'", on_key, build, z_only=True)


def format_agf_spec(spec: AGFSpec, digits: int = 17) -> str:
    """Inverse of parse_agf_spec for the built-in coefficient shapes."""
    lines = []
    for k in range(spec.order, -1, -1):
        lines.append(f"coeff{k}: {spec.coeffs[k]!r}")
    for point, value in spec.anchors:
        v = complex(value)
        if v.imag == 0:
            lines.append(f"z0={point:g}: {v.real:.{digits}g}")
        else:
            sign = "+" if v.imag >= 0 else "-"
            lines.append(
                f"z0={point:g}: {v.real:.{digits}g}{sign}{abs(v.imag):.{digits}g}i"
            )
    return "\n".join(lines) + "\n"
