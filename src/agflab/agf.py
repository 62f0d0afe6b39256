"""The order-2 additive Gamma functions and their functional equations.

Two meromorphic functions anchor this module: the e-world connection
constant f(z), satisfying f(z+2) = (z+2)[f(z) - f(z+1)] with poles at
{-2, -3, ...}, and the pi-world constant g(z), satisfying
g(z+2) = g(z) - g(z+1)/(z+1) with simple poles at the negative integers.
f is evaluated by the branch-free real series

    f(z) = e^(-1) * sum_k 1 / (k! (z+2+k)),

with the incomplete-gamma and confluent-hypergeometric representations
kept as independent cross-check routes; g takes the Gamma ratios
A(z) = Gamma(z/2+1)/Gamma((z+1)/2) and A(z-1) from three log-Gammas, at
z/2, (z+1)/2 and z/2+1, except in double precision at |z| >= 20 with
Re z >= -|Im z|, where two Horner passes in t = 2/z, over the large-|z|
series of 2 A(z)^2 - z and of A(z)/sqrt(z/2), give it to a few ulps.  An
:class:`AGFSpec` packages a general additive functional equation
sum_k R_k(z) h(z+k) = 0 with rational coefficients in z, normalized by
anchor values, for residual checking and the regular/irregular
classification at infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache

from .complexfn import (
    DOUBLE,
    PoleError,
    PrecisionConfig,
    _is_real,
    _nearest_int,
    _to_ctx,
    extended,
    format_cnum,
    hyp1f1,
    lower_incomplete_gamma,
    shared_log_gammas,
)
from .holonomic import Poly2, RationalFn, RecurrenceParseError
from .holonomic import _check_coeffs, _number, _parse_coeff_text

__all__ = [
    "AGFSpec",
    "DomainError",
    "FIRST_POLE",
    "G_RADIUS",
    "RegularityClass",
    "classify_regularity",
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
    "grid_steps",
    "growth_probe",
    "parse_agf_spec",
    "residual_grid",
    "residual_table",
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
    # each coefficient as complex (num, den) rows from the top coefficient
    # down, with den () where it is 1
    _complex_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_coeffs(self.order, self.coeffs)
        for c in self.coeffs:
            if c.num.degree_n() > 0 or c.den.degree_n() > 0:
                raise ValueError("AFE coefficients must not involve n")
        if len(self.anchors) != self.order:
            raise ValueError("need exactly `order` anchor pairs")

        def row(poly):
            return tuple(map(complex, reversed(poly.coeffs[0])))

        object.__setattr__(self, "_complex_rows", tuple(
            (row(c.num), () if c.den.coeffs[0] == [1] else row(c.den))
            for c in self.coeffs))

    def coeff_at(self, k: int, z) -> complex:
        """coeffs[k] at a complex z (the grid points of the residual
        table): Horner from the top coefficient of its complex rows, so a
        constant row is that constant, and no division where the
        denominator is 1; ZeroDivisionError at a root of the denominator."""
        num, den = self._complex_rows[k]
        n = num[0]
        for c in num[1:]:
            n = n * z + c
        if not den:
            return n
        d = den[0]
        for c in den[1:]:
            d = d * z + c
        return n / d


# Each spec is built once (about 50 us) and shared; nothing changes a spec.
@cache
def f_spec() -> AGFSpec:
    """AFE of f: h(z+2) + (z+2) h(z+1) - (z+2) h(z) = 0, anchored at 0, 1."""
    z_plus_2 = RationalFn(Poly2.var("z") + Poly2.const(2))
    return AGFSpec(order=2, coeffs=(-z_plus_2, z_plus_2, RationalFn.const(1)),
                   anchors=((0.0, 1 / math.e), (1.0, 1 - 2 / math.e)), name="f")


@cache
def g_spec() -> AGFSpec:
    """AFE of g: h(z+2) + h(z+1)/(z+1) - h(z) = 0, anchored at 0, 1."""
    one = Poly2.const(1)
    return AGFSpec(order=2, coeffs=(RationalFn.const(-1),
                                    RationalFn(one, Poly2.var("z") + one),
                                    RationalFn.const(1)),
                   anchors=((0.0, math.sqrt(2 / math.pi)),
                            (1.0, (math.pi - 2) / math.sqrt(2 * math.pi))),
                   name="g")


@cache
def gamma_spec() -> AGFSpec:
    """AFE of Gamma: z h(z) - h(z+1) = 0, anchored at Gamma(1) = 1."""
    return AGFSpec(order=1, coeffs=(RationalFn(Poly2.var("z")), RationalFn.const(-1)),
                   anchors=((1.0, 1.0),), name="gamma")


# ---------------------------------------------------------------------------
# pole bookkeeping

FIRST_POLE = {"f": -2, "g": -1}  # the rest follow at unit steps to -infinity


def f_pole_distance(z) -> float:
    """Distance from z to the pole set {-2, -3, -4, ...} of f."""
    return _pole_row_distance(z, FIRST_POLE["f"])


def g_pole_distance(z) -> float:
    """Distance from z to the pole set {-1, -2, -3, ...} of g."""
    return _pole_row_distance(z, FIRST_POLE["g"])


def _pole_row_distance(z, first: int) -> float:
    zc = complex(z)
    n = round(zc.real)
    return abs(zc - (n if n < first else first))


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
    if n is not None and n <= FIRST_POLE["f"]:
        raise PoleError(f"f pole at z={n}")
    ctx = cfg.ctx
    # a real z divides in real arithmetic: the same terms as in complex
    z2 = (ctx.convert(z) if _is_real(z) else _to_ctx(z, ctx)) + 2
    return ctx.reciprocal_sum(z2, _reciprocal_factorials(ctx)) / ctx.e


@cache
def _reciprocal_factorials(ctx) -> tuple:
    """(k, 1/k!) with 1/k! in ``ctx``, for k = 0, 1, ... while 1/k! is at
    least a thousandth of the working epsilon; one tuple per context."""
    tiny = ctx.eps / 1000
    terms = []
    term = ctx.mpf(1)
    k = 0
    while term >= tiny:
        terms.append((k, term))
        k += 1
        term /= k
    return tuple(terms)


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
    return ctx.exp(ctx.loggamma(zz / 2 + 1) - ctx.loggamma((zz + 1) / 2))


class DomainError(ArithmeticError):
    """A point outside the region where a function's value is accurate."""


# g's domain.  On the three-log-Gamma route, A(z) and A(z-1) grow like
# sqrt(|z|/2) while their difference falls like 1/sqrt(|z|), and the
# double log-gamma carries an absolute error of order eps |z log z|, so the
# relative error of g grows like eps |z|^2 log |z|.  Against 40-digit
# mpmath, the worst of 500 points on the circle |z| = R, at angles drawn
# from random.Random(R), is 5.0e-9 at R = 1000, 7.4e-9 at 1300, 1.0e-8 at
# 1400 and 1.3e-8 at 1500.  The series route below does not lose digits
# with |z|, but the radius holds for both.
G_RADIUS = 1300.0

# g's large-|z| series (Tricomi and Erdelyi, Pacific J. Math. 1 (1951);
# DLMF 5.11).  With x = z/2 and t = 2/z = 1/x,
#     C(t) = A(z)/sqrt(x) = exp(sum_m B_2m (2 - 2^(1-2m)) / (2m(2m-1)) t^(2m-1)),
#     E(t) = 2 (C(t)^2 - 1)/t = 2 A(z)^2 - z,
# and A(z) A(z-1) = z/2 turns g = sqrt(2) [A(z) - A(z-1)] into
# (2 A^2 - z)/(sqrt(2) A) = E(t)/(sqrt(z) C(t)), with no cancellation.
# Every coefficient is a dyadic rational, here as (numerator, log2 of the
# denominator) from t^0 up.  Against 40-digit mpmath, the worst of 400
# seeded points per band of |z|, with |arg z| <= 3 pi/4, is 6.8e-16 at
# |z| in [20, 20.001], 4.9e-16 at [20, 40], 3.8e-16 at [40, 300] and
# 4.8e-16 at [300, 1300] (tests/test_agf.py).  At |z| = 16 it is 3.3e-14,
# and near the negative axis, where the poles lie, the series fails:
# hence the radius 20 and the sector Re z >= -|Im z|.
_G_SERIES_C = tuple(Fraction(n, 2**k) for n, k in (
    (1, 0), (1, 3), (1, 7), (-5, 10), (-21, 15), (399, 18), (869, 22),
    (-39325, 25), (-334477, 31), (28717403, 34), (59697183, 38),
    (-8400372435, 41), (-34429291905, 46), (7199255611995, 49),
    (14631594576045, 53), (-4251206967062925, 56), (-68787420596367165, 63)))
_G_SERIES_E = tuple(Fraction(n, 2**k) for n, k in (
    (1, 1), (1, 4), (-1, 6), (-5, 10), (23, 12), (53, 15), (-593, 17),
    (-5165, 22), (110123, 24), (231743, 27), (-8113223, 29), (-33497425, 33),
    (1744764499, 35), (3563384029, 38), (-258115578289, 40),
    (-4191097954685, 46)))
_G_SERIES_HORNER = (tuple(map(float, reversed(_G_SERIES_C))),
                    tuple(map(float, reversed(_G_SERIES_E))))
_G_SERIES_RADIUS = 20.0


def g_eval(z, cfg: PrecisionConfig = DOUBLE):
    """g(z) = sqrt(2) [A(z) - A(z-1)], poles at the negative integers.

    In double precision at |z| >= 20 with Re z >= -|Im z|, g is
    E(t)/(sqrt(z) C(t)), two Horner passes in t = 2/z over its large-|z|
    series (see ``_G_SERIES_C``), good to about 1e-15 relative.  Elsewhere,
    and at every point in extended precision, three log-Gammas:
    log Gamma((z+1)/2) is shared, A(z)'s denominator and A(z-1)'s
    numerator.  Within 1e-12 of z = 0, A(z-1) is z/(2 A(z)), by
    A(z) A(z-1) = z/2: it is 0 at z = 0, where A(-1) = 0 by the
    reciprocal-gamma convention, and keeps its digits beside it, where
    the log-Gammas would cancel.  Real on the real axis: there the
    imaginary part the log-gamma route leaves (a rounded multiple of pi
    where a Gamma argument is negative) is dropped.  Raises
    :class:`DomainError` past |z| = :data:`G_RADIUS`, at every precision.
    """
    n = _nearest_int(z)
    zc = complex(z)
    if n is not None and n <= FIRST_POLE["g"]:
        raise PoleError(f"g pole at z={n}")
    r = abs(zc)
    if r > G_RADIUS:
        raise DomainError(f"g is evaluated only for |z| <= {G_RADIUS:g}; "
                          f"|z| = {repr(r).removesuffix('.0')}")
    if not cfg.is_extended and r >= _G_SERIES_RADIUS and zc.real >= -abs(zc.imag):
        t = 2 / zc
        c_poly, e_poly = _G_SERIES_HORNER
        c = e = 0j
        for k in c_poly:
            c = c * t + k
        for k in e_poly:
            e = e * t + k
        g = e / (cmath.sqrt(zc) * c)
        return g.real if zc.imag == 0 else g
    ctx = cfg.ctx
    zz, lgamma, exp = _to_ctx(z, ctx), ctx.loggamma, ctx.exp
    mid = lgamma((zz + 1) / 2)
    a = exp(lgamma(zz / 2 + 1) - mid)
    a_prev = zz / (2 * a) if n == 0 else exp(mid - lgamma(zz / 2))
    g = ctx.sqrt(2) * (a - a_prev)
    return g.real if zz.imag == 0 else g


# ---------------------------------------------------------------------------
# residuals, classification, probes

def grid_steps(re_min: float, re_max: float, im_min: float, im_max: float,
               step: float) -> tuple[int, int]:
    """The steps along the real and the imaginary side of
    :func:`grid_points`' grid; OverflowError where one is not finite."""
    if step <= 0:
        raise ValueError("step must be positive")
    return round((re_max - re_min) / step), round((im_max - im_min) / step)


def grid_points(re_min: float, re_max: float, im_min: float, im_max: float,
                step: float) -> list[complex]:
    """Rectangular complex grid, inclusive of the boundary (tolerant stop)."""
    n_re, n_im = grid_steps(re_min, re_max, im_min, im_max, step)
    points = []
    for i in range(n_re + 1):
        for j in range(n_im + 1):
            points.append(complex(re_min + i * step, im_min + j * step))
    return points


def residual_table(spec: AGFSpec, h, points, pole_distance) -> list[tuple]:
    """(z, h(z), residual, relative) for each grid point z.

    The residual is sum_k R_k(z) h(z+k), and ``relative`` is its size over
    the largest term magnitude max_k |R_k(z) h(z+k)|.  h(z) is None where
    ``pole_distance(z)`` is below 1e-3 or h raises PoleError; residual and
    relative are None where any shifted argument z+k is.  One pass: each
    distinct argument gets one ``pole_distance`` test and at most one call
    of h, also when it is z+k for more than one point.
    """
    values = {}  # h at each argument reached so far, None next to a pole
    rows = []
    with shared_log_gammas():  # g's log-Gammas recur along the shifts
        for z in points:
            hs = []
            for k in range(spec.order + 1):
                w = z + k
                if w not in values:
                    try:
                        values[w] = None if pole_distance(w) < 1e-3 else h(w)
                    except PoleError:
                        values[w] = None
                v = values[w]
                if v is None:
                    break
                hs.append(v)
            if len(hs) <= spec.order:
                rows.append((z, hs[0] if hs else None, None, None))
                continue
            terms = [spec.coeff_at(k, z) * v for k, v in enumerate(hs)]
            residual = sum(terms)
            scale = max(map(abs, terms))
            rows.append((z, hs[0], residual, abs(residual) / scale if scale > 0 else 0.0))
    return rows


def residual_grid(spec: AGFSpec, h, points, pole_distance):
    """Max relative AFE residual of h over the grid, poles punctured, and
    the :func:`residual_table` rows it is taken from.

    Returns (max_relative_residual, rows).
    """
    rows = residual_table(spec, h, points, pole_distance)
    worst = 0.0
    for *_, rel in rows:
        if rel is not None:
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


def growth_probe(h, re_anchor: float, im_values, kind: str) -> list[dict]:
    """Sample |h| along a vertical line and normalize per expected decay.

    kind 'f' reports |h(z)(z+2) - 1| (should decay like 1/|z|), kind 'g'
    reports |h(z) sqrt(z)| (should stay bounded); any other kind raises
    ValueError.
    """
    if kind not in ("f", "g"):
        raise ValueError(f"growth_probe kind must be 'f' or 'g', not {kind!r}")
    rows = []
    for im in im_values:
        z = complex(re_anchor, im)
        val = h(z)
        normalized = abs(val * (z + 2) - 1) if kind == "f" else abs(val * cmath.sqrt(z))
        rows.append({"im": im, "magnitude": abs(val), "normalized": normalized})
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
        point = _number(key[3:], line_no, 1, "anchor point")
        value = _number(rest, line_no, col_offset + 1, "anchor value")
        try:  # a real point, which format_agf_spec prints with :g
            anchors.append((float(point), complex(value)))
        except (TypeError, OverflowError):  # complex point, or past 1.8e308
            raise RecurrenceParseError(
                line_no, 1, "anchor point and value must be doubles, the point "
                f"real: {key}:{rest}") from None

    def build(coeffs):
        return AGFSpec(order=len(coeffs) - 1, coeffs=coeffs, anchors=tuple(anchors))

    return _parse_coeff_text(text, "'z0=...:'", on_key, build, z_only=True)


def format_agf_spec(spec: AGFSpec) -> str:
    """Inverse of parse_agf_spec for the built-in coefficient shapes; the
    anchor values get 17 significant digits, which round-trip a double."""
    lines = [f"coeff{k}: {spec.coeffs[k]!r}" for k in range(spec.order, -1, -1)]
    lines += [f"z0={point:g}: {format_cnum(complex(value), extended(17))}"
              for point, value in spec.anchors]
    return "\n".join(lines) + "\n"
