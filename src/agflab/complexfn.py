"""Principal-branch complex special functions at configurable precision.

Every formula is written once against the mpmath context of its
:class:`PrecisionConfig`: ``mpmath.fp`` (Python floats and complexes) in
double precision, a private :class:`MPContext` in the extended mode
(more than ``MAX_DOUBLE_DIGITS`` = 15 significant digits).  log-Gamma is
the one exception: double precision keeps a fixed Lanczos approximation
with reflection for Re z < 1/2, which is faster than ``fp.loggamma``; the
extended mode uses the context's ``loggamma``.  Gamma is exp(log-Gamma).  The lower
incomplete gamma and the confluent hypergeometric 1F1 are evaluated by
their defining series with a guarded truncation rule.

Poles are reported as typed :class:`PoleError`, never as infinities, so
grid drivers can skip them deterministically.  All functions are pure;
precision travels in an explicit :class:`PrecisionConfig`, and mpmath's
global context is never read or changed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import fp
from mpmath.ctx_mp import MPContext
from mpmath.ctx_mp_python import _mpc, _mpf

__all__ = [
    "ConvergenceError",
    "DOUBLE",
    "MAX_DOUBLE_DIGITS",
    "PoleError",
    "PrecisionConfig",
    "extended",
    "format_cnum",
    "gamma",
    "hyp1f1",
    "log_gamma",
    "lower_incomplete_gamma",
    "principal_log",
    "principal_pow",
]

# The most significant digits double precision carries; a precision
# above it selects the extended mode, here, in the CLI and in iteration.
MAX_DOUBLE_DIGITS = 15


class PoleError(ArithmeticError):
    """Evaluation requested at a pole."""


class ConvergenceError(ArithmeticError):
    """A series failed to satisfy its truncation rule within the bound."""


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision and series/tolerance policy for one computation."""

    working_digits: int = 15
    series_truncation_bound: int = 400
    tolerance_abs: float = 1e-15
    tolerance_rel: float = 1e-12

    def __post_init__(self):
        if self.working_digits < 1:
            raise ValueError("working_digits must be positive")
        if self.series_truncation_bound < 1:
            raise ValueError("series_truncation_bound must be positive")
        if self.tolerance_abs <= 0 or self.tolerance_rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.tolerance_rel < self.machine_eps:
            raise ValueError(
                "tolerance_rel below machine epsilon of the chosen precision"
            )

    @property
    def machine_eps(self) -> float:
        if not self.is_extended:
            return fp.eps
        return 10.0 ** (1 - self.working_digits)

    @property
    def is_extended(self) -> bool:
        return self.working_digits > MAX_DOUBLE_DIGITS

    @property
    def ctx(self):
        """The mpmath context the formulas run in: ``fp`` in double
        precision, else a private context with 10 guard digits."""
        if self.is_extended:
            return _mp_context(self.working_digits + 10)
        return fp


@lru_cache(maxsize=None)
def _mp_context(dps: int) -> MPContext:
    """The private mpmath context at ``dps`` digits, one per digit count
    (building one costs about a millisecond).  Shared: never change its
    precision."""
    ctx = MPContext()
    ctx.dps = dps
    return ctx


DOUBLE = PrecisionConfig()


def extended(digits: int = 30) -> PrecisionConfig:
    """Extended-precision configuration with `digits` significant digits."""
    if digits <= MAX_DOUBLE_DIGITS:
        raise ValueError(
            f"extended mode needs more than {MAX_DOUBLE_DIGITS} digits")
    return PrecisionConfig(
        working_digits=digits,
        series_truncation_bound=40 * digits,
        tolerance_abs=10.0 ** (-digits),
        tolerance_rel=10.0 ** (-(digits - 3)),
    )


# ---------------------------------------------------------------------------
# scalar conversion helpers

def _is_mp(z) -> bool:
    """True for an mpmath number of any context, the global one or a
    private :class:`MPContext` (each context has its own mpf/mpc classes)."""
    return isinstance(z, (_mpf, _mpc))


def _to_ctx(z, ctx):
    """z (Fraction, Python number or mpmath number of any context) as a
    complex number of ``ctx``, rounded to its precision; a zero imaginary
    part is +0, which keeps real arguments on the principal branch."""
    return ctx.mpc(ctx.convert(z)) + 0


def _nearest_int(z) -> int | None:
    """Integer n with |z - n| < 1e-12, or None."""
    zc = complex(z)
    n = round(zc.real)
    if abs(zc.real - n) < 1e-12 and abs(zc.imag) < 1e-12:
        return n
    return None


def _check_pole(z, where: str):
    """PoleError "<where>=n" when z is within 1e-12 of an integer n <= 0."""
    n = _nearest_int(z)
    if n is not None and n <= 0:
        raise PoleError(f"{where}={n}")


# ---------------------------------------------------------------------------
# elementary principal-branch functions

def principal_log(z, cfg: PrecisionConfig = DOUBLE):
    """Principal log with Im in (-pi, pi]; cut along (-inf, 0]."""
    w = _to_ctx(z, cfg.ctx)
    if w == 0:
        raise ValueError("principal log undefined at 0")
    return cfg.ctx.log(w)


def principal_pow(z, w, cfg: PrecisionConfig = DOUBLE):
    """z**w on the principal branch, exp(w * principal_log(z))."""
    ctx = cfg.ctx
    zz, ww = _to_ctx(z, ctx), _to_ctx(w, ctx)
    if zz == 0:
        n = _nearest_int(ww)
        if n is not None and n > 0:
            return ww * 0
        raise ValueError("0**w undefined unless w is a positive integer")
    return ctx.exp(ww * ctx.log(zz))


# ---------------------------------------------------------------------------
# log-Gamma: Lanczos in double precision

_LANCZOS_G = 7.0
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS_P = (
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _lgamma_lanczos(z: complex) -> complex:
    if z.real < 0.5:
        return (
            math.log(math.pi)
            - cmath.log(cmath.sin(math.pi * z))
            - _lgamma_lanczos(1.0 - z)
        )
    w = z - 1.0
    x = complex(_LANCZOS_C0)
    for i, p in enumerate(_LANCZOS_P):
        x += p / (w + i + 1)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(x)


# ---------------------------------------------------------------------------
# public Gamma interface: Lanczos in double precision, mpmath beyond it

def log_gamma(z, cfg: PrecisionConfig = DOUBLE):
    """A log of Gamma with exp(log_gamma(z)) == gamma(z) to tolerance.

    The branch is continuous on Re z >= 1/2; for Re z < 1/2 the imaginary
    part may differ from the continuous branch by multiples of 2*pi.
    """
    _check_pole(z, "gamma pole at z")
    z = _to_ctx(z, cfg.ctx)
    if cfg.is_extended:
        return cfg.ctx.loggamma(z)
    return _lgamma_lanczos(z)


def gamma(z, cfg: PrecisionConfig = DOUBLE):
    """Euler Gamma on the principal branch; poles at 0, -1, -2, ..."""
    return cfg.ctx.exp(log_gamma(z, cfg))


# ---------------------------------------------------------------------------
# lower incomplete gamma and confluent hypergeometric series

def lower_incomplete_gamma(a, x: float = -1.0, cfg: PrecisionConfig = DOUBLE):
    """gamma(a, x) = integral_0^x t^(a-1) e^(-t) dt, principal branch in x.

    Evaluated by the alternating series
    sum_k (-1)^k x^(a+k) / (k! (a+k)), which converges factorially for any
    fixed real x.  For x < 0 the principal power x^a = exp(a(log|x| + i pi))
    is used.  Poles at a in {0, -1, -2, ...}.
    """
    _check_pole(a, "lower incomplete gamma pole at a")
    ctx = cfg.ctx
    aa = _to_ctx(a, ctx)
    if x == 0:
        return ctx.mpc(0)
    xa = ctx.exp(aa * (ctx.log(abs(x)) + (ctx.pi * 1j if x < 0 else 0)))
    minus_x = -ctx.mpf(x)

    def pieces():  # (-x)^k / k! / (a + k)
        term = ctx.mpf(1)
        for k in range(1, cfg.series_truncation_bound):
            term = term * minus_x / k
            yield term / (aa + k)

    return xa * _series_sum(1 / aa, pieces(), cfg, "incomplete gamma series")


def hyp1f1(a, b, x, cfg: PrecisionConfig = DOUBLE):
    """Confluent hypergeometric 1F1(a; b; x) by its defining series.

    Truncates once the term magnitude stays below
    tolerance_abs * |partial sum| for 3 consecutive terms; b must avoid
    the nonpositive integers.
    """
    _check_pole(b, "hyp1f1 pole at b")
    a, b, x = (_to_ctx(v, cfg.ctx) for v in (a, b, x))
    one = a / a  # of the right type

    def terms():
        term = one
        for k in range(cfg.series_truncation_bound):
            term = term * (a + k) / (b + k) * x / (k + 1)
            yield term

    return _series_sum(one, terms(), cfg, "1F1 series")


def _series_sum(first, terms, cfg: PrecisionConfig, what: str):
    """first + sum(terms), stopped once 3 consecutive terms stay below
    tolerance_abs * |partial sum|; ConvergenceError if terms run out."""
    total = first
    small = 0
    for term in terms:
        total += term
        if abs(term) < cfg.tolerance_abs * max(abs(total), cfg.tolerance_abs):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(f"{what} did not converge within the bound")


# ---------------------------------------------------------------------------

def format_cnum(z, cfg: PrecisionConfig = DOUBLE) -> str:
    """Render a complex value as 're+imi' / 're-imi' at working precision."""
    d = cfg.working_digits
    if _is_mp(z) and cfg.is_extended:
        re, im = z.real, z.imag
        re_s = z.context.nstr(re, d)
        if im == 0:
            return re_s
        return f"{re_s}{'+' if im >= 0 else '-'}{z.context.nstr(abs(im), d)}i"
    zc = complex(z)
    if zc.imag == 0.0:
        return f"{zc.real:.{d}g}"
    return f"{zc.real:.{d}g}{'+' if zc.imag >= 0 else '-'}{abs(zc.imag):.{d}g}i"
