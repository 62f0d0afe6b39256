"""Principal-branch complex special functions at configurable precision.

Every formula is written once against the context of its
:class:`PrecisionConfig`, ``cfg.ctx``: a private :class:`MPContext` in the
extended mode (more than ``MAX_DOUBLE_DIGITS`` = 15 significant digits),
and in double precision Python's own floats and complexes, under the
names the formulas read from an mpmath context: ``exp`` is ``cmath.exp``,
``log`` and ``sqrt`` are ``math``'s, ``loggamma`` is a fixed Lanczos
approximation with reflection for Re z < 1/2, and ``convert`` and
``hyp1f1`` are ``mpmath.fp``'s.  It is not ``fp`` itself, because fp
dispatches on the argument's type at every call.  Gamma is
exp(log-Gamma); the lower incomplete gamma is written through 1F1.
Both add ``reciprocal_sum``, f's series, which the extended one sums on
mpmath's raw tuples at a real argument.  :func:`shared_log_gammas` lets a
residual pass compute each double log-Gamma once, and keep none after it.

Poles are reported as typed :class:`PoleError`, never as infinities, so
grid drivers can skip them deterministically.  All functions are pure;
precision travels in an explicit :class:`PrecisionConfig`, and mpmath's
global context is never read or changed.
"""

from __future__ import annotations

import cmath
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

from mpmath import fp
from mpmath.ctx_mp import MPContext
from mpmath.ctx_mp_python import _mpc, _mpf
from mpmath.libmp import NoConvergence, from_int, fzero, mpf_add, mpf_div, to_rational

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
    "shared_log_gammas",
]

# The most significant digits double precision carries; a precision
# above it selects the extended mode, here, in the CLI and in iteration.
MAX_DOUBLE_DIGITS = 15


class PoleError(ArithmeticError):
    """Evaluation requested at a pole."""


class ConvergenceError(ArithmeticError):
    """mpmath could not evaluate a series to the working precision."""


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision of one computation.  ``ctx``, set once here and
    not a field, is the context the formulas run in: the double context,
    or above 15 digits a private mpmath context with 10 guard digits."""

    working_digits: int = 15

    def __post_init__(self):
        if self.working_digits < 1:
            raise ValueError("working_digits must be positive")
        object.__setattr__(self, "ctx", _mp_context(self.working_digits + 10)
                           if self.is_extended else _DOUBLE_CONTEXT)

    @property
    def is_extended(self) -> bool:
        return self.working_digits > MAX_DOUBLE_DIGITS


class _Context(MPContext):
    def reciprocal_sum(self, x, terms):
        """The double context's; at a real x on the raw tuples, with the
        mpf_add and mpf_div of the mpf operators, and so their roundings."""
        if type(x) is not self.mpf:
            return _DoubleContext.reciprocal_sum(self, x, terms)
        prec, rnd = self._prec_rounding
        x, total = x._mpf_, fzero
        for k, c in terms:
            d = mpf_add(x, from_int(k), prec, rnd)
            total = mpf_add(total, mpf_div(c._mpf_, d, prec, rnd), prec, rnd)
        return self.make_mpc((total, fzero))


@lru_cache(maxsize=None)
def _mp_context(dps: int) -> MPContext:
    """The private mpmath context at ``dps`` digits, one per digit count
    (building one costs about a millisecond).  Shared: never change its
    precision."""
    ctx = _Context()
    ctx.dps = dps
    return ctx


def extended(digits: int) -> PrecisionConfig:
    """Extended-precision configuration with `digits` significant digits."""
    if digits <= MAX_DOUBLE_DIGITS:
        raise ValueError(
            f"extended mode needs more than {MAX_DOUBLE_DIGITS} digits")
    return PrecisionConfig(working_digits=digits)


# ---------------------------------------------------------------------------
# scalar conversion helpers

# the types that mpmath's fp context takes as they are
_PYTHON_NUMBERS = frozenset((int, float, complex))


def _is_mp(z) -> bool:
    """True for an mpmath number of any context, the global one or a
    private :class:`MPContext` (each context has its own mpf/mpc classes)."""
    return isinstance(z, (_mpf, _mpc))


def _is_real(z) -> bool:
    """True for an int, Fraction, float or mpf of any context: a number
    that is real by its type."""
    # complex first: isinstance against Fraction, an ABC, costs 0.6 us
    return not isinstance(z, complex) and isinstance(z, (int, float, Fraction, _mpf))


def _mp_fraction(x) -> Fraction:
    """The real mpmath number x exactly: it is a dyadic rational."""
    return Fraction(*to_rational(x._mpf_))


def _to_ctx(z, ctx):
    """z (Fraction, Python number or mpmath number of any context) as a
    complex number of ``ctx``, rounded to its precision; a zero imaginary
    part is +0, which keeps real arguments on the principal branch."""
    # fp.convert takes a complex only after a caught TypeError (1.5 us)
    return ctx.mpc(z if type(z) is complex else ctx.convert(z)) + 0


def _nearest_int(z) -> int | None:
    """Integer n with |z - n| < 1e-12, or None; ValueError where either
    part of z is infinite or NaN, or beyond the double range."""
    try:
        zc = complex(z)
    except OverflowError:  # a Fraction such as 10^400
        raise ValueError("z is not finite: beyond the double range") from None
    if not cmath.isfinite(zc):
        raise ValueError(f"z is not finite: {zc}")
    if abs(zc.imag) < 1e-12:
        n = round(zc.real)
        if abs(zc.real - n) < 1e-12:
            return n
    return None


def _check_pole(z, where: str):
    """PoleError "<where>=n" when z is within 1e-12 of an integer n <= 0."""
    n = _nearest_int(z)
    if n is not None and n <= 0:
        raise PoleError(f"{where}={n}")


# ---------------------------------------------------------------------------
# the double context, and its log-Gamma: Lanczos

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
        return math.log(math.pi) - _log_sin_pi(z) - _lgamma_lanczos(1.0 - z)
    w = z - 1.0
    x = complex(_LANCZOS_C0)
    for i, p in enumerate(_LANCZOS_P):
        x += p / (w + i + 1)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * cmath.log(t) - t + cmath.log(x)


def _log_sin_pi(z: complex) -> complex:
    """log sin(pi z) modulo 2 pi i, with no overflow at large |Im z|:
    sin(pi z) = e^(-i pi z) (i/2) (1 - e^(2 i pi z)), and |e^(2 i pi z)| <= 1
    for Im z >= 0; below the axis, the conjugate of the value at conj(z)."""
    if z.imag < 0:
        return _log_sin_pi(z.conjugate()).conjugate()
    return -1j * math.pi * z + cmath.log(0.5j * (1 - cmath.exp(2j * math.pi * z)))


class _DoubleContext:
    """The names the formulas read from an mpmath context, bound to Python's
    primitives: ``exp`` takes a complex, ``log`` and ``sqrt`` a positive real."""

    mpc, mpf, convert = complex, float, fp.convert
    e, pi, eps = math.e, math.pi, fp.eps
    exp, log, sqrt = cmath.exp, math.log, math.sqrt
    loggamma = staticmethod(_lgamma_lanczos)
    hyp1f1 = fp.hyp1f1

    def reciprocal_sum(ctx, x, terms):
        """sum c / (x + k) over the pairs (k, c) of terms, a complex of ctx."""
        total = ctx.mpc(0)
        for k, c in terms:
            total += c / (x + k)
        return total


_DOUBLE_CONTEXT = _DoubleContext()
DOUBLE = PrecisionConfig()


@contextmanager
def shared_log_gammas():
    """Within the block the double loggamma computes each argument once;
    the memo ends with the block.  Blocks do not nest."""
    ctx, memo = _DOUBLE_CONTEXT, {}

    def loggamma(z: complex) -> complex:
        key = z if z.real and z.imag else repr(z)  # -0.0 == 0.0, as keys too
        if key not in memo:
            memo[key] = _lgamma_lanczos(z)
        return memo[key]

    ctx.loggamma = loggamma
    try:
        yield
    finally:
        del ctx.loggamma


# ---------------------------------------------------------------------------
# public Gamma interface

def log_gamma(z, cfg: PrecisionConfig = DOUBLE):
    """A log of Gamma with exp(log_gamma(z)) == gamma(z) to tolerance.

    The branch is continuous on Re z >= 1/2; for Re z < 1/2 the imaginary
    part may differ from the continuous branch by multiples of 2*pi.
    """
    _check_pole(z, "gamma pole at z")
    return cfg.ctx.loggamma(_to_ctx(z, cfg.ctx))


def gamma(z, cfg: PrecisionConfig = DOUBLE):
    """Euler Gamma on the principal branch; poles at 0, -1, -2, ..."""
    return cfg.ctx.exp(log_gamma(z, cfg))


# ---------------------------------------------------------------------------
# confluent hypergeometric 1F1 and the lower incomplete gamma

def hyp1f1(a, b, x, cfg: PrecisionConfig = DOUBLE):
    """Confluent hypergeometric 1F1(a; b; x), mpmath's in the precision's
    context; b must avoid the nonpositive integers."""
    _check_pole(b, "hyp1f1 pole at b")
    args = (a, b, x)
    # in double, three Python numbers go to fp.hyp1f1 as they are:
    # fp.convert takes a complex only after a caught TypeError (1.5 us)
    if cfg.is_extended or not _PYTHON_NUMBERS.issuperset(map(type, args)):
        args = map(cfg.ctx.convert, args)
    try:
        return cfg.ctx.hyp1f1(*args)
    except NoConvergence as exc:
        raise ConvergenceError(f"1F1({a}; {b}; {x}) did not converge") from exc


def lower_incomplete_gamma(a, x: float, cfg: PrecisionConfig = DOUBLE):
    """gamma(a, x) = integral_0^x t^(a-1) e^(-t) dt, principal branch in x.

    Evaluated as x^a / a * 1F1(a; a+1; -x).  For x < 0 the principal power
    x^a = exp(a(log|x| + i pi)) is used.  Poles at a in {0, -1, -2, ...}.
    """
    _check_pole(a, "lower incomplete gamma pole at a")
    ctx = cfg.ctx
    aa = _to_ctx(a, ctx)
    if x == 0:
        return ctx.mpc(0)
    xa = ctx.exp(aa * (ctx.log(abs(x)) + (ctx.pi * 1j if x < 0 else 0)))
    return xa / aa * hyp1f1(aa, aa + 1, -x, cfg)


# ---------------------------------------------------------------------------

def format_cnum(z, cfg: PrecisionConfig = DOUBLE) -> str:
    """Render a complex value as 're+imi' / 're-imi' at working precision;
    an mpmath value is rounded once, not first to the nearest double, so
    it keeps its digits outside the normal double range too."""
    d = cfg.working_digits

    def part(x) -> str:
        if not _is_mp(x):
            return f"{x:.{d}g}"
        if cfg.is_extended:
            return x.context.nstr(x, d)
        # d <= 15 digits, rounded once, printed through their double where
        # that is a normal one (it prints as them), else from the Decimal
        q = _mp_fraction(x)
        r = Context(prec=d).divide(Decimal(q.numerator), Decimal(q.denominator))
        if r == 0 or sys.float_info.min <= abs(r) <= sys.float_info.max:
            return f"{float(r):.{d}g}"
        return f"{r.normalize():.{d}g}"

    if not _is_mp(z):
        z = complex(z)
    if z.imag == 0:
        return part(z.real)
    return f"{part(z.real)}{'+' if z.imag >= 0 else '-'}{part(abs(z.imag))}i"
