"""Asymptotic shells, connection constants, and the integer slope test.

A shell Lambda(n, z) = lambda^n n^(rho(z)) prod_j Gamma(n + alpha_j z +
beta_j)^(m_j) is the growth envelope of a P-recursive sequence; the
connection constant is the limit of u_n / Lambda(n, z), extracted here by
Richardson extrapolation on geometrically spaced samples.  The integer
slope test decides, exactly, whether Gamma(alpha(z+1)+beta)/Gamma(alpha
z+beta) is a rational function of z: it is iff alpha is an integer.
"""

from __future__ import annotations

import cmath
import math
import sys
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .complexfn import _nearest_int, log_gamma
from .holonomic import PRecurrence, _raise_pole_by, iter_values_at, numeric_digits

__all__ = [
    "AsymptoticShell",
    "ConnectionEstimate",
    "F_SHELL",
    "G_SHELL",
    "GAMMA_SHELL",
    "GammaFactor",
    "NonConvergence",
    "SlopeKind",
    "SlopeRatioResult",
    "estimate_connection_constant",
    "shell_log_eval",
    "slope_ratio",
    "slope_ratio_numeric_check",
]


class NonConvergence(ArithmeticError):
    """The extrapolation tableau diagonal failed to settle."""


@dataclass(frozen=True)
class GammaFactor:
    """One factor Gamma(n + alpha*z + beta)^multiplicity of a shell."""

    alpha: Fraction
    beta: complex
    multiplicity: int


@dataclass(frozen=True)
class AsymptoticShell:
    """Growth envelope lambda^n * n^(slope*z + intercept) * Gamma factors."""

    lam: complex = 1.0
    rho_slope: int = 0
    rho_intercept: float = 0.0
    gamma_factors: tuple = ()

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("shell base lambda must be nonzero")

    def rho(self, z):
        if self.rho_slope == 0:
            return self.rho_intercept
        if z is None:
            raise ValueError("shell exponent depends on z but no z was given")
        return self.rho_slope * z + self.rho_intercept


F_SHELL = AsymptoticShell(rho_intercept=1.0)        # Lambda = n
G_SHELL = AsymptoticShell(rho_intercept=0.5)        # Lambda = sqrt(n)
GAMMA_SHELL = AsymptoticShell(rho_slope=-1, rho_intercept=1.0)  # Lambda = n^(1-z)


def shell_log_eval(shell: AsymptoticShell, n: int, z=None):
    """log Lambda(n, z), accumulated in log space to dodge overflow."""
    if n < 1:
        raise ValueError("shell evaluation needs n >= 1")
    out = 0j
    if shell.lam != 1.0:
        out += n * cmath.log(complex(shell.lam))
    rho = shell.rho(z)
    if rho != 0:
        out += complex(rho) * math.log(n)
    for fac in shell.gamma_factors:
        arg = n + complex(fac.alpha) * complex(z if z is not None else 0) \
            + complex(fac.beta)
        if fac.alpha != 0 and z is None:
            raise ValueError("shell Gamma factor depends on z but no z was given")
        out += fac.multiplicity * log_gamma(arg)
    return out


# The last sample of the ladder, unless n_base * 2^depth lies past it.
REACH = 2**16
# The largest n_base * 2^depth, the n of the first full tableau (of
# depth + 1 samples).  The work grows with n: on a 2-core Xeon, limit pi
# 1/3 --n-base 16 takes 0.7 s at 2^22 (--depth 18) and 2.8 s at 2^24
# (--depth 20), best of 3 in process; --depth 40 (32 * 2^40) would take
# months.
MAX_REACH = 2**24
# The default tableau depth.  A window settles as soon as its last
# increment meets its rounding floor, often before it holds depth + 1
# samples, so a deeper window costs no steps: it only lets the last
# window remove more powers of 1/n, and pi's ladders end a rung sooner
# (limit pi 10 ends at n = 8192 at depth 7, at 16384 at depth 6).  On the
# doubling ladder the sum of the tableau's absolute weights, its rounding
# amplification, stays near 8 at any depth: 7.3 at 4, 8.0 at 6, 8.1 at 7
# and 8.2 at 8.  In process on a 2-core Xeon, the first 600 ops of the
# benchmark's limit stream (seed 7) took 0.909, 0.830, 0.816 and 0.819
# ms per op at depths 6, 7, 8 and 9 (the sum of each op's best of 5);
# depths 8 and 9 fail the 1e-13 relative bound of the honesty sweep over
# the worlds (1.31e-13 at Gamma 63/4 and 1.04e-13 at Gamma 17, against
# 6.53e-14 at depth 7), so 7 is the deepest default that keeps it.
DEPTH = 7
# The default first sample.
N_BASE = 32
EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ConnectionEstimate:
    """The extrapolated constant and how it was reached: the engine that
    accumulated u_n (the fixed-point one) at ``digits``, every sampled
    ``n``, the increments |diag[i+1] - diag[i]| of the tableau diagonal
    over the final window, from its newest sample diag[0] (fewer than
    depth where it settled before depth + 1 samples), the rounding floor
    of the error estimate, and the seconds it all took."""

    value: complex
    error_estimate: float
    engine: str
    digits: int
    n: tuple
    increments: tuple
    rounding_floor: float
    timing_s: float


def _richardson(column, errors, sample, rounding, size):
    """The last entry of each level of the Richardson tableau over the last
    ``size`` samples, for an expansion in 1/n with samples at doubling n,
    once ``sample`` joins them, from the previous sample's ``column``.
    Entry j extrapolates the last j + 1 samples, whatever sample the
    window starts at, so each new sample adds one entry per level.
    ``errors`` bound the rounding of each entry: the samples' ``rounding``
    carried through with the absolute weights of each level, plus
    eps |entry| for every entry the tableau computes in double precision."""
    new, err = [sample], [rounding]
    for j in range(1, min(len(column) + 1, size)):
        factor = 2**j
        new.append((factor * new[j - 1] - column[j - 1]) / (factor - 1))
        err.append((factor * err[j - 1] + errors[j - 1]) / (factor - 1) + EPS * abs(new[j]))
    return new, err


def estimate_connection_constant(
    rec: PRecurrence,
    shell: AsymptoticShell,
    z=None,
    *,
    depth: int = DEPTH,
    n_base: int = N_BASE,
    digits: int | None = None,
) -> ConnectionEstimate:
    """Limit of u_n / Lambda(n, z) by Richardson extrapolation, at the z
    the recurrence steps at, ``rec.param``.

    ``z`` may only repeat ``rec.param`` (0.5 for Fraction(1, 2)); any other
    z is a ValueError, and so is a ``rec.param`` that is not a finite
    double.  Samples the ratio at n = n_base * 2^k, k = 0, 1, ..., which
    one :func:`iter_values_at` run reaches in blocks of steps at
    ``digits`` (this many above 15, else 30: :func:`numeric_digits`).
    Each sample adds one entry per level to the Richardson tableau over
    the last min(depth + 1, samples so far) samples (:func:`_richardson`),
    whose window is tested from the third sample on.  The ladder stops at
    the first window whose last diagonal increment is at or below its
    rounding floor, and never goes past max(REACH, n_base * 2^depth).
    A window of fewer than depth + 1 samples settles only where its newest
    sample lies within a factor 2 of its estimate: at |z| >> n the samples
    are about |z|/n times the value, while their floor still falls.  So
    mirror_e, whose exact solution n + z leaves u_n/n = C (1 + z/n) plus a
    factorially small solution, settles at the third sample; depth <= 2
    tests full windows only.  depth >= 1, n_base >= 16 and n_base *
    2^depth <= MAX_REACH, or ValueError before any step; a recurrence
    with a first pole (:attr:`PRecurrence.first_pole`) raises its
    CoefficientPole before any step too, wherever the ladder would end.
    An odd n_base is rounded up to even: a (-1)^n companion solution such
    as mirror_pi's (-1)^n n^(-1/2) adds (-1)^n/n to the ratio, a plain
    1/n term that the tableau removes only when every sample is even.

    Each sample divides the engine's value, an mpmath number, by
    exp(log Lambda) in that number's own context, so neither overflows;
    where log Lambda is real, as on every shell but Gamma's at complex z,
    by a real exp, so that a real quotient rounds once, not through a
    complex exp and a complex division.  It scales the quotient there by
    2^-k, k the binary magnitude of the first within +-1000, so that
    2^-k is a double: the tableau runs in these units, exactly, and far
    from the ends of the double range, and its results are scaled back
    at the end.  The error estimate is the last diagonal increment of the
    final window (heuristic, not a rigorous bound), plus, where the ladder
    ends before a window settles, the change of the value from the
    previous full window, floored at the rounding of the window:
    eps * (1 + |log Lambda(n)|) * |sample| per sample,
    carried through the tableau with the rounding of its own steps
    (:func:`_richardson`).  Raises NonConvergence at a sample that is not
    finite, at a value outside the normal double range, when the
    increments of any full window grow for three consecutive levels while
    still above 1e-13 of the value, and when the error estimate is above
    1e-2 of the value, settled or not.
    """
    start = time.perf_counter()
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_base < 16:
        raise ValueError("n_base must be >= 16")
    if n_base > MAX_REACH >> depth:
        raise ValueError(f"n_base * 2^depth must be at most 2^24 = {MAX_REACH}")
    if z is not None and z != rec.param:
        raise ValueError(f"the shell takes the recurrence's z, {rec.param}, not {z}")
    z = rec.param
    if z is not None:
        _nearest_int(z)  # ValueError where z is not a finite double
    _raise_pole_by(rec, math.inf)
    n_base += n_base % 2
    reach = max(REACH, n_base * 2**depth)
    ladder = [n_base << k for k in range((reach // n_base).bit_length())]
    digits = numeric_digits(digits)
    size = depth + 1
    column, errors = [], []
    values = []  # each full window's estimate
    unit = None  # 2^-k
    # numeric accumulation always: exact iteration to n ~ 10^5 is hopeless
    for count, (n, u) in enumerate(zip(ladder, iter_values_at(rec, ladder, digits)), 1):
        log_lam = shell_log_eval(shell, n, z)
        ratio = u / u.context.exp(log_lam if log_lam.imag else log_lam.real)
        if unit is None:
            unit = 2.0 ** -max(-1000, min(1000, u.context.mag(ratio) if ratio else 0))
        sample = complex(ratio * unit)
        if not cmath.isfinite(sample):
            raise NonConvergence(f"sample u_n / Lambda(n) not finite at n={n}")
        column, errors = _richardson(
            column, errors, sample, EPS * (1 + abs(log_lam)) * abs(sample), size)
        if count < min(size, 3):
            continue
        # the diagonal runs from the newest sample: the window's last row
        diag = column
        rounding_error = errors[-1]
        deltas = [abs(diag[i + 1] - diag[i]) for i in range(len(diag) - 1)]
        settled = deltas[-1] <= rounding_error
        if count >= size:
            values.append(diag[-1])
            scale = max(abs(diag[-1]), 1e-300)
            _check_not_diverging(deltas, 1e-13 * scale, unit)
        else:
            # a short window settles only near its value: at |z| >> n the
            # samples are about |z|/n times it, and their floor still falls
            settled = settled and abs(diag[-1]) <= 2 * abs(sample) <= 4 * abs(diag[-1])
        if settled:
            break
    error = deltas[-1]
    if not settled and len(values) > 1:
        # unsettled at the end of the ladder: the estimate is off by at
        # least what its last sample moved it
        error = max(error, abs(values[-1] - values[-2]))
    error = max(error, rounding_error)
    # back from the tableau's units, where the value may leave the range
    scale, error, rounding_error, *deltas = (
        x / unit for x in (abs(diag[-1]), error, rounding_error, *deltas))
    if not (sys.float_info.min <= scale and max(scale, *deltas) < math.inf):
        raise NonConvergence(
            f"estimate outside the normal double range (value {scale:.3g})")
    if error > 0.01 * scale:
        why = ("value below its rounding floor" if settled
               else "extrapolation diagonal far from settled")
        raise NonConvergence(f"{why} (error {error:.3g} vs value {scale:.3g})")
    return ConnectionEstimate(
        value=complex(diag[-1].real / unit, diag[-1].imag / unit), error_estimate=error,
        engine="fixed", digits=digits, n=tuple(ladder[:count]),
        increments=tuple(deltas), rounding_floor=rounding_error,
        timing_s=time.perf_counter() - start)


def _check_not_diverging(deltas, floor, unit):
    """Raise NonConvergence where the increments grow for three
    consecutive levels while above ``floor``; it gives them over ``unit``."""
    growing = 0
    for i in range(1, len(deltas)):
        if deltas[i] > deltas[i - 1] and deltas[i] > floor:
            growing += 1
            if growing >= 3:
                raise NonConvergence("extrapolation diagonal diverging "
                                     f"(deltas {[d / unit for d in deltas]})")
        else:
            growing = 0


# ---------------------------------------------------------------------------
# integer slope condition

class SlopeKind(Enum):
    RATIONAL = "rational"
    NON_RATIONAL = "non_rational"


@dataclass(frozen=True)
class SlopeRatioResult:
    """Whether Gamma(alpha(z+1)+beta)/Gamma(alpha z+beta) is rational and,
    if so, its form: a product/quotient of linear factors (s*z + c), the
    slope s the int alpha."""

    kind: SlopeKind
    numer_factors: tuple = ()
    denom_factors: tuple = ()

    def eval(self, z):
        if self.kind is not SlopeKind.RATIONAL:
            raise ValueError("a non-integer slope has no rational form")
        out = 1.0 + 0j if not isinstance(z, (int, Fraction)) else Fraction(1)
        for s, c in self.numer_factors:
            out = out * (s * z + c)
        for s, c in self.denom_factors:
            out = out / (s * z + c)
        return out


def slope_ratio(alpha, beta) -> SlopeRatioResult:
    """Decide whether Gamma(alpha(z+1)+beta)/Gamma(alpha z+beta) is rational.

    alpha must be exact (int or Fraction) so integerness is decidable.
    For alpha = k > 0 the ratio is the polynomial
    prod_{j=0}^{k-1} (alpha z + beta + j); for alpha = -k < 0 it is
    1 / prod_{j=0}^{k-1} (alpha z + beta - k + j); otherwise no rational
    form exists.
    """
    if not isinstance(alpha, (int, Fraction)):
        raise TypeError("alpha must be an exact int or Fraction")
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if alpha.denominator != 1:
        return SlopeRatioResult(SlopeKind.NON_RATIONAL)
    k = int(alpha)
    if k > 0:
        return SlopeRatioResult(SlopeKind.RATIONAL, numer_factors=tuple(
            (k, beta + j) for j in range(k)))
    return SlopeRatioResult(SlopeKind.RATIONAL, denom_factors=tuple(
        (k, beta + k + j) for j in range(-k)))


def slope_ratio_numeric_check(result: SlopeRatioResult, alpha, beta,
                              samples) -> float:
    """Max relative deviation of the symbolic form from the Gamma ratio,
    in double precision."""
    if result.kind is not SlopeKind.RATIONAL:
        raise ValueError("numeric check needs a rational slope result")
    a = complex(Fraction(alpha))
    b = complex(beta)
    worst = 0.0
    for z in samples:
        zz = complex(z)
        ratio = cmath.exp(log_gamma(a * (zz + 1) + b) - log_gamma(a * zz + b))
        sym = complex(result.eval(zz))
        worst = max(worst, abs(ratio - sym) / abs(ratio))
    return worst
