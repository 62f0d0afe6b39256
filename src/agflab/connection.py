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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .complexfn import DOUBLE, MAX_DOUBLE_DIGITS, PrecisionConfig, log_gamma
from .holonomic import PRecurrence, iter_numeric

__all__ = [
    "AsymptoticShell",
    "ConnectionEstimate",
    "ExtrapolationConfig",
    "F_SHELL",
    "G_SHELL",
    "GAMMA_SHELL",
    "GammaFactor",
    "NonConvergence",
    "SlopeKind",
    "SlopeRatioResult",
    "estimate_connection_constant",
    "shell_eval",
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


def shell_log_eval(shell: AsymptoticShell, n: int, z=None,
                   cfg: PrecisionConfig = DOUBLE):
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
        out += fac.multiplicity * log_gamma(arg, cfg)
    return out


def shell_eval(shell: AsymptoticShell, n: int, z=None,
               cfg: PrecisionConfig = DOUBLE):
    """Lambda(n, z) = exp(shell_log_eval(...))."""
    return cmath.exp(shell_log_eval(shell, n, z, cfg))


@dataclass(frozen=True)
class ExtrapolationConfig:
    """Richardson extrapolation policy: samples at n_base * growth^k."""

    depth: int = 6
    n_base: int = 2**10
    n_growth: int = 2
    digits: int | None = None  # accumulation precision; None = automatic

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.n_base < 16:
            raise ValueError("n_base must be >= 16")
        if self.n_growth < 2:
            raise ValueError("n_growth must be >= 2")


@dataclass(frozen=True)
class ConnectionEstimate:
    value: complex
    error_estimate: float


def _richardson_diagonal(samples, growth: int):
    """Diagonal of the Richardson tableau for an expansion in 1/n."""
    row = list(samples)
    diag = [row[0]]
    for j in range(1, len(samples)):
        factor = growth**j
        row = [
            (factor * row[i + 1] - row[i]) / (factor - 1)
            for i in range(len(row) - 1)
        ]
        diag.append(row[-1])
    return diag


def estimate_connection_constant(
    rec: PRecurrence,
    shell: AsymptoticShell,
    z=None,
    cfg: ExtrapolationConfig = ExtrapolationConfig(),
) -> ConnectionEstimate:
    """Limit of u_n / Lambda(n, z) by Richardson extrapolation.

    Samples the ratio at n = n_base * growth^k for k = 0..depth in one
    forward pass.  The error estimate is the last diagonal increment of
    the tableau (heuristic, not a rigorous bound), floored at the rounding
    the tableau amplifies: eps * (1 + |log Lambda(n)|) * |sample| per
    sample, weighted by the absolute Richardson weights.  Raises
    NonConvergence when the diagonal increments grow for three consecutive
    levels while still above 1e-13 of the value.
    """
    targets = [cfg.n_base * cfg.n_growth**k for k in range(cfg.depth + 1)]
    n_max = targets[-1]
    # numeric accumulation always: exact iteration to n ~ 10^5 is hopeless,
    # and long runs accumulate at 30 digits per the iteration policy
    digits = cfg.digits
    if digits is None:
        digits = 30 if n_max > 10_000 else MAX_DOUBLE_DIGITS
    wanted = set(targets)
    samples, rounding = [], []  # in the order of targets
    for n, u in iter_numeric(rec, z, n_max, digits=digits):
        if n in wanted:
            lam = shell_eval(shell, n, z)
            samples.append(complex(u) / lam)
            rounding.append(sys.float_info.epsilon * (1 + abs(cmath.log(lam)))
                            * abs(samples[-1]))

    diag = _richardson_diagonal(samples, cfg.n_growth)
    # the weight of sample k in diag[-1] is diag[-1] of the k-th unit vector
    units = [[float(i == k) for i in range(len(samples))] for k in range(len(samples))]
    rounding_error = sum(abs(_richardson_diagonal(unit, cfg.n_growth)[-1]) * err
                         for unit, err in zip(units, rounding))
    deltas = [abs(diag[i + 1] - diag[i]) for i in range(len(diag) - 1)]
    scale = max(abs(diag[-1]), 1e-300)
    floor = 1e-13 * scale
    growing = 0
    for i in range(1, len(deltas)):
        if deltas[i] > deltas[i - 1] and deltas[i] > floor:
            growing += 1
            if growing >= 3:
                raise NonConvergence(
                    f"extrapolation diagonal diverging (deltas {deltas})"
                )
        else:
            growing = 0
    if deltas and deltas[-1] > 0.01 * scale:
        raise NonConvergence(
            "extrapolation diagonal far from settled "
            f"(last delta {deltas[-1]:.3g} vs value {scale:.3g})"
        )
    return ConnectionEstimate(value=diag[-1],
                              error_estimate=max(deltas[-1], rounding_error))


# ---------------------------------------------------------------------------
# integer slope condition

class SlopeKind(Enum):
    RATIONAL = "rational"
    NON_RATIONAL = "non_rational"


@dataclass(frozen=True)
class LinearFactorForm:
    """Product/quotient of linear factors (s*z + c), the shape taken by
    Gamma(alpha(z+1)+beta)/Gamma(alpha z+beta) for integer alpha."""

    numer_factors: tuple = ()
    denom_factors: tuple = ()

    def eval(self, z):
        out = 1.0 + 0j if not isinstance(z, (int, Fraction)) else Fraction(1)
        for s, c in self.numer_factors:
            out = out * (s * z + c)
        for s, c in self.denom_factors:
            out = out / (s * z + c)
        return out

    def __str__(self):
        def fmt(fs):
            return "".join(f"({s}z{'+' if _re(c) >= 0 else '-'}{_abs_str(c)})"
                           for s, c in fs)

        num = fmt(self.numer_factors) or "1"
        if not self.denom_factors:
            return num
        return f"{num}/{fmt(self.denom_factors)}"


def _re(c):
    return c.real if isinstance(c, complex) else c


def _abs_str(c):
    if isinstance(c, complex) and c.imag != 0:
        return str(abs(c))
    return str(abs(_re(c)))


@dataclass(frozen=True)
class SlopeRatioResult:
    kind: SlopeKind
    rational_form: LinearFactorForm | None = None


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
        factors = tuple((alpha, beta + j) for j in range(k))
        return SlopeRatioResult(
            SlopeKind.RATIONAL, LinearFactorForm(numer_factors=factors)
        )
    kk = -k
    factors = tuple((alpha, beta - kk + j) for j in range(kk))
    return SlopeRatioResult(
        SlopeKind.RATIONAL, LinearFactorForm(denom_factors=factors)
    )


def slope_ratio_numeric_check(
    result: SlopeRatioResult,
    alpha,
    beta,
    samples,
    cfg: PrecisionConfig = DOUBLE,
) -> float:
    """Max relative deviation of the symbolic form from the Gamma ratio."""
    if result.kind is not SlopeKind.RATIONAL:
        raise ValueError("numeric check needs a rational slope result")
    a = complex(Fraction(alpha))
    b = complex(beta)
    worst = 0.0
    for z in samples:
        zz = complex(z)
        num = log_gamma(a * (zz + 1) + b, cfg)
        den = log_gamma(a * zz + b, cfg)
        ratio = cmath.exp(num - den)
        sym = complex(result.rational_form.eval(zz))
        worst = max(worst, abs(ratio - sym) / abs(ratio))
    return worst
