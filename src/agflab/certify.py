"""Certificates tying the recurrences to their generating-function ODEs.

The D-finite vertex of each holonomic triangle is derived from the
recurrence and verified as an exact power-series identity: the ODE of
U(x) = sum u_n x^n comes mechanically from any P-recursive sequence at a
rational z (gfun's rectodiffeq), U is built from the recurrence
fraction-free, as integer numerators over one common denominator, and
every coefficient of the residual must vanish exactly: its integer
numerator is 0, with no floating tolerance.  The singular-coefficient
integrals behind the connection constants (I_m, J_m, L_m) are evaluated
in double precision by mpmath's tanh-sinh quadrature, with an error
estimate floored at (64 + m) eps |value|, and chained through their
recurrences as floating cross-checks; the transfer from
generating-function singularities to coefficient growth is probed
directly on the sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from mpmath import fp

from . import worlds
from .agf import g_eval
from .connection import shell_eval
from .holonomic import (
    PRecurrence,
    _differences,
    _horner,
    _integer_form,
    exact_series,
    values_at,
)

__all__ = [
    "OdeCheckResult",
    "PowerSeries",
    "QuadratureResult",
    "identity_chain_e",
    "identity_chain_pi",
    "ode_series_check_recurrence",
    "quad_I",
    "quad_J",
    "quad_L",
    "transfer_check",
]


# ---------------------------------------------------------------------------
# exact truncated power series

class PowerSeries:
    """Truncated power series with exact rational coefficients.

    The coefficients are stored as integer numerators over one positive
    common denominator, which need not be reduced, so that sums, products
    and derivatives run on Python ints; ``coefficients`` reads them back
    as Fractions.  ``order`` is the truncation order: coefficients of
    x^0 .. x^order are meaningful.  ``exact=True`` marks honest
    polynomials (no truncation), which lets products against truncated
    series keep the right validity order.
    """

    __slots__ = ("_nums", "_den", "order", "exact")

    def __init__(self, coefficients, order: int | None = None, exact: bool = False):
        coeffs = [Fraction(c) for c in coefficients]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs],
                  den, order, exact)

    def _set(self, nums: list, den: int, order: int | None, exact: bool):
        if order is None:
            order = len(nums) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        nums = nums[: order + 1]
        nums.extend([0] * (order + 1 - len(nums)))
        self._nums, self._den, self.order, self.exact = nums, den, order, exact

    @classmethod
    def _from_ints(cls, nums, den: int, order: int, exact: bool = False
                   ) -> "PowerSeries":
        """The series sum_k nums[k]/den x^k; den must be positive."""
        series = cls.__new__(cls)
        series._set(nums, den, order, exact)
        return series

    @property
    def coefficients(self) -> list[Fraction]:
        return [Fraction(c, self._den) for c in self._nums]

    @staticmethod
    def poly(*coefficients) -> "PowerSeries":
        return PowerSeries(list(coefficients), exact=True)

    def first_nonzero(self) -> int | None:
        return next((i for i, c in enumerate(self._nums) if c), None)

    def min_degree(self) -> int:
        first = self.first_nonzero()
        return self.order + 1 if first is None else first

    def _over(self, den: int, n: int) -> list[int]:
        """The first n numerators over ``den``, a multiple of ours."""
        k = den // self._den
        return self._nums[:n] if k == 1 else [k * c for c in self._nums[:n]]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        order = self._combine_order(other)
        den = math.lcm(self._den, other._den)
        out = [x + y for x, y in zip_longest(self._over(den, order + 1),
                                             other._over(den, order + 1),
                                             fillvalue=0)]
        return PowerSeries._from_ints(out, den, order, self.exact and other.exact)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries._from_ints([-c for c in self._nums], self._den,
                                      self.order, self.exact)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + (-other)

    def _combine_order(self, other: "PowerSeries") -> int:
        if self.exact and other.exact:
            return max(self.order, other.order)
        if self.exact:
            return other.order
        if other.exact:
            return self.order
        return min(self.order, other.order)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if self.exact and other.exact:
            order = self.order + other.order
        elif self.exact:
            order = other.order + self.min_degree()
        elif other.exact:
            order = self.order + other.min_degree()
        else:
            order = min(self.order, other.order)
        out = [0] * (order + 1)
        short, long = self._nums[: order + 1], other._nums[: order + 1]
        if len(short) > len(long):
            short, long = long, short
        for i, c in enumerate(short):
            if c:
                for j, d in enumerate(long[: order + 1 - i]):
                    if d:
                        out[i + j] += c * d
        return PowerSeries._from_ints(out, self._den * other._den, order,
                                      self.exact and other.exact)

    def differentiate(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries([0], 0, self.exact)
        out = [k * self._nums[k] for k in range(1, self.order + 1)]
        return PowerSeries._from_ints(out, self._den, self.order - 1, self.exact)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order) + 1
        den = math.lcm(self._den, other._den)
        return self._over(den, n) == other._over(den, n)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coefficients[:6])
        return f"PowerSeries([{head}, ...], order={self.order})"


# ---------------------------------------------------------------------------
# the ODE of a recurrence, certified bit-exactly

@dataclass(frozen=True)
class OdeCheckResult:
    param: object
    order: int
    passed: bool
    first_failure: int | None


def _recurrence_ode(rec: PRecurrence) -> tuple[list[list[int]], list[Fraction]]:
    """(ops, rhs): the ODE sum_j ops[j](x) D^j U = rhs(x) of the series
    U(x) = sum_n u_n x^n of ``rec`` at its rational ``param`` z, each
    polynomial as its coefficients from x^0 (gfun's rectodiffeq).

    Multiplying sum_k c_k(n) u_{n+k} = 0, the cleared integer equation of
    :func:`holonomic._integer_form`, by x^(n+r) and summing over n gives
    L = sum_k x^(r-k) c_k(theta - k) with theta = x D.  In the falling
    factorials theta (theta-1) ... (theta-j+1) = x^j D^j, c_k(theta - k)
    has the coefficients Delta^j c_k(-k) / j!, integers: the Stirling
    numbers of the second kind applied to its monomials.  The steps
    below the initial index n0, which the recurrence does not hold at,
    leave rhs = sum_{n=n0-r}^{n0-1} x^(n+r) sum_k c_k(n) u_{n+k}, with
    u_n = 0 outside the initial window.
    """
    polys, _, _, init = _integer_form(rec, rec.param)
    r, n0 = rec.order, rec.initial_index
    degree = max(map(len, polys)) - 1
    ops = [[0] * (r + j + 1) for j in range(degree + 1)]
    for k, c in enumerate(polys):
        diffs = _differences([_horner(c, i - k) for i in range(degree + 1)])
        for j, d in enumerate(diffs):
            ops[j][r - k + j] += d // math.factorial(j)
    window = {n0 + i: u for i, (u, _) in enumerate(init)}
    rhs = [Fraction(0)] * (n0 + r)
    for n in range(n0 - r, n0):
        rhs[n + r] = sum(_horner(c, n) * window.get(n + k, 0)
                         for k, c in enumerate(polys))
    return ops, rhs


def ode_series_check_recurrence(rec: PRecurrence, order: int,
                                coeffs: PowerSeries | None = None
                                ) -> OdeCheckResult:
    """Verify the ODE L U = P of :func:`_recurrence_ode` coefficient by
    coefficient through x^order: every numerator of L U - P must be 0.

    U is built from ``rec`` by :func:`holonomic.exact_series` unless an
    explicit series is supplied (the seam used by mutation tests).
    """
    ops, rhs = _recurrence_ode(rec)
    if order < max(10, len(ops) - 1):
        raise ValueError("order must be at least 10 and the order of the ODE")
    series = coeffs if coeffs is not None else PowerSeries._from_ints(
        *exact_series(rec, order), order)
    residual = -PowerSeries.poly(*rhs)
    for j, op in enumerate(ops):
        if j:
            series = series.differentiate()
        residual = residual + PowerSeries.poly(*op) * series
    bad = residual.first_nonzero()
    return OdeCheckResult(rec.param, order, bad is None, bad)


# ---------------------------------------------------------------------------
# quadrature of the singular-coefficient integrals

# The floor on the reported error is (_ROUNDING_FLOOR + m) eps |value|.
# mpmath's tanh-sinh estimate ignores rounding: it reads as low as 1e-32,
# or 0 when three levels agree.  Rounding leaves up to 19 eps |value| at
# m <= 60, and the m-th power of a base near 1 amplifies it: I_800 is off
# by 169 eps |value| (measured against 40 digits).
_ROUNDING_FLOOR = 64
_CHAIN_TOL = 1e-9  # the pass bound of the identity chains


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float


def _quad(f, m: int, points=(0.0, 1.0)) -> QuadratureResult:
    """Tanh-sinh quadrature over [0, 1], on the intervals between
    ``points``, in double precision, which copes with the algebraic
    endpoint behaviour of these integrands; f has a factor of about the
    m-th power of a base near 1."""
    value, err = fp.quad(f, list(points), error=True)
    floor = (_ROUNDING_FLOOR + m) * fp.eps * abs(value)
    return QuadratureResult(value, max(err, floor))


def _at_peak(m) -> tuple:
    """[0, 1] split at 1 - 1/m, where t^(m-1) (1-t) peaks and t^m has
    risen to about 1/e: undivided, tanh-sinh stops early on the narrow
    peak of large m (J_918 was off by 4e4 eps |value|)."""
    return (0.0, 1.0 - 1.0 / m, 1.0) if m > 1 else (0.0, 1.0)


def quad_I(m) -> QuadratureResult:
    """I_m = integral_0^1 t^m e^t dt (recurrence I_m = e - m I_{m-1})."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _quad(lambda t: t**m * math.exp(t), m, _at_peak(m))


def quad_J(m: int) -> QuadratureResult:
    """J_m = 1 at m = 0, else integral_0^1 m t^(m-1) (1-t) e^t dt."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return QuadratureResult(1.0, 0.0)
    return _quad(lambda t: m * t ** (m - 1) * (1.0 - t) * math.exp(t), m,
                 _at_peak(m))


def quad_L(m: int) -> QuadratureResult:
    """L_m = 1 at m = 0, else integral_0^1 m t^(m-1) sqrt((1-t)/(1+t)) dt.

    The substitution t = 1 - s^2 removes the square-root endpoint
    singularity: the integrand becomes 2 m s^2 (1-s^2)^(m-1)/sqrt(2-s^2).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return QuadratureResult(1.0, 0.0)
    return _quad(
        lambda s: 2.0 * m * s * s * (1.0 - s * s) ** (m - 1)
        / math.sqrt(2.0 - s * s),
        m,
    )


# ---------------------------------------------------------------------------
# identity chains and transfer checks

def identity_chain_e(m_max: int) -> dict:
    """Quadrature cross-checks: J_m = I_{m+1}, J_{m+1} = e - (m+2) J_m,
    and the step identity f(m+2) = (m+2)[f(m) - f(m+1)] with f = J/e."""
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    I = [quad_I(m).value for m in range(m_max + 2)]
    J = [quad_J(m).value for m in range(m_max + 1)]
    details = []
    worst = 0.0
    for m in range(m_max + 1):
        dev_ji = abs(J[m] - I[m + 1])
        dev_jrec = (
            abs(J[m + 1] - (math.e - (m + 2) * J[m])) if m + 1 <= m_max else 0.0
        )
        f_m, f_m1 = J[m] / math.e, J[m + 1] / math.e if m + 1 <= m_max else None
        dev_f = 0.0
        if m + 2 <= m_max:
            f_m2 = J[m + 2] / math.e
            dev_f = abs(f_m2 - (m + 2) * (f_m - f_m1))
        worst = max(worst, dev_ji, dev_jrec, dev_f)
        details.append(
            {"m": m, "J": J[m], "J_vs_I": dev_ji, "J_rec": dev_jrec,
             "f_discrete": dev_f}
        )
    return {
        "check": "identity_chain_e",
        "params": {"m_max": m_max, "tolerance": _CHAIN_TOL},
        "pass": worst <= _CHAIN_TOL,
        "max_deviation": worst,
        "details": details,
    }


def identity_chain_pi(m_max: int) -> dict:
    """Quadrature cross-checks: L_{m+2} = L_m - L_{m+1}/(m+1) and
    g(m) = sqrt(2/pi) L_m against the Gamma-ratio evaluation."""
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    L = [quad_L(m).value for m in range(m_max + 1)]
    details = []
    worst = 0.0
    for m in range(m_max + 1):
        dev_rec = 0.0
        if m + 2 <= m_max:
            dev_rec = abs(L[m + 2] - (L[m] - L[m + 1] / (m + 1)))
        g_quad = math.sqrt(2 / math.pi) * L[m]
        dev_g = abs(g_quad - g_eval(m).real)
        worst = max(worst, dev_rec, dev_g)
        details.append({"m": m, "L": L[m], "L_rec": dev_rec, "g_match": dev_g})
    return {
        "check": "identity_chain_pi",
        "params": {"m_max": m_max, "tolerance": _CHAIN_TOL},
        "pass": worst <= _CHAIN_TOL,
        "max_deviation": worst,
        "details": details,
    }


def transfer_check(world: str, m, n: int) -> float:
    """|u_n(m) / (h(m) Lambda(n)) - 1|, u_n against its singular-expansion
    prediction, with the recurrence, function h and shell Lambda of the
    named world: f(m) n for 'e', g(m) sqrt(n) for 'pi'."""
    if n < 10**3:
        raise ValueError("transfer check needs n >= 1000")
    w = worlds.world(world)
    predict = w.evaluator(m).real * shell_eval(w.shell, n, w.shell_z(m)).real
    return abs(values_at(w.recurrence(m), None, [n])[0] / predict - 1.0)
