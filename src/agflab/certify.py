"""Certificates tying the recurrences to their generating-function ODEs.

The D-finite vertex of each holonomic triangle is derived from the
recurrence and verified as an exact power-series identity: the ODE of
U(x) = sum u_n x^n comes mechanically from any P-recursive sequence at a
rational z (gfun's rectodiffeq), U is built from the same cleared
recurrence fraction-free, as the integer numerators over one common
denominator of :func:`holonomic.exact_series`, and the residual L U - P
is summed on those numerators as a plain list of ints, one pass for
each shift between the index of a residual coefficient and that of the
numerator it reads: each of its coefficients must vanish exactly, with
no floating tolerance.  The singular-coefficient integrals behind the
connection constants (I_m, J_m, L_m) are evaluated in double precision
by mpmath's tanh-sinh quadrature, with an error estimate floored at
(64 + m) eps |value|, and chained through their recurrences as floating
cross-checks.  Every check here and in the CLI reports a :func:`check_record`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from mpmath import fp

from .agf import g_eval
from .holonomic import PRecurrence, _accumulated, _differences, _horner, exact_series

__all__ = [
    "OdeCheckResult",
    "QuadratureResult",
    "check_record",
    "identity_chain_e",
    "identity_chain_pi",
    "ode_series_check_recurrence",
    "quad_I",
    "quad_J",
    "quad_L",
]


# ---------------------------------------------------------------------------
# the record of a check

def check_record(check: str, max_deviation: float, params: dict,
                 details: list | None = None, *, tolerance: float | None = None,
                 passed: bool | None = None) -> dict:
    """The record ``{check, params, pass, max_deviation, details}`` of one
    check.  Given a ``tolerance``, the check passes iff ``max_deviation``
    is at most it, and the tolerance is reported as the last key of
    ``params``; a rule that is not one bound (an exact identity, a
    compound growth rule) passes ``passed`` instead."""
    if (tolerance is None) == (passed is None):
        raise TypeError("check_record takes one of tolerance and passed")
    if tolerance is not None:
        params, passed = {**params, "tolerance": tolerance}, max_deviation <= tolerance
    return {"check": check, "params": params, "pass": bool(passed),
            "max_deviation": max_deviation, "details": details or []}


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
    polynomial as its coefficients from x^0 (gfun's rectodiffeq), from
    the cleared equation :attr:`holonomic.PRecurrence.cleared`.

    Multiplying sum_k c_k(n) u_{n+k} = 0, the cleared integer equation,
    by x^(n+r) and summing over n gives L = sum_k x^(r-k) c_k(theta - k)
    with theta = x D.  In the falling factorials theta (theta-1) ...
    (theta-j+1) = x^j D^j, c_k(theta - k) has the coefficients
    Delta^j c_k(-k) / j!, integers: the Stirling numbers of the second
    kind applied to its monomials.  So ops[j] starts at x^j.  The steps
    below the initial index n0, which the recurrence does not hold at,
    leave rhs = sum_{n=n0-r}^{n0-1} x^(n+r) sum_k c_k(n) u_{n+k}, with
    u_n = 0 outside the initial window.
    """
    polys, _, _, init = rec.cleared
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


def ode_series_check_recurrence(rec: PRecurrence, order: int) -> OdeCheckResult:
    """Verify the ODE L U = P of :func:`_recurrence_ode` coefficient by
    coefficient through x^order: every coefficient of L U - P must be 0.

    U is the pair (nums, den) of :func:`holonomic.exact_series`, built
    from the same cleared equation as the ODE; z and the initial values
    must be rational (ValueError otherwise).  The coefficient of x^N
    in ops[j](x) D^j U is sum_i ops[j][i] (m+1)...(m+j) u_{m+j} with
    m = N - i, so the residual is summed in ints on the numerators, one
    pass per shift s = j - i: W_s(N) u_{N+s}, with the small-integer
    weight W_s(N) = sum_j ops[j][j-s] (N-i+1)...(N-i+j).  On
    N >= max(0, -s) that weight is one polynomial in N, since each product
    vanishes where N < i, and it is stepped by its forward differences in
    one chain of :func:`holonomic._accumulated`.  A shift s > 0 stops at
    x^(len(nums) - 1 - s), where the numerators end.  P times den is
    subtracted last.
    """
    ops, rhs = _recurrence_ode(rec)
    if order < max(10, len(ops) - 1):
        raise ValueError("order must be at least 10 and the order of the ODE")
    nums, den = exact_series(rec, order)
    shifts = {}  # s -> [(j, ops[j][j - s])]
    for j, op in enumerate(ops):
        for i, c in enumerate(op):
            if c:
                shifts.setdefault(j - i, []).append((j, c))
    residual = [0] * (order + 1)
    for s, terms in shifts.items():
        lo, hi = max(0, -s), min(order, len(nums) - 1 - s)
        if lo > hi:
            continue
        deg = max(j for j, _ in terms)
        weights = _accumulated(_differences(
            [sum(c * math.perm(n + s, j) for j, c in terms)
             for n in range(lo, lo + deg + 1)]))
        residual[lo: hi + 1] = map(add, residual[lo: hi + 1],
                                   map(mul, weights, nums[lo + s: hi + s + 1]))
    for n, p in enumerate(rhs[: order + 1]):
        residual[n] -= p * den
    bad = next((n for n, c in enumerate(residual) if c), None)
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
# identity chains

def identity_chain_e(m_max: int) -> dict:
    """Quadrature cross-checks, one :func:`check_record`: J_m = I_{m+1},
    J_{m+1} = e - (m+2) J_m, and f(m+2) = (m+2)[f(m) - f(m+1)], f = J/e."""
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
    return check_record("identity_chain_e", worst, {"m_max": m_max}, details,
                        tolerance=_CHAIN_TOL)


def identity_chain_pi(m_max: int) -> dict:
    """Quadrature cross-checks, one :func:`check_record`: L_{m+2} = L_m -
    L_{m+1}/(m+1) and g(m) = sqrt(2/pi) L_m against the Gamma-ratio one."""
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
    return check_record("identity_chain_pi", worst, {"m_max": m_max}, details,
                        tolerance=_CHAIN_TOL)
