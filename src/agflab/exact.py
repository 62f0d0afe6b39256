"""Exact integer and rational sequences behind the arithmetic duality.

The two mirror worlds normalize their connection-constant ratios into
linear forms: integer forms a_m - e*b_m built from factorials and
derangement numbers, and rational forms p_m - pi*q_m built from double
factorials.  Everything in this module is exact big-integer or
big-rational arithmetic (``fractions.Fraction`` is the rational scalar);
the duality forms are computed redundantly, by recurrence and by closed
formula, and cross-checked at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ConsistencyError",
    "LinearFormE",
    "LinearFormPi",
    "derangement",
    "double_factorial",
    "duality_form_e",
    "duality_form_pi",
    "factorial",
    "pochhammer",
]


class ConsistencyError(RuntimeError):
    """Two redundant exact computations of the same quantity disagreed."""


def factorial(m: int) -> int:
    """m! as an exact integer; m must be a nonnegative integer."""
    if m < 0:
        raise ValueError(f"factorial undefined for negative m={m}")
    return math.factorial(m)


def double_factorial(m: int) -> int:
    """m!! = m(m-2)(m-4)... with the conventions (-1)!! = 0!! = 1.

    The -1 case is admitted so that ratios like (2k-1)!!/(2k-2)!! are
    well-defined down to k = 0.
    """
    if m < -1:
        raise ValueError(f"double factorial undefined for m={m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def derangement(m: int) -> int:
    """Number of fixed-point-free permutations of m elements.

    Computed by D_m = (m-1)(D_{m-1} + D_{m-2}) with D_0 = 1, D_1 = 0.
    """
    if m < 0:
        raise ValueError(f"derangement undefined for negative m={m}")
    if m == 0:
        return 1
    prev2, prev1 = 1, 0  # D_0, D_1
    for k in range(2, m + 1):
        prev2, prev1 = prev1, (k - 1) * (prev1 + prev2)
    return prev1


def pochhammer(x, k: int):
    """Rising factorial (x)_k = x(x+1)...(x+k-1); (x)_0 = 1.

    Works for any scalar supporting + and * (int, Fraction, complex, mpf).
    """
    if k < 0:
        raise ValueError(f"pochhammer undefined for negative k={k}")
    out = x**0  # multiplicative one of the right type
    for j in range(k):
        out = out * (x + j)
    return out


@dataclass(frozen=True)
class LinearFormE:
    """Integer linear form K_m = a - e*b with a, b >= 0."""

    m: int
    a: int
    b: int

    def value(self, e: float = math.e) -> float:
        return self.a - e * self.b

    def to_record(self) -> dict:
        return {"m": self.m, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class LinearFormPi:
    """Rational linear form K_m = p - pi*q with p, q >= 0."""

    m: int
    p: Fraction
    q: Fraction

    def value(self, pi: float = math.pi) -> float:
        return self.p - pi * self.q

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "p": f"{self.p.numerator}/{self.p.denominator}",
            "q": f"{self.q.numerator}/{self.q.denominator}",
        }


def duality_form_e(m: int) -> LinearFormE:
    """Integer form (a_m, b_m) with a_m = (m+1)! and b_m = D_{m+1}.

    Both members are also rebuilt by the recurrences
    a_{m+1} = (m+2) a_m and b_{m+1} = (m+2) b_m + (-1)^m from (a_0, b_0)
    = (1, 0); any mismatch with the closed forms raises ConsistencyError.
    """
    if m < 0:
        raise ValueError(f"duality form undefined for negative m={m}")
    a_rec, b_rec = 1, 0
    for j in range(m):
        a_rec, b_rec = (j + 2) * a_rec, (j + 2) * b_rec + (-1) ** j
    a_closed = factorial(m + 1)
    b_closed = derangement(m + 1)
    if (a_rec, b_rec) != (a_closed, b_closed):
        raise ConsistencyError(
            f"e-world duality form mismatch at m={m}: "
            f"recurrence {(a_rec, b_rec)} vs closed {(a_closed, b_closed)}"
        )
    return LinearFormE(m, a_closed, b_closed)


def _pq_closed(m: int) -> tuple[Fraction, Fraction]:
    # Double-factorial closed forms; (p_0, q_0) = (1, 0) sits outside them.
    if m == 0:
        return Fraction(1), Fraction(0)
    if m % 2 == 0:
        k = m // 2
        p = Fraction(double_factorial(2 * k), double_factorial(2 * k - 1))
        q = Fraction(double_factorial(2 * k - 1), 2 * double_factorial(2 * k - 2))
    else:
        k = (m - 1) // 2
        p = Fraction(double_factorial(2 * k), double_factorial(2 * k - 1))
        q = Fraction(double_factorial(2 * k + 1), 2 * double_factorial(2 * k))
    return p, q


def duality_form_pi(m: int) -> LinearFormPi:
    """Rational form (p_m, q_m) of the sign-normalized pi-world sequence.

    Computed twice: by the recurrences p_{m+2} = p_m + p_{m+1}/(m+1),
    q_{m+2} = q_m + q_{m+1}/(m+1) from (1, 0) and (1, 1/2), and by the
    double-factorial closed forms.  The two must agree exactly.  The
    recurrence runs on the integers P_j = (j-1)! p_j and Q_j = 2 (j-1)! q_j
    (j >= 1), for which it reads X_{j+2} = j(j+1) X_j + X_{j+1} from
    (P_1, P_2) = (1, 2) and (Q_1, Q_2) = (1, 1).
    """
    if m < 0:
        raise ValueError(f"duality form undefined for negative m={m}")
    if m == 0:
        p_rec, q_rec = Fraction(1), Fraction(0)
    else:
        (p0, p1), (q0, q1) = (1, 2), (1, 1)  # (P_j, P_j+1), (Q_j, Q_j+1)
        for j in range(1, m):
            p0, p1 = p1, j * (j + 1) * p0 + p1
            q0, q1 = q1, j * (j + 1) * q0 + q1
        scale = factorial(m - 1)
        p_rec, q_rec = Fraction(p0, scale), Fraction(q0, 2 * scale)
    p_closed, q_closed = _pq_closed(m)
    if (p_rec, q_rec) != (p_closed, q_closed):
        raise ConsistencyError(
            f"pi-world duality form mismatch at m={m}: "
            f"recurrence {(p_rec, q_rec)} vs closed {(p_closed, q_closed)}"
        )
    return LinearFormPi(m, p_closed, q_closed)
