"""Exact integer and rational sequences behind the arithmetic duality.

The two mirror worlds normalize their connection-constant ratios into
linear forms: integer forms a_m - e*b_m built from factorials and
derangement numbers, and rational forms p_m - pi*q_m built from double
factorials.  Everything in this module is exact big-integer or
big-rational arithmetic (``fractions.Fraction`` is the rational scalar);
the duality forms are computed redundantly, by recurrence and by closed
formula, and cross-checked at construction.  Their values x - c y, which
cancel in doubles, are computed by :meth:`worlds.World.duality_residuals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ConsistencyError",
    "LinearFormE",
    "LinearFormPi",
    "duality_form_e",
    "duality_form_pi",
    "duality_forms_e",
    "duality_forms_pi",
]


class ConsistencyError(RuntimeError):
    """Two redundant exact computations of the same quantity disagreed."""


@dataclass(frozen=True)
class LinearFormE:
    """Integer linear form K_m = a - e*b with a, b >= 0."""

    m: int
    a: int
    b: int

    def to_record(self) -> dict:
        return {"m": self.m, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class LinearFormPi:
    """Rational linear form K_m = p - pi*q with p, q >= 0."""

    m: int
    p: Fraction
    q: Fraction

    def to_record(self) -> dict:
        return {
            "m": self.m,
            "p": f"{self.p.numerator}/{self.p.denominator}",
            "q": f"{self.q.numerator}/{self.q.denominator}",
        }


def duality_form_e(m: int) -> LinearFormE:
    """The last of :func:`duality_forms_e`: a_m = (m+1)!, b_m = D_{m+1}."""
    if m < 0:
        raise ValueError(f"duality form undefined for negative m={m}")
    return duality_forms_e(m)[-1]


def duality_forms_e(m_max: int) -> list[LinearFormE]:
    """The integer forms (a_m, b_m) for m = 0..m_max, in one pass.

    Each is built twice and the two compared (:func:`_check`): by the
    recurrences a_{m+1} = (m+2) a_m and b_{m+1} = (m+2) b_m + (-1)^m from
    (a_0, b_0) = (1, 0), and as (m+1)! and the derangement number D_{m+1}
    of the recurrence D_m = (m-1)(D_{m-1} + D_{m-2}), D_0 = 1, D_1 = 0.
    """
    forms = []
    a, b = 1, 0
    d_prev, d = 1, 0  # D_m, D_{m+1}
    for m in range(m_max + 1):
        if m:
            a, b = (m + 1) * a, (m + 1) * b + (-1) ** (m - 1)
            d_prev, d = d, m * (d + d_prev)
        closed = (math.factorial(m + 1), d)
        forms.append(LinearFormE(m, *_check("e", m, (a, b), closed)))
    return forms


def _check(world: str, m: int, rec: tuple, closed: tuple) -> tuple:
    """closed, if it equals rec; else ConsistencyError."""
    if rec != closed:
        raise ConsistencyError(f"{world}-world duality form mismatch at m={m}: "
                               f"recurrence {rec} vs closed {closed}")
    return closed


def _pq_closed(m: int) -> tuple[Fraction, Fraction]:
    # The double-factorial closed forms through (2k-1)!!/(2k)!! =
    # C(2k, k)/4^k; (p_0, q_0) = (1, 0) sits outside them.
    if m == 0:
        return Fraction(1), Fraction(0)
    k, odd = divmod(m, 2)
    c, four_k = math.comb(2 * k, k), 4**k
    q = Fraction((2 * k + 1) * c, 2 * four_k) if odd else Fraction(k * c, four_k)
    return Fraction(four_k, c), q


def duality_form_pi(m: int) -> LinearFormPi:
    """The last of :func:`duality_forms_pi`."""
    if m < 0:
        raise ValueError(f"duality form undefined for negative m={m}")
    return duality_forms_pi(m)[-1]


def duality_forms_pi(m_max: int) -> list[LinearFormPi]:
    """The rational forms (p_m, q_m) of the sign-normalized pi-world
    sequence for m = 0..m_max, in one pass.

    Each is built twice and the two compared (:func:`_check`): by the
    recurrences p_{m+2} = p_m + p_{m+1}/(m+1), q_{m+2} = q_m + q_{m+1}/(m+1)
    from (1, 0) and (1, 1/2), and by the double-factorial closed forms
    p_{2k} = p_{2k+1} = (2k)!!/(2k-1)!!, q_{2k} = (2k-1)!!/(2 (2k-2)!!),
    q_{2k+1} = (2k+1)!!/(2 (2k)!!).  The recurrence runs on the integers
    P_j = (j-1)! p_j and Q_j = 2 (j-1)! q_j (j >= 1): X_{j+2} = j(j+1) X_j
    + X_{j+1} from (P_1, P_2) = (1, 2) and (Q_1, Q_2) = (1, 1).
    """
    forms = []
    (p0, p1), (q0, q1) = (1, 2), (1, 1)  # (P_m, P_m+1), (Q_m, Q_m+1)
    scale = 1  # (m-1)!
    for m in range(m_max + 1):
        if m > 1:
            j = m - 1
            p0, p1 = p1, j * (j + 1) * p0 + p1
            q0, q1 = q1, j * (j + 1) * q0 + q1
            scale *= j
        rec = (Fraction(p0, scale), Fraction(q0, 2 * scale)) if m else (
            Fraction(1), Fraction(0))
        forms.append(LinearFormPi(m, *_check("pi", m, rec, _pq_closed(m))))
    return forms
