"""P-recursive sequences with rational-function coefficients in (n, z).

A :class:`PRecurrence` stores an order-r linear recurrence
sum_k C_k(n, z) u_{n+k} = 0 whose coefficients are exact rational
functions in the index n and the parameter z, and the z it steps at,
its ``param``.  :func:`_integer_form` substitutes that z exactly and
clears the denominators, once per recurrence (:attr:`PRecurrence.cleared`);
every engine steps that integer equation.
There are two ways in: :func:`iter_sequence` yields every u_n up to
n_max, exactly (big rationals) where z and the initial values are
rational and no digits are asked for, and :func:`iter_values_at` yields
a few wanted u_n, reached in blocks of steps as far as its caller draws
them.  The rest is fixed point on Python ints, one engine whose values
both give as numbers of one private mpmath context.
:func:`exact_series` builds a whole exact series
u_0..u_N fraction-free instead, as integer numerators over one common
denominator, for the ODE certificate, which wants every term rather
than reduced values.  The two mirror recurrences, whose connection
constants tie to e and pi, and the Gamma prototype recurrence, whose
sequence is the constructive shell n!/(z)_n, are built in.
"""

from __future__ import annotations

import ast
import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import accumulate, islice, repeat
from operator import mul

from .complexfn import MAX_DOUBLE_DIGITS, _is_mp, _mp_context, _mp_fraction

__all__ = [
    "CoefficientPole",
    "DEFAULT_DIGITS",
    "PRecurrence",
    "Poly2",
    "RationalFn",
    "RecurrenceParseError",
    "exact_series",
    "gamma_recurrence",
    "iter_sequence",
    "iter_values_at",
    "mirror_e",
    "mirror_pi",
    "numeric_digits",
    "parse_precurrence",
    "parse_scalar",
]

MAX_DEGREE = 8
# The fixed-point precision of numeric iteration unless the caller asks
# for more than MAX_DOUBLE_DIGITS: its values rounded to doubles carry no
# rounding compounded over the steps, even past n = 10^5.
DEFAULT_DIGITS = 30


class CoefficientPole(ArithmeticError):
    """A recurrence coefficient vanished (or lost its denominator) at step n."""

    def __init__(self, n: int, which: str):
        self.n = n
        self.which = which
        super().__init__(f"coefficient pole at n={n} ({which})")


class RecurrenceParseError(ValueError):
    """Recurrence text rejected; carries 1-based line and column."""

    def __init__(self, line: int, col: int, msg: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {msg}")


def _is_exact(v) -> bool:
    # floats first: isinstance against Fraction, an ABC, costs 0.4 us
    return not isinstance(v, (float, complex)) and isinstance(v, (int, Fraction))


# ---------------------------------------------------------------------------
# bivariate polynomials and rational functions

def _rational(c):
    c = Fraction(c)  # exactly; an int where it is integral
    return c.numerator if c.denominator == 1 else c


class Poly2:
    """Dense polynomial in (n, z) with exact rational coefficients.

    coeffs[i][j] is the coefficient of n^i z^j, an int where integral (no
    Fraction arithmetic at float arguments); degrees above MAX_DEGREE are
    rejected (the built-ins never exceed degree 1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        rows = [[_rational(c) for c in row] for row in coeffs] or [[0]]
        width = max(len(r) for r in rows)
        self.coeffs = [r + [0] * (width - len(r)) for r in rows]

    @staticmethod
    def const(c) -> "Poly2":
        return Poly2([[c]])

    @staticmethod
    def var(name: str) -> "Poly2":
        if name == "n":
            return Poly2([[0], [1]])
        if name == "z":
            return Poly2([[0, 1]])
        raise ValueError(f"unknown variable {name!r}")

    def degree_n(self) -> int:
        deg = 0
        for i, row in enumerate(self.coeffs):
            if any(c != 0 for c in row):
                deg = i
        return deg

    def degree_z(self) -> int:
        deg = 0
        for row in self.coeffs:
            for j, c in enumerate(row):
                if c != 0:
                    deg = max(deg, j)
        return deg

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeffs for c in row)

    def __add__(self, other: "Poly2") -> "Poly2":
        ni = max(len(self.coeffs), len(other.coeffs))
        nj = max(len(self.coeffs[0]), len(other.coeffs[0]))
        out = [[0] * nj for _ in range(ni)]
        for src in (self.coeffs, other.coeffs):
            for i, row in enumerate(src):
                for j, c in enumerate(row):
                    out[i][j] += c
        return Poly2(out)

    def __neg__(self) -> "Poly2":
        return Poly2([[-c for c in row] for row in self.coeffs])

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        ni = len(self.coeffs) + len(other.coeffs) - 1
        nj = len(self.coeffs[0]) + len(other.coeffs[0]) - 1
        out = [[0] * nj for _ in range(ni)]
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c == 0:
                    continue
                for k, orow in enumerate(other.coeffs):
                    for l, d in enumerate(orow):
                        if d != 0:
                            out[i + k][j + l] += c * d
        p = Poly2(out)
        if p.degree_n() > MAX_DEGREE or p.degree_z() > MAX_DEGREE:
            raise ValueError(f"polynomial degree above {MAX_DEGREE} not supported")
        return p

    def collapse_z(self, z):
        """Substitute z, returning the univariate coefficient list in n.

        z may be None (requires a z-free polynomial), exact, or numeric;
        coefficients come out in the matching scalar type.
        """
        if z is None:
            if self.degree_z() > 0:
                raise ValueError("recurrence depends on z but no value was given")
            return [row[0] for row in self.coeffs]
        return [_horner(row, z) * z**0 for row in self.coeffs]

    def eval(self, n, z):
        return _horner(self.collapse_z(z), n)

    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return NotImplemented
        return (self - other).is_zero()

    def __repr__(self):
        """The polynomial in the text format's syntax, e.g. '-n+1/2*z'."""
        terms = []
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c == 0:
                    continue
                n_part = "" if i == 0 else ("n" if i == 1 else f"n^{i}")
                z_part = "" if j == 0 else ("z" if j == 1 else f"z^{j}")
                body = "*".join(part for part in (n_part, z_part) if part)
                if c == 1 and body:
                    terms.append(body)
                elif c == -1 and body:
                    terms.append(f"-{body}")
                else:
                    terms.append(f"{c}{'*' + body if body else ''}")
        if not terms:
            return "0"
        return "".join(t if k == 0 or t.startswith("-") else f"+{t}"
                       for k, t in enumerate(terms))


class RationalFn:
    """Quotient of two Poly2, the coefficient field for recurrences."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly2, den: Poly2 | None = None):
        den = den if den is not None else Poly2.const(1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "RationalFn":
        return RationalFn(Poly2.const(c))

    @staticmethod
    def var(name: str) -> "RationalFn":
        return RationalFn(Poly2.var(name))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def eval(self, n, z):
        """The value at (n, z); a Fraction when n and z are exact,
        ZeroDivisionError where the denominator vanishes."""
        num, den = self.num.eval(n, z), self.den.eval(n, z)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanished at (n={n}, z={z})")
        return Fraction(num) / den if _is_exact(num) and _is_exact(den) else num / den

    def __repr__(self):
        if self.den == Poly2.const(1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# recurrences

@dataclass(frozen=True)
class PRecurrence:
    """Order-r recurrence sum_k coeffs[k](n, z) u_{n+k} = 0 with initials.

    ``param`` is the z every engine steps the recurrence at (set by the
    built-in constructors; ``dataclasses.replace(rec, param=z)`` gives a
    parsed one its z).  None only where no coefficient depends on z.
    """

    order: int
    coeffs: tuple
    initial_index: int
    initial_values: tuple
    param: object = None

    def __post_init__(self):
        _check_coeffs(self.order, self.coeffs)
        if len(self.initial_values) != self.order:
            raise ValueError("initial_values length must equal the order")

    @cached_property
    def cleared(self):
        """The cleared integer equation at ``param``: the return value of
        :func:`_integer_form`, built on first use and kept in the instance
        ``__dict__``.  Every engine and the ODE certificate read it, and
        none changes it."""
        return _integer_form(self)


def _check_coeffs(order: int, coeffs: tuple):
    """Shape of an order-r equation, shared with the AFEs of :mod:`agf`:
    r >= 1 and r + 1 coefficients, the first and last not identically 0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(coeffs) != order + 1:
        raise ValueError("need order+1 coefficients")
    if coeffs[0].is_zero() or coeffs[-1].is_zero():
        raise ValueError("first and last coefficients must not vanish identically")


# The z-free rows of the built-in recurrences, built once: every call of
# mirror_e, mirror_pi and gamma_recurrence shares them, and each recurrence
# clears its own equation at its z (PRecurrence.cleared).
_N_PLUS_Z = Poly2.var("n") + Poly2.var("z")
_E_ROWS = tuple(map(RationalFn, (Poly2.const(-1), -_N_PLUS_Z, _N_PLUS_Z)))
_PI_ROWS = tuple(map(RationalFn, (-_N_PLUS_Z, Poly2.const(-1), _N_PLUS_Z)))
_GAMMA_ROWS = (RationalFn(-(Poly2.var("n") + Poly2.const(1))), RationalFn(_N_PLUS_Z))


def mirror_e(mz=None) -> PRecurrence:
    """u_{n+2} = u_{n+1} + u_n/(n+z), u_1 = 0, u_2 = 1 (e-world mirror).

    In cleared form: (n+z) u_{n+2} - (n+z) u_{n+1} - u_n = 0.
    """
    return _mirror(_E_ROWS, mz)


def mirror_pi(mz=None) -> PRecurrence:
    """v_{n+2} = v_{n+1}/(n+z) + v_n, v_1 = 0, v_2 = 1 (pi-world mirror).

    In cleared form: (n+z) v_{n+2} - v_{n+1} - (n+z) v_n = 0.
    """
    return _mirror(_PI_ROWS, mz)


def _mirror(coeffs: tuple, mz) -> PRecurrence:
    """The order-2 recurrence with these coefficients, from u_1 = 0 and
    u_2 = 1, that both mirrors share."""
    return PRecurrence(order=2, coeffs=coeffs, initial_index=1,
                       initial_values=(Fraction(0), Fraction(1)), param=mz)


def gamma_recurrence(z) -> PRecurrence:
    """w_{n+1} = (n+1)/(n+z) w_n normalized so that w_n = n!/(z)_n.

    The normalization fixes w_1 = 1/z, which makes Gamma(z) itself (not
    Gamma(z+1)) the connection constant against the shell n^(1-z).  z is
    required at construction because the initial value depends on it.
    """
    if z is None:
        raise ValueError("gamma_recurrence needs a concrete z (initial is 1/z)")
    if z == 0:
        raise ValueError("z=0 is a pole of the normalization 1/z")
    w1 = Fraction(1, 1) / z if _is_exact(z) else 1.0 / complex(z)
    return PRecurrence(order=1, coeffs=_GAMMA_ROWS, initial_index=1,
                       initial_values=(w1,), param=z)


def _horner(coeff_list, n):
    acc = coeff_list[-1]
    for c in reversed(coeff_list[:-1]):
        acc = acc * n + c
    return acc


def iter_sequence(rec: PRecurrence, n_max: int = 100, digits: int | None = None):
    """Yield (n, u_n) from the initial index up to n_max by forward
    iteration at z = ``rec.param``.

    Two engines, both on the cleared integer equation of
    :func:`_integer_form`:

    - exact (``Fraction``) when z and the initial values are rational and
      no digit count is given: Fraction stepping over the integer
      coefficients;
    - fixed point for everything else, at :func:`numeric_digits` d
      digits, whose values are numbers (mpf, or mpc for complex data) of
      the private mpmath context at d + 5 digits.

    Fixed point substitutes z exactly (a float or complex z is a dyadic
    rational) and iterates on Python ints: mantissas of about
    ``ceil(d * log2(10)) + 64`` bits, Gaussian-integer pairs for complex
    data, under one block exponent, a step at a time as blocks of one step
    (:class:`_Window`).  No engine reads or changes mpmath's global state,
    so a live generator holds none.
    """
    if n_max < rec.initial_index + rec.order:
        raise ValueError("n_max must cover at least the initial window")
    if digits is None and _exact_data(rec):
        yield from _exact(rec, n_max)
    else:
        yield from _fixed_point(rec, n_max, numeric_digits(digits))


def numeric_digits(digits: int | None) -> int:
    """The digits the fixed-point engine runs at for a requested ``digits``:
    that many above :data:`MAX_DOUBLE_DIGITS`, else :data:`DEFAULT_DIGITS`."""
    if digits is not None and digits > MAX_DOUBLE_DIGITS:
        return digits
    return DEFAULT_DIGITS


def _exact_data(rec) -> bool:
    z = rec.param
    return all(_is_exact(v) for v in (0 if z is None else z, *rec.initial_values))


def _exact(rec, n_max):
    """Fraction stepping: u_{n+r} = -sum_k c_k(n) u_{n+k} / c_r(n) over
    the integer coefficients c_k of the cleared equation."""
    r, n0 = rec.order, rec.initial_index
    polys, _, pole, init = rec.cleared
    window = [a for a, _ in init]
    yield from enumerate(window, n0)
    for n, vals in zip(range(n0 + r, n_max + 1), _values_from(polys, n0)):
        lead = vals[r]
        if not lead:
            raise pole(n - r)
        u = -sum(map(mul, vals, window)) / lead
        window.append(u)
        del window[0]
        yield n, u


def exact_series(rec: PRecurrence, n_max: int) -> tuple[list[int], int]:
    """u_0..u_{n_max} at z = ``rec.param`` exactly, as integer numerators
    over one denominator: the series the ODE certificate
    (:func:`certify.ode_series_check_recurrence`) checks.

    Terms below the initial index are 0.  z and the initial values must
    be rational.  The iteration is fraction-free and steps over its final
    denominator: the lcm of the initial denominators times |c_r(n)| for
    every step n, c_r the leading coefficient of the cleared equation
    :attr:`PRecurrence.cleared`.  Each step solves that equation for the
    newest numerator by one exact integer division by c_r(n), with no gcd
    and no rescaling.  Raises :class:`CoefficientPole` at the same n as
    :func:`iter_sequence`, before any step.  The denominator is positive
    but not reduced.  Orders 1 and 2 step in the written-out
    :func:`_series1` and :func:`_series2`, order 3 and above in
    :func:`_series_generic`, with the same integers either way.
    """
    if not _exact_data(rec):
        raise ValueError("exact_series needs rational z and initial values")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    r, n0 = rec.order, rec.initial_index
    polys, _, pole, init = rec.cleared
    rows = list(islice(_values_from(polys, n0), max(0, n_max - r + 1 - n0)))
    for n, vals in enumerate(rows, n0):
        if not vals[r]:
            raise pole(n)
    den = math.lcm(*(a.denominator for a, _ in init))
    den *= abs(math.prod(vals[r] for vals in rows))
    nums = [0] * n0 + [a.numerator * (den // a.denominator) for a, _ in init]
    # over a den that holds every c_r(n), -sum_k c_k(n) u_{n+k} is c_r(n)
    # times an integer: the floor division is exact
    if r == 1:
        _series1(rows, nums)
    elif r == 2:
        _series2(rows, nums)
    else:
        _series_generic(rows, nums, n0, r)
    return nums[: n_max + 1], den


def _series_generic(rows, nums, n0, r):
    """The steps of :func:`exact_series` for any order: append u_{n+r} to
    ``nums``, which ends at u_{n+r-1}, for each row of c_k(n) from n0."""
    for n, vals in enumerate(rows, n0):
        nums.append(-sum(map(mul, vals, nums[n: n + r])) // vals[r])


def _series1(rows, nums):
    """:func:`_series_generic` at order 1, the newest term in a local."""
    u, append = nums[-1], nums.append
    for a, d in rows:
        u = -(a * u) // d
        append(u)


def _series2(rows, nums):
    """:func:`_series_generic` at order 2, the window in locals."""
    u, v = nums[-2:]
    append = nums.append
    for a, b, d in rows:
        u, v = v, -(a * u + b * v) // d
        append(v)


# ---------------------------------------------------------------------------
# fixed-point iteration on Python ints

def _mantissa(c: Fraction, e: int) -> int:
    """floor(c / 2^e)."""
    if e < 0:
        return (c.numerator << -e) // c.denominator
    return c.numerator // (c.denominator << e)


def _exact_parts(v) -> tuple:
    """(Re v, Im v) as Fractions, without rounding: floats and mpmath
    numbers are dyadic rationals."""
    if _is_exact(v):
        return Fraction(v), Fraction(0)
    if not (v.context.isfinite(v) if _is_mp(v) else cmath.isfinite(complex(v))):
        raise ValueError(f"cannot iterate from the value {v}")
    if _is_mp(v):
        return _mp_fraction(v.real), _mp_fraction(v.imag)
    c = complex(v)
    return Fraction(c.real), Fraction(c.imag)


def _poly_at(poly: Poly2, z) -> tuple:
    """poly at z = (x + iy)/q, given as the ints (x, y, q), or z-free where
    z is None: its coefficients in n as (re, im) int pairs, and one
    positive denominator that they all share."""
    if z is None:
        rows, (x, y, q) = [[c] for c in poly.collapse_z(None)], (0, 0, 1)
    else:
        rows, (x, y, q) = poly.coeffs, z
    scale = math.lcm(*(c.denominator for row in rows for c in row))
    out = []
    for row in rows:  # sum_j row[j] (x + iy)^j q^(J-j) scale, by Horner's rule
        re = im = 0
        qk = scale
        for c in reversed(row):
            c = c.numerator * (qk // c.denominator)
            re, im = re * x - im * y + c, re * y + im * x
            qk *= q
        out.append((re, im))
    return out, scale * q ** (len(rows[0]) - 1)


def _gauss_mul(p: list, q: list) -> list:
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, (a, b) in enumerate(p):
        for j, (c, d) in enumerate(q):
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * d, im + a * d + b * c)
    return out


def _differences(values) -> list:
    """v(0), dv(0), ..., d^deg v(0): the forward differences at 0 of the
    polynomial v of degree deg, given by its values at 0..deg."""
    diffs = list(values)
    for i in range(1, len(diffs)):  # diffs[j] becomes the j-th difference
        for j in range(len(diffs) - 1, i - 1, -1):
            diffs[j] -= diffs[j - 1]
    return diffs


@cache
def _power_differences(deg: int) -> tuple:
    """Row i, for i = 0..deg: the i-th forward differences at t = 0 of t^l
    for l = i..deg, the part of the row that is not 0 (l < i gives 0)."""
    columns = [_differences([t**l for t in range(deg + 1)]) for l in range(deg + 1)]
    return tuple(tuple(col[i] for col in columns[i:]) for i in range(deg + 1))


def _accumulated(diffs):
    """v(0), v(1), ... for the polynomial v given by its forward
    differences at 0: one chain of itertools.accumulate per difference."""
    column = repeat(diffs[-1])
    for d in reversed(diffs[:-1]):
        column = accumulate(column, initial=d)
    return column


def _stepping(columns):
    """Tuples (v(j) for v in columns) for j = 0, 1, ...: each polynomial v,
    given by its forward differences at 0, as :func:`_accumulated`."""
    return zip(*map(_accumulated, columns))


def _values_from(polys: list, n0: int):
    """Tuples (p(n) for p in polys) for n = n0, n0 + 1, ..."""
    return _stepping(_differences([_horner(p, n0 + i) for i in range(len(p))])
                     for p in polys)


def _integer_form(rec: PRecurrence):
    """The recurrence at z = ``rec.param`` with its denominators cleared.

    Returns the real and imaginary integer polynomials in n of each
    coefficient, a function building the CoefficientPole of a step n
    where the leading one vanishes, and the initial values as (re, im)
    Fractions.  The equation is multiplied
    by den_r(n) * prod_k den_k(n) and the least positive integer that
    makes every coefficient an integer polynomial; the leading one,
    num_r * prod_k den_k, vanishes exactly at the poles.  All of it runs
    on (re, im) int pairs over one denominator.
    """
    r = rec.order
    z = None
    if rec.param is not None:  # as (x + iy)/q
        parts = _exact_parts(rec.param)
        q = math.lcm(*(c.denominator for c in parts))
        z = (*(c.numerator * (q // c.denominator) for c in parts), q)
    nums = [_poly_at(cf.num, z) for cf in rec.coeffs]
    dens = [_poly_at(cf.den, z) for cf in rec.coeffs]
    cleared = []
    for k, (num, d) in enumerate(nums):
        for j, (den, dd) in enumerate(dens + [dens[r]]):
            if j != k and den != [(dd, 0)]:  # every built-in has den = 1
                num, d = _gauss_mul(num, den), d * dd
        cleared.append((num, d))
    # over the common denominator, then cancelled by its gcd with every part
    den = math.lcm(*(d for _, d in cleared))
    cleared = [[(a * (den // d), b * (den // d)) for a, b in p] for p, d in cleared]
    g = math.gcd(den, *(c for p in cleared for pair in p for c in pair))
    re_polys = [[a // g for a, _ in p] for p in cleared]
    im_polys = [[b // g for _, b in p] for p in cleared]

    def pole(n):  # the first vanishing denominator, else the numerator
        for k, (den, _) in enumerate(dens):
            if all(_horner(part, n) == 0 for part in zip(*den)):
                return CoefficientPole(n, f"denominator of coefficient {k}")
        return CoefficientPole(n, "leading coefficient")

    return re_polys, im_polys, pole, [_exact_parts(v) for v in rec.initial_values]


def _fixed_point(rec, n_max, digits):
    """Every (n, u_n) to n_max: a :class:`_Window` crosses the blocks of
    one step of :meth:`_Window.blocks` one at a time, and each value is
    its newest entry."""
    win = _Window(rec, digits)
    r, n0 = win.r, win.n0
    for i in range(r):
        yield n0 + i, win.read(i)
    cross, read, blocks = win._cross, win.read, win.blocks(1, n0)
    for n in range(n0 + r, n_max + 1):
        if not cross(blocks, 1):
            raise win.pole(n - r)
        yield n, read(r - 1)


class _Window:
    """u_m, ..., u_{m+r-1} in fixed point: integer mantissas times 2^e, in
    ``parts``, one list for real data and a real and an imaginary one for
    complex data.  ``out(parts, i, e)`` builds the value of entry i, a
    number of the private mpmath context at ``digits + 5`` digits; only
    :meth:`read` calls it.

    The cleared equation sum_k c_k(n) u_{n+k} = 0 of :func:`_integer_form`
    is, in companion form, c_r(n) s_{n+1} = A(n) s_n for the window
    s_n = (u_n, ..., u_{n+r-1}).  The window moves only in blocks of k
    steps, D s_{m+k} = B s_m with B = A(m+k-1)...A(m) and
    D = c_r(m)...c_r(m+k-1), one floor division per value of the block
    instead of one per step; a single step is the block of k = 1.

    ``_cross(blocks, count)`` advances the window by up to ``count`` blocks
    drawn from ``blocks`` (tuples laid out as in :meth:`blocks`) in one
    pass, and returns how many it took: a block with D = 0 ends the pass,
    drawn but not taken.  Where the newest quotient would keep fewer than
    lo bits, the numerators are widened first; where it passes hi, the
    quotients are narrowed.  Either shift aims 32 bits above lo, clear of
    the next block's drift.  That is the one renormalisation rule.

    Both :meth:`_block`, which sets blocks up, and ``_cross`` take one of
    the kernels chosen on (r, real), with the same arithmetic either way.
    Orders 1 and 2, where every built-in world lies, take written-out
    kernels that keep the columns or the window in locals
    (:func:`_block_real1` ... :func:`_block_complex2`,
    :meth:`_cross_real1` ... :meth:`_cross_complex2`), order 3 and above
    :meth:`_block_generic` and :meth:`_cross_generic`.  ``__init__``
    binds the crossing kernel once.

    Complex data stays on Gaussian pairs rather than one real system of
    2r parts with lead |c_r|^2.  A prototype of that system printed the
    same bytes on 60 ``limit``/``seq`` commands, but took complex
    ``limit`` ops from about 2.9 ms to 5.5 ms (best of 60, 2-vCPU VM;
    real ops did not move): its block entries double in degree (32
    against 16) and grow in number from 10 to 17, and setting up a block
    is quadratic in the degree.
    """

    def __init__(self, rec, digits):
        self.r, self.n0 = rec.order, rec.initial_index
        re_polys, im_polys, self.pole, init = rec.cleared
        self.real = not any(map(any, im_polys)) and not any(b for _, b in init)
        self.polys = re_polys if self.real else re_polys + im_polys
        self.degree = max((i for p in self.polys for i, c in enumerate(p) if c),
                          default=0)
        kernels = {(1, True): self._cross_real1, (1, False): self._cross_complex1,
                   (2, True): self._cross_real2, (2, False): self._cross_complex2}
        self._cross = kernels.get((self.r, self.real), self._cross_generic)
        # The newest mantissa is kept in about [2^lo, 2^hi), renormalised
        # in either direction when it leaves: Gamma-shell values shrink.
        prec = math.ceil(digits * math.log2(10)) + 64
        self.lo, self.hi = prec + 1, prec + 64  # bit lengths
        self.e = e = max((c.numerator.bit_length() - c.denominator.bit_length()
                          for pair in init for c in pair if c), default=0) - prec - 32
        self.parts = [[_mantissa(v[i], e) for v in init]
                      for i in range(1 if self.real else 2)]
        ctx = _mp_context(digits + 5)
        if self.real:
            self.out = lambda parts, i, e: ctx.mpf((parts[0][i], e))
            return
        # a part more than ``digits`` digits below the other is the residue
        # of the floor divisions, not a value: it reads as 0
        bits = math.ceil(digits * math.log2(10))

        def out(parts, i, e):
            x, y = parts[0][i], parts[1][i]
            if x.bit_length() + bits < y.bit_length():
                x = 0
            elif y.bit_length() + bits < x.bit_length():
                y = 0
            return ctx.mpc((x, e), (y, e))
        self.out = out

    def read(self, i):
        """u_{m+i}."""
        return self.out(self.parts, i, self.e)

    def block_size(self) -> int:
        """K, the steps of one block: 16, or fewer where the degree d
        of the cleared coefficients in n would take the entries of B, of
        degree K d, past 32; 1 from d = 5 on, where blocks of 2 to 7 steps
        cost more than they save."""
        k = min(16, 32 // max(self.degree, 1))
        return k if k >= 8 else 1

    def blocks(self, k, start):
        """The entries of B and D (see the class) for the blocks at m =
        start, start + k, start + 2k, ...: a tuple per block, B row by row
        and then D, real parts and, for complex data, imaginary parts after
        them.

        They are integer polynomials of degree k * degree in the block
        offset t, m = start + k t, read by Kronecker substitution: one run
        of the k steps at t = 2^S gives each entry's value there, and its
        balanced base-2^S digits are the coefficients.  2^(S-1) is above
        the same run at t = 1 on absolute coefficients, which bounds every
        one of them; that bound run is real, also for complex data.  Both
        runs are :meth:`_block`'s.  :func:`_stepping` advances the entries
        by their forward differences, which follow from the coefficients."""
        r, deg = self.r, k * self.degree
        # The coefficients in t of c(start + i + k t) sum in absolute value
        # to at most |c|(|start| + i + k), |c| with the absolute values
        # (|re| + |im|) of the coefficients of c, and so on through the
        # products.  With the lower coefficients negated, the run adds every
        # term.
        polys = self.polys if self.real else [
            [abs(a) + abs(b) for a, b in zip(p, q)]
            for p, q in zip(self.polys, self.polys[r + 1:])]
        bound = [[-abs(c) if i < r else abs(c) for c in p]
                 for i, p in enumerate(polys)]
        top = max(self._block(bound, abs(start) + k, k, True))
        s = top.bit_length() + 1
        half, mask = 1 << (s - 1), (1 << s) - 1
        # The differences of t^l stay rather than _differences over Horner
        # values of the coefficients: that gave the same entries and
        # output, but block set-up took 0.33 ms against 0.23 on `limit e 3`
        # and 0.51 against 0.36 on `limit e 2.5+1i` (best of 300, 2-vCPU VM)
        table = _power_differences(deg)
        columns = []
        for v in self._block(self.polys, start + (k << s), k, self.real):
            coeffs = []
            for _ in range(deg + 1):
                c = ((v + half) & mask) - half
                coeffs.append(c)
                v = (v - c) >> s
            if v:
                raise ArithmeticError("a block entry past its coefficient bound")
            columns.append([sum(map(mul, coeffs[i:], row))
                            for i, row in enumerate(table)])
        yield from _stepping(columns)

    def _block(self, polys, m, k, real):
        """B and D for the k steps from m of the equation with the
        coefficient polynomials ``polys`` (real, or real then imaginary
        parts), flat as in :meth:`blocks`: the one dispatch point of the
        set-up on (r, real), to the kernels that the class names."""
        rows = islice(_values_from(polys, m), k)
        if self.r == 1:
            return _block_real1(rows) if real else _block_complex1(rows)
        if self.r == 2:
            return _block_real2(rows) if real else _block_complex2(rows)
        return self._block_generic(rows, real)

    def _block_generic(self, rows, real):
        """:meth:`_block` for any order, from the rows of coefficient
        values, the columns of B in lists."""
        r = self.r
        # column j of B is the window from the j-th unit vector after k
        # steps without their divisions by c_r, whose product is D: ints
        # for real data, (re, im) pairs for complex data
        one, zero = (1, 0) if real else ((1, 0), (0, 0))
        cols = [[one if i == j else zero for i in range(r)] for j in range(r)]
        D = one
        for vals in rows:
            if real:
                cr = vals[r]
                cols = [[cr * x for x in w[1:]] + [-sum(map(mul, vals, w))]
                        for w in cols]
                D *= cr
                continue
            c = list(zip(vals[:r + 1], vals[r + 1:]))
            cr, ci = c[r]
            for w in cols:
                x = y = 0
                for (a, b), (u, v) in zip(c, w):
                    x -= a * u - b * v
                    y -= a * v + b * u
                w[:] = [(cr * u - ci * v, cr * v + ci * u) for u, v in w[1:]] + [(x, y)]
            D = (cr * D[0] - ci * D[1], cr * D[1] + ci * D[0])
        flat = [w[i] for i in range(r) for w in cols] + [D]  # B row by row, D
        return flat if real else [x for x, _ in flat] + [y for _, y in flat]

    def _cross_real1(self, blocks, count) -> int:
        """``_cross`` for real data of order 1, the window in a local."""
        lo, hi, e = self.lo, self.hi, self.e
        (u,), = self.parts
        taken = 0
        for a, div in islice(blocks, count):
            if not div:
                break
            u = a * u
            n = u.bit_length()
            short = lo + div.bit_length() - n
            if n and short > 0:
                short += 32
                u, e = u << short, e - short
            u //= div
            n = u.bit_length()
            if n > hi:
                s = n - lo - 32
                u, e = u >> s, e + s
            taken += 1
        self.parts, self.e = [[u]], e
        return taken

    def _cross_complex1(self, blocks, count) -> int:
        """``_cross`` for complex data of order 1, the window in locals:
        each block is B's real part a, D's real part c, B's imaginary part
        b and D's imaginary part d."""
        lo, hi, e = self.lo, self.hi, self.e
        (x,), (y,) = self.parts
        taken = 0
        for a, c, b, d in islice(blocks, count):
            div = c * c + d * d
            if not div:
                break
            sr, si = a * x - b * y, a * y + b * x
            x, y = sr * c + si * d, si * c - sr * d  # (sr + i si)(c - i d)
            n = max(x.bit_length(), y.bit_length())
            short = lo + div.bit_length() - n
            if n and short > 0:
                short += 32
                x, y, e = x << short, y << short, e - short
            x, y = x // div, y // div
            n = max(x.bit_length(), y.bit_length())
            if n > hi:
                s = n - lo - 32
                x, y, e = x >> s, y >> s, e + s
            taken += 1
        self.parts, self.e = [[x], [y]], e
        return taken

    def _cross_real2(self, blocks, count) -> int:
        """``_cross`` for real data of order 2, the window in locals."""
        lo, hi, e = self.lo, self.hi, self.e
        (u, v), = self.parts
        taken = 0
        for a, b, c, d, div in islice(blocks, count):
            if not div:
                break
            u, v = a * u + b * v, c * u + d * v
            n = v.bit_length()
            short = lo + div.bit_length() - n
            if n and short > 0:
                short += 32
                u, v, e = u << short, v << short, e - short
            u, v = u // div, v // div
            n = v.bit_length()
            if n > hi:
                s = n - lo - 32
                u, v, e = u >> s, v >> s, e + s
            taken += 1
        self.parts, self.e = [[u, v]], e
        return taken

    def _cross_complex2(self, blocks, count) -> int:
        """``_cross`` for complex data of order 2, the window in locals:
        each block is B's real rows, D's real part c, B's imaginary rows
        and D's imaginary part d."""
        lo, hi, e = self.lo, self.hi, self.e
        (x0, x1), (y0, y1) = self.parts
        taken = 0
        for a, b, p, q, c, ai, bi, pi, qi, d in islice(blocks, count):
            div = c * c + d * d
            if not div:
                break
            # (sr + i si)(c - i d) / |D|^2, row by row
            sr = a * x0 + b * x1 - (ai * y0 + bi * y1)
            si = a * y0 + b * y1 + (ai * x0 + bi * x1)
            tr = p * x0 + q * x1 - (pi * y0 + qi * y1)
            ti = p * y0 + q * y1 + (pi * x0 + qi * x1)
            x0, y0 = sr * c + si * d, si * c - sr * d
            x1, y1 = tr * c + ti * d, ti * c - tr * d
            n = max(x1.bit_length(), y1.bit_length())
            short = lo + div.bit_length() - n
            if n and short > 0:
                short += 32
                x0, x1, y0, y1 = x0 << short, x1 << short, y0 << short, y1 << short
                e -= short
            x0, x1, y0, y1 = x0 // div, x1 // div, y0 // div, y1 // div
            n = max(x1.bit_length(), y1.bit_length())
            if n > hi:
                s = n - lo - 32
                x0, x1, y0, y1 = x0 >> s, x1 >> s, y0 >> s, y1 >> s
                e += s
            taken += 1
        self.parts, self.e = [[x0, x1], [y0, y1]], e
        return taken

    def _cross_generic(self, blocks, count) -> int:
        """``_cross`` for any order, the window in lists."""
        r, lo, hi, e = self.r, self.lo, self.hi, self.e
        rows = range(0, r * r, r)
        taken = 0
        if self.real:
            (window,) = self.parts
            for vals in islice(blocks, count):
                div = vals[-1]
                if not div:
                    break
                window = [sum(map(mul, vals[i:i + r], window)) for i in rows]
                b = window[-1].bit_length()
                short = lo + div.bit_length() - b
                if b and short > 0:
                    window = [w << (short + 32) for w in window]
                    e -= short + 32
                window = [w // div for w in window]
                b = window[-1].bit_length()
                if b > hi:
                    s = b - lo - 32
                    window = [w >> s for w in window]
                    e += s
                taken += 1
            self.parts, self.e = [window], e
            return taken
        h = r * r + 1
        xs, ys = self.parts
        for vals in islice(blocks, count):
            c, d = vals[h - 1], vals[-1]
            div = c * c + d * d
            if not div:
                break
            px, py = [], []
            for i in rows:
                re, im = vals[i:i + r], vals[h + i:h + i + r]
                sr = sum(map(mul, re, xs)) - sum(map(mul, im, ys))
                si = sum(map(mul, re, ys)) + sum(map(mul, im, xs))
                px.append(sr * c + si * d)  # (sr + i si)(c - i d) / |D|^2
                py.append(si * c - sr * d)
            b = max(px[-1].bit_length(), py[-1].bit_length())
            short = lo + div.bit_length() - b
            if b and short > 0:
                px = [w << (short + 32) for w in px]
                py = [w << (short + 32) for w in py]
                e -= short + 32
            xs, ys = [w // div for w in px], [w // div for w in py]
            b = max(xs[-1].bit_length(), ys[-1].bit_length())
            if b > hi:
                s = b - lo - 32
                xs, ys = [w >> s for w in xs], [w >> s for w in ys]
                e += s
            taken += 1
        self.parts, self.e = [xs, ys], e
        return taken

    def at(self, ns):
        """Yield u_n for each n drawn from the increasing ns, from the
        initial window.  The first p < K steps cross as one block of p
        steps (:meth:`_partial`), after which the window ends at a
        multiple of K at every block edge: from there the engine crosses
        the whole blocks before the next wanted n in one pass of
        ``_cross``, and a wanted n that is a multiple of K is read straight
        after it.  Any other n ends its gap with one block of fewer than K
        steps, and the next gap starts with the rest of that block.  At
        K = 1 every gap is whole blocks.  A block with D = 0 raises the
        :class:`CoefficientPole` of its first pole row (:meth:`_pole`).
        The engine runs only as far as the last n drawn, so a caller that
        stops drawing stops the stepping."""
        r, m, k = self.r, self.n0, self.block_size()
        edge = m + (1 - m - r) % k  # where the next block starts, the first not drawn
        blocks = self.blocks(k, edge)
        last = m - 1
        for t in ns:
            if t <= last:
                raise ValueError("indices must increase from the initial index")
            last = t
            while t >= m + r:  # u_t is past the window u_m..u_{m+r-1}
                if m == edge:
                    count = (t - r + 1 - m) // k  # the blocks that end by t
                    if count:
                        taken = self._cross(blocks, count)
                        m = edge = m + taken * k
                        if taken < count:
                            raise self._pole(m)
                        continue
                    next(blocks)  # the block at m holds t
                    edge += k
                stop = min(edge, t - r + 1)
                self._partial(m, stop - m)
                m = stop
            yield self.read(t - m)

    def _partial(self, m, j):
        """Cross the j < K steps from m as one block that :meth:`_block`
        builds."""
        if not self._cross(iter([self._block(self.polys, m, j, self.real)]), 1):
            raise self._pole(m)

    def _pole(self, m):
        """The :class:`CoefficientPole` of the first row from m whose
        leading coefficient is 0."""
        r = self.r
        rows = enumerate(_values_from(self.polys, m), m)
        return self.pole(next(n for n, vals in rows if not (vals[r] or vals[-1])))


def _block_real1(rows):
    """:meth:`_Window._block_generic` for real data of order 1: B and D."""
    b = d = 1
    for c0, c1 in rows:
        b, d = -c0 * b, c1 * d
    return [b, d]


def _block_complex1(rows):
    """:meth:`_Window._block_generic` for complex data of order 1: B = x + iy
    and D = c + id, from the rows (re c_0, re c_1, im c_0, im c_1)."""
    x, y, c, d = 1, 0, 1, 0
    for a0, a1, b0, b1 in rows:
        x, y = b0 * y - a0 * x, -(a0 * y + b0 * x)
        c, d = a1 * c - b1 * d, a1 * d + b1 * c
    return [x, c, y, d]


def _block_real2(rows):
    """:meth:`_Window._block_generic` for real data of order 2: the columns
    (p0, p1) and (q0, q1) of B, and D."""
    p0, p1, q0, q1, d = 1, 0, 0, 1, 1
    for a, b, c in rows:
        p0, p1 = c * p1, -(a * p0 + b * p1)
        q0, q1 = c * q1, -(a * q0 + b * q1)
        d *= c
    return [p0, q0, p1, q1, d]


def _block_complex2(rows):
    """:meth:`_Window._block_generic` for complex data of order 2: the
    columns (x0 + i y0, x1 + i y1) and (s0 + i t0, s1 + i t1) of B, and
    D = c + id, from the rows (re c_0..c_2, im c_0..c_2)."""
    x0, y0, x1, y1, s0, t0, s1, t1, c, d = 1, 0, 0, 0, 0, 0, 1, 0, 1, 0
    for a0, a1, a2, b0, b1, b2 in rows:
        x0, y0, x1, y1 = (a2 * x1 - b2 * y1, a2 * y1 + b2 * x1,
                          b0 * y0 - a0 * x0 + b1 * y1 - a1 * x1,
                          -(a0 * y0 + b0 * x0 + a1 * y1 + b1 * x1))
        s0, t0, s1, t1 = (a2 * s1 - b2 * t1, a2 * t1 + b2 * s1,
                          b0 * t0 - a0 * s0 + b1 * t1 - a1 * s1,
                          -(a0 * t0 + b0 * s0 + a1 * t1 + b1 * s1))
        c, d = a2 * c - b2 * d, a2 * d + b2 * c
    return [x0, s0, x1, s1, c, y0, t0, y1, t1, d]


def iter_values_at(rec: PRecurrence, ns, digits: int | None = None):
    """Yield u_n at z = ``rec.param`` for each n drawn from the increasing
    iterable ``ns``.

    Runs the fixed-point engine of :func:`iter_sequence`, whatever the
    data, and gives its values of the same type: numbers of the private
    mpmath context at :func:`numeric_digits` + 5 digits, which overflow
    at no size.  It crosses the whole blocks of
    :meth:`_Window.block_size` steps between two wanted n in one pass
    (:meth:`_Window.at`), builds one value per n drawn, and runs only as
    far as the last n drawn: ``ns`` may be an endless ladder that the
    caller stops.  A block with a coefficient pole raises the
    :class:`CoefficientPole` of its first pole row, the n that
    :func:`iter_sequence` names.
    """
    return _Window(rec, numeric_digits(digits)).at(ns)


# ---------------------------------------------------------------------------
# text format: "coeffK: <expr in n, z>" lines plus "init: n0=<int>; v, v, ..."

_BINARY = {ast.Add: RationalFn.__add__, ast.Sub: RationalFn.__sub__,
           ast.Mult: RationalFn.__mul__, ast.Div: RationalFn.__truediv__}


def _parse_expr(text: str, line_no: int, col_offset: int) -> RationalFn:
    """The rational function in n and z that ``text``, the part of line
    ``line_no`` after its first ``col_offset`` characters, spells.

    Python's parser reads it with '^' rewritten to '**' and the leading
    zeros of integers blanked; :func:`_walk` keeps + - * /, signs, '^' with
    an integer up to MAX_DEGREE, parentheses, n, z and integers.
    """
    bad = re.search(r"\*\*|[^\t -~]", text)
    if bad:
        raise RecurrenceParseError(line_no, col_offset + bad.start() + 1,
                                   f"unexpected {bad[0]!r}")
    src = re.sub(r"(?<![\w.])0+(?=[0-9])", lambda m: " " * len(m[0]), text)
    # the text index of each character of the rewritten src, and of its end
    where = [i for i, c in enumerate(src) for _ in range(2 if c == "^" else 1)]
    where.append(len(src))
    src = src.replace("^", "**")
    indent = len(src) - len(src.lstrip(" \t"))
    src, where = src[indent:], where[indent:]

    def error(col: int, msg: str) -> RecurrenceParseError:
        col = col_offset + where[min(col, len(src))] + 1
        return RecurrenceParseError(line_no, col, msg)

    try:
        # the newline makes an error at the end point past it, not at 0
        return _walk(ast.parse(src + "\n", mode="eval").body, src, error)
    except SyntaxError as exc:
        raise error(max((exc.offset or 1) - 1, 0), exc.msg) from None
    except RecurrenceParseError:
        raise
    except (ValueError, ZeroDivisionError) as exc:  # the degree cap, 1/0
        raise error(0, str(exc)) from None
    except (RecursionError, MemoryError):
        raise error(0, "expression nested too deeply") from None


def _walk(node, src: str, error) -> RationalFn:
    """The RationalFn of one node of the parsed expression."""
    op = type(getattr(node, "op", None))
    if isinstance(node, ast.BinOp) and op in _BINARY:
        return _BINARY[op](_walk(node.left, src, error),
                           _walk(node.right, src, error))
    if isinstance(node, ast.BinOp) and op is ast.Pow:
        at = node.right.col_offset  # '^' must be followed by the digits
        e = _integer(node.right, src)
        if e is None or not src[:at].rstrip().endswith("**"):
            raise error(at, "exponent must be a nonnegative integer")
        if e > MAX_DEGREE:
            raise error(at, f"exponent above {MAX_DEGREE} not supported")
        base = _walk(node.left, src, error)
        return reduce(mul, repeat(base, e), RationalFn.const(1))
    if isinstance(node, ast.UnaryOp) and op in (ast.UAdd, ast.USub):
        value = _walk(node.operand, src, error)
        return -value if op is ast.USub else value
    if isinstance(node, ast.Name) and node.id in ("n", "z"):
        return RationalFn.var(node.id)
    if (value := _integer(node, src)) is not None:
        return RationalFn.const(value)
    raise error(node.col_offset,
                "expected a number, 'n', 'z', '(' or one of + - * / ^")


def _integer(node, src: str) -> int | None:
    """The value of a literal written as decimal digits alone, else None."""
    digits = src[node.col_offset:node.end_col_offset]
    return int(digits) if isinstance(node, ast.Constant) and digits.isdigit() else None


def parse_scalar(text: str):
    """The one reader of a number a user writes: a Z on the command line,
    an initial value, an AFE anchor.  An exact Fraction where ``text`` is
    rational ('-1', '1/2', '2.5', '1e400'), else the complex of 'a+bi' or
    'a-bi' (spaces allowed); ValueError for anything else."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse number {text!r}") from None


def _number(text: str, line_no: int, col: int, what: str):
    """:func:`parse_scalar` of ``text`` in a text file: a RecurrenceParseError
    at its line and column, naming ``what``, where it is no number."""
    try:
        return parse_scalar(text)
    except ValueError:
        raise RecurrenceParseError(line_no, col, f"bad {what} {text.strip()!r}") from None


def _parse_coeff_text(text: str, other_keys: str, on_key, build,
                      z_only: bool = False):
    """Line loop shared by the recurrence and AFE text formats.

    Drops '#' comments and blank lines and splits each line at its first
    ':'.  'coeffK' lines become rational functions (in z alone when
    ``z_only``); any other key goes to ``on_key(key, rest, line_no,
    col_offset)``.  Returns ``build(coeffs)`` for the coefficient tuple
    coeff0..coeffR, with a ValueError it raises turned into a
    RecurrenceParseError.
    """
    coeff_map: dict[int, RationalFn] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise RecurrenceParseError(
                line_no, 1, f"expected 'coeffK:' or {other_keys}"
            )
        key, rest = line.split(":", 1)
        key = key.strip()
        col_offset = len(line) - len(rest)
        if not key.startswith("coeff"):
            on_key(key, rest, line_no, col_offset)
            continue
        try:
            k = int(key[5:])
        except ValueError:
            raise RecurrenceParseError(line_no, 1, f"bad coefficient key {key!r}")
        if k in coeff_map:
            raise RecurrenceParseError(line_no, 1, f"duplicate {key!r}")
        rf = _parse_expr(rest, line_no, col_offset)
        if z_only and (rf.num.degree_n() > 0 or rf.den.degree_n() > 0):
            raise RecurrenceParseError(
                line_no, col_offset + 1, "AFE coefficients may involve z only"
            )
        coeff_map[k] = rf
    if not coeff_map:
        raise RecurrenceParseError(1, 1, "no coefficients given")
    order = max(coeff_map)
    missing = [k for k in range(order + 1) if k not in coeff_map]
    if missing:
        raise RecurrenceParseError(1, 1, f"missing coefficients {missing}")
    try:
        return build(tuple(coeff_map[k] for k in range(order + 1)))
    except RecurrenceParseError:
        raise
    except ValueError as exc:
        raise RecurrenceParseError(1, 1, str(exc))


def parse_precurrence(text: str) -> PRecurrence:
    """Parse the one-line-per-coefficient recurrence format.

    Example::

        coeff2: n+z
        coeff1: -(n+z)
        coeff0: -1
        init: n0=1; 0, 1
    """
    init = []

    def on_key(key, rest, line_no, col_offset):
        if key != "init":
            raise RecurrenceParseError(line_no, 1, f"unknown key {key!r}")
        head, _, tail = rest.partition(";")
        head = head.strip()
        if not head.startswith("n0="):
            raise RecurrenceParseError(
                line_no, col_offset + 1, "init line must start with 'n0='"
            )
        try:
            index = int(head[3:])
        except ValueError:
            raise RecurrenceParseError(
                line_no, col_offset + 4, f"bad initial index {head[3:]!r}"
            )
        values = tuple(_number(t, line_no, col_offset + 1, "initial value")
                       for t in tail.split(","))
        init[:] = [index, values]

    def build(coeffs):
        if not init:
            raise RecurrenceParseError(1, 1, "missing 'init:' line")
        return PRecurrence(order=len(coeffs) - 1, coeffs=coeffs,
                           initial_index=init[0], initial_values=init[1])

    return _parse_coeff_text(text, "'init:'", on_key, build)
