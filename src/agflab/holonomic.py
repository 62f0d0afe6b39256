"""P-recursive sequences with rational-function coefficients in (n, z).

A :class:`PRecurrence` stores an order-r linear recurrence
sum_k C_k(n, z) u_{n+k} = 0 whose coefficients are exact rational
functions in the index n and the parameter z.  Forward iteration is
exact (big rationals) whenever z and the initial values are rational,
and numeric otherwise: in double precision, or in fixed point on Python
ints for long runs and digit counts beyond double.  The two mirror
recurrences, whose connection constants tie to e and pi, and the Gamma
prototype recurrence are built in, together with the constructive shell
sequences n!/(z)_n and n!/Gamma(n+1-z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from mpmath import fp

from .complexfn import (
    DOUBLE,
    MAX_DOUBLE_DIGITS,
    PrecisionConfig,
    _is_mp,
    _mp_context,
    _to_ctx,
    log_gamma,
)

__all__ = [
    "CoefficientPole",
    "PRecurrence",
    "Poly2",
    "RationalFn",
    "RecurrenceParseError",
    "SequencePoint",
    "eval_sequence",
    "gamma_recurrence",
    "iter_numeric",
    "iter_sequence",
    "mirror_e",
    "mirror_pi",
    "parse_precurrence",
    "shell_w",
    "shell_wtilde",
]

MAX_DEGREE = 8


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
    return isinstance(v, (int, Fraction))


# ---------------------------------------------------------------------------
# bivariate polynomials and rational functions

class Poly2:
    """Dense polynomial in (n, z) with exact rational coefficients.

    coeffs[i][j] is the coefficient of n^i z^j; degrees above
    MAX_DEGREE are rejected (the built-ins never exceed degree 1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        rows = [[Fraction(c) for c in row] for row in coeffs]
        if not rows:
            rows = [[Fraction(0)]]
        width = max(len(r) for r in rows)
        for r in rows:
            r.extend([Fraction(0)] * (width - len(r)))
        self.coeffs = rows

    @staticmethod
    def const(c) -> "Poly2":
        return Poly2([[Fraction(c)]])

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
        out = [[Fraction(0)] * nj for _ in range(ni)]
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
        out = [[Fraction(0)] * nj for _ in range(ni)]
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
        out = []
        for row in self.coeffs:
            acc = row[-1] * (z**0)
            for c in reversed(row[:-1]):
                acc = acc * z + c
            out.append(acc)
        return out

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

    def depends_on_z(self) -> bool:
        return self.num.degree_z() > 0 or self.den.degree_z() > 0

    def __add__(self, other: "RationalFn") -> "RationalFn":
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
        den = self.den.eval(n, z)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanished at (n={n}, z={z})")
        return self.num.eval(n, z) / den

    def __repr__(self):
        if self.den == Poly2.const(1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# recurrences

@dataclass(frozen=True)
class SequencePoint:
    n: int
    value: object


@dataclass(frozen=True)
class PRecurrence:
    """Order-r recurrence sum_k coeffs[k](n, z) u_{n+k} = 0 with initials.

    ``param`` records a default z substitution (set by the built-in
    constructors); the z argument of :func:`eval_sequence` overrides it.
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


def _check_coeffs(order: int, coeffs: tuple):
    """Shape of an order-r equation, shared with the AFEs of :mod:`agf`:
    r >= 1 and r + 1 coefficients, the first and last not identically 0."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(coeffs) != order + 1:
        raise ValueError("need order+1 coefficients")
    if coeffs[0].is_zero() or coeffs[-1].is_zero():
        raise ValueError("first and last coefficients must not vanish identically")


def mirror_e(mz=None) -> PRecurrence:
    """u_{n+2} = u_{n+1} + u_n/(n+z), u_1 = 0, u_2 = 1 (e-world mirror).

    In cleared form: (n+z) u_{n+2} - (n+z) u_{n+1} - u_n = 0.
    """
    n_plus_z = Poly2.var("n") + Poly2.var("z")
    return PRecurrence(
        order=2,
        coeffs=(
            RationalFn(Poly2.const(-1)),
            RationalFn(-n_plus_z),
            RationalFn(n_plus_z),
        ),
        initial_index=1,
        initial_values=(Fraction(0), Fraction(1)),
        param=mz,
    )


def mirror_pi(mz=None) -> PRecurrence:
    """v_{n+2} = v_{n+1}/(n+z) + v_n, v_1 = 0, v_2 = 1 (pi-world mirror).

    In cleared form: (n+z) v_{n+2} - v_{n+1} - (n+z) v_n = 0.
    """
    n_plus_z = Poly2.var("n") + Poly2.var("z")
    return PRecurrence(
        order=2,
        coeffs=(
            RationalFn(-n_plus_z),
            RationalFn(Poly2.const(-1)),
            RationalFn(n_plus_z),
        ),
        initial_index=1,
        initial_values=(Fraction(0), Fraction(1)),
        param=mz,
    )


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
    n_ = Poly2.var("n")
    return PRecurrence(
        order=1,
        coeffs=(
            RationalFn(-(n_ + Poly2.const(1))),
            RationalFn(n_ + Poly2.var("z")),
        ),
        initial_index=1,
        initial_values=(w1,),
        param=z,
    )


def _horner(coeff_list, n):
    acc = coeff_list[-1]
    for c in reversed(coeff_list[:-1]):
        acc = acc * n + c
    return acc


def iter_sequence(rec: PRecurrence, z=None, n_max: int = 100, digits: int | None = None):
    """Yield (n, u_n) from the initial index up to n_max by forward iteration.

    Three accumulation modes, chosen from the arguments:

    - exact (``Fraction``) when z and the initial values are rational and
      no digit count is given;
    - fixed point when ``digits`` exceeds :data:`MAX_DOUBLE_DIGITS`, and
      for numeric data past n = 10^4 with ``digits=None`` (at 30 digits
      then, since relative rounding compounds over that many steps);
    - double (Python floats and complexes) otherwise, and for any
      ``digits`` up to :data:`MAX_DOUBLE_DIGITS`.

    Fixed point substitutes z exactly (a float or complex z is a dyadic
    rational), clears every denominator, and iterates on Python ints:
    mantissas of ``ceil(digits * log2(10)) + 64`` bits, Gaussian-integer
    pairs for complex data, under one block exponent.  An explicit
    ``digits`` yields values of a private mpmath context at ``digits + 5``
    digits, the automatic mode yields floats (complexes where the
    imaginary part is nonzero).  No mode reads or changes mpmath's global
    state, so a live generator holds none.
    """
    zval = _start(rec, z, n_max)
    if digits is not None and digits > MAX_DOUBLE_DIGITS:
        yield from _fixed_point(rec, zval, n_max, digits, _mp_context(digits + 5))
    elif digits is None and (zval is None or _is_exact(zval)) and all(
        _is_exact(v) for v in rec.initial_values
    ):
        yield from _iterate(rec, zval, n_max, Fraction)
    else:
        auto = digits is None and n_max > 10_000
        yield from _numeric(rec, zval, n_max, 30 if auto else MAX_DOUBLE_DIGITS)


def iter_numeric(rec: PRecurrence, z=None, n_max: int = 100,
                 digits: int = MAX_DOUBLE_DIGITS):
    """Yield (n, u_n) as Python floats or complexes, whatever the data.

    Accumulates in double arithmetic for ``digits`` up to
    :data:`MAX_DOUBLE_DIGITS` and in the fixed-point mode of
    :func:`iter_sequence` above; for callers that only need numbers, such
    as extrapolation, at no cost for building exact or mpmath values.
    """
    yield from _numeric(rec, _start(rec, z, n_max), n_max, digits)


def _start(rec, z, n_max):
    """The z to substitute, after checking that n_max covers the window."""
    if n_max < rec.initial_index + rec.order:
        raise ValueError("n_max must cover at least the initial window")
    return z if z is not None else rec.param


def _numeric(rec, zval, n_max, digits):
    if digits > MAX_DOUBLE_DIGITS:
        return _fixed_point(rec, zval, n_max, digits, None)
    return _iterate(rec, zval, n_max, fp.convert)


def _iterate(rec, zval, n_max, convert):
    """Exact or double iteration: every value converted by ``convert``."""
    zc = None if zval is None else convert(zval)
    collapsed = [(cf.num.collapse_z(zc), cf.den.collapse_z(zc)) for cf in rec.coeffs]

    window = [convert(v) for v in rec.initial_values]
    r = rec.order
    n0 = rec.initial_index
    for i, v in enumerate(window):
        yield n0 + i, v

    for n in range(n0, n_max - r + 1):
        cvals = []
        for k, (num, den) in enumerate(collapsed):
            d = _horner(den, n)
            if d == 0:
                raise CoefficientPole(n, f"denominator of coefficient {k}")
            cvals.append(_horner(num, n) / d)
        lead = cvals[r]
        if lead == 0:
            raise CoefficientPole(n, "leading coefficient")
        acc = cvals[0] * window[0]
        for k in range(1, r):
            acc += cvals[k] * window[k]
        nxt = -acc / lead
        window = window[1:] + [nxt]
        yield n + r, nxt


def eval_sequence(
    rec: PRecurrence, z=None, n_max: int = 100, digits: int | None = None
) -> list[SequencePoint]:
    """Forward iteration of a recurrence; see :func:`iter_sequence`."""
    return [SequencePoint(n, v) for n, v in iter_sequence(rec, z, n_max, digits)]


# ---------------------------------------------------------------------------
# fixed-point iteration on Python ints

def _to_float(m: int, e: int) -> float:
    """m * 2^e rounded to a float; +-inf beyond the double range."""
    try:
        return math.ldexp(m, e)
    except OverflowError:  # m * 2^e beyond the double range, or m itself
        pass
    if e < 0:
        try:
            return m / (1 << -e)
        except OverflowError:
            pass
    return math.copysign(math.inf, m)


def _mantissa(c: Fraction, e: int) -> int:
    """floor(c / 2^e)."""
    if e < 0:
        return (c.numerator << -e) // c.denominator
    return c.numerator // (c.denominator << e)


def _shift(m: int, s: int) -> int:
    """floor(m / 2^s), for s of either sign."""
    return m >> s if s >= 0 else m << -s


def _exact_parts(v) -> tuple:
    """(Re v, Im v) as Fractions, without rounding: floats and mpmath
    numbers are dyadic rationals."""
    if _is_exact(v):
        return Fraction(v), Fraction(0)
    if _is_mp(v):
        if not v.context.isfinite(v):
            raise ValueError(f"cannot iterate from the value {v}")
        return tuple(Fraction(man) * Fraction(2) ** exp
                     for man, exp in (v.real.man_exp, v.imag.man_exp))
    c = complex(v)
    return Fraction(c.real), Fraction(c.imag)


def _gauss_poly(poly: Poly2, zparts) -> list:
    """poly at z = zparts: its (re, im) Fraction coefficients in n."""
    if zparts is None:
        return [(c, Fraction(0)) for c in poly.collapse_z(None)]
    zr, zi = zparts
    out = []
    for row in poly.coeffs:
        re = im = Fraction(0)
        for c in reversed(row):
            re, im = re * zr - im * zi + c, re * zi + im * zr
        out.append((re, im))
    return out


def _gauss_mul(p: list, q: list) -> list:
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, (a, b) in enumerate(p):
        for j, (c, d) in enumerate(q):
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * d, im + a * d + b * c)
    return out


def _values_from(polys: list, n0: int):
    """Tuples (p(n) for p in polys) for n = n0, n0 + 1, ...: each p is
    advanced by its forward differences, summed by itertools.accumulate."""
    columns = []
    for p in polys:
        diffs = [_horner(p, n0 + i) for i in range(len(p))]
        for i in range(1, len(diffs)):  # diffs[j] becomes the j-th difference
            for j in range(len(diffs) - 1, i - 1, -1):
                diffs[j] -= diffs[j - 1]
        column = repeat(diffs[-1])
        for d in reversed(diffs[:-1]):
            column = accumulate(column, initial=d)
        columns.append(column)
    return zip(*columns)


def _integer_form(rec: PRecurrence, zval):
    """The recurrence at z with its denominators cleared.

    Returns the real and imaginary integer polynomials in n of each
    coefficient, a function building the CoefficientPole of a step n
    where the leading one vanishes, and the initial values as (re, im)
    Fractions.  The equation is multiplied
    by den_r(n) * prod_k den_k(n) and one integer: every coefficient
    becomes a polynomial, and the leading one, num_r * prod_k den_k,
    vanishes exactly at the poles.
    """
    r = rec.order
    zparts = None if zval is None else _exact_parts(zval)
    nums = [_gauss_poly(cf.num, zparts) for cf in rec.coeffs]
    dens = [_gauss_poly(cf.den, zparts) for cf in rec.coeffs]
    cleared = []
    for k, num in enumerate(nums):
        for j, den in enumerate(dens + [dens[r]]):
            if j != k:
                num = _gauss_mul(num, den)
        cleared.append(num)
    scale = math.lcm(*(c.denominator for p in cleared for pair in p for c in pair))
    re_polys = [[int(a * scale) for a, _ in p] for p in cleared]
    im_polys = [[int(b * scale) for _, b in p] for p in cleared]

    def pole(n):  # the first vanishing denominator, else the numerator
        for k, den in enumerate(dens):
            if all(_horner(part, n) == 0 for part in zip(*den)):
                return CoefficientPole(n, f"denominator of coefficient {k}")
        return CoefficientPole(n, "leading coefficient")

    return re_polys, im_polys, pole, [_exact_parts(v) for v in rec.initial_values]


def _fixed_point(rec, zval, n_max, digits, ctx):
    """Fixed-point forward iteration on mantissas times 2^e; yields values
    of ``ctx``, or floats and complexes when ``ctx`` is None."""
    r, n0 = rec.order, rec.initial_index
    re_polys, im_polys, pole, init = _integer_form(rec, zval)
    # The newest mantissa is kept in [2^prec, 2^(prec+64)), renormalised
    # in either direction when it leaves: Gamma-shell values shrink.
    prec = math.ceil(digits * math.log2(10)) + 64
    lo, hi = prec + 1, prec + 64  # bit lengths
    e = max((c.numerator.bit_length() - c.denominator.bit_length()
             for pair in init for c in pair if c), default=0) - prec - 32
    indices = range(n0 + r, n_max + 1)

    if not any(map(any, im_polys)) and not any(b for _, b in init):
        out = _to_float if ctx is None else lambda m, e: ctx.mpf((m, e))
        window = [_mantissa(a, e) for a, _ in init]
        for i, m in enumerate(window):
            yield n0 + i, out(m, e)
        for n, vals in zip(indices, _values_from(re_polys, n0)):
            lead = vals[r]
            if not lead:
                raise pole(n - r)
            m = -sum(map(mul, vals, window)) // lead
            b = m.bit_length()
            if b and not lo <= b <= hi:
                s = b - lo if b > hi else b - hi
                window = [_shift(w, s) for w in window]
                m, e = _shift(m, s), e + s
            window.append(m)
            del window[0]
            yield n, out(m, e)
        return

    if ctx is None:
        def out(x, y, e):
            re, im = _to_float(x, e), _to_float(y, e)
            return re if im == 0 else complex(re, im)
    else:
        def out(x, y, e):
            return ctx.mpc((x, e), (y, e))
    xs = [_mantissa(a, e) for a, _ in init]
    ys = [_mantissa(b, e) for _, b in init]
    for i, (x, y) in enumerate(zip(xs, ys)):
        yield n0 + i, out(x, y, e)
    for n, vals in zip(indices, _values_from(re_polys + im_polys, n0)):
        re, im = vals[:r + 1], vals[r + 1:]
        c, d = re[r], im[r]
        norm = c * c + d * d
        if not norm:
            raise pole(n - r)
        sr = sum(map(mul, re, xs)) - sum(map(mul, im, ys))
        si = sum(map(mul, re, ys)) + sum(map(mul, im, xs))
        # u = -(sr + i si) / (c + i d) = -(sr + i si)(c - i d) / norm
        x = -(sr * c + si * d) // norm
        y = (sr * d - si * c) // norm
        b = max(x.bit_length(), y.bit_length())
        if b and not lo <= b <= hi:
            s = b - lo if b > hi else b - hi
            xs, ys = [_shift(w, s) for w in xs], [_shift(w, s) for w in ys]
            x, y, e = _shift(x, s), _shift(y, s), e + s
        xs.append(x)
        ys.append(y)
        del xs[0], ys[0]
        yield n, out(x, y, e)


# ---------------------------------------------------------------------------
# constructive shells

def shell_w(z, n_max: int) -> list[SequencePoint]:
    """w_n = n!/(z)_n by the iteration w_{n+1} = (n+1)/(n+z) w_n.

    Behaves like Gamma(z) n^(1-z) for large n; z = 0 and the negative
    integers -1, ..., -(n_max - 1) are excluded.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if z == 0:
        raise CoefficientPole(0, "1/z initial value")
    exact = _is_exact(z)
    w = Fraction(1, 1) / z if exact else 1.0 / complex(z)
    zc = z if exact else complex(z)
    out = [SequencePoint(1, w)]
    for n in range(1, n_max):
        d = n + zc
        if d == 0:
            raise CoefficientPole(n, "n+z")
        w = w * (n + 1) / d
        out.append(SequencePoint(n + 1, w))
    return out


def shell_wtilde(z, n: int, cfg: PrecisionConfig = DOUBLE):
    """n!/Gamma(n+1-z), evaluated through log-gamma differences.

    Satisfies w_{n+1}(z) = (n+1)/(n+1-z) w_n(z) and
    w_n(z+1) = (n-z) w_n(z); behaves like n^z for large n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    ctx = cfg.ctx
    zz = _to_ctx(z, ctx)
    return ctx.exp(log_gamma(n + 1, cfg) - log_gamma(n + 1 - zz, cfg))


# ---------------------------------------------------------------------------
# text format: "coeffK: <expr in n, z>" lines plus "init: n0=<int>; v, v, ..."

class _ExprParser:
    def __init__(self, text: str, line_no: int, col_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.col_offset = col_offset

    def error(self, msg: str):
        raise RecurrenceParseError(self.line_no, self.col_offset + self.pos + 1, msg)

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> RationalFn:
        v = self.expr()
        if self.peek():
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return v

    def expr(self) -> RationalFn:
        v = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                v = v + self.term()
            elif c == "-":
                self.pos += 1
                v = v - self.term()
            else:
                return v

    def term(self) -> RationalFn:
        v = self.unary()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                v = v * self.unary()
            elif c == "/":
                self.pos += 1
                v = v / self.unary()
            else:
                return v

    def unary(self) -> RationalFn:
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.unary()
        if c == "+":
            self.pos += 1
            return self.unary()
        return self.power()

    def power(self) -> RationalFn:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            if not self.peek().isdigit():
                self.error("exponent must be a nonnegative integer")
            e = self._integer()
            if e > MAX_DEGREE:
                self.error(f"exponent above {MAX_DEGREE} not supported")
            out = RationalFn.const(1)
            for _ in range(e):
                out = out * base
            return out
        return base

    def atom(self) -> RationalFn:
        c = self.peek()
        if c == "(":
            self.pos += 1
            v = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return v
        if c in ("n", "z"):
            self.pos += 1
            return RationalFn.var(c)
        if c.isdigit():
            return RationalFn.const(self._integer())
        self.error("expected a number, 'n', 'z', or '('")

    def _integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])


def _parse_init_value(tok: str, line_no: int, col: int):
    tok = tok.strip()
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return float(tok)
    except ValueError:
        raise RecurrenceParseError(line_no, col, f"bad initial value {tok!r}")


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
        rf = _ExprParser(rest, line_no, col_offset).parse()
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
        values = tuple(
            _parse_init_value(t, line_no, col_offset + 1) for t in tail.split(",")
        )
        init[:] = [index, values]

    def build(coeffs):
        if not init:
            raise RecurrenceParseError(1, 1, "missing 'init:' line")
        return PRecurrence(order=len(coeffs) - 1, coeffs=coeffs,
                           initial_index=init[0], initial_values=init[1])

    return _parse_coeff_text(text, "'init:'", on_key, build)
