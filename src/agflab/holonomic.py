"""P-recursive sequences with rational-function coefficients in (n, z).

A :class:`PRecurrence` stores an order-r linear recurrence
sum_k C_k(n, z) u_{n+k} = 0 whose coefficients are exact rational
functions in the index n and the parameter z.  Forward iteration is
exact (big rationals) whenever z and the initial values are rational,
and numeric otherwise.  The two mirror recurrences, whose connection
constants tie to e and pi, and the Gamma prototype recurrence are built
in, together with the constructive shell sequences n!/(z)_n and
n!/Gamma(n+1-z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import fp

from .complexfn import DOUBLE, PrecisionConfig, _mp_context, _to_ctx, log_gamma

__all__ = [
    "CoefficientPole",
    "PRecurrence",
    "Poly2",
    "RationalFn",
    "RecurrenceParseError",
    "SequencePoint",
    "eval_sequence",
    "gamma_recurrence",
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

    Exact (Fraction) when z and the initial values are rational and no
    explicit digit count is requested; numeric otherwise.  ``digits > 16``
    selects extended-precision accumulation and yields mpmath values;
    ``digits`` in 1..16 forces plain double arithmetic.  Numeric runs past
    n = 10^4 with ``digits=None`` accumulate at 30 digits internally
    (relative rounding compounds over that many steps) but still yield
    double-precision values.

    Numeric values live in an mpmath context (``fp`` for double, a
    private context otherwise), so a live generator holds no global state.
    """
    zval = z if z is not None else rec.param
    if n_max < rec.initial_index + rec.order:
        raise ValueError("n_max must cover at least the initial window")
    if digits is not None and digits > 16:
        convert = _mp_context(digits + 5).convert
    elif digits is None and (zval is None or _is_exact(zval)) and all(
        _is_exact(v) for v in rec.initial_values
    ):
        convert = Fraction
    elif digits is None and n_max > 10_000:
        for n, v in _iterate(rec, zval, n_max, _mp_context(30 + 5).convert):
            v = complex(v)
            yield n, v.real if v.imag == 0 else v
        return
    else:
        convert = fp.convert
    yield from _iterate(rec, zval, n_max, convert)


def _iterate(rec, zval, n_max, convert):
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
