import dataclasses
import json
import math
from fractions import Fraction
from itertools import islice
from operator import mul

import pytest
from mpmath import mpf

from agflab import holonomic
from agflab.holonomic import (
    CoefficientPole,
    PRecurrence,
    Poly2,
    RationalFn,
    RecurrenceParseError,
    exact_series,
    gamma_recurrence,
    iter_sequence,
    iter_values_at,
    mirror_e,
    mirror_pi,
    numeric_digits,
    parse_precurrence,
)
from agflab.holonomic import (
    _fixed_point,
    _integer_form,
    _power_differences,
    _values_from,
    _Window,
)

SQRT_PI = math.sqrt(math.pi)


def with_z(rec: PRecurrence, z) -> PRecurrence:
    """rec stepping at z, as the seq command gives a parsed file its z."""
    return dataclasses.replace(rec, param=z)


def naive_mirror_e(m: Fraction, n_max: int) -> list[Fraction]:
    """Independent oracle: iterate u_{n+2} = u_{n+1} + u_n/(n+m) directly."""
    u = [None, Fraction(0), Fraction(1)]
    for n in range(1, n_max - 1):
        u.append(u[n + 1] + u[n] / (n + m))
    return u[1 : n_max + 1]


def naive_mirror_pi(m: Fraction, n_max: int) -> list[Fraction]:
    v = [None, Fraction(0), Fraction(1)]
    for n in range(1, n_max - 1):
        v.append(v[n + 1] / (n + m) + v[n])
    return v[1 : n_max + 1]


# ---------------------------------------------------------------------------
# polynomial / rational function layer

def test_poly2_basics():
    n, z = Poly2.var("n"), Poly2.var("z")
    p = (n + z) * (n - z)
    assert p.eval(3, 2) == 5
    assert p.degree_n() == 2 and p.degree_z() == 2
    assert (p - p).is_zero()
    assert Poly2.const(0).is_zero()
    assert p.eval(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 4) - Fraction(1, 9)


def test_poly2_keeps_integral_coefficients_as_int():
    p = Poly2([[Fraction(4, 2), Fraction(1, 2)], [-3]])
    assert p.coeffs == [[2, Fraction(1, 2)], [-3, 0]]
    assert [type(c) for c in p.coeffs[0] + p.coeffs[1]] == [int, Fraction, int, int]
    # integer coefficients still give an exact quotient
    assert RationalFn(Poly2.const(1), Poly2.const(3)).eval(0, None) == Fraction(1, 3)


def test_poly2_complex_eval():
    n, z = Poly2.var("n"), Poly2.var("z")
    p = n + z
    assert p.eval(2, complex(0, 1)) == complex(2, 1)


@pytest.mark.parametrize("z", [Fraction(1, 3), complex(0.5, 1), mpf("0.25")], ids=repr)
def test_collapse_z_of_constant_rows_keeps_the_type_of_z(z):
    p = Poly2([[Fraction(3, 2)], [-2]])  # 3/2 - 2n: no row depends on z
    out = p.collapse_z(z)
    assert out == [Fraction(3, 2), -2]
    assert [type(c) for c in out] == [type(z), type(z)]


def test_rationalfn_arithmetic():
    n = RationalFn.var("n")
    z = RationalFn.var("z")
    one = RationalFn.const(1)
    r = one / (n + z)
    assert r.eval(3, 1) == Fraction(1, 4)
    s = r + r
    assert s.eval(3, 1) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        r.eval(1, -1)
    with pytest.raises(ZeroDivisionError):
        one / (n - n)


def test_precurrence_validation():
    n_plus_z = Poly2.var("n") + Poly2.var("z")
    with pytest.raises(ValueError):
        PRecurrence(2, (RationalFn.const(0), RationalFn.const(1),
                        RationalFn(n_plus_z)), 1, (0, 1))
    with pytest.raises(ValueError):
        PRecurrence(2, (RationalFn.const(1), RationalFn.const(1),
                        RationalFn(n_plus_z)), 1, (0,))


# ---------------------------------------------------------------------------
# the mirror recurrences

def test_mirror_e_first_values():
    expect = naive_mirror_e(Fraction(0), 5)
    assert expect == [0, 1, 1, Fraction(3, 2), Fraction(11, 6)]
    got = [v for _, v in iter_sequence(mirror_e(0), n_max=5)]
    assert got == expect


def test_mirror_pi_first_values():
    expect = naive_mirror_pi(Fraction(0), 5)
    assert expect == [0, 1, 1, Fraction(3, 2), Fraction(3, 2)]
    got = [v for _, v in iter_sequence(mirror_pi(0), n_max=5)]
    assert got == expect


def test_built_in_rows_are_built_once():
    n, z, one = Poly2.var("n"), Poly2.var("z"), Poly2.const(1)
    for make, rows in ((mirror_e, (-one, -(n + z), n + z)),
                       (mirror_pi, (-(n + z), -one, n + z)),
                       (gamma_recurrence, (-(n + one), n + z))):
        a, b = make(1), make(2)
        assert a.coeffs is b.coeffs
        assert [(c.num, c.den) for c in a.coeffs] == [(p, one) for p in rows]
        assert a.cleared[0] != b.cleared[0]  # each clears its equation at its z


def test_mirror_single_steps():
    assert dict(iter_sequence(mirror_e(1), n_max=3))[3] == 1  # u_3 = u_2 + u_1/2
    assert dict(iter_sequence(mirror_pi(2), n_max=3))[3] == Fraction(1, 3)
    assert dict(iter_sequence(mirror_pi(0), n_max=4))[4] == Fraction(3, 2)


@pytest.mark.parametrize("m", [0, 1, 5])
def test_exactness_against_naive_oracle(m):
    got_e = [v for _, v in iter_sequence(mirror_e(m), n_max=500)]
    assert got_e == naive_mirror_e(Fraction(m), 500)
    got_pi = [v for _, v in iter_sequence(mirror_pi(m), n_max=500)]
    assert got_pi == naive_mirror_pi(Fraction(m), 500)


def test_exactness_rational_parameter():
    m = Fraction(1, 3)
    got = [v for _, v in iter_sequence(mirror_e(m), n_max=200)]
    assert got == naive_mirror_e(m, 200)


def test_missing_and_complex_parameter():
    rec = mirror_e()  # no parameter baked in
    with pytest.raises(ValueError):
        list(iter_sequence(rec, n_max=5))
    zc = complex(-0.5, 0.8)
    pts = dict(iter_sequence(mirror_e(zc), n_max=6))
    # one manual step: u_3 = u_2 + u_1/(1+z) = 1
    assert abs(pts[3] - 1) < 1e-15
    assert type(pts[6]).__name__ == "mpc"


def test_mpmath_parameter_keeps_its_sign():
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 35
    for z in (complex(-1.5, 0.25), complex(0.5, -0.75)):
        got = list(iter_sequence(mirror_e(ctx.mpc(z)), n_max=8))
        assert got == list(iter_sequence(mirror_e(z), n_max=8))


def test_mirror_limit_e_at_ten_thousand():
    last = None
    for n, v in iter_sequence(mirror_e(0), n_max=10**4, digits=15):
        last = v
    assert abs(10**4 / last - math.e) < 5e-4  # at least 3 decimals


def test_extended_accumulation_kicks_in_past_1e4():
    vals = {n: v for n, v in iter_sequence(mirror_e(0.0), n_max=10_368)}
    assert type(vals[10_368]).__name__ == "mpf"
    assert abs(vals[10_368] / 10_368 - 1 / math.e) < 1e-12


def test_live_generators_leave_mpmath_precision_alone():
    import mpmath

    low = iter_sequence(mirror_e(1), n_max=100, digits=30)
    high = iter_sequence(mirror_e(1), n_max=100, digits=60)
    next(low)
    next(high)
    low.close()
    high.close()
    assert mpmath.mp.dps == 15


def test_width2_standard_form_on_exact_windows():
    # cleared form (n+m) u_{n+2} - (n+m) u_{n+1} - u_n = 0 on 100 windows
    m = 3
    vals = naive_mirror_e(Fraction(m), 102)
    u = {n: vals[n - 1] for n in range(1, 103)}
    for n in range(1, 101):
        assert (n + m) * u[n + 2] - (n + m) * u[n + 1] - u[n] == 0
    # the stored coefficients are exactly those cleared polynomials
    rec = mirror_e()
    for n, zv in [(1, 0), (4, 7), (10, Fraction(1, 2))]:
        assert rec.coeffs[2].eval(n, zv) == n + zv
        assert rec.coeffs[1].eval(n, zv) == -(n + zv)
        assert rec.coeffs[0].eval(n, zv) == -1


def test_coefficient_pole_reported():
    with pytest.raises(CoefficientPole) as info:
        list(iter_sequence(mirror_e(-1), n_max=20))
    assert info.value.n == 1
    with pytest.raises(CoefficientPole) as info:
        list(iter_sequence(mirror_e(-5), n_max=20))
    assert info.value.n == 5


# ---------------------------------------------------------------------------
# shells

def shell(z, n_max: int) -> list:
    """The shell w_n = n!/(z)_n for n = 1..n_max, the sequence of
    gamma_recurrence(z)."""
    return [v for _, v in iter_sequence(gamma_recurrence(z), n_max=n_max)]


def rising(z, n: int) -> Fraction:
    """The rising factorial (z)_n = z (z+1) ... (z+n-1), exactly."""
    return math.prod((Fraction(z) + j for j in range(n)), start=Fraction(1))


def test_shell_w_values():
    assert all(v == 1 for v in shell(1, 6))
    # n!/(2)_n = 1/(n+1)
    assert shell(2, 4) == [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]
    # factorial oracle at a rational z
    z = Fraction(1, 2)
    assert shell(z, 8)[-1] == Fraction(math.factorial(8)) / rising(z, 8)
    with pytest.raises(CoefficientPole):
        shell(-3, 10)
    with pytest.raises(ValueError):
        gamma_recurrence(0)


def test_shell_w_single_point():
    # w_1 = 1/z comes before any pole
    assert next(iter_sequence(gamma_recurrence(Fraction(1, 2)), n_max=2)) == (1, 2)
    steps = iter_sequence(gamma_recurrence(-1), n_max=2)
    assert next(steps) == (1, Fraction(-1))
    with pytest.raises(CoefficientPole) as info:
        next(steps)
    assert info.value.n == 1


def test_shell_w_gamma_limit():
    z = 0.5
    n = 10**4
    approx = shell(z, n)[-1] * n ** (z - 1)
    assert abs(approx - SQRT_PI) < 1e-3 * SQRT_PI


def test_gamma_recurrence_matches_shell_w():
    z = Fraction(1, 2)
    assert shell(z, 50) == [Fraction(math.factorial(n)) / rising(z, n)
                            for n in range(1, 51)]


# ---------------------------------------------------------------------------
# text format

EXAMPLE_TEXT = """
# e-world mirror in cleared form
coeff2: n+z
coeff1: -(n+z)
coeff0: -1
init: n0=1; 0, 1
"""


def test_parse_precurrence_roundtrip():
    rec = parse_precurrence(EXAMPLE_TEXT)
    assert rec.order == 2
    assert rec.initial_index == 1
    got = [v for _, v in iter_sequence(with_z(rec, 0), n_max=5)]
    assert got == [0, 1, 1, Fraction(3, 2), Fraction(11, 6)]


def test_parse_precurrence_expressions():
    rec = parse_precurrence(
        "coeff1: (n+2)*(n+z)^2/3\ncoeff0: -n^2+1/2\ninit: n0=1; 1"
    )
    assert rec.coeffs[1].eval(2, 1) == Fraction(4 * 9, 3)
    assert rec.coeffs[0].eval(3, 0) == Fraction(-17, 2)


def test_degree_cap_enforced():
    with pytest.raises(RecurrenceParseError):
        parse_precurrence("coeff1: n^9\ncoeff0: 1\ninit: n0=1; 1")
    n = Poly2.var("n")
    p = Poly2.const(1)
    with pytest.raises(ValueError):
        for _ in range(9):
            p = p * n


def test_sum_over_a_shared_denominator_keeps_it():
    # nine equal terms add over their one denominator, to degree 1; nine
    # distinct denominators multiply out to degree 9
    same = "+".join(["1/(n+1)"] * 9)
    rec = parse_precurrence(f"coeff1: {same}\ncoeff0: -1\ninit: n0=1; 1")
    assert repr(rec.coeffs[1]) == "(9)/(1+n)"
    distinct = "+".join(f"1/(n+{k})" for k in range(1, 10))
    with pytest.raises(RecurrenceParseError, match="degree above 8"):
        parse_precurrence(f"coeff1: {distinct}\ncoeff0: -1\ninit: n0=1; 1")


def test_parse_errors_report_position():
    with pytest.raises(RecurrenceParseError) as info:
        parse_precurrence("coeff0: n+\ninit: n0=1; 1")
    assert info.value.line == 1
    assert info.value.col > 8
    with pytest.raises(RecurrenceParseError) as info:
        parse_precurrence("coeff1: n +% z\ncoeff0: 1\ninit: n0=1; 1")
    assert info.value.line == 1
    with pytest.raises(RecurrenceParseError):
        parse_precurrence("coeff1: n\ninit: n0=1; 1, 2")  # wrong initial count
    with pytest.raises(RecurrenceParseError):
        parse_precurrence("coeff1: n\n")  # missing init
    with pytest.raises(RecurrenceParseError):
        parse_precurrence("coeff2: n\ncoeff0: 1\ninit: n0=1; 1, 2")  # gap


def test_initial_values_take_the_grammar_of_z():
    rec = parse_precurrence("coeff2: n+z\ncoeff1: -(n+z)\ncoeff0: -1\n"
                            "init: n0=1; 0.7, 1+2i")
    assert rec.initial_values == (Fraction(7, 10), complex(1, 2))
    assert type(rec.initial_values[0]) is Fraction  # exact, not the double
    with pytest.raises(RecurrenceParseError, match="bad initial value '1/3\\+2i'") as info:
        parse_precurrence("coeff1: n\ncoeff0: 1\n\ninit: n0=1;  1/3+2i")
    assert (info.value.line, info.value.col) == (4, 6)


# Every coefficient text the tests parse, and the built-in AFEs as
# format_agf_spec writes them, with the repr of the coefficient it gives.
PARSED_COEFFICIENTS = [
    ("n+z", "z+n"),
    ("-(n+z)", "-z-n"),
    ("-1", "-1"),
    ("(n+2)*(n+z)^2/3", "(2*z^2+4*n*z+n*z^2+2*n^2+2*n^2*z+n^3)/(3)"),
    ("-n^2+1/2", "(1-2*n^2)/(2)"),
    ("(n+z)/(n+1)", "(z+n)/(1+n)"),
    ("-1/(2*n+1)", "(-1)/(1+2*n)"),
    ("1/(n-3)", "(1)/(-3+n)"),
    ("n", "n"),
    ("1", "1"),
    ("z", "z"),
    ("n+1", "1+n"),
    ("2+z", "2+z"),
    ("-2-z", "-2-z"),
    ("(1)/(1+z)", "(1)/(1+z)"),
    ("\t007 * n ^ 02 - -+z", "z+7*n^2"),  # tabs, leading zeros, signs
    ("2^3*n^0", "8"),
]


@pytest.mark.parametrize("expr, want", PARSED_COEFFICIENTS)
def test_parsed_coefficient_repr(expr, want):
    rec = parse_precurrence(f"coeff1: {expr}\ncoeff0: 1\ninit: n0=1; 1")
    assert repr(rec.coeffs[1]) == want


@pytest.mark.parametrize("expr", [
    "1.5", "0x10", "1_000", "n**2", "f(n)", "n.real", "n^z", "n^-1",
    "2^3^2", "n^9", "n^(2)", "\u00b2", "", "1/0", "n^4*n^5", "n if z else 1",
])
def test_parse_rejects_outside_the_grammar(expr):
    with pytest.raises(RecurrenceParseError) as info:
        parse_precurrence(f"coeff1: {expr}\ncoeff0: 1\ninit: n0=1; 1")
    assert info.value.line == 1 and info.value.col >= 8


def test_parse_error_column_is_in_the_original_text():
    # each '^' is two characters in the text Python parses; the unclosed
    # '(' is the 17th character of the line, '%' the 14th
    with pytest.raises(RecurrenceParseError) as info:
        parse_precurrence("coeff1: n^2+z^2+(z\ncoeff0: 1\ninit: n0=1; 1")
    assert info.value.col == 17
    with pytest.raises(RecurrenceParseError) as info:
        parse_precurrence("coeff1: n^2 +% z\ncoeff0: 1\ninit: n0=1; 1")
    assert info.value.col == 14


# ---------------------------------------------------------------------------
# fixed-point mode against an independent route

def mp_oracle(rec, n_max: int) -> dict:
    """u_n for n <= n_max by the recurrence in a private 60-digit mpmath
    context, each coefficient taken from its exact rational function."""
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 60
    zc = None if rec.param is None else ctx.convert(rec.param)
    coeffs = [([ctx.convert(c) for c in cf.num.collapse_z(zc)],
               [ctx.convert(c) for c in cf.den.collapse_z(zc)]) for cf in rec.coeffs]
    window = [ctx.convert(v) for v in rec.initial_values]
    out = {rec.initial_index + i: v for i, v in enumerate(window)}
    for n in range(rec.initial_index, n_max - rec.order + 1):
        c = [ctx.polyval(num[::-1], n) / ctx.polyval(den[::-1], n)
             for num, den in coeffs]
        nxt = -ctx.fsum(ck * wk for ck, wk in zip(c, window)) / c[-1]
        window = window[1:] + [nxt]
        out[n + rec.order] = nxt
    return out


USER_TEXT = """
coeff2: (n+z)/(n+1)
coeff1: -1
coeff0: -1/(2*n+1)
init: n0=1; 0.5, 1
"""
USER = parse_precurrence(USER_TEXT)


FIXED_POINT_CASES = [
    (mirror_e(3), 30),
    (mirror_pi(3), 30),
    (mirror_e(3.0), None),
    (mirror_e(Fraction(1, 3)), 30),
    (mirror_pi(Fraction(5, 4)), 30),
    (mirror_e(complex(2.5, 1.25)), None),
    (mirror_pi(complex(0.25, -1.5)), None),
    (mirror_pi(complex(0.25, -1.5)), 30),
    (gamma_recurrence(Fraction(7, 2)), 30),   # values shrink like n^-2.5
    (gamma_recurrence(3.5), None),
    (gamma_recurrence(complex(3.5, 0.75)), None),
    (gamma_recurrence(Fraction(25, 2)), 30),  # shrinks by 2^-130 to n = 2^14
    (gamma_recurrence(complex(12.5, 0.5)), 30),
    (with_z(USER, 0.75), None),
    (with_z(USER, 0.75), 30),
]
FIXED_POINT_IDS = ["e-int", "pi-int", "e-float", "e-p/q", "pi-p/q", "e-complex",
                   "pi-complex", "pi-complex-30", "gamma-p/q", "gamma-float",
                   "gamma-complex", "gamma-shrink", "gamma-shrink-complex",
                   "user", "user-30"]


@pytest.mark.parametrize("rec, digits", FIXED_POINT_CASES, ids=FIXED_POINT_IDS)
def test_fixed_point_against_60_digit_iteration(rec, digits):
    n_max = 2**14
    want = mp_oracle(rec, n_max)
    got = dict(iter_sequence(rec, n_max, digits=digits))
    assert sorted(got) == sorted(want)
    # digits=None runs at 30 digits too (numeric data): 1e-28 either way
    for n, v in got.items():
        assert type(v).__name__ in ("mpf", "mpc")
        assert abs(v - want[n]) <= 1e-28 * abs(want[n]), n


@pytest.mark.parametrize("rec", [
    mirror_e(complex(2.5, 1.25)),
    gamma_recurrence(3.5),
], ids=["e-complex", "gamma-float"])
def test_short_numeric_runs_are_correctly_rounded(rec):
    n_max = 2000
    want = mp_oracle(rec, n_max)
    for digits in (None, 15):
        got = dict(iter_sequence(rec, n_max, digits=digits))
        assert sorted(got) == sorted(want)
        for n, v in got.items():
            assert abs(complex(v) - want[n]) <= 2.0**-52 * abs(want[n]), (digits, n)


# a lambda = 2 growth, u_n = 2^n / (n + 1)
DOUBLING = parse_precurrence("coeff1: n+2\ncoeff0: -2*(n+1)\ninit: n0=0; 1")
# u_{n+1} = (n+1)/(n+1000) u_n loses 30 to 150 bits a block of 16 steps
# before n = 400 (and leaves the double range near n = 800)
SHRINKING = parse_precurrence(
    f"coeff1: n+1000\ncoeff0: -(n+1)\ninit: n0=1; {2.0**1000}")


def doubles(values) -> list:
    """Each value rounded to a Python complex."""
    return [complex(v) for v in values]


def exact_parts(v) -> tuple:
    """(Re v, Im v) as Fractions, with no rounding: a Fraction as it is, a
    float or complex part as the dyadic rational it holds."""
    if isinstance(v, (int, Fraction)):
        return Fraction(v), Fraction(0)
    return Fraction(complex(v).real), Fraction(complex(v).imag)


def gaussian_iteration(rec: PRecurrence, n_max: int) -> dict:
    """u_n for n <= n_max as (x, y, D), u_n = (x + iy)/D, at a z and
    initial values with rational (say dyadic) real and imaginary parts.
    Each coefficient's numerator and denominator are substituted at z once,
    in Gaussian Fractions, and scaled to Gaussian-integer polynomials in n;
    the steps run on Gaussian integers over one common denominator, which
    every step multiplies by the scale of its equation.  It shares no code
    with either engine."""
    zr, zi = exact_parts(rec.param)

    def in_n(poly):  # Gaussian-int coefficients of n^0, n^1, ..., and their scale
        rows = []
        for row in poly.coeffs:
            re = im = Fraction(0)
            pr, pi = Fraction(1), Fraction(0)  # z^j
            for c in row:
                re, im = re + c * pr, im + c * pi
                pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
            rows.append((re, im))
        scale = math.lcm(*(c.denominator for pair in rows for c in pair))
        return [(int(a * scale), int(b * scale)) for a, b in rows], scale

    def at(poly, n):
        a = b = 0
        for c, d in reversed(poly):
            a, b = a * n + c, b * n + d
        return a, b

    coeffs = [(in_n(cf.num), in_n(cf.den)) for cf in rec.coeffs]
    parts = [exact_parts(v) for v in rec.initial_values]
    den = math.lcm(*(c.denominator for pair in parts for c in pair))
    window = [(int(a * den), int(b * den)) for a, b in parts]
    r, n0 = rec.order, rec.initial_index
    out = {n0 + i: (*w, den) for i, w in enumerate(window)}
    for n in range(n0, n_max - r + 1):
        fractions = []  # each coefficient as (p + iq) / s
        for (num, ln), (dn, ld) in coeffs:
            (a, b), (c, d) = at(num, n), at(dn, n)
            fractions.append(((a * c + b * d) * ld, (b * c - a * d) * ld,
                              (c * c + d * d) * ln))
        scale = math.prod(s for _, _, s in fractions)
        C = [(p * (scale // s), q * (scale // s)) for p, q, s in fractions]
        sx = sum(a * x - b * y for (a, b), (x, y) in zip(C, window))
        sy = sum(a * y + b * x for (a, b), (x, y) in zip(C, window))
        cr, ci = C[r]
        norm = cr * cr + ci * ci
        assert norm, n
        # u_{n+r} = -(sx + i sy)(cr - i ci) / (norm den)
        window = [(x * norm, y * norm) for x, y in window[1:]]
        window.append((-(sx * cr + sy * ci), sx * ci - sy * cr))
        den *= norm
        out[n + r] = (*window[-1], den)
    return out


def test_gaussian_iteration_matches_the_exact_engine():
    for rec in (with_z(USER, Fraction(3, 4)), gamma_recurrence(Fraction(-5, 2))):
        want = dict(iter_sequence(rec, 200))
        got = {n: Fraction(x, d) for n, (x, y, d) in gaussian_iteration(rec, 200).items()
               if not y}
        assert got == want


def exact_reference(rec: PRecurrence, n_max: int) -> dict:
    """u_n for n <= n_max to 240 bits, from exact values: those of the
    exact engine (:func:`exact_series`, numerators over one denominator)
    where z and the initial values are real (a float is a dyadic
    rational), else those of :func:`gaussian_iteration`."""
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.prec = 240

    def near(x, d):  # x/d to 240 bits, without handing mpmath the big ints
        s = 240 - x.bit_length() + d.bit_length()
        return ctx.mpf(((x << s) // d if s >= 0 else x // (d << -s), -s))

    values = [exact_parts(v) for v in (rec.param or 0, *rec.initial_values)]
    if not any(im for _, im in values):
        z, *init = (re for re, _ in values)
        real = dataclasses.replace(rec, param=None if rec.param is None else z,
                                   initial_values=tuple(init))
        nums, den = exact_series(real, n_max)
        return {n: near(x, den) for n, x in enumerate(nums) if n >= rec.initial_index}
    return {n: ctx.mpc(near(x, d), near(y, d))
            for n, (x, y, d) in gaussian_iteration(rec, n_max).items()}


def assert_values_at_match_exact(rec, digits=None, n_max=2048):
    """Both ways into the fixed-point engine against exact values, within
    the 1e-28 of the fixed-point tests: every u_n of iter_sequence at 30
    digits, and iter_values_at on ladders from 1024 and from 100 (no
    multiple of the block size)."""
    want = exact_reference(rec, n_max)
    for n, v in iter_sequence(rec, n_max, 30):
        assert abs(v - want[n]) <= 1e-28 * abs(want[n]), n
    for base in (1024, 100):
        ns = [base * 2**k for k in range(6) if base * 2**k <= n_max]
        for n, v in zip(ns, iter_values_at(rec, ns, digits), strict=True):
            assert abs(v - want[n]) <= 1e-28 * abs(want[n]), (base, n)


@pytest.mark.parametrize("rec, digits", FIXED_POINT_CASES, ids=FIXED_POINT_IDS)
def test_values_at_equals_iter_numeric(rec, digits):
    assert_values_at_match_exact(rec, digits)


@pytest.mark.parametrize("rec", [
    DOUBLING,
    SHRINKING,
    mirror_e(complex(2.5, 1.25)),
    with_z(USER, complex(0.75, 0.5)),
], ids=["doubling", "shrinking", "e-complex", "user-complex"])
def test_values_at_block_cases(rec):
    # the doubling values pass the double range at n = 1024
    assert_values_at_match_exact(rec)


def test_values_at_block_size_follows_the_degree():
    assert _Window(mirror_e(3), 30).block_size() == 16
    user = _Window(with_z(USER, 0.75), 30)
    assert user.degree == 3 and 1 < user.block_size() < 16


def test_complex_values_drop_a_part_below_the_precision():
    # w_3 = 3!/((1+i)(2+i)(3+i)) = -0.6i: the real part is the floor
    # divisions' residue, about 1e-59 of the imaginary part
    rec = gamma_recurrence(1 + 1j)
    for v in (dict(iter_sequence(rec, 4))[3], *iter_values_at(rec, [3])):
        assert v.real == 0 and complex(v) == -0.6j


def test_values_at_inside_the_initial_window():
    rec = with_z(USER, 0.75)
    want = dict(_fixed_point(rec, 40, 30))
    ns = [1, 2, 3, 17, 18, 40]
    assert doubles(iter_values_at(rec, ns)) == doubles(want[n] for n in ns)
    assert doubles(iter_values_at(rec, [2])) == [complex(want[2])]
    assert list(iter_values_at(rec, [])) == []
    for bad in ([0, 5], [5, 5], [7, 6]):
        with pytest.raises(ValueError):
            list(iter_values_at(rec, bad))


def reference_block(win, m, k):
    """B and D of the block of k steps from m, by the k products of the
    companion matrices, each step in turn: the tuple of _Window.blocks."""
    r = win.r
    one, zero = (1, 0) if win.real else ((1, 0), (0, 0))
    cols = [[one if i == j else zero for i in range(r)] for j in range(r)]
    D = one
    for vals in islice(_values_from(win.polys, m), k):
        if win.real:
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
    flat = [w[i] for i in range(r) for w in cols] + [D]
    return tuple(flat if win.real else [x for x, _ in flat] + [y for _, y in flat])


@pytest.mark.parametrize("rec, degree, zero_ds", [
    (parse_precurrence("coeff2: 1\ncoeff1: -1\ncoeff0: -1\ninit: n0=0; 0, 1"), 0, 0),
    (mirror_e(3), 1, 0),
    (mirror_pi(complex(0.25, -1.5)), 1, 0),
    (with_z(parse_precurrence("coeff1: n^2+z\ncoeff0: -(2*n^2+1)\ninit: n0=0; 1"),
            Fraction(1, 3)), 2, 0),
    (with_z(USER, 0.75), 3, 0),
    (with_z(USER, complex(0.75, 0.5)), 3, 0),
    (with_z(parse_precurrence("coeff1: n^4+1\ncoeff0: -(n^2+z)*(n^2-3)\ninit: n0=2; 1"),
            complex(0.5, 1)), 4, 0),
    (parse_precurrence("coeff1: n+20\ncoeff0: -(n-3)\ninit: n0=-7; 1"), 1, 0),
    (SHRINKING, 1, 0),
    (mirror_e(-40), 1, 1),  # D = 0 on the block over n = 40
], ids=["fibonacci", "e-int", "pi-complex", "degree-2", "user-real", "user-complex",
        "degree-4-complex", "negative-start", "shrinking", "zero-D"])
def test_blocks_equal_the_step_by_step_products(rec, degree, zero_ds):
    win = _Window(rec, 30)
    k = win.block_size()
    assert win.degree == degree and k > 1
    count = k * degree + 4  # past the values the entries are read from
    n0 = rec.initial_index
    for start in (n0, n0 + (1 - n0 - win.r) % k):  # the first and the aligned grid
        want = [reference_block(win, m, k) for m in range(start, start + count * k, k)]
        assert list(islice(win.blocks(k, start), count)) == want, start
        h = win.r**2  # D, or its real and imaginary parts, at h and 2h + 1
        assert sum(not any(b[h::h + 1]) for b in want) == zero_ds


def partial_calls(monkeypatch) -> list:
    """(m, j) for each later block of j < K steps that a window crosses."""
    calls = []
    partial = _Window._partial

    def spy(self, m, j):
        calls.append((m, j))
        return partial(self, m, j)

    monkeypatch.setattr(_Window, "_partial", spy)
    return calls


@pytest.mark.parametrize("argv", [
    ["e", "3"], ["pi", "4"], ["gamma", "7/3"], ["e", "2.5+1i"],
])
def test_limit_single_steps_only_up_to_the_block_grid(argv, monkeypatch, capsys):
    from agflab.cli import main

    calls = partial_calls(monkeypatch)
    assert main(["limit", *argv]) == 0
    capsys.readouterr()
    # from n0 = 1, the window u_m..u_{m+r-1} ends at a multiple of K = 16
    # from m = 15 (order 2) or m = 16 (order 1) on, and so does every
    # sample n_base 2^k: one block of p = 14 or 15 steps, then whole blocks
    r = 1 if argv[0] == "gamma" else 2
    assert calls == [(1, 16 - r)]


def test_limit_ends_off_grid_gaps_in_partial_blocks(monkeypatch, capsys):
    from agflab.cli import main

    calls = partial_calls(monkeypatch)
    assert main(["limit", "e", "3", "--n-base", "100", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"][:4] == [100, 200, 400, 800]
    # u_100 needs the window from m = 99: 4 steps of the block from 95, whose
    # other 12 start the next gap; the same at 200, and 400 = 25 * 16 and
    # 800 are read at block edges
    assert calls == [(1, 14), (95, 4), (99, 12), (191, 8), (199, 8)]


@pytest.mark.parametrize("z", ["3", "2.5+1i"])
def test_limit_builds_one_value_per_sample(z, monkeypatch, capsys):
    from agflab.cli import main

    built = []
    init = _Window.__init__

    def spy(self, rec, digits):
        init(self, rec, digits)
        out = self.out

        def counted(*raw):
            built.append(raw)
            return out(*raw)
        self.out = counted

    monkeypatch.setattr(_Window, "__init__", spy)
    assert main(["limit", "e", z, "--format", "json"]) == 0
    samples = json.loads(capsys.readouterr().out)["n"]
    # the partial block to the first block edge builds none
    assert len(built) == len(samples)


@pytest.mark.parametrize("rec", [
    gamma_recurrence(Fraction(25, 2)),
    gamma_recurrence(complex(2.5, 1.25)),
    mirror_e(3),
    mirror_pi(0.75),
    mirror_e(complex(2.5, 1.25)),
    mirror_pi(complex(0.25, -1.5)),
    with_z(USER, 0.75),
    with_z(USER, complex(0.75, 0.5)),
], ids=["gamma", "gamma-complex", "e-int", "pi-float", "e-complex", "pi-complex",
        "user-real", "user-complex"])
def test_on_grid_values_do_not_depend_on_the_draws(rec):
    # a read at every block edge crosses one block at a time, a far read
    # all of them in one pass: the same arithmetic, the same mpmath value
    win = _Window(rec, 30)
    k, n0 = win.block_size(), rec.initial_index
    first = n0 + (1 - n0 - win.r) % k + win.r - 1  # where the first block ends
    dense = list(range(first, first + 120 * k + 1, k))
    got = dict(zip(dense, iter_values_at(rec, dense)))
    assert type(got[dense[-1]]).__name__ in ("mpf", "mpc")
    for ns in ([dense[-1]], dense[7::29], [dense[1], dense[-1]]):
        assert list(iter_values_at(rec, ns)) == [got[n] for n in ns], ns


def window_at_first_edge(rec):
    """A 30-digit window moved from n0 to the first block edge, with K and
    that edge."""
    win = _Window(rec, 30)
    k, n0 = win.block_size(), rec.initial_index
    edge = n0 + (1 - n0 - win.r) % k
    win._partial(n0, edge - n0)
    return win, k, edge


@pytest.mark.parametrize("rec", [
    mirror_e(3),
    mirror_pi(0.75),
    mirror_e(complex(2.5, 1.25)),
    mirror_pi(complex(0.25, -1.5)),
    mirror_e(-40),  # D = 0 on the second block, over n = 40
    gamma_recurrence(Fraction(7, 3)),
    gamma_recurrence(0.3),
    gamma_recurrence(complex(2.5, 1)),
    gamma_recurrence(complex(0.1, -7)),
    gamma_recurrence(-40),  # n + z = 0 on the second block, at n = 40
    # u_n = (z)_n / n!: a complex B, where Gamma's is real
    with_z(parse_precurrence("coeff1: n+1\ncoeff0: -(n+z)\ninit: n0=1; 1"), 0.5 + 2j),
], ids=["e-int", "pi-float", "e-complex", "pi-complex", "zero-D",
        "gamma-rational", "gamma-float", "gamma-complex", "gamma-complex-2",
        "gamma-zero-D", "rising-complex"])
@pytest.mark.parametrize("case", ["as-is", "widen", "narrow", "cut"])
def test_order_two_kernels_equal_the_generic_loop(rec, case):
    # the written-out kernels of orders 1 and 2 against the generic loop
    win, k, edge = window_at_first_edge(rec)
    assert win.r in (1, 2)
    drawn = list(islice(win.blocks(k, edge), 200))
    if case == "widen":  # the newest quotient falls short of lo bits
        win.parts = [[w >> (win.lo - 8) for w in p] for p in win.parts]
    elif case == "narrow":  # and passes hi
        win.parts = [[w << 200 for w in p] for p in win.parts]
    elif case == "cut":  # D = 0 on block 5, real or complex
        h = win.r**2
        drawn[5] = tuple(0 if i % (h + 1) == h else v for i, v in enumerate(drawn[5]))
    e0 = win.e
    got = []
    for kernel in ("_cross", "_cross_generic"):
        w = _Window(rec, 30)
        w.parts, w.e = [list(p) for p in win.parts], e0
        taken = getattr(w, kernel)(iter(drawn), len(drawn))
        got.append((w.parts, w.e, taken))
    assert got[0] == got[1]
    parts, e, taken = got[0]
    if rec.param == -40:
        assert taken == 1
    elif case == "cut":
        assert taken == 5
    else:
        assert taken == len(drawn)
    if case == "widen":
        assert e < e0 - 32
    elif case == "narrow":
        assert e > e0 + 100


GENERIC_LOOPS = [(_Window, "_cross_generic"), (_Window, "_block_generic"),
                 (holonomic, "_series_generic")]


def generic_calls(monkeypatch) -> list:
    """The names of the generic loops of GENERIC_LOOPS, one per later call."""
    calls = []
    for owner, name in GENERIC_LOOPS:
        def spy(*args, loop=getattr(owner, name), name=name):
            calls.append(name)
            return loop(*args)

        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("argv, generic", [
    (["e", "3"], False),
    (["pi", "7/3"], False),
    (["e", "2.5+1i"], False),
    (["pi", "0.25-1.5i"], False),
    (["gamma", "7/3"], False),
    (["gamma", "2.5+1i"], False),
    (["pi", "3"], False),
    (["e", "7/4"], False),
])
def test_limit_crosses_order_two_in_its_kernels(argv, generic, monkeypatch, capsys):
    # the seven op classes of the limit benchmark, and complex pi: neither
    # the block set-up nor the crossing takes a generic loop
    from agflab.cli import main

    calls = generic_calls(monkeypatch)
    assert main(["limit", *argv]) == 0
    capsys.readouterr()
    assert bool(calls) == generic


def test_verify_ode_steps_in_the_series_kernels(monkeypatch, capsys):
    from agflab.cli import main

    calls = generic_calls(monkeypatch)
    assert main(["verify", "ode"]) == 0
    capsys.readouterr()
    assert calls == []


ORDER_THREE = parse_precurrence("coeff3: n+z\ncoeff2: -(n+z)\ncoeff1: -1\n"
                                "coeff0: -1\ninit: n0=1; 0, 1, 1")


@pytest.mark.parametrize("z", [Fraction(7, 3), complex(0.75, 0.5)], ids=str)
def test_order_three_crosses_in_the_generic_loop(z, monkeypatch):
    # no built-in world has order 3: the generic loops keep a caller
    rec = with_z(ORDER_THREE, z)
    calls = generic_calls(monkeypatch)
    assert_values_at_match_exact(rec, 30)  # its real reference steps exact_series
    assert {"_cross_generic", "_block_generic"} <= set(calls)


DEGREE_FIVE = parse_precurrence("coeff2: (n+z)^5\ncoeff1: -(n+z)^5\ncoeff0: -1\n"
                                "init: n0=1; 0, 1")


def test_degree_five_crosses_blocks_of_one_step(monkeypatch):
    rec = with_z(DEGREE_FIVE, Fraction(7, 3))
    assert _Window(rec, 30).block_size() == 1
    calls = partial_calls(monkeypatch)
    assert_values_at_match_exact(rec)
    assert calls == []  # every gap is whole blocks of one step
    pole = with_z(DEGREE_FIVE, -40)  # (n + z)^5 = 0 at n = 40
    with pytest.raises(CoefficientPole) as want:
        list(iter_sequence(pole, 100))
    assert want.value.n == 40
    for engine in (lambda: list(iter_values_at(pole, [16, 64])),
                   lambda: list(iter_sequence(pole, 100, 30))):
        with pytest.raises(CoefficientPole) as got:
            engine()
        assert (got.value.n, str(got.value)) == (want.value.n, str(want.value))


@pytest.mark.parametrize("rec", [
    mirror_e(3),
    mirror_pi(Fraction(7, 3)),
    mirror_e(complex(2.5, 1.25)),
    mirror_pi(complex(0.25, -1.5)),
    gamma_recurrence(Fraction(7, 3)),
    gamma_recurrence(complex(2.5, 1)),
    gamma_recurrence(complex(0.1, -7)),
], ids=["e-int", "pi-rational", "e-complex", "pi-complex", "gamma-rational",
        "gamma-complex", "gamma-complex-2"])
@pytest.mark.parametrize("k", [1, 5, None], ids=["k1", "k5", "K"])
def test_block_kernels_equal_the_generic_loop(rec, k, monkeypatch):
    # the written-out set-up of orders 1 and 2 against the generic loop, on
    # both runs of blocks(), the bound run real even for complex data
    win, big_k, edge = window_at_first_edge(rec)
    k = k or big_k
    runs = []
    block = _Window._block
    monkeypatch.setattr(_Window, "_block",
                        lambda self, *args: runs.append(args) or block(self, *args))
    next(win.blocks(k, edge))
    monkeypatch.undo()
    (bound, _, _, real_bound), (polys, m, _, real) = runs
    assert (real_bound, real) == (True, win.real)
    s = ((m - edge) // k).bit_length() - 1
    assert m == edge + (k << s) and s > 4  # the Kronecker run
    runs += [(bound, edge, k, True), (polys, edge, k, real), (polys, 1, k, real)]
    for polys, m, k, real in runs:
        want = win._block_generic(islice(_values_from(polys, m), k), real)
        assert win._block(polys, m, k, real) == want, (m, k, real)


def generic_series(rec, n_max, monkeypatch):
    """exact_series(rec, n_max) with every order in the generic loop, or the
    CoefficientPole it raises, as (n, message)."""
    with monkeypatch.context() as patch:
        for r in (1, 2):
            patch.setattr(holonomic, f"_series{r}",
                          lambda rows, nums, r=r: holonomic._series_generic(
                              rows, nums, len(nums) - r, r))
        return series_or_pole(rec, n_max)


def series_or_pole(rec, n_max):
    try:
        return exact_series(rec, n_max)
    except CoefficientPole as pole:
        return pole.n, str(pole)


def _ode_recurrences():
    from agflab.worlds import table

    return [pytest.param(w.recurrence(v), None, id=f"ode-{w.name}-{v}")
            for w in table().values() for v in w.ode_values]


@pytest.mark.parametrize("rec, pole", [
    *_ode_recurrences(),
    pytest.param(with_z(parse_precurrence(
        "coeff1: 2*n+3\ncoeff0: -(n+z)/(n+2)\ninit: n0=0; 5/7"), Fraction(3, 4)),
        None, id="order-1"),
    pytest.param(with_z(parse_precurrence(
        "coeff2: 3*n+z\ncoeff1: -2/3\ncoeff0: (n-z)/5\ninit: n0=2; 1/3, -2/9"),
        Fraction(-5, 7)), None, id="order-2"),
    pytest.param(with_z(USER, Fraction(1, 3)), None, id="order-2-degree-3"),
    pytest.param(mirror_e(-5), 5, id="e-pole"),
    pytest.param(gamma_recurrence(-4), 4, id="gamma-pole"),
    pytest.param(parse_precurrence("coeff1: n-3\ncoeff0: -1\ninit: n0=1; 1/2"), 3,
                 id="order-1-pole"),
])
def test_exact_series_kernels_equal_the_generic_loop(rec, pole, monkeypatch):
    for n_max in [*range(13), 200]:
        with monkeypatch.context() as patch:
            calls = generic_calls(patch)
            got = series_or_pole(rec, n_max)
            assert calls == []
        assert got == generic_series(rec, n_max, monkeypatch), n_max
    if pole is not None:  # at n_max = 200
        assert got == (pole, f"coefficient pole at n={pole} (leading coefficient)")
    else:
        assert len(got[0]) == 201 and got[1] > 1


def test_order_three_steps_the_series_in_the_generic_loop(monkeypatch):
    rec = with_z(ORDER_THREE, Fraction(7, 3))
    calls = generic_calls(monkeypatch)
    nums, den = exact_series(rec, 40)
    assert calls == ["_series_generic"]
    want = dict(iter_sequence(rec, 40))
    assert [Fraction(c, den) for c in nums] == [want.get(n, 0) for n in range(41)]


def test_values_at_pole_inside_a_block():
    # n = 5000 lies inside the block that starts at 4991
    for z in (-5000.0, complex(-5000, 0.0)):
        with pytest.raises(CoefficientPole) as want:
            list(iter_sequence(mirror_e(z), n_max=8192))
        with pytest.raises(CoefficientPole) as got:
            list(iter_values_at(mirror_e(z), [1024, 2048, 4096, 8192]))
        assert (got.value.n, str(got.value)) == (want.value.n, str(want.value))
        assert got.value.n == 5000


@pytest.mark.parametrize("rec, ns", [
    (mirror_e(3), [100 * 2**k for k in range(8)]),
    (gamma_recurrence(Fraction(25, 2)), [100 * 2**k for k in range(8)]),
    (mirror_pi(complex(0.25, -1.5)), [100 * 2**k for k in range(8)]),
    (SHRINKING, [100, 250, 400, 700]),
], ids=["e-int", "gamma-shrink", "pi-complex", "shrinking"])
def test_block_path_keeps_40_digits(rec, ns):
    want = mp_oracle(rec, ns[-1])
    got = iter_values_at(rec, ns, 40)
    for n, v in zip(ns, got):
        assert abs(v - want[n]) <= 1e-38 * abs(want[n]), n


def test_integer_form_is_the_least_integer_multiple():
    # USER_TEXT times (n+1)^2 (2n+1) and 4: c2 = (4n + 4z)(2n+1)(n+1)
    low = [[-4, -8, -4], [-4, -16, -20, -8]]
    for z, im2 in [(0.75, [0, 0, 0, 0]), (complex(0.75, 0.5), [2, 6, 4, 0])]:
        re, im, pole, init = _integer_form(with_z(USER, z))
        assert (re, im) == (low + [[3, 13, 18, 8]], [[0, 0, 0], [0, 0, 0, 0], im2])
        assert init == [(Fraction(1, 2), 0), (1, 0)]
        assert str(pole(-1)) == ("coefficient pole at n=-1 "
                                 "(denominator of coefficient 2)")
        assert str(pole(7)) == "coefficient pole at n=7 (leading coefficient)"
    # an integral equation keeps its common factor; a z-free one needs no z
    rec = parse_precurrence("coeff1: 2*n+2\ncoeff0: -4\ninit: n0=0; 1")
    assert _integer_form(rec)[:2] == ([[-4], [2, 2]], [[0], [0, 0]])
    with pytest.raises(ValueError, match="depends on z"):
        _integer_form(parse_precurrence("coeff1: n+z\ncoeff0: -1\ninit: n0=0; 1"))


def test_power_differences_are_scaled_stirling_numbers():
    # row i holds the i-th differences at 0 of t^l, i! S(l, i) for l >= i,
    # S the Stirling numbers of the second kind by their own recurrence
    top = 12
    S = [[1] + [0] * top]
    for l in range(1, top + 1):
        S.append([0] + [k * S[l - 1][k] + S[l - 1][k - 1] for k in range(1, top + 1)])
    for d in range(top + 1):
        assert _power_differences(d) == tuple(
            tuple(math.factorial(i) * S[l][i] for l in range(i, d + 1))
            for i in range(d + 1)), d


def test_fixed_point_pole_at_the_same_n():
    with pytest.raises(CoefficientPole) as exact:
        list(iter_sequence(mirror_e(-5), n_max=20))
    for z, digits, n_max in [(-5, 30, 20), (-5.0, None, 20_000),
                             (complex(-5, 0), None, 20_000)]:
        with pytest.raises(CoefficientPole) as info:
            list(iter_sequence(mirror_e(z), n_max=n_max, digits=digits))
        assert (info.value.n, str(info.value)) == (exact.value.n, str(exact.value))
    assert exact.value.n == 5
    # a vanishing denominator is named as such, in every mode
    coeffs = parse_precurrence("coeff1: 1/(n-3)\ncoeff0: -1\ninit: n0=1; 1").coeffs
    seen = set()
    for digits, value in [(None, 1), (30, 1), (15, 1), (None, 1.0)]:
        with pytest.raises(CoefficientPole) as info:
            list(iter_sequence(PRecurrence(1, coeffs, 1, (value,)), n_max=20_000,
                               digits=digits))
        seen.add((info.value.n, str(info.value)))
    assert seen == {(3, "coefficient pole at n=3 (denominator of coefficient 1)")}


def test_fixed_point_values_pass_the_double_range():
    rec = PRecurrence(1, (RationalFn.const(-2), RationalFn.const(1)), 0, (-1.0,))
    vals = dict(iter_sequence(rec, n_max=10_001))
    assert vals[1023] == -(2**1023)
    assert vals[1024] == -(2**1024) and vals[10_001] == -(2**10_001)
    assert vals[10_001].context.isfinite(vals[10_001])


@pytest.mark.parametrize("rec", [mirror_e(0.75), mirror_pi(complex(0.25, -1.5))],
                         ids=["e-float", "pi-complex"])
def test_both_entry_points_follow_one_value_rule(rec):
    ns = [1, 2, 3, 17, 40]
    for digits in (None, 15, 16, 30, 40):
        every = dict(iter_sequence(rec, 40, digits))
        for n, v in zip(ns, iter_values_at(rec, ns, digits)):
            assert type(v) is type(every[n]), (digits, n)
            assert type(v).__name__ in ("mpf", "mpc"), (digits, n)
            assert v.context is every[n].context, (digits, n)
            assert v.context.dps == numeric_digits(digits) + 5


# ---------------------------------------------------------------------------
# fraction-free exact series against the Fraction iteration

EXACT_CASES = [
    mirror_e(3),
    mirror_pi(0),
    mirror_e(Fraction(1, 3)),
    mirror_pi(Fraction(-7, 2)),
    gamma_recurrence(Fraction(7, 3)),
    gamma_recurrence(Fraction(-5, 2)),
    with_z(USER, Fraction(3, 4)),  # n-dependent denominators
]
EXACT_IDS = ["e-int", "pi-int", "e-p/q", "pi-p/q", "gamma-p/q", "gamma-negative",
             "user"]


@pytest.mark.parametrize("rec", EXACT_CASES, ids=EXACT_IDS)
def test_exact_series_matches_fraction_iteration(rec):
    n_max = 120
    nums, den = exact_series(rec, n_max)
    assert all(type(c) is int for c in nums) and type(den) is int and den > 0
    want = dict(iter_sequence(rec, n_max))
    assert [Fraction(c, den) for c in nums] == [want.get(n, 0)
                                                for n in range(n_max + 1)]


def test_exact_series_short_and_numeric_inputs():
    assert exact_series(mirror_e(1), 0) == ([0], 1)
    assert exact_series(mirror_e(1), 2) == ([0, 0, 1], 1)
    with pytest.raises(ValueError):
        exact_series(mirror_e(0.5), 10)
    with pytest.raises(ValueError):
        exact_series(mirror_e(), 10)  # z missing
    with pytest.raises(ValueError):
        exact_series(mirror_e(1), -1)


def test_exact_series_pole_at_the_same_n():
    coeffs = parse_precurrence("coeff1: 1/(n-3)\ncoeff0: -1\ninit: n0=1; 1").coeffs
    cases = [mirror_e(-5), mirror_pi(-3), gamma_recurrence(-4),
             PRecurrence(1, coeffs, 1, (Fraction(1),))]
    poles = []
    for rec in cases:
        with pytest.raises(CoefficientPole) as want:
            list(iter_sequence(rec, n_max=20))
        with pytest.raises(CoefficientPole) as got:
            exact_series(rec, 20)
        assert (got.value.n, str(got.value)) == (want.value.n, str(want.value))
        poles.append(got.value.n)
    assert poles == [5, 3, 4, 3]


# ---------------------------------------------------------------------------
# both exact engines against a naive Fraction iteration

def naive_iteration(rec: PRecurrence, n_max: int) -> dict:
    """u_n for n <= n_max by u_{n+r} = -sum_k C_k(n) u_{n+k} / C_r(n), each
    coefficient evaluated as a Fraction through RationalFn.eval; a
    vanishing denominator or leading coefficient raises CoefficientPole."""
    z = rec.param
    r, n0 = rec.order, rec.initial_index
    u = {n0 + i: Fraction(v) for i, v in enumerate(rec.initial_values)}
    for n in range(n0, n_max - r + 1):
        c = []
        for k, cf in enumerate(rec.coeffs):
            if cf.den.eval(n, z) == 0:
                raise CoefficientPole(n, f"denominator of coefficient {k}")
            c.append(cf.eval(n, z))
        if c[r] == 0:
            raise CoefficientPole(n, "leading coefficient")
        u[n + r] = -sum(c[k] * u[n + k] for k in range(r)) / c[r]
    return u


POLE_TEXT = "coeff1: 1/(n-3)\ncoeff0: -1\ninit: n0=1; 1"


@pytest.mark.parametrize("rec", [
    *EXACT_CASES,
    mirror_e(-5),
    mirror_pi(-3),
    gamma_recurrence(-4),
    parse_precurrence(POLE_TEXT),
], ids=[*EXACT_IDS, "e-pole", "pi-pole", "gamma-pole", "denominator-pole"])
def test_exact_engines_match_naive_iteration(rec):
    n_max = 120
    try:
        want = naive_iteration(rec, n_max)
    except CoefficientPole as pole:
        for engine in (lambda: list(iter_sequence(rec, n_max)),
                       lambda: exact_series(rec, n_max)):
            with pytest.raises(CoefficientPole) as got:
                engine()
            assert (got.value.n, str(got.value)) == (pole.n, str(pole))
        return
    got = list(iter_sequence(rec, n_max))
    assert got == sorted(want.items())
    assert all(type(v) is Fraction for _, v in got)
    nums, den = exact_series(rec, n_max)
    assert [Fraction(c, den) for c in nums] == [want.get(n, 0)
                                                for n in range(n_max + 1)]
