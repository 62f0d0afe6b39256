import math
from fractions import Fraction

import pytest

from agflab.complexfn import PoleError, extended
from agflab.holonomic import (
    CoefficientPole,
    PRecurrence,
    Poly2,
    RationalFn,
    RecurrenceParseError,
    eval_sequence,
    gamma_recurrence,
    iter_numeric,
    iter_sequence,
    mirror_e,
    mirror_pi,
    parse_precurrence,
    shell_w,
    shell_wtilde,
)

SQRT_PI = math.sqrt(math.pi)


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


def test_poly2_complex_eval():
    n, z = Poly2.var("n"), Poly2.var("z")
    p = n + z
    assert p.eval(2, complex(0, 1)) == complex(2, 1)


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
    got = [p.value for p in eval_sequence(mirror_e(0), n_max=5)]
    assert got == expect


def test_mirror_pi_first_values():
    expect = naive_mirror_pi(Fraction(0), 5)
    assert expect == [0, 1, 1, Fraction(3, 2), Fraction(3, 2)]
    got = [p.value for p in eval_sequence(mirror_pi(0), n_max=5)]
    assert got == expect


def test_mirror_single_steps():
    assert eval_sequence(mirror_e(1), n_max=3)[-1].value == 1  # u_3 = u_2 + u_1/2
    assert eval_sequence(mirror_pi(2), n_max=3)[-1].value == Fraction(1, 3)
    pts = eval_sequence(mirror_pi(0), n_max=4)
    assert pts[-1].value == Fraction(3, 2)


@pytest.mark.parametrize("m", [0, 1, 5])
def test_exactness_against_naive_oracle(m):
    got_e = [p.value for p in eval_sequence(mirror_e(m), n_max=500)]
    assert got_e == naive_mirror_e(Fraction(m), 500)
    got_pi = [p.value for p in eval_sequence(mirror_pi(m), n_max=500)]
    assert got_pi == naive_mirror_pi(Fraction(m), 500)


def test_exactness_rational_parameter():
    m = Fraction(1, 3)
    got = [p.value for p in eval_sequence(mirror_e(m), n_max=200)]
    assert got == naive_mirror_e(m, 200)


def test_z_override_and_complex_parameter():
    rec = mirror_e()  # no parameter baked in
    with pytest.raises(ValueError):
        eval_sequence(rec, n_max=5)
    got = [p.value for p in eval_sequence(rec, z=0, n_max=5)]
    assert got[-1] == Fraction(11, 6)
    zc = complex(-0.5, 0.8)
    pts = eval_sequence(mirror_e(zc), n_max=6)
    # one manual step: u_3 = u_2 + u_1/(1+z) = 1
    assert abs(pts[2].value - 1) < 1e-15
    assert isinstance(pts[-1].value, complex)


def test_mirror_limit_e_at_ten_thousand():
    last = None
    for n, v in iter_sequence(mirror_e(0), n_max=10**4, digits=15):
        last = v
    assert abs(10**4 / last - math.e) < 5e-4  # at least 3 decimals


def test_extended_accumulation_kicks_in_past_1e4():
    vals = {n: v for n, v in iter_sequence(mirror_e(0.0), n_max=10_368)}
    assert isinstance(vals[10_368], float)
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
        eval_sequence(mirror_e(-1), n_max=20)
    assert info.value.n == 1
    with pytest.raises(CoefficientPole) as info:
        eval_sequence(mirror_e(-5), n_max=20)
    assert info.value.n == 5


# ---------------------------------------------------------------------------
# shells

def test_shell_w_values():
    pts = shell_w(1, 6)
    assert all(p.value == 1 for p in pts)
    # n!/(2)_n = 1/(n+1)
    pts = shell_w(2, 4)
    assert [p.value for p in pts] == [
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)
    ]
    # factorial oracle at a rational z
    z = Fraction(1, 2)
    from agflab.exact import factorial, pochhammer

    pts = shell_w(z, 8)
    assert pts[-1].value == Fraction(factorial(8)) / pochhammer(z, 8)
    with pytest.raises(CoefficientPole):
        shell_w(-3, 10)
    with pytest.raises(CoefficientPole):
        shell_w(0, 10)


def test_shell_w_gamma_limit():
    z = 0.5
    pts = shell_w(z, 10**4)
    w = pts[-1].value
    n = pts[-1].n
    approx = w * n ** (z - 1)
    assert abs(approx - SQRT_PI) < 1e-3 * SQRT_PI


def test_shell_wtilde_values():
    for n in (1, 3, 10):
        assert abs(shell_wtilde(0, n) - 1) < 1e-12
    assert abs(shell_wtilde(1, 5) - 5) < 1e-12
    val = shell_wtilde(0.5, 10**4)
    assert abs(val - 100) < 0.1  # behaves like n^z
    with pytest.raises(PoleError):
        shell_wtilde(6, 5)  # n+1-z = 0


def test_shell_wtilde_recurrences():
    import random

    rng = random.Random(5)
    cfg_tol = 1e-11
    for _ in range(20):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        n = rng.randint(2, 40)
        lhs = shell_wtilde(z, n + 1)
        rhs = (n + 1) / (n + 1 - z) * shell_wtilde(z, n)
        assert abs(lhs - rhs) <= cfg_tol * abs(lhs)
        lhs2 = shell_wtilde(z + 1, n)
        rhs2 = (n - z) * shell_wtilde(z, n)
        assert abs(lhs2 - rhs2) <= cfg_tol * max(abs(lhs2), 1e-30)


def test_shell_wtilde_extended():
    import mpmath as mp

    val = shell_wtilde(Fraction(1, 2), 16, extended(30))
    with mp.workdps(40):
        ref = mp.factorial(16) / mp.gamma(16 + 1 - mp.mpf(0.5))
        assert abs(val - ref) < mp.mpf("1e-28") * ref


def test_gamma_recurrence_matches_shell_w():
    pts_rec = eval_sequence(gamma_recurrence(Fraction(1, 2)), n_max=50)
    pts_shell = shell_w(Fraction(1, 2), 50)
    assert [p.value for p in pts_rec] == [p.value for p in pts_shell]


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
    got = [p.value for p in eval_sequence(rec, z=0, n_max=5)]
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


# ---------------------------------------------------------------------------
# fixed-point mode against an independent route

def mp_oracle(rec, z, n_max: int) -> dict:
    """u_n for n <= n_max by the recurrence in a private 60-digit mpmath
    context, each coefficient taken from its exact rational function."""
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 60
    zc = None if z is None else ctx.convert(z)
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


@pytest.mark.parametrize("rec, digits", [
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
    (parse_precurrence(USER_TEXT), None),
    (parse_precurrence(USER_TEXT), 30),
], ids=["e-int", "pi-int", "e-float", "e-p/q", "pi-p/q", "e-complex",
        "pi-complex", "pi-complex-30", "gamma-p/q", "gamma-float",
        "gamma-complex", "gamma-shrink", "gamma-shrink-complex", "user",
        "user-30"])
def test_fixed_point_against_60_digit_iteration(rec, digits):
    n_max = 2**14
    z = 0.75 if rec.param is None else None  # numeric, so digits=None is automatic
    want = mp_oracle(rec, z if z is not None else rec.param, n_max)
    got = dict(iter_sequence(rec, z, n_max, digits=digits))
    assert sorted(got) == sorted(want)
    # automatic mode: the double nearest the 164-bit value; digits=30: 1e-28
    rtol = 1e-28 if digits else 2.0**-52
    for n, v in got.items():
        if digits:
            assert type(v).__name__ in ("mpf", "mpc")
        else:
            assert isinstance(v, float if want[n].imag == 0 else complex)
        assert abs(v - want[n]) <= rtol * abs(want[n]), n


def test_fixed_point_pole_at_the_same_n():
    with pytest.raises(CoefficientPole) as exact:
        eval_sequence(mirror_e(-5), n_max=20)
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


def test_fixed_point_overflow_gives_inf():
    rec = PRecurrence(1, (RationalFn.const(-2), RationalFn.const(1)), 0, (-1.0,))
    vals = dict(iter_sequence(rec, n_max=10_001))
    assert vals[1023] == -(2.0**1023)
    assert vals[1024] == -math.inf and vals[10_001] == -math.inf


def test_iter_numeric_yields_floats_for_exact_data():
    got = [v for _, v in iter_numeric(mirror_e(1), n_max=12, digits=30)]
    want = [float(v) for _, v in iter_sequence(mirror_e(1), n_max=12)]
    assert got == want and all(type(v) is float for v in got)
