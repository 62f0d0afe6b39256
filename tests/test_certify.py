import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

from agflab.agf import f_eval, g_eval
from agflab.certify import (
    OdeCheckResult,
    PowerSeries,
    QuadratureResult,
    identity_chain_e,
    identity_chain_pi,
    ode_series_check_e,
    ode_series_check_gamma,
    ode_series_check_pi,
    quad_I,
    quad_J,
    quad_L,
    transfer_check,
    u_series,
    v_series,
    w_series,
)
from agflab.holonomic import CoefficientPole

E = math.e
PI = math.pi


# ---------------------------------------------------------------------------
# power series arithmetic

def test_powerseries_mul_matches_naive_convolution():
    a = PowerSeries([1, 2, 3, 4], 3)
    b = PowerSeries([5, 6, 7, 8], 3)
    got = a * b
    naive = [
        sum(a.coefficients[i] * b.coefficients[j - i]
            for i in range(j + 1) if i <= 3 and j - i <= 3)
        for j in range(4)
    ]
    assert got.coefficients[: 4] == naive
    assert got.order == 3  # both truncated


def test_powerseries_poly_times_truncated_keeps_validity():
    u = PowerSeries([0, 1, 1, Fraction(3, 2)], 3)
    x_poly = PowerSeries.poly(0, 1)  # x, exact
    prod = x_poly * u
    assert prod.order == 4
    assert prod.coefficients == [0, 0, 1, 1, Fraction(3, 2)]


def test_powerseries_differentiate_and_shift():
    u = PowerSeries([1, 2, 3, 4], 3)
    d = u.differentiate()
    assert d.coefficients == [2, 6, 12]
    assert d.order == 2
    s = u.shift(2)
    assert s.coefficients[:3] == [0, 0, 1]
    back = s.shift(-2)
    assert back.coefficients == u.coefficients
    with pytest.raises(ValueError):
        u.shift(-1)


def test_powerseries_divide_unit_roundtrip():
    den = PowerSeries.exp_series(1, 12)  # e^x, unit
    num = PowerSeries([Fraction(1, k + 1) for k in range(13)], 12)
    q = num.divide_unit(den)
    assert (q * den).coefficients[:13] == num.coefficients
    with pytest.raises(ZeroDivisionError):
        num.divide_unit(PowerSeries([0, 1], 1))


def test_exp_and_binomial_series():
    em = PowerSeries.exp_series(-1, 6)
    assert em.coefficients[:4] == [1, -1, Fraction(1, 2), Fraction(-1, 6)]
    geo2 = PowerSeries.binomial_series(-2, 5)  # (1-x)^-2 = sum (n+1) x^n
    assert geo2.coefficients == [1, 2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# integer-numerator arithmetic against a naive Fraction reference

def ref_series(coeffs, order, exact):
    """(coefficients, order, exact) of a series, one Fraction per term."""
    coeffs = [Fraction(c) for c in coeffs][: order + 1]
    return coeffs + [Fraction(0)] * (order + 1 - len(coeffs)), order, exact


def ref_add(a, b, sign=1):
    (ca, oa, ea), (cb, ob, eb) = a, b
    order = max(oa, ob) if ea and eb else ob if ea else oa if eb else min(oa, ob)
    ca, cb = ref_series(ca, order, 0)[0], ref_series(cb, order, 0)[0]
    return [x + sign * y for x, y in zip(ca, cb)], order, ea and eb


def ref_mul(a, b):
    (ca, oa, ea), (cb, ob, eb) = a, b

    def lowest(c, o):
        return next((i for i, x in enumerate(c) if x), o + 1)

    if ea and eb:
        order = oa + ob
    elif ea:
        order = ob + lowest(ca, oa)
    elif eb:
        order = oa + lowest(cb, ob)
    else:
        order = min(oa, ob)
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            if i + j <= order:
                out[i + j] += x * y
    return out, order, ea and eb


def view(series):
    return series.coefficients, series.order, series.exact


series_args = st.tuples(
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=40),
             min_size=1, max_size=8),
    st.integers(min_value=0, max_value=9),
    st.booleans(),
)


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(a=series_args, b=series_args,
       c=st.fractions(min_value=-9, max_value=9, max_denominator=20),
       k=st.integers(min_value=0, max_value=3))
def test_powerseries_integer_arithmetic_matches_fraction_reference(a, b, c, k):
    ra, rb = ref_series(*a), ref_series(*b)
    sa, sb = PowerSeries(*a), PowerSeries(*b)
    assert view(sa) == ra
    assert view(sa + sb) == ref_add(ra, rb)
    assert view(sa - sb) == ref_add(ra, rb, -1)
    assert view(sa * sb) == ref_mul(ra, rb)
    coeffs, order, exact = ra
    assert view(sa.scale(c)) == ([c * x for x in coeffs], order, exact)
    if order:
        assert view(sa.differentiate()) == (
            [i * coeffs[i] for i in range(1, order + 1)], order - 1, exact)
    assert view(sa.shift(k)) == ([Fraction(0)] * k + coeffs, order + k, exact)
    assert sa.shift(k).shift(-k) == sa
    if k and order >= k:
        if any(coeffs[:k]):
            with pytest.raises(ValueError):
                sa.shift(-k)
        else:
            assert view(sa.shift(-k)) == (coeffs[k:], order - k, exact)
    n = min(order, rb[1]) + 1
    assert (sa == sb) == (coeffs[:n] == rb[0][:n])
    first = next((i for i, x in enumerate(coeffs) if x), None)
    assert sa.first_nonzero() == first
    assert sa.min_degree() == (order + 1 if first is None else first)
    if c:  # the same values over a larger denominator
        assert sa.scale(c).scale(1 / c) == sa
        assert view(sa.scale(c) * sb.scale(1 / c)) == ref_mul(ra, rb)


# ---------------------------------------------------------------------------
# closed-form shadows (independent oracles for the series builders)

def closed_form_u0(order: int) -> PowerSeries:
    """U_0 = x^2 e^(-x) (1-x)^(-2), exactly."""
    return (
        PowerSeries.exp_series(-1, order) * PowerSeries.binomial_series(-2, order)
    ).shift(2)


def closed_form_um(m: int, order: int) -> PowerSeries:
    """U_m = x^(2-m) e^(-x) (1-x)^(-2) Int_m for m >= 1, where
    Int_m = sum_k m x^(k+m)/(k!(k+m)) - m x^(k+m+1)/(k!(k+m+1))."""
    coeffs = [Fraction(0)] * (order + m + 2)
    kfac = Fraction(1)
    for k in range(order + 2):
        if k + m < len(coeffs):
            coeffs[k + m] += Fraction(m) / (kfac * (k + m))
        if k + m + 1 < len(coeffs):
            coeffs[k + m + 1] -= Fraction(m) / (kfac * (k + m + 1))
        kfac *= k + 1
    integral = PowerSeries(coeffs[: order + m + 1], order + m)
    core = PowerSeries.exp_series(-1, order + m) * PowerSeries.binomial_series(
        -2, order + m
    )
    return (core * integral).shift(2 - m)


def closed_form_v0(order: int) -> PowerSeries:
    """V_0 = x^2 (1-x)^(-3/2) (1+x)^(-1/2), exactly (rational coefficients)."""
    one_minus = PowerSeries.binomial_series(Fraction(-3, 2), order)
    # (1+x)^(-1/2): alternate the signs of the (1-x)^(-1/2) series
    base = PowerSeries.binomial_series(Fraction(-1, 2), order)
    one_plus = PowerSeries(
        [c if k % 2 == 0 else -c for k, c in enumerate(base.coefficients)], order
    )
    return (one_minus * one_plus).shift(2)


def test_u_series_matches_closed_form_u0():
    got = u_series(0, 30)
    shadow = closed_form_u0(30)
    assert got.coefficients[:31] == shadow.coefficients[:31]


def test_u_series_matches_closed_form_m3():
    got = u_series(3, 25)
    shadow = closed_form_um(3, 25)
    assert got.coefficients[:26] == shadow.coefficients[:26]


def test_v_series_matches_closed_form_v0():
    got = v_series(0, 30)
    shadow = closed_form_v0(30)
    assert got.coefficients[:31] == shadow.coefficients[:31]


def test_w_series_first_values():
    s = w_series(Fraction(1, 2), 4)
    # w_1 = 1, w_{n+1} = (n+1)/(n+1/2) w_n
    assert s.coefficients[1] == 1
    assert s.coefficients[2] == Fraction(2, 1) / Fraction(3, 2)


def naive_w(z: Fraction, order: int) -> list[Fraction]:
    """Independent oracle: w_1 = 1, w_{n+1} = (n+1)/(n+z) w_n, one by one."""
    w = [Fraction(0), Fraction(1)]
    for n in range(1, order):
        w.append(w[n] * (n + 1) / (n + z))
    return w[: order + 1]


@pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(7, 3), Fraction(-5, 2), 5])
def test_w_series_matches_naive_iteration(z):
    assert w_series(z, 60).coefficients == naive_w(Fraction(z), 60)


def test_w_series_at_zero_and_at_negative_integers():
    assert w_series(0, 8).coefficients == list(range(9))  # w_n = n at z = 0
    assert ode_series_check_gamma(0, 40).passed
    with pytest.raises(CoefficientPole) as info:
        w_series(-3, 10)
    assert info.value.n == 3
    assert w_series(-3, 3).coefficients == naive_w(Fraction(-3), 3)


# ---------------------------------------------------------------------------
# ODE certificates

@pytest.mark.parametrize("m", range(9))
def test_ode_certificate_e_exact(m):
    res = ode_series_check_e(m, 200)
    assert res.passed and res.first_failure is None


@pytest.mark.parametrize("m", range(9))
def test_ode_certificate_pi_exact(m):
    res = ode_series_check_pi(m, 200)
    assert res.passed and res.first_failure is None


@pytest.mark.parametrize("z", [Fraction(1, 2), 1, 2, Fraction(7, 3), 5])
def test_ode_certificate_gamma_exact(z):
    res = ode_series_check_gamma(z, 200)
    assert res.passed and res.first_failure is None


def test_ode_certificate_mutation_detected():
    base = u_series(1, 10)
    corrupted = PowerSeries(
        [c + (1 if i == 5 else 0) for i, c in enumerate(base.coefficients)], 10
    )
    res = ode_series_check_e(1, 10, coeffs=corrupted)
    assert not res.passed
    assert res.first_failure is not None and res.first_failure <= 7
    assert res.check == "ode_certificate_e"


def test_ode_certificate_mutation_detected_pi():
    base = v_series(0, 10)
    corrupted = PowerSeries(
        [c + (1 if i == 4 else 0) for i, c in enumerate(base.coefficients)], 10
    )
    res = ode_series_check_pi(0, 10, coeffs=corrupted)
    assert not res.passed
    assert res.first_failure is not None and res.first_failure <= 6


def test_ode_certificate_mutation_detected_gamma():
    base = w_series(Fraction(1, 2), 10)
    corrupted = PowerSeries(
        [c + (1 if i == 6 else 0) for i, c in enumerate(base.coefficients)], 10
    )
    res = ode_series_check_gamma(Fraction(1, 2), 10, coeffs=corrupted)
    assert not res.passed
    assert res.first_failure is not None and res.first_failure <= 8
    assert res.check == "ode_certificate_gamma"


@pytest.mark.parametrize("check, build, param", [
    (ode_series_check_e, u_series, 0),
    (ode_series_check_e, u_series, 2),
    (ode_series_check_e, u_series, 5),
    (ode_series_check_pi, v_series, 0),
    (ode_series_check_pi, v_series, 3),
    (ode_series_check_gamma, w_series, Fraction(1, 2)),
    (ode_series_check_gamma, w_series, Fraction(7, 3)),
])
def test_every_single_coefficient_corruption_fails_nearby(check, build, param):
    order = 40
    base = build(param, order)
    assert check(param, order, coeffs=base).passed
    delta = Fraction(1, 10**30)  # far below double precision
    for i in range(order + 1):
        coeffs = base.coefficients
        coeffs[i] += delta
        res = check(param, order, coeffs=PowerSeries(coeffs, order))
        assert not res.passed and i <= res.first_failure <= i + 2, i


# ---------------------------------------------------------------------------
# quadrature values

def test_quad_I_anchors():
    assert abs(quad_I(0).value - (E - 1)) < 1e-12
    assert abs(quad_I(1).value - 1) < 1e-12
    assert abs(quad_I(2).value - (E - 2)) < 1e-12
    assert quad_I(0).error_estimate < 1e-12


def test_quad_I_recurrence_consistency():
    vals = [quad_I(m) for m in range(13)]
    for m in range(1, 13):
        combined_err = vals[m].error_estimate + m * vals[m - 1].error_estimate
        assert abs(vals[m].value - (E - m * vals[m - 1].value)) <= max(
            combined_err, 1e-10
        )


def test_quad_error_estimate_bounds_the_actual_error():
    # tanh-sinh's own estimate reads as low as 1e-32; the reported one
    # must still cover the true error against a 40-digit oracle
    oracle = MPContext()
    oracle.dps = 40
    integrands = {
        quad_I: lambda m, t: t**m * oracle.exp(t),
        quad_J: lambda m, t: m * t ** (m - 1) * (1 - t) * oracle.exp(t),
        quad_L: lambda m, t: m * t ** (m - 1) * oracle.sqrt((1 - t) / (1 + t)),
    }
    # past m = 60 the rounding of the abscissas, raised to the m-th power,
    # grows with m: 169 eps |value| for I_800
    large = [100, 200, 400, 800]
    cases = [(quad_I, m) for m in [*range(61), *large]]
    cases += [(quad, m) for quad in (quad_J, quad_L) for m in [*range(1, 61), *large]]
    for quad, m in cases:
        got = quad(m)
        ref = oracle.quad(lambda t: integrands[quad](m, t), [0, 1])
        assert abs(got.value - ref) <= got.error_estimate, (quad.__name__, m)
        tight = 1e-13 if m <= 60 else 1e-12
        assert got.error_estimate < tight * abs(got.value), (quad.__name__, m)
    # where t^m peaks narrowly, against the 60-digit series
    # I_m = sum_k 1/(k! (m+k+1)) and J_m = m (I_{m-1} - I_m)
    oracle.dps = 60

    def series(m):
        return oracle.nsum(lambda k: 1 / (oracle.factorial(k) * (m + k + 1)),
                           [0, oracle.inf])

    for m in (640, 750, 918, 1200):
        refs = {quad_I: series(m), quad_J: m * (series(m - 1) - series(m))}
        for quad, ref in refs.items():
            got = quad(m)
            assert abs(got.value - ref) <= got.error_estimate, (quad.__name__, m)
            assert got.error_estimate < 1e-12 * abs(got.value), (quad.__name__, m)


def test_quad_J_anchors():
    assert quad_J(0).value == 1.0
    assert abs(quad_J(1).value - (E - 2)) < 1e-12
    # J_5 = I_6, with I_6 from the recurrence
    I = E - 1
    for m in range(1, 7):
        I = E - m * I
    assert abs(quad_J(5).value - I) < 1e-10


def test_quad_L_anchors():
    assert quad_L(0).value == 1.0
    assert abs(quad_L(1).value - (PI / 2 - 1)) < 1e-10
    assert abs(quad_L(2).value - (2 - PI / 2)) < 1e-10


def test_identity_chain_e():
    rep = identity_chain_e(12)
    assert rep["pass"]
    assert rep["max_deviation"] < 1e-9
    # spot values from the chain: J_2 = e - 3 J_1 = 6 - 2e
    row = rep["details"][2]
    assert abs(row["J"] - (6 - 2 * E)) < 1e-10


def test_identity_chain_pi():
    rep = identity_chain_pi(12)
    assert rep["pass"]
    assert rep["max_deviation"] < 1e-9


def test_f_times_e_matches_quadrature_J():
    for m in range(11):
        assert abs(f_eval(m).real * E - quad_J(m).value) < 1e-9


def test_g_from_L_matches_g_eval():
    for m in (0, 1, 3):
        g_quad = math.sqrt(2 / PI) * quad_L(m).value
        assert abs(g_quad - g_eval(m).real) < 1e-9


def test_transfer_checks():
    assert transfer_check("e", 0, 10**5) < 5e-3
    assert transfer_check("pi", 0, 10**5) < 5e-2
    assert transfer_check("e", 4, 10**5) < 5e-3
    with pytest.raises(ValueError):
        transfer_check("e", 0, 100)
    with pytest.raises(ValueError):
        transfer_check("q", 0, 10**4)


def test_transfer_deviation_monotone_to_rounding_floor():
    floor = 1e-12
    for world, m in (("e", 1), ("e", 4), ("pi", 0), ("pi", 3)):
        devs = [transfer_check(world, m, n) for n in (10**3, 10**4, 10**5)]
        for prev, cur in zip(devs, devs[1:]):
            assert cur <= max(prev, floor)
    # m = 0 in the e world converges superexponentially: floor-dominated
    assert transfer_check("e", 0, 10**3) < 1e-12
