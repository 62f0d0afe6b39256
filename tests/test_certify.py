import dataclasses
import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from mpmath.ctx_mp import MPContext

from agflab import certify, holonomic
from agflab.agf import f_eval, g_eval
from agflab.certify import (
    _recurrence_ode,
    check_record,
    identity_chain_e,
    identity_chain_pi,
    ode_series_check_recurrence,
    quad_I,
    quad_J,
    quad_L,
)
from agflab.holonomic import (
    CoefficientPole,
    PRecurrence,
    exact_series,
    gamma_recurrence,
    iter_sequence,
    mirror_e,
    mirror_pi,
    parse_precurrence,
)

E = math.e
PI = math.pi


# ---------------------------------------------------------------------------
# closed-form shadows (independent oracles for the exact series)

def series_of(rec, order: int) -> list[Fraction]:
    nums, den = exact_series(rec, order)
    return [Fraction(c, den) for c in nums]


def times(a, b, order: int) -> list[Fraction]:
    """The product of two coefficient lists through x^order."""
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def exp_coeffs(c, order: int) -> list[Fraction]:
    """exp(c x) through x^order."""
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * c / k)
    return out


def binomial_coeffs(a, order: int) -> list[Fraction]:
    """(1 - x)^a through x^order."""
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(-out[-1] * (a - k + 1) / k)
    return out


def closed_form_u0(order: int) -> list[Fraction]:
    """U_0 = x^2 e^(-x) (1-x)^(-2), exactly."""
    return [0, 0] + times(exp_coeffs(-1, order), binomial_coeffs(-2, order),
                          order - 2)


def closed_form_um(m: int, order: int) -> list[Fraction]:
    """U_m = x^(2-m) e^(-x) (1-x)^(-2) Int_m for m >= 2, where
    Int_m = sum_k m x^(k+m)/(k!(k+m)) - m x^(k+m+1)/(k!(k+m+1))."""
    top = order + m - 2
    integral = [Fraction(0)] * (top + 1)
    kfac = Fraction(1)
    for k in range(top + 1):
        if k + m <= top:
            integral[k + m] += Fraction(m) / (kfac * (k + m))
        if k + m + 1 <= top:
            integral[k + m + 1] -= Fraction(m) / (kfac * (k + m + 1))
        kfac *= k + 1
    core = times(exp_coeffs(-1, top), binomial_coeffs(-2, top), top)
    return times(core, integral, top)[m - 2:]


def closed_form_v0(order: int) -> list[Fraction]:
    """V_0 = x^2 (1-x)^(-3/2) (1+x)^(-1/2), exactly (rational coefficients)."""
    one_minus = binomial_coeffs(Fraction(-3, 2), order)
    # (1+x)^(-1/2): alternate the signs of the (1-x)^(-1/2) series
    one_plus = [c if k % 2 == 0 else -c
                for k, c in enumerate(binomial_coeffs(Fraction(-1, 2), order))]
    return [0, 0] + times(one_minus, one_plus, order - 2)


def test_u_series_matches_closed_form_u0():
    assert series_of(mirror_e(0), 30) == closed_form_u0(30)


def test_u_series_matches_closed_form_m3():
    assert series_of(mirror_e(3), 25) == closed_form_um(3, 25)


def test_v_series_matches_closed_form_v0():
    assert series_of(mirror_pi(0), 30) == closed_form_v0(30)


def w_recurrence(z) -> PRecurrence:
    """The Gamma world's series W = z U, z n!/(z)_n termwise: w_1 = 1 and
    (n+z) w_{n+1} = (n+1) w_n, the recurrence of gamma_recurrence from
    w_1 = 1 instead of 1/z, which also holds at z = 0 (w_n = n)."""
    return dataclasses.replace(gamma_recurrence(1), initial_values=(Fraction(1),),
                               param=z)


def test_w_series_first_values():
    s = series_of(w_recurrence(Fraction(1, 2)), 4)
    # w_1 = 1, w_{n+1} = (n+1)/(n+1/2) w_n
    assert s[1] == 1
    assert s[2] == Fraction(2, 1) / Fraction(3, 2)


def naive_w(z: Fraction, order: int) -> list[Fraction]:
    """Independent oracle: w_1 = 1, w_{n+1} = (n+1)/(n+z) w_n, one by one."""
    w = [Fraction(0), Fraction(1)]
    for n in range(1, order):
        w.append(w[n] * (n + 1) / (n + z))
    return w[: order + 1]


@pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(7, 3), Fraction(-5, 2), 5])
def test_w_series_matches_naive_iteration(z):
    assert series_of(w_recurrence(z), 60) == naive_w(Fraction(z), 60)
    assert [z * u for u in series_of(gamma_recurrence(z), 60)] == naive_w(z, 60)


def test_w_series_at_zero_and_at_negative_integers():
    assert series_of(w_recurrence(0), 8) == list(range(9))  # w_n = n at z = 0
    assert ode_series_check_recurrence(w_recurrence(0), 40).passed
    with pytest.raises(CoefficientPole) as info:
        series_of(w_recurrence(-3), 10)
    assert info.value.n == 3
    assert series_of(w_recurrence(-3), 3) == naive_w(Fraction(-3), 3)


# ---------------------------------------------------------------------------
# ODE certificates, derived from the recurrences

def ode_e(m):
    """x(1-x)U' - U(x^2 + (m-1)x + (2-m)) = m x^2, as written by hand:
    ([p_0, p_1], rhs) for p_0 U + p_1 U' = rhs, coefficients from x^0."""
    return [[m - 2, 1 - m, -1], [0, 1, -1]], [0, 0, m]


def ode_pi(m):
    """x(1-x^2)V' + V(m-2 - x - m x^2) = m x^2."""
    return [[m - 2, -1, -m], [0, 1, 0, -1]], [0, 0, m]


def ode_gamma(z):
    """x(1-x)W' + (z-1-x)W = z x for W = z U: the same operator, with
    the right-hand side x, for U."""
    return [[z - 1, -1], [0, 1, -1]], [0, 1]


def ratio(derived, written):
    """The c with derived = c * written, polynomial by polynomial (lists
    from x^0), or None if there is none."""
    pairs = [(Fraction(a), Fraction(b))
             for p, q in zip_longest(derived, written, fillvalue=[])
             for a, b in zip_longest(p, q, fillvalue=0)]
    c = next(a / b for a, b in pairs if b)
    return c if c and all(a == c * b for a, b in pairs) else None


HALVES = [Fraction(2 * m + 1, 2) for m in range(9)]


@pytest.mark.parametrize("build, param, written", [
    *((mirror_e, m, ode_e) for m in range(9)),
    *((mirror_pi, m, ode_pi) for m in range(9)),
    *((gamma_recurrence, z, ode_gamma) for z in HALVES),
])
def test_derived_ode_is_the_hand_written_one(build, param, written):
    ops, rhs = _recurrence_ode(build(param))
    hand_ops, hand_rhs = written(param)
    assert ratio([*ops, rhs], [*hand_ops, hand_rhs]) is not None


@pytest.mark.parametrize("m", range(9))
def test_ode_certificate_e_exact(m):
    res = ode_series_check_recurrence(mirror_e(m), 200)
    assert res.passed and res.first_failure is None


@pytest.mark.parametrize("m", range(9))
def test_ode_certificate_pi_exact(m):
    res = ode_series_check_recurrence(mirror_pi(m), 200)
    assert res.passed and res.first_failure is None


@pytest.mark.parametrize("z", [Fraction(1, 2), 1, 2, Fraction(7, 3), 5])
def test_ode_certificate_gamma_exact(z):
    res = ode_series_check_recurrence(gamma_recurrence(z), 200)
    assert res.passed and res.first_failure is None


# the user recurrence of test_holonomic: degree 3 once its denominators
# in n are cleared
USER_TEXT = """
coeff2: (n+z)/(n+1)
coeff1: -1
coeff0: -1/(2*n+1)
init: n0=1; 0.5, 1
"""


def test_user_recurrence_certified_through_order_200():
    rec = dataclasses.replace(parse_precurrence(USER_TEXT), param=Fraction(1, 3))
    ops, _ = _recurrence_ode(rec)
    assert len(ops) == 4
    res = ode_series_check_recurrence(rec, 200)
    assert res.passed and res.first_failure is None
    assert (res.param, res.order) == (Fraction(1, 3), 200)


def test_ode_certificate_needs_rational_data_and_order():
    with pytest.raises(ValueError):
        ode_series_check_recurrence(mirror_e(0.5), 20)
    with pytest.raises(ValueError):  # z appears but is not given
        ode_series_check_recurrence(parse_precurrence(USER_TEXT), 20)
    with pytest.raises(ValueError):
        ode_series_check_recurrence(mirror_e(1), 9)


def corrupted(rec, order: int, i: int, delta=1) -> tuple[list[int], int]:
    """The exact series of rec, as (nums, den), with delta added to its
    x^i coefficient."""
    nums, den = exact_series(rec, order)
    delta = Fraction(delta)
    nums = [c * delta.denominator for c in nums]
    nums[i] += delta.numerator * den
    return nums, den * delta.denominator


def check_series(monkeypatch, rec, order: int, series: tuple[list[int], int]):
    """The ODE certificate of rec, run on the pair ``series`` in place of
    its exact series."""
    monkeypatch.setattr(certify, "exact_series", lambda *_: series)
    return ode_series_check_recurrence(rec, order)


def test_ode_certificate_mutation_detected(monkeypatch):
    res = check_series(monkeypatch, mirror_e(1), 10, corrupted(mirror_e(1), 10, 5))
    assert not res.passed
    assert res.first_failure is not None and res.first_failure <= 7


def test_ode_certificate_mutation_detected_pi(monkeypatch):
    res = check_series(monkeypatch, mirror_pi(0), 10, corrupted(mirror_pi(0), 10, 4))
    assert not res.passed
    assert res.first_failure is not None and res.first_failure <= 6


def test_ode_certificate_mutation_detected_gamma(monkeypatch):
    rec = gamma_recurrence(Fraction(1, 2))
    res = check_series(monkeypatch, rec, 10, corrupted(rec, 10, 6))
    assert not res.passed
    assert res.first_failure is not None and res.first_failure <= 8


@pytest.mark.parametrize("rec", [
    mirror_e(0), mirror_e(2), mirror_e(5), mirror_pi(0), mirror_pi(3),
    gamma_recurrence(Fraction(1, 2)), gamma_recurrence(Fraction(7, 3)),
], ids=["e-0", "e-2", "e-5", "pi-0", "pi-3", "gamma-1/2", "gamma-7/3"])
def test_every_single_coefficient_corruption_fails_nearby(rec, monkeypatch):
    order = 40
    assert check_series(monkeypatch, rec, order, exact_series(rec, order)).passed
    delta = Fraction(1, 10**30)  # far below double precision
    for i in range(order + 1):
        res = check_series(monkeypatch, rec, order, corrupted(rec, order, i, delta))
        assert not res.passed and i <= res.first_failure <= i + 2, i


@pytest.mark.parametrize("rec", [
    mirror_e(3), mirror_pi(3), gamma_recurrence(Fraction(1, 2)),
], ids=["e", "pi", "gamma"])
def test_every_single_operator_corruption_fails(rec, monkeypatch):
    ops, rhs = _recurrence_ode(rec)
    assert ode_series_check_recurrence(rec, 40).passed
    polys = [*ops, rhs]
    for j, poly in enumerate(polys):
        for i in range(len(poly)):
            bad = [list(p) for p in polys]
            bad[j][i] += 1
            monkeypatch.setattr(certify, "_recurrence_ode",
                                lambda *_, bad=bad: (bad[:-1], bad[-1]))
            assert not ode_series_check_recurrence(rec, 40).passed, (j, i)


def first_nonzero_residual(ops, rhs, coeffs) -> int | None:
    """The first N at which the x^N coefficient of sum_j ops[j](x) D^j U
    - rhs(x) is not 0, U = sum coeffs[n] x^n, term by term in Fractions:
    an oracle for the certificate's integer residual."""
    for n in range(len(coeffs)):
        total = -Fraction(rhs[n] if n < len(rhs) else 0)
        for j, op in enumerate(ops):
            for i, c in enumerate(op[: n + 1]):
                if c:  # x^i D^j U at x^n: (m+1)...(m+j) u_{m+j}, m = n - i
                    m = n - i
                    total += c * math.prod(range(m + 1, m + j + 1)) * coeffs[m + j]
        if total:
            return n
    return None


@pytest.mark.parametrize("rec", [
    mirror_e(3), mirror_pi(3), gamma_recurrence(Fraction(1, 2)),
], ids=["e", "pi", "gamma"])
def test_operator_corruption_fails_where_the_fraction_residual_does(rec, monkeypatch):
    # each entry of ops and rhs bumped in turn: those below x^j in ops[j],
    # whose shift j - i > 0 runs into the top of the series, and those
    # near x^order, some past what the certificate reads
    order = 40
    coeffs = series_of(rec, order)
    ops, rhs = _recurrence_ode(rec)
    polys = [*ops, rhs]
    for j, poly in enumerate(polys):
        for i in [*range(len(poly)), *range(order - 2, order + 2)]:
            bad = [list(p) for p in polys]
            bad[j] += [0] * (i + 1 - len(bad[j]))
            bad[j][i] += 1
            monkeypatch.setattr(certify, "_recurrence_ode",
                                lambda *_, bad=bad: (bad[:-1], bad[-1]))
            want = first_nonzero_residual(bad[:-1], bad[-1], coeffs)
            res = ode_series_check_recurrence(rec, order)
            assert (res.passed, res.first_failure) == (want is None, want), (j, i)


@pytest.mark.parametrize("build, param, written", [
    (mirror_e, 0, ode_e), (mirror_e, 2, ode_e), (mirror_e, 5, ode_e),
    (mirror_pi, 0, ode_pi), (mirror_pi, 3, ode_pi),
    (gamma_recurrence, Fraction(1, 2), ode_gamma),
    (gamma_recurrence, Fraction(7, 3), ode_gamma),
], ids=["e-0", "e-2", "e-5", "pi-0", "pi-3", "gamma-1/2", "gamma-7/3"])
def test_first_failure_matches_a_fraction_residual_of_the_written_ode(
        build, param, written, monkeypatch):
    # the written ODEs differ from the derived ones by a scalar factor,
    # so their residuals vanish at the same coefficients
    rec, order = build(param), 40
    ops, rhs = written(param)
    assert first_nonzero_residual(ops, rhs, series_of(rec, order)) is None
    for i in range(order + 1):
        nums, den = corrupted(rec, order, i, Fraction(1, 10**30))
        want = first_nonzero_residual(ops, rhs, [Fraction(c, den) for c in nums])
        res = check_series(monkeypatch, rec, order, (nums, den))
        assert want is not None and res.first_failure == want, i


def test_one_integer_form_per_certificate(monkeypatch):
    calls = []

    def counted(rec, integer_form=holonomic._integer_form):
        calls.append(rec)
        return integer_form(rec)

    monkeypatch.setattr(holonomic, "_integer_form", counted)
    recs = [mirror_e(3), mirror_pi(0), gamma_recurrence(Fraction(1, 2)),
            dataclasses.replace(parse_precurrence(USER_TEXT), param=Fraction(1, 3))]
    for rec in recs:
        assert ode_series_check_recurrence(rec, 40).passed
    assert calls == recs


def test_one_integer_form_per_recurrence(monkeypatch):
    # both engines, the exact series and the certificate read the one
    # cleared equation of a recurrence; a replaced one clears its own
    calls = []

    def counted(rec, integer_form=holonomic._integer_form):
        calls.append(rec)
        return integer_form(rec)

    monkeypatch.setattr(holonomic, "_integer_form", counted)
    rec = mirror_e(3)
    list(iter_sequence(rec, 40))
    list(iter_sequence(rec, 40, digits=30))
    exact_series(rec, 40)
    assert ode_series_check_recurrence(rec, 40).passed
    assert calls == [rec]
    other = dataclasses.replace(rec, param=Fraction(7, 2))
    assert ode_series_check_recurrence(other, 40).passed
    assert calls == [rec, other]


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


def test_check_record_takes_one_rule():
    rec = check_record("c", 2e-9, {"m_max": 3}, tolerance=1e-9)
    assert rec == {"check": "c", "params": {"m_max": 3, "tolerance": 1e-9},
                   "pass": False, "max_deviation": 2e-9, "details": []}
    assert check_record("c", 1.0, {}, ["why"], passed=True)["pass"] is True
    for rule in ({}, {"tolerance": 1e-9, "passed": True}):
        with pytest.raises(TypeError):
            check_record("c", 0.0, {}, **rule)


def test_f_times_e_matches_quadrature_J():
    for m in range(11):
        assert abs(f_eval(m).real * E - quad_J(m).value) < 1e-9


def test_g_from_L_matches_g_eval():
    for m in (0, 1, 3):
        g_quad = math.sqrt(2 / PI) * quad_L(m).value
        assert abs(g_quad - g_eval(m).real) < 1e-9
