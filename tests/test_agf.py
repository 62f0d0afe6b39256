import cmath
import math
import random

import pytest

from agflab.agf import (
    AGFSpec,
    RegularityClass,
    afe_residual,
    classify_regularity,
    f_eval,
    f_eval_confluent_route,
    f_eval_gamma_route,
    f_pole_distance,
    f_spec,
    format_agf_spec,
    g_eval,
    g_pole_distance,
    g_spec,
    gamma_ratio_A,
    gamma_spec,
    grid_points,
    growth_probe,
    parse_agf_spec,
    residual_grid,
    uniqueness_probe,
)
from agflab.complexfn import PoleError, extended, gamma
from agflab.exact import duality_form_e, duality_form_pi
from agflab.holonomic import RecurrenceParseError

E = math.e
PI = math.pi


def test_f_anchor_values():
    assert abs(f_eval(0) - 1 / E) < 1e-12
    # f(1) = e^-1 I_2 with I_2 = e - 2 I_1 = e - 2
    assert abs(f_eval(1) - (1 - 2 / E)) < 1e-12


def test_f_poles():
    for z in (-2, -3, -4.0):
        with pytest.raises(PoleError):
            f_eval(z)
    # -1 is not a pole of f itself
    assert abs(f_eval(-1)) > 0.1


def test_f_three_routes_agree_at_complex_point():
    z = complex(0.7, 1.1)
    a = f_eval(z)
    b = f_eval_gamma_route(z)
    c = f_eval_confluent_route(z)
    assert abs(a - b) < 1e-12
    assert abs(a - c) < 1e-12


def test_f_confluent_route_degenerates_at_minus_one():
    with pytest.raises(PoleError):
        f_eval_confluent_route(-1)


def test_g_anchor_values():
    assert abs(g_eval(0) - math.sqrt(2 / PI)) < 1e-12
    assert abs(g_eval(1) - (PI - 2) / math.sqrt(2 * PI)) < 1e-12
    # one application of the functional equation
    assert abs(g_eval(2) - (g_eval(0) - g_eval(1))) < 1e-13


def test_g_real_on_the_real_axis():
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40

    def oracle(x):  # sqrt(2) (A(x) - A(x-1)) by real Gamma values
        a = lambda t: ctx.gamma(t / 2 + 1) * ctx.rgamma((t + 1) / 2)
        x = ctx.mpf(x)
        return ctx.sqrt(2) * (a(x) - a(x - 1))

    for x in (-0.5, -1.5, -2.25, -3.7, -6.1, 0.5, 2.0, 7.25, complex(-0.5, 0)):
        want = oracle(complex(x).real)
        got = g_eval(x)
        assert type(got) is float
        assert abs(got - want) <= 1e-13 * abs(want)
        got = g_eval(x, extended(30))
        assert got.imag == 0 and not hasattr(got, "_mpc_")
        assert abs(got - want) <= 1e-28 * abs(want)


def test_g_poles():
    for z in (-1, -2, -5.0):
        with pytest.raises(PoleError):
            g_eval(z)


def test_gamma_ratio_A_values():
    # A(1) = Gamma(3/2)/Gamma(1) = sqrt(pi)/2, A(0) = 1/sqrt(pi), A(-1) = 0
    assert abs(gamma_ratio_A(1) - math.sqrt(PI) / 2) < 1e-13
    assert abs(gamma_ratio_A(0) - 1 / math.sqrt(PI)) < 1e-13
    assert gamma_ratio_A(-1) == 0
    with pytest.raises(PoleError):
        gamma_ratio_A(-2)


def test_gamma_ratio_product_relation():
    # A(z) A(z-1) = z/2
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if abs(z.imag) < 0.2:
            continue
        val = gamma_ratio_A(z) * gamma_ratio_A(z - 1)
        assert abs(val - z / 2) <= 1e-11 * abs(z)
        checked += 1


def test_afe_residual_examples():
    fs = f_spec()
    assert abs(afe_residual(fs, f_eval, 0)) < 1e-12
    gs = g_spec()
    z = complex(1.5, 2)
    terms_scale = max(
        abs(gs.coeff_at(k, z) * g_eval(z + k)) for k in range(3)
    )
    assert abs(afe_residual(gs, g_eval, z)) < 1e-10 * terms_scale
    gams = gamma_spec()
    assert abs(afe_residual(gams, gamma, 3)) < 1e-12 * abs(gamma(4))


def test_duality_identity_e_world():
    f0 = f_eval(0)
    for m in range(16):
        form = duality_form_e(m)
        lhs = (-1) ** m * f_eval(m) / f0
        rhs = form.a - E * form.b
        assert abs(lhs - rhs) <= 1e-9 * (form.a + E * form.b)


def test_duality_identity_pi_world():
    g0 = g_eval(0)
    for m in range(16):
        form = duality_form_pi(m)
        lhs = (-1) ** m * g_eval(m) / g0
        rhs = float(form.p) - PI * float(form.q)
        assert abs(lhs - rhs) <= 1e-9 * (float(form.p) + PI * float(form.q))


def test_residual_grid_f():
    pts = grid_points(-1.5, 5, -5, 5, 0.5)
    assert len(pts) == 14 * 21
    worst, rows = residual_grid(f_spec(), f_eval, pts, f_pole_distance)
    assert worst <= 1e-10
    assert len(rows) == len(pts)  # no pole punctures in this window


def test_residual_grid_g():
    pts = grid_points(-1.5, 5, -5, 5, 0.5)
    worst, rows = residual_grid(g_spec(), g_eval, pts, g_pole_distance)
    assert worst <= 1e-10
    assert len(rows) == len(pts) - 1  # z = -1 is punctured


def test_three_route_agreement_on_grid():
    pts = grid_points(-1.5, 5, -5, 5, 0.5)
    worst = 0.0
    for z in pts:
        if abs(z - (-1)) < 1e-3:
            continue  # removable point of the confluent representation
        a = f_eval(z)
        b = f_eval_gamma_route(z)
        c = f_eval_confluent_route(z)
        scale = max(abs(a), 1e-30)
        worst = max(worst, abs(a - b) / scale, abs(a - c) / scale)
    assert worst <= 1e-11


def test_classify_regularity():
    assert classify_regularity(g_spec()) is RegularityClass.REGULAR
    assert classify_regularity(f_spec()) is RegularityClass.IRREGULAR
    assert classify_regularity(gamma_spec()) is RegularityClass.IRREGULAR


def test_growth_probe_f():
    rows = growth_probe(f_eval, 1.0, [10, 20, 40, 80], kind="f")
    normalized = [r["normalized"] for r in rows]
    assert all(b < a for a, b in zip(normalized, normalized[1:]))
    assert normalized[-1] < 0.05


def test_growth_probe_g():
    rows = growth_probe(g_eval, 1.0, [10, 20, 40, 80], kind="g")
    normalized = [r["normalized"] for r in rows]
    assert max(normalized) < 2.0
    assert abs(normalized[-1] - normalized[-2]) < 0.25 * normalized[-2]


def test_growth_probe_raw():
    rows = growth_probe(lambda z: 2.0, 1.0, [5, 10], kind=None)
    assert [r["normalized"] for r in rows] == [2.0, 2.0]


def test_uniqueness_probe_f_needs_and_gets_extended():
    cfg = extended(40)
    h = lambda z: f_eval(z, cfg)
    assert uniqueness_probe(f_spec(), h, h, 0.0, 20) < 1e-8


def test_uniqueness_probe_g():
    cfg = extended(30)
    h = lambda z: g_eval(z, cfg)
    assert uniqueness_probe(g_spec(), h, h, 0.0, 20) < 1e-8


def test_uniqueness_probe_gamma():
    cfg = extended(30)
    h = lambda z: gamma(z, cfg)
    assert uniqueness_probe(gamma_spec(), h, h, 1.0, 15) < 1e-8


def test_uniqueness_probe_rejects_disagreeing_anchors():
    with pytest.raises(ValueError):
        uniqueness_probe(f_spec(), f_eval, lambda z: f_eval(z) + 0.1, 0.0, 5)


def test_agf_spec_validation():
    from agflab.holonomic import Poly2, RationalFn

    with pytest.raises(ValueError):
        AGFSpec(1, (RationalFn.const(0), RationalFn.const(1)), ((0.0, 1.0),))
    with pytest.raises(ValueError):
        AGFSpec(1, (RationalFn.var("n"), RationalFn.const(1)), ((0.0, 1.0),))
    with pytest.raises(ValueError):
        AGFSpec(2, (RationalFn.const(1), RationalFn.const(1),
                    RationalFn.const(1)), ((0.0, 1.0),))


def test_agf_spec_text_roundtrip():
    for spec in (f_spec(), g_spec(), gamma_spec()):
        text = format_agf_spec(spec)
        back = parse_agf_spec(text)
        assert back.order == spec.order
        for k in range(spec.order + 1):
            for z in (0.25, 3.0, complex(1.2, -0.4)):
                assert abs(complex(back.coeff_at(k, z))
                           - complex(spec.coeff_at(k, z))) < 1e-12
        for (p1, v1), (p2, v2) in zip(back.anchors, spec.anchors):
            assert p1 == p2
            assert abs(complex(v1) - complex(v2)) < 1e-15


def test_agf_spec_text_errors():
    with pytest.raises(RecurrenceParseError):
        parse_agf_spec("coeff1: n+1\ncoeff0: 1\nz0=0: 1.0")  # n not allowed
    with pytest.raises(RecurrenceParseError):
        parse_agf_spec("coeff1: z\nz0=0: 1.0\nz0=1: 2.0")  # anchor count
