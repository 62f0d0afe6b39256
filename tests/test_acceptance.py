"""End-to-end acceptance suite.

Each test drives one headline guarantee of the library at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to
see them all).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from agflab.agf import (
    RegularityClass,
    classify_regularity,
    f_eval,
    f_eval_confluent_route,
    f_eval_gamma_route,
    f_pole_distance,
    f_spec,
    g_eval,
    g_pole_distance,
    g_spec,
    gamma_spec,
    grid_points,
    growth_probe,
    residual_grid,
)
from agflab.certify import (
    identity_chain_e,
    identity_chain_pi,
    ode_series_check_recurrence,
    quad_L,
)
from agflab.complexfn import hyp1f1, lower_incomplete_gamma
from agflab.connection import (
    F_SHELL,
    G_SHELL,
    GAMMA_SHELL,
    SlopeKind,
    estimate_connection_constant,
    slope_ratio,
    slope_ratio_numeric_check,
)
from agflab.exact import duality_form_e, duality_form_pi
from agflab.holonomic import gamma_recurrence, mirror_e, mirror_pi

E = math.e
PI = math.pi
SEED = 20260808


def report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_mirror_limits():
    t0 = time.monotonic()
    est_f = estimate_connection_constant(mirror_e(0), F_SHELL)
    e_est = 1 / est_f.value.real
    dt_e = time.monotonic() - t0
    t0 = time.monotonic()
    est_g = estimate_connection_constant(mirror_pi(0), G_SHELL)
    pi_est = 2 / est_g.value.real**2
    dt_pi = time.monotonic() - t0
    ok = abs(e_est - E) < 1e-8 and abs(pi_est - PI) < 1e-6
    ok = ok and dt_e < 10 and dt_pi < 10
    report(
        "01 mirror-limits",
        ok,
        f"|e_est-e|={abs(e_est - E):.2e}, |pi_est-pi|={abs(pi_est - PI):.2e}, "
        f"runtimes {dt_e:.1f}s/{dt_pi:.1f}s",
    )


def test_02_connection_constants_match_explicit_formulas():
    t0 = time.monotonic()
    worst = 0.0
    for m in range(11):
        est = estimate_connection_constant(mirror_e(m), F_SHELL)
        ref = f_eval(m).real
        worst = max(worst, abs(est.value.real - ref) / abs(ref))
        est = estimate_connection_constant(mirror_pi(m), G_SHELL)
        ref = g_eval(m).real
        worst = max(worst, abs(est.value.real - ref) / abs(ref))
    dt = time.monotonic() - t0
    ok = worst < 1e-6 and dt < 60
    report(
        "02 connection-constants",
        ok,
        f"worst relative {worst:.2e} over m=0..10, runtime {dt:.1f}s",
    )


def test_03_arithmetic_duality():
    f0 = f_eval(0)
    g0 = g_eval(0)
    worst_e = worst_pi = 0.0
    for m in range(16):
        form = duality_form_e(m)
        dev = abs((-1) ** m * f_eval(m) / f0 - (form.a - E * form.b))
        worst_e = max(worst_e, dev / (form.a + E * form.b))
        fpq = duality_form_pi(m)
        dev = abs((-1) ** m * g_eval(m) / g0 - (float(fpq.p) - PI * float(fpq.q)))
        worst_pi = max(worst_pi, dev / (float(fpq.p) + PI * float(fpq.q)))
    # closed forms vs recurrences, exact, m <= 100 (construction cross-checks)
    for m in range(101):
        duality_form_pi(m)
    ok = worst_e <= 1e-9 and worst_pi <= 1e-9
    report(
        "03 arithmetic-duality",
        ok,
        f"scaled residuals e-world {worst_e:.2e}, pi-world {worst_pi:.2e}, "
        f"closed forms exact to m=100",
    )


def test_04_explicit_formula_anchors():
    devs = {
        "f(0)": abs(f_eval(0) - 1 / E),
        "f(1)": abs(f_eval(1) - (1 - 2 / E)),
        "g(0)": abs(g_eval(0) - math.sqrt(2 / PI)),
        "g(1)": abs(g_eval(1) - (PI - 2) / math.sqrt(2 * PI)),
        "gamma(2,-1)": abs(lower_incomplete_gamma(2, -1) - 1),
    }
    worst = max(devs.values())
    report("04 explicit-anchors", worst <= 1e-12,
           f"worst absolute deviation {worst:.2e}")


def test_05_afe_residual_grids():
    t0 = time.monotonic()
    pts = grid_points(-1.5, 5, -5, 5, 0.5)
    worst_f, _ = residual_grid(f_spec(), f_eval, pts, f_pole_distance)
    worst_g, _ = residual_grid(g_spec(), g_eval, pts, g_pole_distance)
    dt = time.monotonic() - t0
    ok = worst_f <= 1e-10 and worst_g <= 1e-10 and dt < 30
    report(
        "05 afe-residual-grids",
        ok,
        f"max relative residual f {worst_f:.2e}, g {worst_g:.2e}, "
        f"runtime {dt:.1f}s",
    )


def test_06_three_route_agreement():
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
    report("06 three-route-agreement", worst <= 1e-11,
           f"max relative spread {worst:.2e}")


def test_07_integer_slope_condition():
    rng = random.Random(SEED)
    worst = 0.0
    for alpha in (-4, -3, -2, -1, 1, 2, 3, 4):
        for _ in range(5):
            beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            result = slope_ratio(alpha, beta)
            assert result.kind is SlopeKind.RATIONAL
            samples = []
            while len(samples) < 10:
                z = complex(rng.uniform(0.3, 4), rng.uniform(0.5, 3))
                if abs((alpha * z + beta).imag) > 0.2:
                    samples.append(z)
            worst = max(worst, slope_ratio_numeric_check(result, alpha, beta, samples))
    non_integer_ok = all(
        slope_ratio(a, 0.3).kind is SlopeKind.NON_RATIONAL
        for a in (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                  Fraction(-3, 2), Fraction(5, 3))
    )
    ok = worst <= 1e-9 and non_integer_ok
    report("07 integer-slope", ok,
           f"max symbolic/numeric deviation {worst:.2e}, "
           f"non-integer slopes all rejected: {non_integer_ok}")


def test_08_ode_certificates():
    t0 = time.monotonic()
    ok = True
    for m in range(9):
        for rec in (mirror_e(m), mirror_pi(m),
                    gamma_recurrence(Fraction(2 * m + 1, 2))):
            ok = ok and ode_series_check_recurrence(rec, 200).passed
    dt = time.monotonic() - t0
    ok = ok and dt < 20
    report("08 ode-certificates", ok,
           f"coefficient-wise exact through order 200, runtime {dt:.1f}s")


def test_09_identity_chains():
    rep_e = identity_chain_e(12)
    rep_pi = identity_chain_pi(12)
    l1 = abs(quad_L(1).value - (PI / 2 - 1))
    l2 = abs(quad_L(2).value - (2 - PI / 2))
    ok = rep_e["pass"] and rep_pi["pass"] and l1 <= 1e-10 and l2 <= 1e-10
    report(
        "09 identity-chains",
        ok,
        f"e-chain {rep_e['max_deviation']:.2e}, pi-chain "
        f"{rep_pi['max_deviation']:.2e}, L1/L2 anchors {max(l1, l2):.2e}",
    )


def test_10_growth_probes():
    ims = [10.0, 20.0, 40.0, 80.0]
    f_rows = growth_probe(f_eval, 1.0, ims, kind="f")
    f_norm = [r["normalized"] for r in f_rows]
    f_ok = all(b < a for a, b in zip(f_norm, f_norm[1:])) and f_norm[-1] < 0.05
    g_rows = growth_probe(g_eval, 1.0, ims, kind="g")
    g_norm = [r["normalized"] for r in g_rows]
    g_ok = abs(g_norm[-1] - g_norm[-2]) < 0.25 * g_norm[-2]
    report(
        "10 growth-probes",
        f_ok and g_ok,
        f"f normalized final {f_norm[-1]:.3f} (decreasing), "
        f"g last-doubling variation {abs(g_norm[-1] - g_norm[-2]) / g_norm[-2]:.3f}",
    )


def test_11_gamma_as_connection_constant():
    est = estimate_connection_constant(
        gamma_recurrence(Fraction(1, 2)), GAMMA_SHELL, z=0.5
    )
    dev = abs(est.value.real - math.sqrt(PI))
    report("11 gamma-connection-constant", dev < 1e-6,
           f"|estimate - sqrt(pi)| = {dev:.2e}")


def test_12_kummer_transformation():
    import cmath

    rng = random.Random(SEED)
    worst = 0.0
    count = 0
    while count < 50:
        a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        b = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(x) > 2 or (abs(b.imag) < 0.3 and b.real < 0.5):
            continue
        lhs = hyp1f1(a, b, x)
        rhs = cmath.exp(x) * hyp1f1(b - a, b, -x)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
        count += 1
    report("12 kummer-transformation", worst <= 1e-11,
           f"max relative deviation {worst:.2e} over 50 seeded samples")


def test_13_regularity_classifier():
    got = (
        classify_regularity(g_spec()),
        classify_regularity(f_spec()),
        classify_regularity(gamma_spec()),
    )
    want = (
        RegularityClass.REGULAR,
        RegularityClass.IRREGULAR,
        RegularityClass.IRREGULAR,
    )
    report("13 regularity-classifier", got == want,
           f"g={got[0].value}, f={got[1].value}, gamma={got[2].value}")
