import cmath
import math
import random
from fractions import Fraction

import pytest

from agflab.connection import (
    F_SHELL,
    G_SHELL,
    GAMMA_SHELL,
    AsymptoticShell,
    ExtrapolationConfig,
    GammaFactor,
    NonConvergence,
    SlopeKind,
    estimate_connection_constant,
    shell_eval,
    shell_log_eval,
    slope_ratio,
    slope_ratio_numeric_check,
)
from agflab.holonomic import (
    PRecurrence,
    Poly2,
    RationalFn,
    gamma_recurrence,
    mirror_e,
    mirror_pi,
)


def test_shell_eval_builtins():
    assert abs(shell_eval(F_SHELL, 7) - 7) < 1e-14
    assert abs(shell_eval(G_SHELL, 9) - 3) < 1e-14
    assert abs(shell_eval(GAMMA_SHELL, 16, 1) - 1) < 1e-13
    assert abs(shell_eval(GAMMA_SHELL, 16, 0.5) - 4) < 1e-12


def test_shell_validation():
    with pytest.raises(ValueError):
        AsymptoticShell(lam=0)
    with pytest.raises(ValueError):
        shell_eval(GAMMA_SHELL, 5)  # z-dependent exponent, no z


def test_shell_log_space_no_overflow():
    # Gamma factor of multiplicity -1 at n = 10^6: linear value would
    # underflow; the log magnitude stays finite and moderate
    shell = AsymptoticShell(
        gamma_factors=(GammaFactor(Fraction(0), 0.0, -1),)
    )
    lg = shell_log_eval(shell, 10**6, 0.0)
    assert abs(lg) < 1e8
    assert math.isfinite(abs(lg))


def known_limit_recurrence(c: float) -> PRecurrence:
    """Sequence u_n = c + 1/n via (n+2)u_{n+2} - 2(n+1)u_{n+1} + n u_n = 0."""
    n = Poly2.var("n")
    one = Poly2.const(1)
    return PRecurrence(
        order=2,
        coeffs=(
            RationalFn(n),
            RationalFn(Poly2.const(-2) * (n + one)),
            RationalFn(n + Poly2.const(2)),
        ),
        initial_index=1,
        initial_values=(c + 1.0, c + 0.5),
    )


def test_extrapolation_recovers_known_limit():
    c = 0.73125
    unit_shell = AsymptoticShell()
    est = estimate_connection_constant(known_limit_recurrence(c), unit_shell)
    assert abs(est.value - c) < 1e-12


def test_extrapolation_mirror_constants():
    est = estimate_connection_constant(mirror_e(0), F_SHELL)
    assert abs(est.value - 1 / math.e) < 1e-8
    assert est.error_estimate < 1e-8
    est = estimate_connection_constant(mirror_pi(0), G_SHELL)
    assert abs(est.value - math.sqrt(2 / math.pi)) < 1e-6
    assert est.error_estimate < 1e-6


def test_error_estimate_bounds_the_actual_error():
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40

    def ratio_a(z):
        return ctx.gamma(z / 2 + 1) * ctx.rgamma((z + 1) / 2)

    for m in range(11):
        f = ctx.hyp1f1(2, m + 2, -1) / (m + 1)
        g = ctx.sqrt(2) * (ratio_a(ctx.mpf(m)) - ratio_a(ctx.mpf(m - 1)))
        for rec, shell, want in ((mirror_e(m), F_SHELL, f), (mirror_pi(m), G_SHELL, g)):
            est = estimate_connection_constant(rec, shell)
            actual = abs(ctx.mpc(est.value) - want)
            assert actual <= est.error_estimate < 1e-13, (m, shell)


def test_extrapolation_gamma_constant():
    est = estimate_connection_constant(
        gamma_recurrence(Fraction(1, 2)), GAMMA_SHELL, z=0.5
    )
    assert abs(est.value - math.sqrt(math.pi)) < 1e-6


def test_nonconvergence_on_growing_geometric_part():
    # u_n = 1.02^n: each extrapolation level doubles the exponent, so the
    # diagonal increments grow level after level (delta-ratio rule)
    rec = PRecurrence(
        order=1,
        coeffs=(
            RationalFn(Poly2.const(Fraction(-51, 50))),
            RationalFn(Poly2.const(1)),
        ),
        initial_index=1,
        initial_values=(1.02,),
        param=0.0,
    )
    cfg = ExtrapolationConfig(depth=6, n_base=16)
    with pytest.raises(NonConvergence):
        estimate_connection_constant(rec, AsymptoticShell(), cfg=cfg)


def test_nonconvergence_on_exponential_blowup():
    # u_n = 2^n: diagonal never settles relative to its own size
    rec = PRecurrence(
        order=1,
        coeffs=(RationalFn(Poly2.const(-2)), RationalFn(Poly2.const(1))),
        initial_index=1,
        initial_values=(1.0,),
        param=0.0,
    )
    cfg = ExtrapolationConfig(depth=5, n_base=16)
    with pytest.raises(NonConvergence):
        estimate_connection_constant(rec, AsymptoticShell(), cfg=cfg)


def test_extrapolation_config_validation():
    with pytest.raises(ValueError):
        ExtrapolationConfig(depth=0)
    with pytest.raises(ValueError):
        ExtrapolationConfig(n_base=8)


# ---------------------------------------------------------------------------
# integer slope condition

def test_slope_ratio_polynomial_cases():
    r = slope_ratio(1, 0)
    assert r.kind is SlopeKind.RATIONAL
    for z in (2.0, complex(1.5, -0.3)):
        assert abs(r.rational_form.eval(z) - z) < 1e-14
    r = slope_ratio(2, 0)
    assert abs(r.rational_form.eval(1.5) - (3.0 * 4.0)) < 1e-12


def test_slope_ratio_reciprocal_case():
    r = slope_ratio(-1, 0)
    assert r.kind is SlopeKind.RATIONAL
    rng = random.Random(8)
    samples = [complex(rng.uniform(0.5, 3), rng.uniform(0.2, 2)) for _ in range(20)]
    assert slope_ratio_numeric_check(r, -1, 0, samples) < 1e-10
    for z in samples:
        assert abs(r.rational_form.eval(z) - 1 / (-z - 1)) < 1e-12


def test_slope_ratio_non_integer():
    for alpha in (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                  Fraction(-3, 2), Fraction(5, 3)):
        assert slope_ratio(alpha, 0).kind is SlopeKind.NON_RATIONAL
    with pytest.raises(ValueError):
        slope_ratio(0, 1)
    with pytest.raises(TypeError):
        slope_ratio(0.5, 0)


def test_slope_ratio_exhaustive_integer_grid():
    rng = random.Random(616)
    for alpha in [-4, -3, -2, -1, 1, 2, 3, 4]:
        for _ in range(5):
            beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r = slope_ratio(alpha, beta)
            assert r.kind is SlopeKind.RATIONAL
            samples = []
            while len(samples) < 12:
                z = complex(rng.uniform(0.3, 4), rng.uniform(0.5, 3))
                # keep both gamma arguments clear of the pole line
                if abs((alpha * z + beta).imag) > 0.2:
                    samples.append(z)
            assert slope_ratio_numeric_check(r, alpha, beta, samples) < 1e-9


def test_slope_ratio_311_example():
    rng = random.Random(99)
    r = slope_ratio(3, 1)
    samples = [complex(rng.uniform(0.5, 3), rng.uniform(0.3, 2)) for _ in range(20)]
    assert slope_ratio_numeric_check(r, 3, 1, samples) < 1e-10
