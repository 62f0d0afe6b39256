import cmath
import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from agflab import connection
from agflab.connection import (
    F_SHELL,
    G_SHELL,
    GAMMA_SHELL,
    AsymptoticShell,
    GammaFactor,
    NonConvergence,
    SlopeKind,
    estimate_connection_constant,
    shell_log_eval,
    slope_ratio,
    slope_ratio_numeric_check,
)
from agflab.holonomic import (
    CoefficientPole,
    PRecurrence,
    Poly2,
    RationalFn,
    _first_zero,
    _horner,
    gamma_recurrence,
    iter_sequence,
    mirror_e,
    mirror_pi,
    parse_precurrence,
)


def shell_value(shell, n, z=None):
    """Lambda(n, z) from its log."""
    return cmath.exp(shell_log_eval(shell, n, z))


def test_shell_eval_builtins():
    assert abs(shell_value(F_SHELL, 7) - 7) < 1e-14
    assert abs(shell_value(G_SHELL, 9) - 3) < 1e-14
    assert abs(shell_value(GAMMA_SHELL, 16, 1) - 1) < 1e-13
    assert abs(shell_value(GAMMA_SHELL, 16, 0.5) - 4) < 1e-12


def test_shell_validation():
    with pytest.raises(ValueError):
        AsymptoticShell(lam=0)
    with pytest.raises(ValueError):
        shell_log_eval(GAMMA_SHELL, 5)  # z-dependent exponent, no z


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


@pytest.mark.parametrize("n_base", [17, 33, 1025])
def test_odd_n_base_is_sampled_at_even_n_and_stays_honest(n_base):
    # mirror_pi's (-1)^n companion cancels in the tableau only at even n:
    # sampled from n = 1025, the estimate read 1.0413944e-9 against a true
    # error of 1.0413947e-9
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40
    z = ctx.mpf(1) / 3

    def ratio_a(z):
        return ctx.gamma(z / 2 + 1) * ctx.rgamma((z + 1) / 2)

    want = ctx.sqrt(2) * (ratio_a(z) - ratio_a(z - 1))
    est = estimate_connection_constant(
        mirror_pi(Fraction(1, 3)), G_SHELL, n_base=n_base)
    # a prefix: the window may settle before it holds depth + 1 samples
    assert est.n == tuple((n_base + 1) * 2**k for k in range(len(est.n)))
    assert abs(ctx.mpc(est.value) - want) <= est.error_estimate


def test_extrapolation_gamma_constant():
    # 0.5 == Fraction(1, 2): the estimate of no z
    rec = gamma_recurrence(Fraction(1, 2))
    est = estimate_connection_constant(rec, GAMMA_SHELL, z=0.5)
    assert abs(est.value - math.sqrt(math.pi)) < 1e-6
    assert (dataclasses.replace(est, timing_s=0)
            == dataclasses.replace(estimate_connection_constant(rec, GAMMA_SHELL),
                                   timing_s=0))


def test_recurrence_steps_at_its_own_z_not_the_shells(monkeypatch):
    # the recurrence and the shell both take the exact 7/3; a z for the
    # shell alone, such as the double nearest 7/3 (a 2^54 denominator),
    # is refused before any step
    import agflab.connection as connection
    import agflab.holonomic as holonomic

    seen, shell_zs = [], set()
    real, real_shell = holonomic._integer_form, connection.shell_log_eval

    def spy(rec):
        seen.append(rec.param)
        return real(rec)

    def shell_spy(shell, n, z=None):
        shell_zs.add(z)
        return real_shell(shell, n, z)

    monkeypatch.setattr(holonomic, "_integer_form", spy)
    monkeypatch.setattr(connection, "shell_log_eval", shell_spy)
    rec = gamma_recurrence(Fraction(7, 3))
    with pytest.raises(ValueError, match="recurrence's z"):
        estimate_connection_constant(rec, GAMMA_SHELL, z=complex(7 / 3))
    assert seen == [] and shell_zs == set()
    est = estimate_connection_constant(rec, GAMMA_SHELL)
    assert seen == [Fraction(7, 3)] and type(seen[0]) is Fraction
    assert shell_zs == {Fraction(7, 3)} and type(shell_zs.pop()) is Fraction
    assert abs(est.value - math.gamma(7 / 3)) <= est.error_estimate


@pytest.mark.parametrize("z", [Fraction(7, 3), Fraction(-1, 2), complex(1.5, -0.5)],
                         ids=str)
def test_shell_takes_the_recurrences_z_by_default(z):
    # without a z the shell reads rec.param; a z that equals it gives the
    # same estimate
    rec = gamma_recurrence(z)
    implicit = estimate_connection_constant(rec, GAMMA_SHELL)
    explicit = estimate_connection_constant(rec, GAMMA_SHELL, z=z)
    assert (dataclasses.replace(implicit, timing_s=0)
            == dataclasses.replace(explicit, timing_s=0))


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
    with pytest.raises(NonConvergence):
        estimate_connection_constant(rec, AsymptoticShell(), depth=6, n_base=16)


def test_nonconvergence_on_exponential_blowup():
    # u_n = 2^n: diagonal never settles relative to its own size
    rec = PRecurrence(
        order=1,
        coeffs=(RationalFn(Poly2.const(-2)), RationalFn(Poly2.const(1))),
        initial_index=1,
        initial_values=(1.0,),
        param=0.0,
    )
    with pytest.raises(NonConvergence):
        estimate_connection_constant(rec, AsymptoticShell(), depth=5, n_base=16)


def test_non_finite_sample_names_its_n():
    # u_n = 1.02^n with a two-sample window: no window settles and none
    # grows three levels in a row, and u_n passes the double range past
    # n = 35845, so the sample at 65536 is inf; never a nan estimate
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
    with pytest.raises(NonConvergence, match="n=65536"):
        estimate_connection_constant(rec, AsymptoticShell(), depth=1, n_base=16)


def first_order(lead, init) -> PRecurrence:
    """u_{n+1} = lead(n) u_n from u_1 = init."""
    return PRecurrence(order=1, coeffs=(RationalFn(-lead), RationalFn(Poly2.const(1))),
                       initial_index=1, initial_values=(Fraction(init),))


@pytest.mark.parametrize("rec, shell", [
    # u_n = n! over Gamma(n+1): both pass the double range at n = 171
    (first_order(Poly2.var("n") + Poly2.const(1), 1),
     AsymptoticShell(gamma_factors=(GammaFactor(Fraction(0), 1.0, 1),))),
    # u_n = 2^n over 2^n: past the double range at n = 1024
    (first_order(Poly2.const(2), 2), AsymptoticShell(lam=2)),
], ids=["factorial", "doubling"])
def test_samples_divide_by_the_shell_in_log_space(rec, shell):
    est = estimate_connection_constant(rec, shell)
    assert abs(est.value - 1) <= est.error_estimate < 1e-10


@pytest.mark.parametrize("make, shell", [
    (mirror_e, F_SHELL), (mirror_pi, G_SHELL), (gamma_recurrence, GAMMA_SHELL)],
    ids=["e", "pi", "gamma"])
def test_real_samples_equal_the_complex_division(make, shell, monkeypatch):
    # a real log Lambda divides by a real exp: one rounding at the engine's
    # precision, not a complex exp and division, and the same double samples
    values, samples = [], []
    engine, richardson = connection.iter_values_at, connection._richardson

    def spy_values(rec, ns, digits=None):
        for v in engine(rec, ns, digits):
            values.append(v)
            yield v

    def spy_richardson(column, errors, sample, rounding, size):
        samples.append(sample)
        return richardson(column, errors, sample, rounding, size)

    monkeypatch.setattr(connection, "iter_values_at", spy_values)
    monkeypatch.setattr(connection, "_richardson", spy_richardson)
    rng = random.Random(30)
    for z in [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(3)] + [
            rng.uniform(0.1, 9) for _ in range(3)]:
        values.clear()
        samples.clear()
        est = estimate_connection_constant(make(z), shell)
        unit, want = None, []
        for n, u in zip(est.n, values):
            ratio = u / u.context.exp(complex(shell_log_eval(shell, n, z)))
            if unit is None:
                unit = 2.0 ** -max(-1000, min(1000, u.context.mag(ratio)))
            want.append(complex(ratio * unit))
        assert samples == want, z


def full_tableau(samples, errors):
    """The Richardson tableau over every sample, level by level: its
    diagonal from the corner samples[0], and the rounding bound of its
    last entry."""
    row, err = list(samples), list(errors)
    diag = [row[0]]
    for j in range(1, len(row)):
        factor = 2**j
        row = [(factor * row[i + 1] - row[i]) / (factor - 1) for i in range(len(row) - 1)]
        err = [(factor * err[i + 1] + err[i]) / (factor - 1) + 2.0**-52 * abs(row[i])
               for i in range(len(row))]
        diag.append(row[-1])
    return diag, err[-1]


@pytest.mark.parametrize("size", [2, 3, 5, 7])
def test_tableau_grown_a_sample_at_a_time_equals_the_full_one(size):
    rng = random.Random(size)
    samples = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(12)]
    rounding = [rng.uniform(0, 1e-15) for _ in samples]
    column, errors = [], []
    for k, sample in enumerate(samples, 1):
        column, errors = connection._richardson(column, errors, sample, rounding[k - 1], size)
        window = slice(max(0, k - size), k)
        diag, err = full_tableau(samples[window], rounding[window])
        assert ([samples[window][0], *column[1:]], errors[-1]) == (diag, err)


def limit_oracle(ctx, name, z):
    """The world's function at z, in the 40-digit context ctx."""
    z = ctx.mpf(z.numerator) / z.denominator if isinstance(z, Fraction) else ctx.mpc(z)
    if name == "e":
        return ctx.hyp1f1(2, z + 2, -1) / (z + 1)
    if name == "pi":
        def ratio_a(t):
            return ctx.gamma(t / 2 + 1) * ctx.rgamma((t + 1) / 2)
        return ctx.sqrt(2) * (ratio_a(z) - ratio_a(z - 1))
    return ctx.gamma(z)


def test_adaptive_ladder_is_honest_across_the_worlds():
    # seeded z, rational and complex, |z| <= 30 for e and pi; Gamma to
    # |z| <= 20, past which its tableau stops settling before n = 2^16
    # (8.2e-14 at z = 30).  The 1e-13 bound holds on these points, not on
    # every z: Gamma 39/2 is 1.1e-13 off, with an honest +- of 3.3e-13
    # (all relative)
    from mpmath.ctx_mp import MPContext

    from agflab import worlds

    ctx = MPContext()
    ctx.dps = 40
    rng = random.Random(2026)
    worst = 0.0
    for name, radius in (("e", 30), ("pi", 30), ("gamma", 20)):
        world = worlds.world(name)
        zs = [Fraction(radius)]
        while len(zs) < 15:
            q = rng.randint(2, 4)
            zs.append(Fraction(rng.randint(1, radius * q), q))
            z = complex(rng.uniform(0.1, radius), rng.uniform(-5, 5))
            if abs(z) <= radius:
                zs.append(z)
        for z in zs:
            est = estimate_connection_constant(world.recurrence(z), world.shell)
            want = limit_oracle(ctx, name, z)
            actual = abs(ctx.mpc(est.value) - want)
            assert actual <= est.error_estimate, (name, z)
            worst = max(worst, actual / abs(want))
    assert worst < 1e-13


def test_error_estimate_is_honest_past_the_sweep_radius():
    # seeded log-uniform |z| past the radii above, half of them complex
    # with |arg z| <= pi/4: where the ladder ends unsettled the estimate
    # still moves, and before the error counted that move, 51 of 60 pi
    # and 15 of 60 Gamma estimates read below their true error (limit pi
    # 3000 printed +- 3.15e-08 against 7.9e-08); now each is honest or
    # refused as NonConvergence
    from mpmath.ctx_mp import MPContext

    from agflab import worlds

    ctx = MPContext()
    ctx.dps = 40
    rng = random.Random(2026)
    for name, lo, hi in (("pi", 100, 1e6), ("gamma", 20, 200), ("e", 100, 1e6)):
        world = worlds.world(name)
        returned = 0
        for i in range(20):
            r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            if i % 2:
                z = cmath.rect(r, rng.uniform(-math.pi / 4, math.pi / 4))
            else:
                z = Fraction(round(4 * r), 4)
            try:
                est = estimate_connection_constant(world.recurrence(z), world.shell)
            except NonConvergence:
                continue
            returned += 1
            actual = abs(ctx.mpc(est.value) - limit_oracle(ctx, name, z))
            assert actual <= est.error_estimate, (name, z)
        assert returned >= 5, name


def test_e_world_settles_at_the_third_sample():
    # mirror_e has the exact solution n + z, so u_n/n is C (1 + z/n) plus a
    # factorially small solution: the window of n = 32, 64, 128 settles
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40
    rng = random.Random(33)
    zs = [Fraction(rng.randint(0, 10)) for _ in range(4)]
    zs += [Fraction(rng.randint(-40, 40), rng.randint(2, 4)) for _ in range(4)]
    zs += [complex(rng.uniform(-7, 7), rng.uniform(-7, 7)) for _ in range(4)]
    for z in zs:
        est = estimate_connection_constant(mirror_e(z), F_SHELL)
        assert est.n == (32, 64, 128) and len(est.increments) == 2, z
        assert abs(ctx.mpc(est.value) - limit_oracle(ctx, "e", z)) <= est.error_estimate, z


def test_diagonal_increments_run_from_the_newest_sample():
    # u_n = c + 1/n: T_1 = 2 u_128 - u_64 is c exactly, so the first
    # increment is |T_1 - u_128| = 1/128, not |T_1 - u_32| = 1/32
    est = estimate_connection_constant(known_limit_recurrence(0.73125), AsymptoticShell())
    assert est.n == (32, 64, 128)
    assert est.increments[0] == 1 / est.n[-1]


@pytest.mark.parametrize("z, last", [(6, 4096), (7, 4096), (10, 8192)])
def test_pi_ladders_end_in_a_window_of_eight_samples(capsys, z, last):
    # a window of 8 samples settles a rung before one of 7 would (8192,
    # 8192 and 16384 at --depth 6), and its estimate covers its error
    from mpmath.ctx_mp import MPContext

    from agflab.cli import main

    ctx = MPContext()
    ctx.dps = 40
    assert main(["limit", "pi", str(z), "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n"][-1] == last
    actual = abs(ctx.mpf(record["value"]) - limit_oracle(ctx, "pi", Fraction(z)))
    assert actual <= record["error_estimate"]


def test_estimates_settled_in_short_windows_are_honest():
    # seeded log-uniform z, real and complex, |z| <= 30: every estimate
    # whose window settled before it held depth + 1 samples covers its
    # true error (every e estimate, 5 pi and 9 of 16 Gamma ones)
    from mpmath.ctx_mp import MPContext

    from agflab import worlds

    ctx = MPContext()
    ctx.dps = 40
    rng = random.Random(3033)
    short = dict.fromkeys(("e", "pi", "gamma"), 0)
    for name in short:
        world = worlds.world(name)
        for _ in range(16):
            r = math.exp(rng.uniform(math.log(0.5), math.log(30)))
            z = Fraction(round(4 * r), 4) if rng.random() < 0.5 else cmath.rect(
                r, rng.uniform(-math.pi / 2, math.pi / 2))
            try:
                est = estimate_connection_constant(world.recurrence(z), world.shell)
            except NonConvergence:
                continue
            if len(est.n) < connection.DEPTH + 1:
                short[name] += 1
                actual = abs(ctx.mpc(est.value) - limit_oracle(ctx, name, z))
                assert actual <= est.error_estimate, (name, z)
    assert short["e"] == 16 and short["pi"] > 0 and short["gamma"] > 0, short


def test_a_pole_is_raised_before_any_step(monkeypatch):
    # the leading coefficient (n+z)(n+z+7) vanishes first at n = 93 for
    # z = -100, and the denominator n - 60 at n = 60: the exact engine's
    # pole, raised wherever the ladder would end
    def no_step(*args):
        raise AssertionError("a step was taken")

    text = "coeff2: (n+z)*(n+z+7)\ncoeff1: -1\ncoeff0: {}\ninit: n0=1; 0, 1\n"
    for coeff0, z, n in (("-1", -100, 93), ("-1/(n-60)", Fraction(1, 2), 60)):
        rec = dataclasses.replace(parse_precurrence(text.format(coeff0)), param=z)
        with pytest.raises(CoefficientPole) as exact:
            list(iter_sequence(rec, 200))
        monkeypatch.setattr(connection, "iter_values_at", no_step)
        with pytest.raises(CoefficientPole) as early:
            estimate_connection_constant(rec, AsymptoticShell())
        monkeypatch.undo()
        assert early.value.n == exact.value.n == n
        assert str(early.value) == str(exact.value)


@pytest.mark.parametrize("k", [40, 314, 5000])
def test_a_complex_z_is_never_a_pole(k):
    from agflab import worlds

    for world in worlds.table().values():
        assert world.recurrence(complex(-k, 2.0**-40)).first_pole is None


def test_first_zero_is_the_least_integer_root_at_any_degree():
    rng = random.Random(8)
    for _ in range(400):
        p = [rng.choice((-3, -1, 1, 2))]
        for _ in range(rng.randint(0, 5)):  # times an integer, rational or no root
            factor = rng.choice(([rng.randint(-60, 60), 1], [rng.randint(-9, 9), 3],
                                 [rng.randint(1, 40), 0, 1], [-rng.randint(1, 3000), 0, 1]))
            p = [sum(p[i] * factor[j - i] for i in range(len(p)) if 0 <= j - i < len(factor))
                 for j in range(len(p) + len(factor) - 1)]
        lo = rng.randint(-70, 70)
        want = next((n for n in range(lo, 100) if _horner(p, n) == 0), None)
        assert _first_zero(p, lo) == want, (p, lo)
    assert _first_zero([0, 0], 5) == 5
    assert _first_zero([7], 5) is None
    assert _first_zero([-10**20, 1], 1) == 10**20


def test_extrapolation_config_validation():
    # mirror_e(-1) has a coefficient pole at n = 1: an accepted config
    # fails at the first step, a refused one before it
    def estimate(**cfg):
        return estimate_connection_constant(mirror_e(-1), F_SHELL, **cfg)

    with pytest.raises(ValueError, match="depth"):
        estimate(depth=0)
    with pytest.raises(ValueError, match="n_base"):
        estimate(n_base=8)
    # the first full tableau at n_base * 2^depth is at most 2^24
    for depth, n_base in ((19, 32), (6, 2**18 - 1)):
        with pytest.raises(CoefficientPole):
            estimate(depth=depth, n_base=n_base)
    for depth, n_base in ((20, 32), (6, 2**18 + 1), (40, 32), (10**9, 16)):
        with pytest.raises(ValueError, match="2\\^24"):
            estimate(depth=depth, n_base=n_base)


# ---------------------------------------------------------------------------
# integer slope condition

def test_slope_ratio_polynomial_cases():
    r = slope_ratio(1, 0)
    assert r.kind is SlopeKind.RATIONAL
    for z in (2.0, complex(1.5, -0.3)):
        assert abs(r.eval(z) - z) < 1e-14
    r = slope_ratio(2, 0)
    assert abs(r.eval(1.5) - (3.0 * 4.0)) < 1e-12


def test_slope_ratio_reciprocal_case():
    r = slope_ratio(-1, 0)
    assert r.kind is SlopeKind.RATIONAL
    rng = random.Random(8)
    samples = [complex(rng.uniform(0.5, 3), rng.uniform(0.2, 2)) for _ in range(20)]
    assert slope_ratio_numeric_check(r, -1, 0, samples) < 1e-10
    for z in samples:
        assert abs(r.eval(z) - 1 / (-z - 1)) < 1e-12


def test_slope_ratio_non_integer():
    for alpha in (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                  Fraction(-3, 2), Fraction(5, 3)):
        assert slope_ratio(alpha, 0).kind is SlopeKind.NON_RATIONAL
    with pytest.raises(ValueError):
        slope_ratio(0, 1)
    with pytest.raises(TypeError):
        slope_ratio(0.5, 0)
    with pytest.raises(ValueError, match="no rational form"):
        slope_ratio(Fraction(1, 2), 0).eval(1.0)


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
