import cmath
import math
import random
from fractions import Fraction

import pytest
from mpmath import fp
from mpmath.ctx_mp import MPContext

from agflab import complexfn, worlds
from agflab.agf import (
    _G_SERIES_C,
    _G_SERIES_E,
    G_RADIUS,
    AGFSpec,
    DomainError,
    RegularityClass,
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
    residual_table,
)
from agflab.complexfn import (
    DOUBLE,
    PoleError,
    _lgamma_lanczos,
    extended,
    gamma,
    hyp1f1,
    log_gamma,
    lower_incomplete_gamma,
)
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


class _Formulas:
    """The library's formulas written again over ``ctx``, each argument of
    1F1 through ``ctx.convert``: mpmath.fp with the Lanczos log-Gamma is
    double precision, an MPContext at the working digits plus 10 the
    extended mode.  Poles are the caller's to avoid."""

    def __init__(self, ctx, loggamma):
        self.ctx, self.loggamma = ctx, loggamma

    def to(self, z):
        return self.ctx.mpc(z if type(z) is complex else self.ctx.convert(z)) + 0

    def hyp1f1(self, a, b, x):
        return self.ctx.hyp1f1(*map(self.ctx.convert, (a, b, x)))

    def lower_incomplete_gamma(self, a, x):
        ctx, aa = self.ctx, self.to(a)
        if x == 0:
            return ctx.mpc(0)
        xa = ctx.exp(aa * (ctx.log(abs(x)) + (ctx.pi * 1j if x < 0 else 0)))
        return xa / aa * self.hyp1f1(aa, aa + 1, -x)

    def f_eval_gamma_route(self, z):
        ctx, zz = self.ctx, self.to(z)
        return ctx.exp(-1 - 1j * ctx.pi * zz) * self.lower_incomplete_gamma(zz + 2, -1.0)

    def f_eval_confluent_route(self, z):
        zz = self.to(z)
        return self.hyp1f1(2, zz + 2, -1) / (zz + 1)

    def f_eval(self, z):
        ctx = self.ctx
        real = not isinstance(z, complex) and not hasattr(z, "_mpc_")
        z2 = (ctx.convert(z) if real else self.to(z)) + 2
        total, term, k = ctx.mpc(0), ctx.mpf(1), 0
        while term >= ctx.eps / 1000:
            total += term / (z2 + k)
            k += 1
            term /= k
        return total / ctx.e

    def log_gamma(self, z):
        return self.loggamma(self.to(z))

    def gamma(self, z):
        return self.ctx.exp(self.log_gamma(z))

    def gamma_ratio_A(self, z):
        zz = self.to(z)
        return self.ctx.exp(self.loggamma(zz / 2 + 1) - self.loggamma((zz + 1) / 2))

    def g_eval(self, z):  # the three-log-Gamma route
        ctx, lg, zz = self.ctx, self.loggamma, self.to(z)
        mid = lg((zz + 1) / 2)
        a_prev = 0 if zz == 0 else ctx.exp(mid - lg(zz / 2))
        g = ctx.sqrt(2) * (ctx.exp(lg(zz / 2 + 1) - mid) - a_prev)
        return g.real if zz.imag == 0 else g


_ROUTES = {f.__name__: f for f in (
    f_eval, f_eval_gamma_route, f_eval_confluent_route, g_eval, log_gamma, gamma,
    gamma_ratio_A)}


def _check_formulas(cfg, formulas, points, bits, mp):
    """Every public formula at ``points``, 1F1 and the lower incomplete
    gamma also at further arguments, some of them numbers of the mpmath
    context ``mp``; equal in ``bits`` to ``formulas``."""
    series = not cfg.is_extended  # g's double-only large-|z| series
    for z in points:
        zc = complex(z)
        for name, route in _ROUTES.items():
            if name == "g_eval" and series and abs(zc) >= 20 and zc.real >= -abs(zc.imag):
                continue
            try:
                got = route(z, cfg)
            except PoleError:  # Gamma's at 0
                assert name in ("log_gamma", "gamma") and zc == 0
                continue
            assert bits(got) == bits(getattr(formulas, name)(z)), (name, z)
        a = z + 2
        for x in (-1.0, 0.5, 2, 0, Fraction(-1, 3), mp.mpf(-0.75)):
            assert bits(lower_incomplete_gamma(a, x, cfg)) == bits(
                formulas.lower_incomplete_gamma(a, x)), (z, x)
        for args in ((2, a, -1), (a, a + 1, 1.0), (Fraction(1, 3), a, Fraction(-1, 2)),
                     (mp.mpf(1.5), a, mp.mpf(-1)), (a, Fraction(5, 2), 0.25)):
            assert bits(hyp1f1(*args, cfg)) == bits(formulas.hyp1f1(*args)), args


def test_double_routes_are_their_mpmath_fp_formulas():
    # the formulas in mpmath.fp, with the Lanczos log-Gamma, are the
    # oracle; == on the bits of both parts, the sign of a zero among them
    def bits(v):
        return type(v), v.real.hex(), v.imag.hex()

    rng = random.Random(24)
    ctx = MPContext()
    points = [complex(rng.uniform(-1.5, 12), rng.uniform(-80, 80)) for _ in range(60)]
    points += [complex(rng.uniform(-1.9, 9), 0.0) for _ in range(10)]
    points += [complex(1.5, -0.0), 2.25, 0.5, 3, Fraction(7, 3), ctx.mpf(0.3),
               ctx.mpc(1.25, -0.0), 0, complex(-7.5, 3), -14.25]
    _check_formulas(DOUBLE, _Formulas(fp, _lgamma_lanczos), points, bits, ctx)
    for route in (f_eval_gamma_route, f_eval_confluent_route):  # -0.0 reads as +0.0
        for x in (0.5, 2.25, -1.5):
            assert bits(route(complex(x, -0.0))) == bits(route(x)), (route, x)
    with pytest.raises(PoleError):
        f_eval_confluent_route(-1)
    for z in (-2, -3, -3.0, complex(-2, 0)):
        for route in (f_eval_gamma_route, f_eval_confluent_route):
            with pytest.raises(PoleError):
                route(z)


@pytest.mark.parametrize("digits", [20, 30, 60])
def test_extended_routes_are_their_mpmath_formulas(digits):
    # the same formulas over a separate MPContext at digits + 10; == on
    # both parts, compared as mpmath's (sign, mantissa, exponent, bits)
    def bits(v):
        return v.real._mpf_, v.imag._mpf_

    oracle = MPContext()
    oracle.dps = digits + 10
    other = MPContext()  # arguments from a context of another precision
    other.dps = digits + 25
    rng = random.Random(digits)
    points = [complex(rng.uniform(-1.5, 12), rng.uniform(-30, 30)) for _ in range(8)]
    points += [2.25, 3, -0.5, complex(-7.5, 3), 0, Fraction(7, 3),
               other.mpf(1) / 3, other.mpc(2, -1) / 7, complex(25, 0), complex(30, 40)]
    _check_formulas(extended(digits), _Formulas(oracle, oracle.loggamma), points,
                    bits, other)


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

    for x in (-0.5, -1.5, -2.25, -3.7, -6.1, 0.5, 2.0, 7.25, complex(-0.5, 0), 20.0,
              300.5, complex(45, 0)):
        want = oracle(complex(x).real)
        got = g_eval(x)
        assert type(got) is float
        assert abs(got - want) <= 1e-13 * abs(want)
        got = g_eval(x, extended(30))
        assert got.imag == 0 and not hasattr(got, "_mpc_")
        assert abs(got - want) <= 1e-28 * abs(want)


def test_g_far_up_the_imaginary_axis():
    # A(z-1) takes Gamma(z/2) through the reflection branch, where
    # sin(pi z/2) overflows a double at |Im z| = 800
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40

    def a(t):
        return ctx.gamma(t / 2 + 1) / ctx.gamma((t + 1) / 2)

    for z in (800j, -800j):
        want = ctx.sqrt(2) * (a(ctx.mpc(z)) - a(ctx.mpc(z) - 1))
        assert abs(g_eval(z) - want) <= 1e-9 * abs(want)


def test_g_holds_eight_digits_up_to_its_radius():
    from mpmath.ctx_mp import MPContext

    ctx = MPContext()
    ctx.dps = 40

    def a(t):
        return ctx.gamma(t / 2 + 1) * ctx.rgamma((t + 1) / 2)

    rng = random.Random(1300)
    for _ in range(60):
        z = cmath.rect(G_RADIUS * rng.uniform(0.5, 1), rng.uniform(-math.pi, math.pi))
        want = ctx.sqrt(2) * (a(ctx.mpc(z)) - a(ctx.mpc(z) - 1))
        assert abs(g_eval(z) - want) <= 1e-8 * abs(want), z


def test_g_refuses_points_past_its_radius():
    # at 1e10+1e10i, A(z) and A(z-1) are about 8e4 and their difference
    # was all rounding: -0.98-2.37i for 3.9e-6-1.6e-6i
    for z in (complex(1e10, 1e10), 1.01j * G_RADIUS, -1.01 * G_RADIUS - 0.5):
        with pytest.raises(DomainError):
            g_eval(z)
    with pytest.raises(DomainError):
        g_eval(complex(1e10, 1e10), extended(30))


def test_g_keeps_its_digits_beside_zero():
    # z within 1e-12 of 0 has the nearest integer 0, which is no pole of
    # g; there A(z-1) is z/(2 A(z)), and the log-Gammas of A(z-1) would
    # lose digits (2e-15 relative at 1e-15 and 30 digits)
    ctx = MPContext()
    ctx.dps = 40
    for z in (1e-13, -1e-13, 9e-13, -9e-13, 1e-13j, 1e-300, 5e-324):
        want = _g_oracle(ctx, z)
        assert abs(g_eval(z) - want) <= 1e-15 * abs(want), z
    for z in (Fraction(1, 10**15), Fraction(-1, 10**13)):
        want = _g_oracle(ctx, ctx.mpf(z.numerator) / z.denominator)
        assert abs(g_eval(z, extended(30)) - want) <= 1e-29 * abs(want), z
    # at 0 itself A(-1) = 0, and g keeps its bits
    assert repr(g_eval(0)) == "0.7978845608028651"
    assert repr(g_eval(0, extended(30))) == "mpf('0.7978845608028653558798921198687637369517055')"


def test_g_poles():
    for z in (-1, -2, -5.0):
        with pytest.raises(PoleError):
            g_eval(z)


def test_pole_and_domain_messages():
    cases = [(lambda: g_eval(-3), PoleError, "g pole at z=-3"),
             (lambda: g_eval(complex(-2, 1e-13), extended(30)), PoleError,
              "g pole at z=-2"),
             (lambda: gamma_ratio_A(-2), PoleError, "A(z) pole at z=-2"),
             (lambda: f_eval(-4.0), PoleError, "f pole at z=-4"),
             (lambda: log_gamma(-1), PoleError, "gamma pole at z=-1"),
             (lambda: g_eval(1400), DomainError,
              "g is evaluated only for |z| <= 1300; |z| = 1400"),
             (lambda: g_eval(1300.0000001), DomainError,
              "g is evaluated only for |z| <= 1300; |z| = 1300.0000001")]
    for call, kind, message in cases:
        with pytest.raises(kind) as exc:
            call()
        assert str(exc.value) == message
    assert gamma_ratio_A(-1) == 0 and gamma_ratio_A(-1, extended(30)) == 0


def test_g_is_the_two_ratio_form_exactly():
    # g shares lgGamma((z+1)/2) between A(z) and A(z-1); where z - 1 + 1
    # is z, as on the quarter grid, no bit may move.  Off the large-|z|
    # series' region (|z| >= 20, Re z >= -|Im z|) in double precision, and
    # everywhere in extended precision, g takes this route
    points = [0, 1, -0.5, -1.5] + [complex(a / 4, b / 4) for a in range(-14, 41, 3)
                                   for b in range(-36, 37, 9)]
    points += [19.75, 19.75j, complex(15.75, -12), complex(-14, 14), complex(-25, 20),
               complex(-20.25, -20), -100.5, complex(-30, 29.75), complex(-900, 0.5)]
    series_region = [20, 20j, complex(1, 40), complex(1, 80), complex(30, 10),
                     complex(-20, 20), complex(-25, -25.25), 1000]
    for cfg, extra in ((DOUBLE, []), (extended(30), series_region)):
        sqrt2 = cfg.ctx.sqrt(2)
        for z in points + extra:
            if g_pole_distance(z) < 1e-3:
                continue
            want = sqrt2 * (gamma_ratio_A(z, cfg) - gamma_ratio_A(z - 1, cfg))
            assert g_eval(z, cfg) == (want.real if complex(z).imag == 0 else want), z


def _oracle_region(radius):
    """200 seeded points with |z| <= radius, Re z > 0.1 and |Im z| <= radius/3."""
    rng = random.Random(radius)
    points = []
    while len(points) < 200:
        z = complex(rng.uniform(0.1, radius), rng.uniform(-radius / 3, radius / 3))
        if abs(z) <= radius:
            points.append(z)
    return points


@pytest.mark.parametrize("radius, f_tol, g_tol, lg_tol", [
    (10, 5.2e-16, 1.4e-13, 7.9e-15),
    (60, 5.4e-16, 5.2e-12, 1.2e-13),
])
def test_double_f_g_log_gamma_against_40_digits(radius, f_tol, g_tol, lg_tol):
    # each bound is the worst error of these points before g shared its
    # middle log-Gamma, rounded up to two digits; log_gamma's error is
    # taken modulo 2 pi i, and is the relative error of Gamma
    ctx = MPContext()
    ctx.dps = 40

    def a(t):
        return ctx.gamma(t / 2 + 1) * ctx.rgamma((t + 1) / 2)

    for z in _oracle_region(radius):
        w = ctx.mpc(z)
        f_want = ctx.fsum(1 / (ctx.factorial(k) * (w + 2 + k)) for k in range(60)) / ctx.e
        assert abs(f_eval(z) - f_want) <= f_tol * abs(f_want), z
        g_want = ctx.sqrt(2) * (a(w) - a(w - 1))
        assert abs(g_eval(z) - g_want) <= g_tol * abs(g_want), z
        d = log_gamma(z) - ctx.loggamma(w)
        assert abs(d - 2j * ctx.pi * ctx.nint(d.imag / (2 * ctx.pi))) <= lg_tol, z


def _sector_band(lo, hi, count):
    """``count`` seeded points with lo <= |z| <= hi and |arg z| <= 3 pi/4."""
    rng = random.Random(hi)
    return [cmath.rect(rng.uniform(lo, hi), rng.uniform(-0.75 * PI, 0.75 * PI))
            for _ in range(count)]


def _g_oracle(ctx, z):
    """g(z) = sqrt(2) [A(z) - A(z-1)] from the Gamma values of ``ctx``."""
    def a(t):
        return ctx.gamma(t / 2 + 1) * ctx.rgamma((t + 1) / 2)

    w = ctx.mpc(z)
    return ctx.sqrt(2) * (a(w) - a(w - 1))


@pytest.mark.parametrize("lo, hi, tol", [
    (20, 20.001, 6.8e-16),
    (20, 40, 4.9e-16),
    (40, 300, 3.8e-16),
    (300, 1300, 4.8e-16),
])
def test_double_g_series_against_40_digits(lo, hi, tol):
    # each bound is the worst error of these points, rounded up to two
    # digits; the three-log-Gamma route's worst on them, rounded the same
    # way, is 6.9e-12, 1.7e-11, 2.4e-10 and 8.4e-9
    ctx = MPContext()
    ctx.dps = 40
    for z in _sector_band(lo, hi, 400):
        want = _g_oracle(ctx, z)
        assert abs(g_eval(z) - want) <= tol * abs(want), z


def test_g_routes_agree_where_they_meet():
    # on |z| = 20 the series route meets the three-log-Gamma route (the
    # two-ratio form), whose worst error against 40-digit mpmath at these
    # points is 6.7e-12
    ctx = MPContext()
    ctx.dps = 40
    worst = 0.0
    for z in _sector_band(20, 20 + 1e-12, 200):
        assert abs(z) >= 20
        log_gamma_route = math.sqrt(2) * (gamma_ratio_A(z) - gamma_ratio_A(z - 1))
        want = _g_oracle(ctx, z)
        worst = max(worst, abs(log_gamma_route - want) / abs(want))
        assert abs(g_eval(z) - log_gamma_route) <= 6.8e-12 * abs(g_eval(z)), z
    assert worst <= 6.8e-12


def test_g_residual_where_the_routes_mix():
    # the AFE residual sums g at z, z+1 and z+2, taken from different
    # routes on this window, which straddles |z| = 20
    pts = grid_points(8, 12, 14, 18, 0.25)
    assert min(map(abs, pts)) < 20 < max(map(abs, pts))
    rows = residual_table(g_spec(), g_eval, pts, g_pole_distance)
    assert all(rel is not None and rel <= 1e-10 for _, _, _, rel in rows)


def test_g_series_coefficients_are_the_exact_derivation():
    # log C(t) = sum_m B_2m (2 - 2^(1-2m)) / (2m(2m-1)) t^(2m-1) for
    # C(t) = A(z)/sqrt(z/2), t = 2/z; E(t) = 2 (C(t)^2 - 1)/t = 2 A(z)^2 - z
    n = len(_G_SERIES_C)
    bernoulli = [Fraction(1)]  # B_0, B_1, ..., B_n by sum_j C(m+1, j) B_j = 0
    for m in range(1, n + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * b for j, b in enumerate(bernoulli))
                         / (m + 1))
    log_c = [Fraction(0)] * n
    for m in range(1, n // 2 + 1):
        log_c[2 * m - 1] = (bernoulli[2 * m] * (2 - Fraction(2) ** (1 - 2 * m))
                            / (2 * m * (2 * m - 1)))
    c = [Fraction(1)]  # the exponential: k c_k = sum_j j log_c[j] c_(k-j)
    for k in range(1, n):
        c.append(sum(j * log_c[j] * c[k - j] for j in range(1, k + 1)) / k)
    c_squared = [sum(c[i] * c[k - i] for i in range(k + 1)) for k in range(n)]
    assert list(_G_SERIES_C) == c
    assert list(_G_SERIES_E) == [2 * s for s in c_squared[1:]]
    assert _G_SERIES_C[:5] == (1, Fraction(1, 8), Fraction(1, 128), Fraction(-5, 1024),
                               Fraction(-21, 32768))
    assert _G_SERIES_E[:5] == (Fraction(1, 2), Fraction(1, 16), Fraction(-1, 64),
                               Fraction(-5, 1024), Fraction(23, 4096))


def test_each_spec_is_built_once():
    assert f_spec() is f_spec() and g_spec() is g_spec() and gamma_spec() is gamma_spec()
    assert worlds.world("e").spec is f_spec() and worlds.world("pi").spec is g_spec()


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
    def residual(spec, h, z):
        [(_, _, res, _)] = residual_table(spec, h, [z], lambda w: math.inf)
        return res

    assert abs(residual(f_spec(), f_eval, 0)) < 1e-12
    gs = g_spec()
    z = complex(1.5, 2)
    terms_scale = max(
        abs(gs.coeff_at(k, z) * g_eval(z + k)) for k in range(3)
    )
    assert abs(residual(gs, g_eval, z)) < 1e-10 * terms_scale
    assert abs(residual(gamma_spec(), gamma, 3)) < 1e-12 * abs(gamma(4))


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
    assert [z for z, *_ in rows] == pts  # the residual_table rows
    assert all(rel is not None for *_, rel in rows)  # no pole punctures here


def test_residual_grid_g():
    pts = grid_points(-1.5, 5, -5, 5, 0.5)
    worst, rows = residual_grid(g_spec(), g_eval, pts, g_pole_distance)
    assert worst <= 1e-10
    assert [z for z, *_, rel in rows if rel is None] == [-1]  # z = -1 is punctured


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


def test_growth_probe_rejects_an_unknown_kind():
    for kind in (None, "raw", "F"):
        with pytest.raises(ValueError, match="kind must be 'f' or 'g'"):
            growth_probe(f_eval, 1.0, [10, 20], kind=kind)


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


def test_residual_table_punctures_each_argument_once():
    seen = []

    def distance(w):
        seen.append(w)
        return f_pole_distance(w)

    evaluated = []

    def h(w):
        evaluated.append(w)
        return f_eval(w)

    near = complex(-2 + 5e-4, 0)  # inside the 1e-3 puncture, no PoleError
    rows = residual_table(f_spec(), h, grid_points(-2.5, 0.5, 0, 0.5, 0.5) + [near],
                          distance)
    assert len(seen) == len(set(seen))
    assert rows[-1] == (near, None, None, None)
    # h runs at most once per argument, and never inside the puncture
    assert len(evaluated) == len(set(evaluated))
    assert set(evaluated) == {w for w in seen if f_pole_distance(w) >= 1e-3}
    assert near not in evaluated and -2 not in evaluated


def test_residual_table_shares_g_log_gammas_within_its_pass(monkeypatch):
    # a pass runs fewer Lanczos sums than g point by point, for the same
    # values, and keeps none of them after it returns
    calls = []
    lanczos = complexfn._lgamma_lanczos
    counted = lambda z: calls.append(z) or lanczos(z)  # noqa: E731
    monkeypatch.setattr(complexfn, "_lgamma_lanczos", counted)
    monkeypatch.setattr(complexfn._DoubleContext, "loggamma", staticmethod(counted))
    pts = grid_points(-1.5, 6, -3, 3, 0.25)
    rows = residual_table(g_spec(), g_eval, pts, g_pole_distance)
    assert "loggamma" not in vars(DOUBLE.ctx)
    shared, calls[:] = len(calls), []
    for z, value, *_ in rows:
        assert value is None or g_eval(z) == value
    calls[:] = []
    for w in {z + k for z in pts for k in range(3) if g_pole_distance(z + k) >= 1e-3}:
        g_eval(w)
    assert 0 < shared < 0.6 * len(calls)


def test_coeff_at_is_the_coefficients_value():
    parsed = parse_agf_spec("coeff2: 1\ncoeff1: (z+1)/(2*z-3)\ncoeff0: -z^2+1/2\n"
                            "z0=0: 1\nz0=1: 2")
    for spec in (f_spec(), g_spec(), gamma_spec(), parsed):
        for z in (complex(1.5, -2), complex(-1, 0), complex(0.25, 3)):
            for k, c in enumerate(spec.coeffs):
                try:
                    want = c.eval(0, z)
                except ZeroDivisionError:  # a root of the denominator
                    with pytest.raises(ZeroDivisionError):
                        spec.coeff_at(k, z)
                    continue
                got = spec.coeff_at(k, z)
                assert got == want and type(got) is type(want), (spec, k, z)
    with pytest.raises(ZeroDivisionError):
        parsed.coeff_at(1, complex(1.5, 0))
    with pytest.raises(ZeroDivisionError):
        g_spec().coeff_at(1, -1)


def test_agf_spec_anchors_take_the_grammar_of_z():
    spec = parse_agf_spec("coeff1: 1\ncoeff0: -z\nz0=1/2: 0.25-1i\n")
    ((point, value),) = spec.anchors
    # a float point, which format_agf_spec prints with :g
    assert (point, value) == (0.5, complex(0.25, -1))
    assert (type(point), type(value)) == (float, complex)
    assert "z0=0.5: " in format_agf_spec(spec)
    for anchor, col in (("z0=x: 1", 1), ("z0=1: 2+", 6), ("z0=1+2i: 1", 1),
                        ("z0=1e400: 1", 1)):
        with pytest.raises(RecurrenceParseError) as info:
            parse_agf_spec(f"coeff1: 1\ncoeff0: -z\n{anchor}\n")
        assert (info.value.line, info.value.col) == (3, col), anchor


def test_agf_spec_text_errors():
    with pytest.raises(RecurrenceParseError):
        parse_agf_spec("coeff1: n+1\ncoeff0: 1\nz0=0: 1.0")  # n not allowed
    with pytest.raises(RecurrenceParseError):
        parse_agf_spec("coeff1: z\nz0=0: 1.0\nz0=1: 2.0")  # anchor count
