import cmath
import math
import random
import struct

import mpmath as mp
import pytest
from mpmath.ctx_mp import MPContext

from agflab import complexfn
from agflab.complexfn import (
    DOUBLE,
    ConvergenceError,
    PoleError,
    PrecisionConfig,
    extended,
    format_cnum,
    gamma,
    hyp1f1,
    log_gamma,
    lower_incomplete_gamma,
    shared_log_gammas,
)

SQRT_PI = math.sqrt(math.pi)
REL_TOL = 1e-12  # relative accuracy asked of double-precision Gamma


def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(working_digits=0)
    with pytest.raises(ValueError):
        extended(10)


def test_gamma_anchor_values():
    assert abs(gamma(5) - 24) < 1e-12
    assert abs(gamma(0.5) - SQRT_PI) < 1e-13
    assert abs(gamma(1.5) - SQRT_PI / 2) < 1e-13


def test_gamma_poles():
    for z in (0, -1, -2, -7):
        with pytest.raises(PoleError):
            gamma(z)
        with pytest.raises(PoleError):
            log_gamma(z)


def test_gamma_accuracy_region():
    # independent reference: mpmath at high precision
    rng = random.Random(20260808)
    bound = 10 * REL_TOL
    for _ in range(120):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 0.2 and z.real < 0.5:
            continue  # stay clear of the pole row
        ref = complex(mp.gamma(z))
        assert abs(gamma(z) - ref) <= bound * abs(ref)


def test_gamma_functional_equation():
    rng = random.Random(7)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.imag) < 0.2 and z.real < 1.5:
            continue
        lhs = gamma(z + 1)
        assert abs(lhs - z * gamma(z)) <= REL_TOL * abs(lhs)


def test_gamma_reflection():
    rng = random.Random(12)
    for _ in range(60):
        z = complex(rng.uniform(-6, 6), rng.uniform(0.3, 8))
        val = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1) <= 20 * REL_TOL


def test_log_gamma_values():
    assert abs(log_gamma(1)) < 1e-13
    assert abs(log_gamma(2)) < 1e-13
    assert abs(log_gamma(11) - math.log(math.factorial(10))) < 1e-12


def test_log_gamma_exp_consistency():
    rng = random.Random(99)
    for _ in range(80):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.imag) < 0.2 and z.real < 0.5:
            continue
        g = gamma(z)
        assert abs(cmath.exp(log_gamma(z)) - g) <= 50 * REL_TOL * abs(g)


def test_extended_mode_gamma():
    cfg = extended(30)
    with mp.workdps(45):
        got = gamma(mp.mpf("0.5"), cfg)
        assert abs(got - mp.sqrt(mp.pi)) < mp.mpf("1e-29")
        z = mp.mpc("2.3", "-1.7")
        ref = mp.gamma(z)
        assert abs(gamma(z, cfg) - ref) < mp.mpf("1e-29") * abs(ref)
        # reflection side of the extended path
        z = mp.mpc("-3.3", "0.4")
        ref = mp.gamma(z)
        assert abs(gamma(z, cfg) - ref) < mp.mpf("1e-28") * abs(ref)
        assert abs(mp.exp(log_gamma(z, cfg)) - ref) < mp.mpf("1e-28") * abs(ref)


def test_lower_incomplete_gamma_anchors():
    assert abs(lower_incomplete_gamma(2, -1) - 1) < 1e-12
    assert abs(lower_incomplete_gamma(1, 1) - (1 - 1 / math.e)) < 1e-14
    assert lower_incomplete_gamma(3, 0) == 0


def test_lower_incomplete_gamma_poles():
    for a in (0, -1, -5):
        with pytest.raises(PoleError):
            lower_incomplete_gamma(a, -1)


def test_lower_incomplete_gamma_vs_quadrature():
    # series route against 40-digit quadrature of the defining integral
    oracle = MPContext()
    oracle.dps = 40
    rng = random.Random(3)
    for _ in range(25):
        a = rng.uniform(1, 5)
        x = rng.uniform(0.05, 3)
        ref = float(oracle.quad(lambda t: t ** (a - 1) * oracle.exp(-t),
                                [0, x]))
        got = lower_incomplete_gamma(a, x)
        assert abs(got - ref) < 1e-10
        assert abs(got.imag) < 1e-12


def test_hyp1f1_values():
    assert abs(hyp1f1(2, 2, -1) - math.exp(-1)) < 1e-14
    assert hyp1f1(2, 2, 0) == 1
    # frozen from f(1) = 1 - 2/e = (1/2) 1F1(2; 3; -1)
    assert abs(hyp1f1(2, 3, -1) - (2 - 4 / math.e)) < 1e-13


def test_hyp1f1_pole():
    with pytest.raises(PoleError):
        hyp1f1(2, 0, -1)
    with pytest.raises(PoleError):
        hyp1f1(1.5, -3, 0.5)


def test_hyp1f1_kummer_transformation():
    rng = random.Random(424242)
    count = 0
    while count < 50:
        a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        b = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(x) > 2:
            continue
        if abs(b.imag) < 0.3 and b.real < 0.5:
            continue  # keep b away from nonpositive integers
        lhs = hyp1f1(a, b, x)
        rhs = cmath.exp(x) * hyp1f1(b - a, b, -x)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)
        count += 1


def test_series_bound_reported():
    # mpmath's NoConvergence surfaces as the typed ConvergenceError
    with pytest.raises(ConvergenceError):
        hyp1f1(429 + 74j, 118 + 273j, -500.0, DOUBLE)


def _away_from_poles(rng, radius):
    """A seeded complex point with |w| <= radius, not within 0.3 of the
    nonpositive real axis (where 1F1 has poles in b and gamma in a)."""
    while True:
        w = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(w) <= radius and not (abs(w.imag) < 0.3 and w.real < 0.5):
            return w


def test_hyp1f1_and_incomplete_gamma_against_oracle():
    # double precision against a 40-digit context over |a|, |b| <= 4 and
    # |x| <= 2; gamma(a, x) against its defining series, summed at 40 digits
    oracle = MPContext()
    oracle.dps = 40
    rng = random.Random(2024)
    for _ in range(100):
        a, b = _away_from_poles(rng, 4), _away_from_poles(rng, 4)
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) / math.sqrt(2)
        ref = oracle.hyp1f1(a, b, x)
        assert abs(hyp1f1(a, b, x) - ref) <= 1e-12 * abs(ref), (a, b, x)
        t, aa = oracle.mpf(x.real), oracle.mpc(a)
        ref = oracle.power(t, aa) * oracle.fsum(
            (-t) ** k / (oracle.factorial(k) * (aa + k)) for k in range(60))
        got = lower_incomplete_gamma(a, x.real)
        assert abs(got - ref) <= 1e-12 * abs(ref), (a, x.real)


def test_format_cnum():
    assert format_cnum(complex(1.5, 2.25)) == "1.5+2.25i"
    assert format_cnum(complex(1.5, -2.25)) == "1.5-2.25i"
    assert format_cnum(0.25) == "0.25"
    assert format_cnum(complex(0.1234567890123, 0)) == "0.1234567890123"


def test_format_cnum_rounds_an_mpmath_value_once():
    # 3.61987833765370512 rounds up at 15 digits; its nearest double lies
    # below 3.619878337653705 and would round down to 3.6198783376537
    ctx = MPContext()
    ctx.dps = 35
    x = ctx.mpf("3.6198783376537051196")
    assert f"{float(x):.15g}" == "3.6198783376537"
    assert format_cnum(x) == "3.61987833765371"
    assert format_cnum(ctx.mpc(-x, x)) == "-3.61987833765371+3.61987833765371i"


def _oracle_sample(seed, radius, count):
    """Seeded points with |z| <= radius, a third of them with Re z < 1/2,
    kept 0.01 away from the poles of Gamma."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        r, t = radius * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
        z = cmath.rect(r, t)
        if len(points) % 3 == 0 and z.real >= 0.5:
            z = complex(0.5 - abs(z.real), z.imag)
        n = round(z.real)
        if n <= 0 and abs(z - n) < 0.01:
            continue
        points.append(z)
    return points


@pytest.mark.parametrize("radius", [10, 60])
def test_extended_log_gamma_against_oracle(radius):
    # gamma and exp(log_gamma) at 30 digits against a separate 60-digit
    # context; the imaginary part of log_gamma may differ by 2 pi k
    oracle = MPContext()
    oracle.dps = 60
    cfg = extended(30)
    tol = oracle.mpf("1e-28")
    for z in _oracle_sample(radius, radius, 40):
        ref = oracle.gamma(oracle.mpc(z))
        got = oracle.convert(gamma(z, cfg))
        assert abs(got - ref) <= tol * abs(ref), z
        via_log = oracle.exp(oracle.convert(log_gamma(z, cfg)))
        assert abs(via_log - ref) <= tol * abs(ref), z


def test_format_cnum_value_of_another_context():
    other = MPContext()
    other.dps = 40
    cfg = extended(30)
    assert format_cnum(other.mpf(1) / 3, cfg) == "0." + "3" * 30
    third = other.mpc(1, -2) / 3
    assert format_cnum(third, cfg) == "0." + "3" * 30 + "-0." + "6" * 29 + "7i"


def _bits(z) -> bytes:
    """z's two doubles as bytes: equal iff equal bit for bit, signed zeros too."""
    return struct.pack("dd", z.real, z.imag)


def _log_gamma_arguments(seed: int, count: int) -> list[complex]:
    """Seeded double arguments away from the poles: the reflection region
    Re < 1/2 among them, and real ones with either zero as imaginary part."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        x = rng.choice([rng.uniform(-30, 0.5), rng.uniform(0.5, 60),
                        rng.randrange(-40, 40) / 4])
        y = rng.choice([0.0, -0.0, rng.uniform(-80, 80)])
        if y or x > 0 or x != round(x):
            points.append(complex(x, y))
    return points


def test_shared_log_gammas_returns_the_lanczos_sum_bit_for_bit():
    points = _log_gamma_arguments(3, 400)
    assert any(z.real < 0.5 for z in points)
    assert {math.copysign(1.0, z.imag) for z in points if z.imag == 0} == {1.0, -1.0}
    want = [_bits(complexfn._lgamma_lanczos(z)) for z in points]
    with shared_log_gammas():
        for _ in range(2):  # computed, then found in the memo
            assert [_bits(DOUBLE.ctx.loggamma(z)) for z in points] == want
    assert DOUBLE.ctx.loggamma is complexfn._lgamma_lanczos


def test_shared_log_gammas_keeps_signed_zeros_apart(monkeypatch):
    # +0.0 == -0.0, as dict keys too; a sum that tells them apart must get
    # its own value at each
    def signs(z):
        return complex(math.copysign(1.0, z.real), math.copysign(1.0, z.imag))

    monkeypatch.setattr(complexfn, "_lgamma_lanczos", signs)
    points = [complex(x, y) for x in (2.5, 0.0, -0.0) for y in (0.0, -0.0, 1.5)]
    with shared_log_gammas():
        for _ in range(2):
            assert [DOUBLE.ctx.loggamma(z) for z in points] == list(map(signs, points))


def test_shared_log_gammas_keeps_nothing_after_its_block(monkeypatch):
    with pytest.raises(KeyError):
        with shared_log_gammas():
            shared = DOUBLE.ctx.loggamma
            raise KeyError
    assert "loggamma" not in vars(DOUBLE.ctx)
    assert DOUBLE.ctx.loggamma is complexfn._lgamma_lanczos
    calls = []
    lanczos = complexfn._lgamma_lanczos
    monkeypatch.setattr(complexfn, "_lgamma_lanczos",
                        lambda z: calls.append(z) or lanczos(z))
    for _ in range(2):  # each block starts from an empty memo
        with shared_log_gammas():
            assert DOUBLE.ctx.loggamma is not shared
            log_gamma(2.5 + 1j), log_gamma(2.5 + 1j)
    assert calls == [2.5 + 1j] * 2


@pytest.mark.parametrize("digits", [16, 30, 40, 60])
def test_reciprocal_sum_at_a_real_point_is_the_mpc_loop(digits):
    # the raw-tuple sum rounds as the mpf and mpc operators do
    from agflab.agf import _reciprocal_factorials

    ctx = extended(digits).ctx
    rng = random.Random(digits)
    points = [*range(41), *(k / 2 for k in range(-41, 82, 2)),
              *(rng.uniform(-1e3, 1e3) for _ in range(60)),
              *(-rng.randrange(3, 1000) - rng.random() for _ in range(20))]
    terms = _reciprocal_factorials(ctx)
    for z in points:
        x = ctx.convert(z) + 2
        want = ctx.mpc(0)
        for k, c in terms:
            want += c / (x + k)
        got = ctx.reciprocal_sum(x, terms)
        assert type(got) is type(want) and got._mpc_ == want._mpc_, z
