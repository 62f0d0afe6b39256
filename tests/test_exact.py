import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agflab.exact import (
    ConsistencyError,
    LinearFormE,
    LinearFormPi,
    duality_form_e,
    duality_form_pi,
    duality_forms_e,
    duality_forms_pi,
)


def derangement(m: int) -> int:
    """D_m by the recurrence D_m = (m-1)(D_{m-1} + D_{m-2}), D_0 = 1, D_1 = 0."""
    d = [1, 0]
    for k in range(2, m + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[m]


def brute_force_derangements(m: int) -> int:
    """Independent oracle: count permutations of range(m) with no fixed point."""
    return sum(
        1 for p in permutations(range(m)) if all(p[i] != i for i in range(m))
    )


@pytest.mark.parametrize("m", range(8))
def test_derangement_matches_brute_force(m):
    assert derangement(m) == brute_force_derangements(m)


def test_duality_form_e_anchors():
    assert duality_form_e(0) == LinearFormE(0, 1, 0)
    assert duality_form_e(1) == LinearFormE(1, 2, 1)


def test_duality_form_e_iterated_oracle():
    # iterate the a/b recurrences by hand from (1, 0)
    a, b = 1, 0
    for j in range(3):
        a, b = (j + 2) * a, (j + 2) * b + (-1) ** j
    assert (a, b) == (24, 9)
    assert duality_form_e(3) == LinearFormE(3, 24, 9)


def test_duality_form_e_recurrence_and_derangement_link():
    forms = [duality_form_e(m) for m in range(201)]
    for m in range(200):
        assert forms[m + 1].a == (m + 2) * forms[m].a
        assert forms[m + 1].b == (m + 2) * forms[m].b + (-1) ** m
    for m in range(201):
        assert forms[m].b == derangement(m + 1)
        assert forms[m].a == math.factorial(m + 1)


def test_duality_form_pi_anchors():
    assert duality_form_pi(0) == LinearFormPi(0, Fraction(1), Fraction(0))
    assert duality_form_pi(1) == LinearFormPi(1, Fraction(1), Fraction(1, 2))
    assert duality_form_pi(2) == LinearFormPi(2, Fraction(2), Fraction(1, 2))


def test_duality_form_pi_q3_oracle():
    # q_3 = q_1 + q_2/2 iterated by hand
    q1, q2 = Fraction(1, 2), Fraction(1, 2)
    assert q1 + q2 / 2 == Fraction(3, 4)
    assert duality_form_pi(3) == LinearFormPi(3, Fraction(2), Fraction(3, 4))


def test_duality_form_pi_freeze_properties():
    forms = [duality_form_pi(m) for m in range(202)]
    for k in range(1, 101):
        assert forms[2 * k + 1].p == forms[2 * k].p
        assert forms[2 * k].q == forms[2 * k - 1].q


def test_duality_form_pi_closed_forms_match_recurrence():
    # construction already cross-checks; run it over the full range anyway
    for m in range(101):
        duality_form_pi(m)


def test_duality_form_pi_mismatch_raises(monkeypatch):
    import agflab.exact as exact

    real = exact._pq_closed
    for bad in (0, 1, 7, 40):
        monkeypatch.setattr(exact, "_pq_closed", lambda m: (
            real(m)[0], real(m)[1] + Fraction(1, 2**60) * (m == bad)))
        if bad:
            duality_form_pi(bad - 1)  # the forms are checked up to their m
        with pytest.raises(ConsistencyError, match=f"mismatch at m={bad}:"):
            duality_form_pi(bad)


def test_duality_forms_in_one_pass_match_each_form():
    assert duality_forms_e(30) == [duality_form_e(m) for m in range(31)]
    assert duality_forms_pi(30) == [duality_form_pi(m) for m in range(31)]


def test_duality_negative_m_rejected():
    with pytest.raises(ValueError):
        duality_form_e(-1)
    with pytest.raises(ValueError):
        duality_form_pi(-3)


@given(
    num=st.integers(min_value=-10**12, max_value=10**12).filter(lambda v: v != 0),
    den=st.integers(min_value=1, max_value=10**12),
)
def test_rational_inverse_roundtrip(num, den):
    x = Fraction(num, den)
    assert x * (1 / x) == 1
    # normalization idempotent: rebuilding from parts changes nothing
    assert Fraction(x.numerator, x.denominator) == x
    assert x.denominator > 0


@settings(max_examples=30)
@given(m=st.integers(min_value=0, max_value=60))
def test_linear_form_records(m):
    rec_e = duality_form_e(m).to_record()
    assert set(rec_e) == {"m", "a", "b"}
    assert rec_e["m"] == m
    form_pi = duality_form_pi(m)
    rec_pi = form_pi.to_record()
    num, den = rec_pi["p"].split("/")
    assert Fraction(int(num), int(den)) == form_pi.p
