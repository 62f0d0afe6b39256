import mpmath
import pytest


@pytest.fixture(autouse=True)
def mpmath_global_precision_unchanged():
    """No test, and no library call in it, may leave mpmath's global
    precision changed; it is put back so one leak fails only its test."""
    prec = mpmath.mp.prec
    yield
    left = mpmath.mp.prec
    mpmath.mp.prec = prec
    assert left == prec, f"mpmath.mp.prec left at {left}, was {prec}"
