"""Output checks against routes independent of agflab.

Values are compared with mpmath at 40 digits in a private context, so the
checks never touch mpmath's global precision (which the harness watches
for leaks).  Exact ``seq`` rows are checked with Python fractions.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from mpmath.ctx_mp import MPContext

LIMIT_RTOL = 1e-6   # the tolerance of the connection-constant acceptance test
GRID_TOL = 1e-11    # error scaled by the size of the terms each formula combines
GRID_CELLS_CHECKED = 4
SEQ_ROWS_CHECKED = 4
POLE_RADIUS = 1e-3  # the CLI marks cells this close to a pole as "pole"

ctx = MPContext()
ctx.dps = 40


def to_mp(z):
    """z (Fraction, Python number or mpmath number) in the oracle context."""
    if isinstance(z, Fraction):
        return ctx.mpf(z.numerator) / z.denominator
    if hasattr(z, "_mpf_") or hasattr(z, "_mpc_"):
        return ctx.convert(z)
    z = complex(z)
    return ctx.mpc(z.real, z.imag) if z.imag else ctx.mpf(z.real)


def parse_z(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return complex(text.replace("i", "j"))


def f_oracle(z):
    """f(z) = 1F1(2; z+2; -1)/(z+1); at z = -1, e^-1 1F1(1; 2; 1)."""
    z = to_mp(z)
    if abs(z + 1) < ctx.mpf(10) ** -20:
        return (ctx.e - 1) / ctx.e
    return ctx.hyp1f1(2, z + 2, -1) / (z + 1)


def f_oracle_scaled(z):
    """f(z) and e^-1 sum 1/(k! |z+2+k|), the size of the terms f sums."""
    mz = to_mp(z)
    scale = sum(1 / (ctx.factorial(k) * abs(mz + 2 + k)) for k in range(60))
    return f_oracle(z), scale / ctx.e


def _ratio_a(z):
    # A(z) = Gamma(z/2+1)/Gamma((z+1)/2); 0 where the denominator has a pole
    return ctx.gamma(z / 2 + 1) * ctx.rgamma((z + 1) / 2)


def g_oracle_scaled(z):
    """g(z) = sqrt(2) (A(z) - A(z-1)) and sqrt(2) (|A(z)| + |A(z-1)|)."""
    z = to_mp(z)
    a0, a1 = _ratio_a(z), _ratio_a(z - 1)
    return ctx.sqrt(2) * (a0 - a1), ctx.sqrt(2) * (abs(a0) + abs(a1))


def limit_oracle(world: str, z):
    if world == "e":
        return f_oracle(z)
    if world == "pi":
        return g_oracle_scaled(z)[0]
    return ctx.gamma(to_mp(z))


def rel_err(value, exact, scale=None) -> float:
    return float(abs(to_mp(value) - exact) / (abs(exact) if scale is None else scale))


def _pole_distance(z: complex, first: int) -> float:
    """Distance from z to the nearest of first, first-1, first-2, ..."""
    n = min(first, round(z.real))
    return abs(z - n)


class CheckFailed(Exception):
    """An op exited 0 but its output does not match the independent route."""


def check_limit(argv, out: str):
    _, world, ztext = argv[:3]
    value = complex(out.split(" ± ")[0].replace("i", "j"))
    err = rel_err(value, limit_oracle(world, parse_z(ztext)))
    if not err <= LIMIT_RTOL:
        raise CheckFailed(f"limit {world} {ztext}: relative error {err:.3g}")


def _recurrence_residual(world: str, n: int, z: Fraction, u0, u1, u2):
    if world == "e":
        return (n + z) * u2 - (n + z) * u1 - u0
    return (n + z) * u2 - u1 - (n + z) * u0


def check_seq(argv, out: str):
    _, world, ztext, n_text = argv[:4]
    n_max, z = int(n_text), Fraction(ztext)
    rows = out.split("\n")
    if rows[-1] != "" or len(rows) != n_max + 1:
        raise CheckFailed(f"seq: {len(rows) - 1} rows, wanted {n_max}")
    if rows[:2] != ["1\t0", "2\t1"]:
        raise CheckFailed(f"seq: initial rows {rows[:2]}")
    rng = random.Random(" ".join(argv))
    for _ in range(SEQ_ROWS_CHECKED):
        n = rng.randint(1, n_max - 2)
        window = []
        for k in range(3):
            index, value = rows[n - 1 + k].split("\t")
            if int(index) != n + k:
                raise CheckFailed(f"seq: row {n + k} is labelled {index}")
            window.append(Fraction(value))
        if _recurrence_residual(world, n, z, *window) != 0:
            raise CheckFailed(f"seq: recurrence fails at n={n}")


def check_verify(argv, out: str):
    if json.loads(out).get("pass") is not True:
        raise CheckFailed("verify: report does not pass")


def _grid_value(z: complex, re: str, im: str, which: str):
    first = -2 if which == "f" else -1
    near_pole = _pole_distance(z, first) < POLE_RADIUS
    if (re == "pole") != near_pole:
        raise CheckFailed(f"agf-grid: {which}({z}) pole marking is {re!r}")
    if near_pole:
        return
    oracle = f_oracle_scaled if which == "f" else g_oracle_scaled
    err = rel_err(complex(float(re), float(im)), *oracle(z))
    if not err <= GRID_TOL:
        raise CheckFailed(f"agf-grid: {which}({z}) scaled error {err:.3g}")


def check_grid(argv, out: str):
    window = [float(v) for v in argv[2].split("=", 1)[1].split(",")]
    rows = list(csv.reader(io.StringIO(out)))
    header, cells = rows[0], rows[1:]
    if header[:2] != ["re", "im"] or len(header) != 8:
        raise CheckFailed(f"agf-grid: header {header}")
    re_min, _, im_min, _, step = window
    n = round((window[1] - re_min) / step) + 1
    m = round((window[3] - im_min) / step) + 1
    if len(cells) != n * m:
        raise CheckFailed(f"agf-grid: {len(cells)} cells, wanted {n * m}")
    rng = random.Random(" ".join(argv))
    for index in rng.sample(range(len(cells)), GRID_CELLS_CHECKED):
        cell = cells[index]
        z = complex(re_min + (index // m) * step, im_min + (index % m) * step)
        if complex(float(cell[0]), float(cell[1])) != z:
            raise CheckFailed(f"agf-grid: cell {index} is at {cell[:2]}, not {z}")
        _grid_value(z, cell[2], cell[3], "f")
        _grid_value(z, cell[5], cell[6], "g")


CHECKS = {
    "limit": check_limit,
    "seq": check_seq,
    "verify": check_verify,
    "agf-grid": check_grid,
}
