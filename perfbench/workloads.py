"""Seeded argv streams for the benchmark workloads.

Each workload is an endless stream of ``agf-lab`` argv lists drawn from
``random.Random(seed)``; the library only ever sees these lists.  The op
classes of ``limit`` and the size strata of ``seq`` repeat in a fixed
cycle and the seed draws the values inside each slot.  A run only holds
a few cycles of ops, so a free draw of the classes would make the cost
of a run depend on the seed more than on the program.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("limit", "seq", "verify", "agf-grid")
# The workloads BENCHMARK.json lists.  ``seq`` runs by hand only: its
# known defect (``seq e z N`` exits 2 for N >~ 1600, the 4300-digit
# int-to-str limit) fails about 7% of its ops, and a listed workload must
# have no failing op.  Narrowing N to dodge the defect would hide it.
BENCHMARKED = ("limit", "verify", "agf-grid")

# One untimed op per set-up, the same for every seed, so that set-up
# time does not depend on the seed.
WARMUP = {
    "limit": ["limit", "e", "1", "--depth", "4"],  # 30-digit path, 2^14 steps
    "seq": ["seq", "pi", "5", "1000"],
    "verify": ["verify", "all", "--seed", "1"],
    "agf-grid": ["table", "agf-grid", "--grid=-1.5,2.5,-2,2,0.25"],
}

# limit: mostly the integer acceptance set z = 0..10, some rationals with
# q <= 4, a few complex points with |Im z| <= 2, and Gamma at rational or
# complex points with Re z in (0, 4].  A run holds one cycle and part of
# the next, so the cycle starts with the seven classes of typical cost
# (1.6-2.2 s) and ends with the slow ones (gamma 3.5-4.5 s, complex e
# about 6 s): the ops after the first cycle then come from the typical
# classes, and the run's median and tail move little with its length.
LIMIT_CYCLE = (
    ("e", "int"), ("pi", "int"), ("e", "int"), ("pi", "int"),
    ("e", "rational"), ("pi", "rational"), ("pi", "int"),
    ("gamma", "rational"), ("gamma", "complex"), ("e", "complex"),
)

SEQ_N_MIN, SEQ_N_MAX, SEQ_STRATA = 256, 2048, 8

GRID_STEP = 0.25
GRID_CELLS = 17
GRID_RE = (-1.5, 12.0)
GRID_IM = (-80.0, 80.0)


def _quarters(rng: random.Random, lo: float, hi: float) -> float:
    """A multiple of 1/4 in [lo, hi]."""
    return rng.randint(math.ceil(4 * lo), math.floor(4 * hi)) / 4


def _rational(rng: random.Random, hi: int) -> Fraction:
    """p/q in (0, hi] with q in 2..4 and q not dividing p."""
    while True:
        q = rng.randint(2, 4)
        z = Fraction(rng.randint(1, hi * q), q)
        if z.denominator > 1:
            return z


def _complex_literal(re: float, im: float) -> str:
    return f"{re:g}{'+' if im >= 0 else '-'}{abs(im):g}i"


def _limit_z(rng: random.Random, world: str, kind: str) -> str:
    if kind == "int":
        return str(rng.randint(0, 10))
    if kind == "rational":
        return str(_rational(rng, 4 if world == "gamma" else 10))
    re_hi = 4.0 if world == "gamma" else 10.0
    re = _quarters(rng, 0.25, re_hi)
    im = _quarters(rng, 0.25, 2.0) * rng.choice((-1, 1))
    return _complex_literal(re, im)


def _limit_ops(rng: random.Random):
    while True:
        for world, kind in LIMIT_CYCLE:
            yield ["limit", world, _limit_z(rng, world, kind)]


def _seq_ops(rng: random.Random):
    # Each cycle visits every log-N stratum once per world, in seeded order,
    # so N stays log-uniform on [256, 2048] and every run sees the same mix.
    span = math.log(SEQ_N_MAX / SEQ_N_MIN)
    while True:
        slots = [(w, s) for w in ("e", "pi") for s in range(SEQ_STRATA)]
        rng.shuffle(slots)
        for world, stratum in slots:
            u = (stratum + rng.random()) / SEQ_STRATA
            n_max = min(SEQ_N_MAX, round(SEQ_N_MIN * math.exp(u * span)))
            z = str(rng.randint(0, 10)) if rng.random() < 0.75 else str(
                _rational(rng, 4))
            yield ["seq", world, z, str(n_max)]


def _verify_ops(rng: random.Random):
    while True:
        yield ["verify", "all", "--seed", str(rng.randrange(2**31))]


def _grid_window(re_centre: float, im_centre: float) -> tuple:
    half = GRID_STEP * (GRID_CELLS - 1) / 2
    return (re_centre - half, re_centre + half, im_centre - half,
            im_centre + half, GRID_STEP)


def _grid_ops(rng: random.Random):
    # The window stays below |Im z| = 82, well inside the region where
    # g is finite in double precision (it overflows near |Im z| = 226).
    while True:
        window = _grid_window(_quarters(rng, *GRID_RE), _quarters(rng, *GRID_IM))
        yield ["table", "agf-grid", "--grid=" + ",".join(f"{v:g}" for v in window)]


_STREAMS = {
    "limit": _limit_ops,
    "seq": _seq_ops,
    "verify": _verify_ops,
    "agf-grid": _grid_ops,
}


def ops(workload: str, seed: int):
    """Endless argv stream of ``workload``; the same seed gives the same stream."""
    return _STREAMS[workload](random.Random(seed))
