"""The machine's speed, sampled while an op runs, to rescale its time.

On a shared 2-vCPU virtual machine the same op takes up to 1.9 times as
long when a neighbour loads the host, in spells of seconds to minutes, so
one run can land wholly in a slow spell and the next in a fast one.  A
timer signal every ``PERIOD_S`` runs a fixed reference computation in the
workload's own thread and records how long it took: 30-digit mpmath
arithmetic in a private context, the kind of work agf-lab does, with no
agflab code in it.  An op's time is then given at the reference speed::

    (wall time - time spent sampling) * REFERENCE_S / mean(reference time)

The mean is over the samples taken during the op, or over the last
``MIN_SAMPLES`` samples when the op is shorter than that.  On that
machine the rescaled time of one op varies by about +-8% across spells
where its wall time varies by a factor of 1.9.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

from mpmath.ctx_mp import MPContext

PERIOD_S = 0.02
REFERENCE_S = 200e-6  # a reference computation on the nominal machine
MIN_SAMPLES = 10

_ctx = MPContext()
_ctx.dps = 30
_THIRD = _ctx.mpf(1) / 3


def reference():
    """The fixed computation the probe times, about 0.14-0.26 ms."""
    s = _THIRD
    for k in range(1, 40):
        s = s * _THIRD + k
    return s


class Probe:
    """Samples the reference on a timer signal in the calling thread."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        start = perf_counter()
        reference()
        self.samples.append(perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def rescale(self, mark: int, seconds: float) -> float:
        """``seconds`` of wall time since ``mark``, at the reference speed."""
        end = len(self.samples)
        recent = self.samples[min(mark, max(0, end - MIN_SAMPLES)):end]
        if not recent:
            raise RuntimeError("no speed sample taken yet")
        net = seconds - sum(self.samples[mark:end])
        return net * REFERENCE_S / statistics.fmean(recent)
