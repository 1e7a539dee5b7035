"""Host speed reference for the end-to-end timings.

On a shared host the same pure-Python work runs up to a fifth faster or
slower from one second to the next, and whole 30-second runs a few minutes
apart differ by up to 40%, as other tenants come and go.  Reruns of one
seed move every timing together, so this is the host, not the inputs.

The benchmark therefore times a fixed reference workload between queries
and during set-up, every REFERENCE_EVERY_S seconds.  It does what semimod's
inner loops do (products of sparse polynomials held in dicts keyed by
exponent tuples, with small and with 60-bit Fraction coefficients), with the
garbage collector paused so that garbage left by the previous query does
not land in the sample, and it uses no semimod code, so no change to the
program can move it.  A time measured after a sample is reported scaled by
REFERENCE_NOMINAL_S over the median of the samples within REFERENCE_WINDOW
on either side of it (about four seconds in all): as it would read on a
host where the reference takes REFERENCE_NOMINAL_S.  The window follows the
host's changes of speed, which a run's median would average away.  The
unscaled figures and the mean scale are kept in the run's info line.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_NOMINAL_S = 0.0035
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW = 8
_SMALL = (
    {(i % 3, (i * 2) % 4, (i * 5) % 3): Fraction(i * 7 - 20, i + 3) for i in range(9)},
    {((i * 2) % 5, i % 2, (i * 3) % 4): Fraction(11 - i * 3, 2 * i + 1) for i in range(9)},
)
# the same supports with 60-bit coefficients, the size rational bases reach
_BIG = tuple(
    {m: Fraction(c.numerator * 0x9E3779B97F4A7C1, c.denominator * 0xF4A7C15 + 1)
     for m, c in poly.items()}
    for poly in _SMALL
)
# (operands, rounds): small and big coefficients weigh about equally
_WORK = ((_SMALL, 10), (_BIG, 3))


def _product(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


class HostSpeed:
    """``poll`` samples the reference at most every REFERENCE_EVERY_S
    seconds; ``sample`` samples it at once."""

    def __init__(self):
        self.samples = []
        self._last = None

    def poll(self):
        now = time.perf_counter()
        if self._last is None or now - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def sample(self):
        gc.disable()
        try:
            start = time.perf_counter()
            for (a, b), rounds in _WORK:
                for _ in range(rounds):
                    _product(a, b)
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def local_scales(self, marks):
        """For each index into the samples, the factor that turns a time
        measured just after that sample into one at nominal speed: nominal
        over the median of the REFERENCE_WINDOW samples on either side."""
        return [
            REFERENCE_NOMINAL_S
            / statistics.median(self.samples[max(0, m - REFERENCE_WINDOW):m + REFERENCE_WINDOW + 1])
            for m in marks
        ]
