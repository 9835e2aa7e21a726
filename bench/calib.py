"""Speed calibration: convert raw seconds into reference-speed seconds.

The 2-vCPU virtual machine the benchmark was tuned on drifts in speed: it
switches between a slow, steady state and a fast state whose speed wanders
at sub-second scale, in phases that last seconds.  Process CPU time drifts
with it, so raw timings of identical work disagree by a third between runs.  A fixed pure-stdlib step (big-integer
arithmetic plus dict and tuple work, no program code) is therefore timed
from an interval timer *while the operations run*, every ``INTERVAL_S``
seconds.  The samples cover the same moments as the operations, so a speed
change inside a long operation is seen in proportion.  An operation's raw
time (wall time minus the time spent in the timer handler) is multiplied by
``CAL_REF / cal_now``, where ``cal_now`` is the mean step time sampled while
it ran.  Sampling between operations instead tracked the drift poorly: a
deep-l3 operation then varied as much as the raw times did.

``CAL_REF`` is written once here and in the README and never changes;
changing it or the step would rescale every reported time.

The module imports only ``signal`` and ``time``: the set-up child imports it
before it times ``import biorder.cli``, and a standard module loaded here
would leave that module's import cost out of ``setup_s``.
"""

import signal
import time

CAL_REF = 0.0005          # seconds per calibration step at reference speed
INTERVAL_S = 0.005        # one step per 5 ms

_MODULUS = (1 << 607) - 1
_SIZE = 40


def _bits100(state: int):
    """Fixed 100-bit integers from a 128-bit linear congruential generator."""
    while True:
        state = (state * 0x2360ED051FC65DA44385DF649FCCF645 + 1) % (1 << 128)
        yield state >> 28


class CalibrationStep:
    """The fixed calibration work, in two halves that track different work.

    The first half is a tight loop of 607-bit modular arithmetic and small
    dict/tuple updates, which follows the many small analyses well.  The
    second computes one row of a product of two fixed 40x40 matrices of
    100-bit integers, rotating through the rows.  Its working set of some
    hundred kilobytes follows the large-matrix work of deep analyses, where
    the first half alone left twice the spread between processes.
    """

    def __init__(self):
        bits = _bits100(20151201)
        self._a = [[next(bits) for _ in range(_SIZE)] for _ in range(_SIZE)]
        self._bt = [[next(bits) for _ in range(_SIZE)] for _ in range(_SIZE)]
        self._row = 0

    def __call__(self) -> int:
        acc: dict[tuple[int, int], int] = {}
        v = 1
        for i in range(120):
            v = (v * 0x9E3779B97F4A7C15 + i) % _MODULUS
            key = (i & 63, v & 7)
            acc[key] = acc.get(key, 0) + (v >> 600)
        row = self._a[self._row]
        self._row = (self._row + 1) % _SIZE
        return len(acc) + sum(sum(x * y for x, y in zip(row, col)) for col in self._bt) % 7


class Sampler:
    """Times the calibration step from a SIGALRM interval timer.

    Use as a context manager in the main thread.  `work_clock()` is wall
    time minus the time spent in calibration, so intervals measured with it
    exclude the samples taken inside them.
    """

    def __init__(self):
        self.step = CalibrationStep()
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def _sample(self, *_):
        # A tick that lands inside a sample (one taken by `block`, say) is
        # dropped; run nested, it would inflate the outer sample and `spent`.
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.step()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def work_clock(self) -> float:
        return time.perf_counter() - self.spent

    def block(self, seconds: float) -> None:
        """Sample back to back for about `seconds`, outside any operation."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()

    def factor(self, first: int, last: int | None = None) -> float:
        """Multiplier from raw to reference-speed seconds for samples[first:last]."""
        samples = self.samples[first:last]
        return CAL_REF * len(samples) / sum(samples)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
