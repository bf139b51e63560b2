"""The host's speed, sampled between the program's calls.

The benchmark runs on a shared virtual machine whose speed drifts by a
third and more within a minute, as other guests load the same cores.  A run
of 25 s sits in one such phase, so raw throughput swings with the phase
mix far more than any bound a change may be held to.  The drift moves a
fixed stretch of pure-Python work together with the program: over 128-put
windows of ``ingest`` the two correlated at 0.87 to 0.95 in three runs of
four (0.43 in one where the host held still).

So a run times a fixed *pass* (pure Python, about 0.75 ms, no I/O and no
call that releases the interpreter lock) after every :data:`WINDOW_NS` of
timed work, and after every timed call longer than that.  A repetition's
*host factor* is the median of its passes over :data:`REFERENCE_PASS_NS`:
above 1 the host ran slower than the reference.

The program feels only part of the slowdown the pass feels.  Over 60 to
240 repetitions of each workload, the slope of log throughput on log host
factor was -0.57 (``ingest``), -0.65 (``site-disaster``), -0.63
(``serve``) and -0.26 (``simulate``, whose time goes to large numpy
arrays), with correlations of -0.85 to -0.88 (-0.53 for ``simulate``).
Each workload states its slope as its ``host_elasticity`` ``e``; a
repetition's rate is multiplied by ``factor ** e`` and its set-up time
divided by it, which gives the reading at the reference speed.  The gated
end-to-end metrics are computed from those scaled readings, and the raw
ones are printed beside them.  The pass is the benchmark's own code, so a
change to the program moves the scaled metrics as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Median pass on the reference host (2-vCPU KVM guest, Intel Xeon,
#: Python 3.11).  It sets the scale of the scaled metrics only: on that
#: host they read about as the raw ones do.
REFERENCE_PASS_NS = 750_000

#: Timed work between two passes.  A pass costs about 3% of it.
WINDOW_NS = 25_000_000

_KEYS = 64


def pass_ns() -> int:
    """Run the fixed pass once; returns its wall time in ns."""
    start = time.perf_counter_ns()
    table: dict = {}
    total = 0
    for i in range(3000):
        table[i & (_KEYS - 1)] = i
        total += len(str(i))
    if total <= 0 or len(table) != _KEYS:  # keeps the loop's result live
        raise AssertionError("host-speed pass computed nothing")
    return time.perf_counter_ns() - start


class SpeedSampler:
    """Passes of one thread, taken as its timed work accumulates."""

    def __init__(self) -> None:
        self.passes: List[int] = []
        self._pending_ns = 0

    def work(self, ns: int) -> None:
        """Count ``ns`` of timed work; take a pass once a window is full."""
        self._pending_ns += ns
        if self._pending_ns >= WINDOW_NS:
            self._pending_ns = 0
            self.passes.append(pass_ns())

    def take(self) -> List[int]:
        """The passes taken since the last call, which starts a new batch."""
        passes, self.passes = self.passes, []
        return passes


def host_factor(passes: List[int]) -> float:
    """Median pass over the reference pass; 1.0 with no passes."""
    return statistics.median(passes) / REFERENCE_PASS_NS if passes else 1.0
