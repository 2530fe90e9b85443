"""Machine speed, read from a fixed pure-Python kernel while the work runs.

On a shared virtual machine the same interpreter work can take 1.0x to
2.1x its best time, in phases that last from a few seconds to more than
half a minute, so a raw batch time says more about the neighbours than
about the package.  While operations run, :class:`Speedometer` times the
kernel from a ``SIGALRM`` handler every ``INTERVAL_S``, and once more
between operations.  An operation's wall time, less the time those
samples took, is rescaled to the speed at which the kernel takes
``REFERENCE_S``, by the mean kernel time sampled during the operation and
at its two ends.  The kernel never calls the package, so no change to the
package can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any

# About the kernel's time on the machine the baseline was measured on, in
# its fast phases; a rescaled time is in seconds at that speed.
REFERENCE_S = 0.003
INTERVAL_S = 0.1


def kernel() -> int:
    """Dict, tuple, set and integer work, the mix the package's search does."""
    counts: dict[tuple[int, int, int], int] = {}
    acc = 0
    for i in range(2500):
        key = (i % 97, i % 89, i % 83)
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 2654435761) % 1000003
    seen = {k for k in counts if k[0] < 50}
    return acc + len(sorted(counts, key=lambda k: (counts[k], k))) + len(seen)


class Speedometer:
    """Kernel samples, and a clock that stands still while they run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def clock(self) -> float:
        """``perf_counter`` less the time spent in samples."""
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            took = time.perf_counter() - t0
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    def scale(self, seconds: float, first_sample: int) -> float:
        """``seconds`` at reference speed, from the samples since ``first_sample``."""
        return seconds * REFERENCE_S / statistics.mean(self.samples[first_sample:])

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.sample()

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
