"""Host speed, sampled on a timer while the benchmark measures.

The benchmark runs on small shared machines whose speed drifts: the same
search can take 1.5x longer for some seconds, and runs minutes apart then
differ by more than any bound worth gating on. So a fixed pure-Python
kernel, which does not use exturan, runs every ``INTERVAL`` seconds from a
SIGALRM handler. The handler runs in the main thread between the bytecodes
of whatever is being measured, so the kernel's duration tracks the host's
speed at that moment, also in the middle of a long job.

Times are then reported at a fixed reference speed: a measured interval's
own time (the kernel's time inside it taken out) is multiplied by
``REFERENCE_S`` over the mean kernel duration within ``WINDOW`` seconds of
the interval, outliers capped. The kernel never changes with the program,
so a faster program still reads faster.

Timers are not inherited across fork, so pool workers and set-up children
are not interrupted. While the parent waits for pool workers, its kernel
samples still track the host.

Set-up runs in a child process and is mostly process start, imports and
file reads, which the kernel does not track. A set-up is therefore scaled
by the start of a bare interpreter (``python3 -c pass``) timed just before
and just after it, to ``REFERENCE_START_S``.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import subprocess
import sys
from array import array
from time import perf_counter

INTERVAL = 0.02           # seconds of real time between kernel samples
WINDOW = 0.5              # seconds either side of an interval whose samples count
REFERENCE_S = 250e-6      # kernel duration that normalised times are scaled to
REFERENCE_START_S = 0.05  # bare interpreter start that set-ups are scaled to

_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (0, 2))
_PERMS = tuple(itertools.permutations(range(5)))[:60]


def kernel():
    """Least relabelled edge list of a small graph over 60 vertex orders: the
    tuple, set, dict and sort work of an orderly search. It takes about
    0.25 ms on a 2-vCPU Intel Xeon virtual machine at its fastest."""
    best = None
    for p in _PERMS:
        image = sorted(tuple(sorted((p[a], p[b]))) for a, b in _EDGES)
        seen = set(image)
        degree = {}
        for e in image:
            degree[e[0]] = degree.get(e[0], 0) + 1
        key = tuple(image)
        if best is None or key < best:
            best = key
    return best, len(seen)


class HostSpeed:
    """Kernel samples: when each started (perf_counter) and how long it took."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._cum = None
        self._ticking = False

    def _tick(self, signum, frame):
        if self._ticking:  # a signal that arrives during a sample is dropped
            return
        self._ticking = True
        t0 = perf_counter()
        kernel()
        self.took.append(perf_counter() - t0)
        self.at.append(t0)
        self._ticking = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._cum = array("d", [0.0])
        self._cum.extend(itertools.accumulate(self.took))
        if not self.took:
            raise RuntimeError("no host speed samples were taken")

    def _range(self, t0, t1):
        return bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)

    def kernel_time(self, t0, t1):
        """Time the kernel took inside [t0, t1]; a sample is wholly in or out."""
        i, j = self._range(t0, t1)
        return self._cum[j] - self._cum[i]

    def normalise(self, t0, t1, own):
        """``own`` seconds measured over [t0, t1], at the reference speed.

        The host's speed near the interval is the mean kernel time within
        ``WINDOW`` of it, each sample capped at twice their median: a sample
        that waited for a CPU (pool workers hold both) says nothing of speed.
        """
        i, j = self._range(t0 - WINDOW, t1 + WINDOW)
        near = sorted(self.took[i:j] if i < j else self.took)
        cap = 2.0 * near[len(near) // 2]
        return own * REFERENCE_S * len(near) / sum(min(k, cap) for k in near)

    def job_time(self, t0, t1):
        """A job run in this process over [t0, t1], at the reference speed."""
        return self.normalise(t0, t1, (t1 - t0) - self.kernel_time(t0, t1))

    def summary(self):
        took = sorted(self.took)
        return {"samples": len(took), "median_s": took[len(took) // 2],
                "min_s": took[0], "max_s": took[-1]}


def bare_start():
    """Seconds for a bare interpreter to start and exit."""
    t0 = perf_counter()
    # No timeout: waiting with one polls, in sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0
