"""Speed samples: how fast the CPU the benchmark runs on is going, moment by
moment, so op times can be reported at one reference speed.

Other tenants of a shared machine slow its CPUs by up to ~1.7x, in bursts
of milliseconds that come and go over seconds to minutes.  The fastest
repeat of an input does not cancel that when a whole run is slowed, and
runs of the same code then spread by 15-30 %.  So while an untraced loop
runs, ``SpeedProbe`` times ``probe_kernel`` (a fixed piece of work that
never touches zetasphere) every PROBE_INTERVAL_S from a SIGALRM handler.
An op is divided by the slowdown the samples around it show, the mean
sample over PROBE_REF_NS; the time the samples themselves took inside the
op is taken out first.  A change to zetasphere moves the op times and not
the samples, so it shows in full.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter_ns

import numpy as np

PROBE_INTERVAL_S = 0.005
# An op is set against the mean sample over at least this span about its
# middle.
PROBE_SPAN_NS = 50_000_000
# Reference speed: the one at which a sample takes this long.  It is about
# the fastest sample of this machine's unslowed CPUs (2.1 GHz Xeon), so the
# reported times are close to those of an unslowed run here.
PROBE_REF_NS = 170_000

_LOGK = np.log(np.arange(1.0, 129.0))


def probe_kernel() -> complex:
    """The kind of work zetasphere does (interpreted complex arithmetic and
    small numpy reductions), fixed and apart from the package; ~0.17 ms."""
    z = 0j
    for j in range(8):
        s = complex(0.5, 10.0 + j)
        z += complex(np.sum(np.exp(-s * _LOGK)))
        for k in range(1, 24):
            z += (-1) ** k * k ** (-s)
    return z


def samples(n: int) -> list[int]:
    """Durations of ``n`` back-to-back runs of ``probe_kernel``, in ns."""
    out = []
    for _ in range(n):
        t0 = perf_counter_ns()
        probe_kernel()
        out.append(perf_counter_ns() - t0)
    return out


class SpeedProbe:
    """Times ``probe_kernel`` every PROBE_INTERVAL_S of wall time while the
    ``with`` block runs.  The samples run in the main thread, between the
    bytecodes of whatever runs there, so they see the CPU it runs on."""

    def __init__(self):
        self.at = array("q")  # perf_counter_ns at the start of each sample
        self.ns = array("q")  # its duration

    def _sample(self, signum, frame):
        t0 = perf_counter_ns()
        probe_kernel()
        self.ns.append(perf_counter_ns() - t0)
        self.at.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def median_slowdown(sample_ns) -> float:
    """The median of ``sample_ns`` over PROBE_REF_NS."""
    return float(np.median(np.asarray(sample_ns, dtype=np.float64))) / PROBE_REF_NS


def _covered(probe_ns) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.asarray(probe_ns, dtype=np.float64))))


def net_ns(start_ns, end_ns, probe_at, probe_ns) -> np.ndarray:
    """end - start of each interval, less the samples taken inside it.  A
    sample runs to its end before the interrupted code resumes, so a sample
    that starts inside an interval lies wholly inside it."""
    start = np.asarray(start_ns, dtype=np.float64)
    end = np.asarray(end_ns, dtype=np.float64)
    at = np.asarray(probe_at, dtype=np.float64)
    covered = _covered(probe_ns)
    return end - start - (covered[np.searchsorted(at, end)] - covered[np.searchsorted(at, start)])


def slowdown(start_ns, end_ns, probe_at, probe_ns) -> np.ndarray:
    """Per interval, the mean sample over it (widened to PROBE_SPAN_NS about
    its middle) over PROBE_REF_NS.  Intervals with no sample that near take
    the median sample; all are 1 when there are no samples."""
    start = np.asarray(start_ns, dtype=np.float64)
    end = np.asarray(end_ns, dtype=np.float64)
    if len(probe_ns) == 0:
        return np.ones(len(start))
    at = np.asarray(probe_at, dtype=np.float64)
    covered = _covered(probe_ns)
    mid, half = (start + end) / 2, np.maximum((end - start) / 2, PROBE_SPAN_NS / 2)
    lo, hi = np.searchsorted(at, mid - half), np.searchsorted(at, mid + half, side="right")
    mean = (covered[hi] - covered[lo]) / np.maximum(hi - lo, 1)
    local = np.where(hi > lo, mean, np.median(np.asarray(probe_ns, dtype=np.float64)))
    return local / PROBE_REF_NS
