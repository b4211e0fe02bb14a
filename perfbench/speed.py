"""Machine-speed probes, and times scaled to a reference speed.

On a shared virtual machine this benchmark runs at a speed that changes
by up to ~1.4x for seconds at a time, as other tenants come and go: on a
2-vCPU VM the same pipeline, in the same process, took from 2.8 s to
4.2 s.  Per-operation medians cannot remove that, because a slow spell
covers many operations.

The probe times a fixed piece of pure-Python work (small and big
integers, a dict, Fractions: the kinds of work lagspec does) from a
SIGVTALRM handler, once every PROBE_INTERVAL_S of CPU time, so samples
fall inside the operations.  An operation's time, less the probe's own
time, is then scaled by REFERENCE_S / (mean probe time around it): the
time the operation would take at the speed where the probe takes
REFERENCE_S.  On that VM this cut the spread of pipeline times from 10%
to about 2% (coefficient of variation, 10 runs).

Set-up, mostly importing modules, follows the machine's speed less
closely than pure-Python work, so it has a probe of its own: right after
set-up, in the same interpreter, perfbench/worker.py times importing a
fixed set of stdlib modules that lagspec does not use, and set-up time
is scaled by IMPORT_REFERENCE_S over that time.  Over 30 fresh
interpreters on the same VM this cut the spread (interquartile range
over median) of set-up time from 0.32 to 0.06.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.02
REFERENCE_S = 0.0005
IMPORT_REFERENCE_S = 0.05
GROUP_SAMPLES = 25  # probe samples behind each speed estimate

_MODULUS = 5**300


def _probe_work() -> None:
    x, d = 0, {}
    for i in range(2000):
        x += (i * i) % 7
        d[i & 63] = (i, x)
    s = Fraction(0)
    for i in range(1, 33):
        s += Fraction(i, i * i + 1)
    y = 3**200
    for i in range(66):
        y = (y * 7 + i) % _MODULUS


class SpeedProbe:
    """Collects probe times while it is installed."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - t0)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def scale_factors(probes: list[list[float]]) -> list[float]:
    """Per operation, REFERENCE_S over the mean probe time of the group of
    consecutive operations it belongs to; each group holds at least
    GROUP_SAMPLES samples (the last group takes any remainder)."""
    groups: list[tuple[int, list[float]]] = []  # (ops in group, samples)
    for taken in probes:
        if groups and len(groups[-1][1]) < GROUP_SAMPLES:
            n, samples = groups[-1]
            groups[-1] = (n + 1, samples + taken)
        else:
            groups.append((1, list(taken)))
    if len(groups) > 1 and len(groups[-1][1]) < GROUP_SAMPLES:
        n, samples = groups.pop()
        groups[-1] = (groups[-1][0] + n, groups[-1][1] + samples)
    factors = []
    for n, samples in groups:
        mean = sum(samples) / len(samples) if samples else REFERENCE_S
        factors += [REFERENCE_S / mean] * n
    return factors
