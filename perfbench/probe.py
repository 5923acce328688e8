"""A fixed piece of Python work that measures how fast the machine is right now.

On a shared machine the same code can take half as long again in one
stretch of minutes as in another, for reasons outside the benchmark. So
every timed sample is bracketed by probes and reported at a reference
speed:

    scaled = seconds * REFERENCE_S / mean(probe before, probe after)

The probe never changes with the program, so a change to the program
moves the scaled time as much as the raw time, while a slower machine
slows the sample and the probes alike and cancels out. The probe does
the kinds of work gpindex does: JSON decoding and encoding, per-element
type checks, tuple construction, ordering checks, small numpy reductions
and masked 64-bit integer arithmetic.

The probes run in a process of their own, which never imports gpindex
(``python3 probe.py`` answers each ``probe`` line on standard input with
one JSON line). The program's heap and caches therefore cannot move the
divisor, and the garbage collector is off while the probe is timed.

New processes (``wall_s``, ``setup_s``) follow the machine differently:
they start an interpreter, fault in fresh memory and import modules, and
the probe above tracks them poorly. They are scaled the same way by a
cold-start probe instead: a fresh interpreter, without the program on
its path, that imports numpy and the standard modules gpindex uses
(``COLD_START_CODE``), timed from its start to its exit.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

# Probe time that defines the reference speed: where the probe takes this
# long, scaled and raw times are equal. About its time on the 2-vCPU
# machine the benchmark was written on.
REFERENCE_S = 0.010
# The cold-start probe: a fresh interpreter that imports numpy and the
# standard modules gpindex uses, timed from start to exit, and the time
# that defines its reference speed (about its time on that machine).
COLD_START_CODE = "import argparse, dataclasses, json, statistics, warnings, numpy"
REFERENCE_COLD_S = 0.190
# Probes per reading. The machine switches between faster and slower
# spells within fractions of a second, so a reading must last long enough
# to average over them; the fastest and slowest fifth are dropped, so that
# one probe cut short or stretched by another tenant does not skew it.
PROBES_PER_READING = 20

_MASK64 = (1 << 64) - 1
_DOC = json.dumps(
    {
        "frames": list(range(0, 250_000, 17)),
        "battery": [[t, 100.0 - t / 7.0e4] for t in range(0, 250_000, 250)],
    },
    separators=(",", ":"),
)


class _Sample(NamedTuple):
    t_ms: int
    value: float


def _work() -> None:
    doc = json.loads(_DOC)
    frames = tuple(v for v in doc["frames"] if isinstance(v, int) and not isinstance(v, bool))
    samples = tuple(_Sample(t, float(v)) for t, v in doc["battery"])
    sum(cur < prev for prev, cur in zip(frames, frames[1:]))
    deltas = np.diff(np.asarray(frames, dtype=np.float64))
    float(np.median(np.sort(deltas)))
    state = 0
    for _ in range(2_000):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    json.dumps([list(s) for s in samples])


def probe() -> float:
    """Run the fixed work once, without garbage collection; return its wall time."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _work()
        return (time.perf_counter_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()


def reading() -> float:
    """The mean of back-to-back probes, without the fastest and slowest fifth."""
    times = sorted(probe() for _ in range(PROBES_PER_READING))
    cut = PROBES_PER_READING // 5
    return statistics.mean(times[cut:-cut])


class SpeedScale:
    """Scales samples by the readings taken right before and after each.

    Consecutive samples share the reading between them, unless
    ``read_before`` takes a fresh one because other work ran since.
    """

    def __init__(self, take_reading: Callable[[], float], reference_s: float = REFERENCE_S) -> None:
        self._take_reading = take_reading
        self._reference_s = reference_s
        take_reading()  # the first reading after a pause can run on cold caches
        self.probes = [take_reading()]

    def read_before(self) -> None:
        """Take the reading that the next sample counts as its 'before'."""
        self.probes.append(self._take_reading())

    def scale(self, seconds: float) -> float:
        """Read the speed again; return ``seconds`` at the reference speed."""
        before = self.probes[-1]
        self.probes.append(self._take_reading())
        return seconds * self._reference_s / ((before + self.probes[-1]) / 2)


def main() -> int:
    answers = sys.stdout
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        if command != "probe":
            raise SystemExit(f"unknown command {command!r}")
        answers.write(json.dumps({"probe_s": reading()}) + "\n")
        answers.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
