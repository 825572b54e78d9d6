"""Host speed and diagnostics, measured on every run.

On a shared virtual machine the speed of each CPU the benchmark gets
depends on what other tenants run beside it, and a speed holds for
minutes: the same refresh ops took up to 1.6x as long in one
half-minute as in another. A fixed piece of reference work that uses
no ``repro`` code (:func:`calibrate`) runs on each CPU between set-up
repetitions and between ops; its median over a run measures the speed
the host gave that run, and every time the run reports is scaled by
``REFERENCE_CALIB_MS`` over that median: to the speed of a host on
which the reference work takes ``REFERENCE_CALIB_MS``. The core count,
versions and steal time are printed and never used.
"""

from __future__ import annotations

import collections
import gc
import os
import platform
import random
import re
import statistics
import time

import numpy


def describe() -> str:
    """One line: core count and interpreter and numpy versions."""
    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


def steal_ms() -> float:
    """Cumulative steal time of all CPUs from ``/proc/stat``, in ms."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) * 1e3 / os.sysconf("SC_CLK_TCK")


def _reference_inputs():
    """Fixed inputs of the calibration, the same on every run and host."""
    rng = random.Random(20040301)
    syllables = ["ka", "ro", "mi", "te", "su", "na", "lo", "pe", "di", "vu", "sha", "qui"]
    words = [
        "".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
        for _ in range(4000)
    ]
    text = " ".join(rng.choice(words) for _ in range(16000))
    points = numpy.random.default_rng(20040301).random((100, 64))
    return text, points


_TEXT, _POINTS = _reference_inputs()
#: Wall ms of :func:`calibrate` on an uncontended 2-vCPU KVM guest
#: (Intel Xeon, Python 3.11, numpy 2.4). Only sets the scale of the
#: reported times; changing it changes every run's times alike.
REFERENCE_CALIB_MS = 10.0


def calibrate() -> float:
    """Wall ms of a fixed piece of reference work that uses no ``repro`` code.

    It mixes the two kinds of work an op does: tokenizing and counting
    text (regex, dict, sort) and element-wise numpy distances (no BLAS,
    so numpy's thread settings cannot change it). The collector is off
    while it runs, so the program's collector settings cannot either.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = collections.Counter(re.findall(r"[a-z]+", _TEXT.lower()))
        sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:100]
        diff = _POINTS[:, None, :] - _POINTS[None, :, :]
        numpy.argsort(numpy.sqrt((diff * diff).sum(axis=-1)), axis=1)
        return (time.perf_counter() - start) * 1e3
    finally:
        if collecting:
            gc.enable()


class HostMonitor:
    """Calibration samples and steal time across one run."""

    def __init__(self) -> None:
        self.calib_ms: list[float] = []
        self._cpus = sorted(os.sched_getaffinity(0))
        self._steal_start = steal_ms()

    def between_ops(self) -> None:
        """One sample on each CPU this process may use.

        Pool workers and threads run on all of them, and each CPU's speed
        varies on its own. Samples taken wherever the scheduler left the
        process tracked the two-process workload worse than no scaling
        at all; one sample per CPU tracked every workload.
        """
        try:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                self.calib_ms.append(calibrate())
        finally:
            os.sched_setaffinity(0, self._cpus)

    def summary(self) -> dict[str, float]:
        return {
            "calib_ms": statistics.median(self.calib_ms) if self.calib_ms else 0.0,
            "steal_ms": steal_ms() - self._steal_start,
        }
