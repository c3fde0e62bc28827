"""The host's speed, sampled while a run measures, to normalise timings by.

This host's CPU speed drifts by up to a third over tens of seconds and
minutes, as other tenants come and go, and that drift swamps run-to-run
differences in the program.  So while a run measures, a background thread
times a fixed pure-Python kernel -- a counting loop that shares no code
with the program -- every :data:`SAMPLE_EVERY_S`, and the benchmark
reports every end-to-end time as it would read on a *reference host*, one
on which the kernel takes :data:`REFERENCE_S`:

    normalised time = measured time / slowdown
    slowdown        = mean kernel time in the run / REFERENCE_S

A throughput is multiplied by the slowdown instead.  The kernel is timed
in the thread's own CPU time, which the host's speed moves but waiting for
the GIL does not, so the program's threads running meanwhile do not skew
it.  A change to the program cannot move the kernel, so it moves the
normalised figures as much as the raw ones.
"""

from __future__ import annotations

import threading
import time

#: Loop steps in one kernel run: about 20 ms on the reference host, so the
#: thread holds the GIL for about 2% of a run.
KERNEL_STEPS = 400_000
#: CPU seconds one kernel run takes on the reference host.
REFERENCE_S = 0.02
#: Seconds between the starts of two kernel runs.
SAMPLE_EVERY_S = 1.0


def kernel_seconds() -> float:
    """Run the kernel once; returns the CPU time this thread spent on it."""
    began = time.thread_time()
    total = 0
    for step in range(KERNEL_STEPS):
        total += step
    return time.thread_time() - began


def slowdown(samples) -> float:
    """How many times slower than the reference host the kernel ran."""
    samples = list(samples)
    if not samples:
        raise ValueError("no host-speed samples")
    return sum(samples) / len(samples) / REFERENCE_S


class HostSampler:
    """Times the kernel every :data:`SAMPLE_EVERY_S` in a thread while open.

    The first sample is taken on entry, and the thread stops on exit.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-host-speed")

    def _run(self) -> None:
        while True:
            began = time.perf_counter()
            self.samples.append(kernel_seconds())
            rest = SAMPLE_EVERY_S - (time.perf_counter() - began)
            if self._stop.wait(max(rest, 0.0)):
                return

    def __enter__(self) -> HostSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        return slowdown(self.samples)
