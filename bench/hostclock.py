"""Host-speed ticks, the raw material of the benchmark's calibration.

A `Ticker` runs a fixed reference loop from a timer signal (SIGALRM) every
TICK_INTERVAL_S and records when each run (a tick) started and how long it
took.  The benchmark process ticks while it measures, and so does each gtrees
command the cli workload starts (cli_child.py, cli_shim.py), so that every
operation is calibrated by the speed of the CPU it ran on.  README.md
(Noise) says how the ticks are used.  This module imports only what a
command needs anyway, so that it adds almost nothing to a command's start.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

TICK_ITERATIONS = 3000
TICK_INTERVAL_S = 0.005

# the reference loop walks a fixed table of small integers, which Python
# caches, so it allocates nothing: its speed depends on the host only, not on
# the state the program left the allocator in
_TABLE = [(i * 37 + 11) % 256 for i in range(256)]
_STEPS = [(i * 101) % 256 for i in range(TICK_ITERATIONS)]


def reference_loop() -> int:
    table, x = _TABLE, 0
    for v in _STEPS:
        x = table[x ^ v]
    return x


class Ticker:
    """Tick starts and durations, in `perf_counter` seconds (a system-wide
    clock on Linux, so ticks of a child process line up with the parent's)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def tick(self, signum=None, frame=None) -> None:
        # garbage collection is held off so that no collection of the
        # program's garbage lands in a tick
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_loop()
            self.durations.append(perf_counter() - t0)
            self.starts.append(t0)
        finally:
            if was_enabled:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
