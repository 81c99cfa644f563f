"""Job times scaled to a reference CPU speed.

On a shared host the speed of one CPU changes from second to second and from
minute to minute (other tenants on the same core), by up to a factor of two,
so the raw wall time of the same job list differs by a third between runs.
To take that out, the driver and its child run on the same single CPU, and
while a child runs the driver stops it every INTERVAL_S seconds (SIGSTOP),
times a fixed pure-Python loop on that CPU, and lets it go on (SIGCONT).
Each stretch the child ran is scaled by REFERENCE_PROBE_S over the mean of
the probe times at its two ends; the scaled stretches add up to the job's
reference time: the time the job would take at the reference speed.  The
time the child spends stopped counts in neither the raw nor the scaled time.

A set-up call (process start, imports, one field) is too short to stop and
slows less than the loop on a busy core, so it is scaled instead by a bare
interpreter start that imports what the CLI imports from the standard
library, timed just before and just after it (START_ARGS).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

INTERVAL_S = 0.1
# The probe's time on an idle core of the machine the benchmark was written
# on (2-vCPU Intel Xeon VM, Python 3.11), so that reference times there read
# close to raw times in the host's fast state.  Only ratios between runs on
# one machine matter.
REFERENCE_PROBE_S = 0.0008
START_ARGS = [sys.executable, "-c", "import argparse, json"]
REFERENCE_START_S = 0.045     # START_ARGS there, in the same fast state


def _loop() -> float:
    t0 = time.perf_counter()
    x, d = 0, {}
    for i in range(4000):
        x ^= ((i << 3) | (i >> 5)) & 0x3FF
        x += (x ^ i).bit_count()
        d[x & 255] = i
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the reference loop takes now on this CPU (best of two)."""
    return min(_loop(), _loop())


def start_probe(env: dict) -> float:
    """Seconds a bare interpreter start takes now on this CPU."""
    t0 = time.perf_counter()
    subprocess.run(START_ARGS, env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts, to one CPU; warm the probe."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for _ in range(50):
        probe()
    return cpu


class Timing:
    """Raw and reference-speed running time of one child process.

    Make it just before the child starts; call pause() while it runs and
    end() once it has ended.
    """

    def __init__(self):
        self.stretches = []      # (running seconds, probe before, probe after)
        self.probe_before = probe()
        self.resumed = time.perf_counter()

    def pause(self, pid: int) -> bool:
        """Stop the child, probe the CPU and let the child go on.

        False if the child ended before it stopped; the caller then reaps it
        and calls end().
        """
        os.kill(pid, signal.SIGSTOP)
        stopped = time.perf_counter()
        # peek first, so that an ended child is left for the caller to reap
        info = os.waitid(os.P_PID, pid, os.WEXITED | os.WSTOPPED | os.WNOWAIT)
        if info.si_code != os.CLD_STOPPED:
            return False
        os.waitpid(pid, os.WUNTRACED)           # consume the stop report
        after = probe()
        self.stretches.append((stopped - self.resumed, self.probe_before, after))
        self.probe_before = after
        self.resumed = time.perf_counter()
        os.kill(pid, signal.SIGCONT)
        return True

    def end(self, ended: float):
        self.stretches.append((ended - self.resumed, self.probe_before, probe()))

    @property
    def wall(self) -> float:
        return sum(s for s, _, _ in self.stretches)

    @property
    def reference_wall(self) -> float:
        return sum(s * 2 * REFERENCE_PROBE_S / (a + b) for s, a, b in self.stretches)
