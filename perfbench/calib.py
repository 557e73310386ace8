"""Host-speed calibration: a fixed pure-Python loop, timed.

The simulator is interpreted Python, so its speed follows the host's
speed for interpreted code, which drifts on a shared machine.  Timing
this loop next to each measured pass gives the host speed at that
moment; a rate scaled by ``calib / NOMINAL_CALIB_S`` reads the same on a
fast and a slow moment.  The loop imports no program code and runs in a
helper process of its own (:class:`CalibrationProcess`), so what a
simulation pass leaves in its heap and allocator cannot move it; an
untimed warm-up loop before each timed one refills the caches the pass
evicted.

The loop is an event loop in miniature: pop the earliest entry of a
heap, update two objects picked from a working set of tens of thousands,
look one up in a dict, push a follow-up.  Its working set matters: on
the reference host a loop over a few cache lines tracked the simulator's
pass-to-pass speed with correlation 0.6, this one with 0.8 to 0.9, since
much of the host's drift is memory-system contention that a small loop
never feels.
"""

from __future__ import annotations

import gc
import heapq
import subprocess
import sys
import time

#: Seconds one calibration takes on the reference host (2-vCPU x86 VM,
#: CPython 3.11).  Only a scale: normalised rates are raw rates
#: expressed at this host speed.
NOMINAL_CALIB_S = 0.075

#: Objects in the working set and heap entries in flight.
WORKING_SET = 60_000
HEAP_SIZE = 2048
#: Loop iterations of one calibration (~75 ms on the reference host)
#: and of the untimed warm-up before it.
CALIB_ITERATIONS = 30_000
WARMUP_ITERATIONS = 10_000


class _Node:
    __slots__ = ("a", "b", "nxt", "box")

    def __init__(self, i: int) -> None:
        self.a = i
        self.b = i * 3
        self.nxt = None
        self.box = [i, i + 1]

    def step(self, other: "_Node") -> int:
        self.b = (self.b + other.a) & 0xFFFF
        return self.b


class Calibrator:
    """Owns the working set; :meth:`measure` times one loop over it."""

    def __init__(self) -> None:
        n = WORKING_SET
        self.nodes = [_Node(i) for i in range(n)]
        for i, node in enumerate(self.nodes):
            node.nxt = self.nodes[(i * 7919) % n]
        self.table = {i: self.nodes[i] for i in range(0, n, 3)}

    def _loop(self, iterations: int) -> int:
        nodes, table, n = self.nodes, self.table, len(self.nodes)
        heap = [(i, i) for i in range(HEAP_SIZE)]
        heapq.heapify(heap)
        x = 12345
        acc = 0
        seq = HEAP_SIZE
        for _ in range(iterations):
            t, _k = heapq.heappop(heap)
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            node = nodes[x % n]
            acc ^= node.step(node.nxt)
            hit = table.get(x % n)
            if hit is not None:
                acc += hit.box[0] & 1
            seq += 1
            heapq.heappush(heap, (t + (x & 63) + 1, seq))
        return acc

    def measure(self) -> float:
        """Wall seconds one calibration loop takes right now, after an
        untimed warm-up loop.  The collector is off while they run."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._loop(WARMUP_ITERATIONS)
            t0 = time.perf_counter()
            self._loop(CALIB_ITERATIONS)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class CalibrationProcess:
    """Parent-side handle of the helper process that owns the working
    set: :meth:`measure` asks it for one calibration and waits."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("calibration helper did not start")

    def measure(self) -> float:
        self.proc.stdin.write("measure\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    """Helper side: one calibration per ``measure`` line on stdin."""
    calibrator = Calibrator()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(calibrator.measure()), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        calibrator = Calibrator()
        samples = sorted(calibrator.measure() for _ in range(21))
        print(f"median {samples[10]:.4f}s  min {samples[0]:.4f}s  "
              f"max {samples[-1]:.4f}s  (nominal {NOMINAL_CALIB_S}s)")
