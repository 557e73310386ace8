"""The three simulation workloads: fir-bare, storestorm-observed and
im2col-dashboard.

A run builds, runs and checks whole simulation passes of one kernel
until the measured time is spent.  Every pass is a fresh platform: its
set-up (platform build, workload enqueue, monitor and server attach) is
timed as set-up, its ``Simulation.run`` as the run, and the calibration
loop timed between passes, while nothing else runs, gives the host speed
the pass ran at.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Any, Dict, List, Optional

from calib import NOMINAL_CALIB_S, CalibrationProcess
from client import ClientProcess
from stats import median, percentile

from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR, Im2Col, StoreStorm

#: The out-of-process client mode that runs during the passes (None: no
#: client, since nothing is attached to serve it).
LIVE_CLIENT = {"fir-bare": None, "storestorm-observed": "scraper",
               "im2col-dashboard": "dashboard"}


def inputs(workload: str):
    """The kernel and platform of a workload.  They do not depend on the
    seed: a run's seed sets what the client asks and when, so runs with
    different seeds measure the same simulation work."""
    if workload == "fir-bare":
        return FIR(num_samples=2048), GPUPlatformConfig.small(num_chiplets=2)
    if workload == "storestorm-observed":
        return (StoreStorm(num_workgroups=4, stores_per_wavefront=96),
                GPUPlatformConfig.small(num_chiplets=2))
    if workload == "im2col-dashboard":
        return (Im2Col(batch=8, images_per_wg=1, cols_per_wavefront=8),
                GPUPlatformConfig.small(num_chiplets=4))
    raise ValueError(f"unknown simulation workload {workload!r}")


def kernel_walk(workload) -> Dict[str, int]:
    """Committed totals computed apart from the simulator: every op a
    wavefront program yields is one instruction, every load, store and
    scalar load one memory request, every workgroup one completion, and
    the copies move the workload's input and output bytes."""
    kernel = workload.kernel()
    instructions = mem_reqs = 0
    for wg in range(kernel.num_workgroups):
        for wf in range(kernel.wavefronts_per_wg):
            for op in kernel.program(wg, wf):
                instructions += 1
                if op[0] in ("load", "store", "sload"):
                    mem_reqs += 1
    return {"instructions": instructions, "mem_reqs": mem_reqs,
            "workgroups": kernel.num_workgroups,
            "copy_bytes": workload.input_bytes() + workload.output_bytes()}


def committed(platform: GPUPlatform, handle) -> Dict[str, Any]:
    """What the simulation says it did."""
    cus = [c for c in platform.simulation.components
           if hasattr(c, "num_instructions")]
    return {"instructions": sum(c.num_instructions for c in cus),
            "mem_reqs": sum(c.num_mem_reqs for c in cus),
            "workgroups": sum(c.num_wgs_completed for c in cus),
            "copy_bytes": sum(c.copied_bytes for c in handle.copies),
            "events": platform.engine.event_count,
            "now": platform.engine.now}


class PauseClock:
    """Wall time the engine spent paused on request, by wrapping the
    engine instance's pause and continue."""

    def __init__(self, engine) -> None:
        self.total = 0.0
        self._since: Optional[float] = None
        pause, cont = engine.pause, engine.continue_

        def timed_pause() -> None:
            if self._since is None:
                self._since = time.perf_counter()
            pause()

        def timed_continue() -> None:
            cont()
            if self._since is not None:
                self.total += time.perf_counter() - self._since
                self._since = None

        engine.pause = timed_pause
        engine.continue_ = timed_continue


def attach_observers(workload: str, platform: GPUPlatform
                     ) -> Optional[Monitor]:
    """The monitoring a workload's passes run under (None: fir-bare)."""
    if workload == "fir-bare":
        return None
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    if workload == "storestorm-observed":
        monitor.ensure_sim_metrics().start()
        monitor.ensure_tracer(backend="ring").start()
        monitor.start_continuous_profiling()
        monitor.enable_watchdog()
    monitor.start_server()
    return monitor


def client_command(mode: str, monitor: Monitor, seed: int,
                   index: int) -> Dict[str, Any]:
    names = monitor.component_names()
    cus = [n for n in names
           if hasattr(monitor.component(n), "num_instructions")]
    return {"cmd": "go", "mode": mode, "url": monitor.url, "seed": seed,
            "pass": index, "components": names,
            "watchable": [[n, f] for n in cus
                          for f in ("num_instructions", "num_mem_reqs")]}


def op_latencies(seconds: List[float]) -> Dict[str, float]:
    """The ``op_p50_ms`` and ``op_p90_ms`` metrics of a run."""
    return {"op_p50_ms": 1e3 * percentile(seconds, 50),
            "op_p90_ms": 1e3 * percentile(seconds, 90)}


class SimRun:
    """One benchmark run of a simulation workload."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.kernel, self.config = inputs(workload)
        self.expected = kernel_walk(self.kernel)
        self.reference: Optional[Dict[str, Any]] = None
        self.passes: List[Dict[str, float]] = []
        self.samples: List[list] = []      # client requests
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.client: Optional[ClientProcess] = None
        self.last = None
        self.calibrator: Optional[CalibrationProcess] = None
        #: Called once the reference run is done, before the passes.
        self.on_measure = None

    # -- checks ---------------------------------------------------------
    def check(self, index: int, platform, handle, ok: bool,
              reply: Optional[Dict[str, Any]]) -> List[str]:
        errors = []
        if not ok:
            errors.append(f"pass {index} did not complete "
                          f"({platform.simulation.run_state})")
        got = committed(platform, handle)
        for key, want in self.expected.items():
            if got[key] != want:
                errors.append(f"pass {index}: {key} {got[key]} != "
                              f"kernel walk {want}")
        if self.reference is not None:
            for key in ("events", "now", "instructions", "mem_reqs",
                        "workgroups"):
                if got[key] != self.reference[key]:
                    errors.append(f"pass {index}: {key} {got[key]} != "
                                  f"unobserved run {self.reference[key]}")
        if reply is not None:
            bars = reply["finals"].get("progress")
            if bars is None or not bars or any(
                    b["completed"] != b["total"] for b in bars):
                errors.append(f"pass {index}: final progress {bars}")
            if self.workload == "storestorm-observed":
                total = reply["finals"].get("instructions")
                if total != self.expected["instructions"]:
                    errors.append(
                        f"pass {index}: /metrics instructions {total} != "
                        f"kernel walk {self.expected['instructions']}")
        return errors

    # -- passes ---------------------------------------------------------
    def reference_run(self) -> None:
        """One unobserved run of the same kernel: the trajectory every
        observed pass must reproduce exactly, and the unobserved rate
        the observed one is compared against.  Not part of set-up."""
        platform = GPUPlatform(self.config)
        handle = self.kernel.enqueue(platform.driver)
        t0 = time.perf_counter()
        ok = platform.run()
        run_s = time.perf_counter() - t0
        if not ok:
            raise RuntimeError("the unobserved reference run did not "
                               "complete")
        self.reference = committed(platform, handle)
        self.reference["raw_rate"] = platform.engine.event_count / run_s

    def one_pass(self, index: int) -> Dict[str, float]:
        # Every pass starts from a collected heap, so a collection of
        # what earlier passes left does not land in this one's set-up.
        gc.collect()
        t0 = time.perf_counter()
        platform = GPUPlatform(self.config)
        handle = self.kernel.enqueue(platform.driver)
        monitor = attach_observers(self.workload, platform)
        t1 = time.perf_counter()
        pauses = PauseClock(platform.engine)
        mode = LIVE_CLIENT[self.workload]
        if mode is not None:
            self.client.send(client_command(mode, monitor, self.seed,
                                            index))
        ok = platform.run()
        t2 = time.perf_counter()
        reply = None
        if mode is not None:
            self.client.send({"cmd": "halt"})
            reply = self.client.receive()
            self.samples.extend(reply["samples"])
            self.attempted += reply["attempted"]
            self.failed += reply["failed"]
            self.errors.extend(reply["errors"])
        errors = self.check(index, platform, handle, ok, reply)
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        if monitor is not None:
            monitor.stop_server()
        self.last = (platform, monitor)
        return {"setup_s": t1 - t0, "run_s": t2 - t1,
                "paused_s": pauses.total,
                "events": platform.engine.event_count}

    def run(self) -> None:
        self.calibrator = CalibrationProcess()
        try:
            if LIVE_CLIENT[self.workload]:
                self.client = ClientProcess()
            if self.workload != "fir-bare":
                self.reference_run()
            if self.on_measure is not None:
                self.on_measure()
            calib = self.calibrator.measure()
            deadline = time.perf_counter() + self.seconds
            while not self.passes or time.perf_counter() < deadline:
                p = self.one_pass(len(self.passes))
                after = self.calibrator.measure()
                # The set-up runs right after the calibration before the
                # pass; the run spans the pass, between both.
                p["setup_calib_s"] = calib
                p["calib_s"] = (calib + after) / 2
                calib = after
                self.passes.append(p)
        finally:
            if self.client is not None:
                self.client.close()
            self.calibrator.close()

    # -- metrics --------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """The workload's end-to-end metrics (see README.md)."""
        rates = [p["events"] / (p["run_s"] - p["paused_s"])
                 * p["calib_s"] / NOMINAL_CALIB_S for p in self.passes]
        out = {"sim_events_per_s": median(rates),
               "setup_s": median(p["setup_s"] * NOMINAL_CALIB_S
                                 / p["setup_calib_s"] for p in self.passes),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        out.update(op_latencies(self.op_latencies()))
        return out

    def op_latencies(self) -> List[float]:
        """Seconds the workload's user waits on each operation: every
        client request where a client runs, timed from when it was due
        and not normalised; on fir-bare, which has no client, every
        pass from platform build to result, normalised like set-up."""
        if LIVE_CLIENT[self.workload] is None:
            return [(p["setup_s"] + p["run_s"]) * NOMINAL_CALIB_S
                    / p["calib_s"] for p in self.passes]
        return [s[1] for s in self.samples]

    def report(self) -> Dict[str, Any]:
        """Figures printed beside the result line."""
        rates = [p["events"] / (p["run_s"] - p["paused_s"])
                 for p in self.passes]
        late = [s[2] for s in self.samples]
        out = {"passes": len(self.passes),
               "pass_raw_events_per_s": rates,
               "pass_calib_s": [p["calib_s"] for p in self.passes],
               "raw_events_per_s": median(rates),
               "raw_setup_s": median(p["setup_s"] for p in self.passes),
               "calib_s": median(p["calib_s"] for p in self.passes),
               "events_per_pass": self.passes[0]["events"],
               "requests": len(self.samples),
               "generator_late_p50_ms": 1e3 * percentile(late, 50)
               if late else 0.0,
               "generator_late_max_ms": 1e3 * max(late) if late else 0.0}
        if self.reference is not None:
            out["unobserved_raw_events_per_s"] = self.reference["raw_rate"]
        return out
