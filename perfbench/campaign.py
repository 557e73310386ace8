"""The campaign workload: many tiny jobs through the fleet.

A run is a sequence of whole rounds.  Each round boots a fresh
``FleetManager`` with one warm worker, a write-ahead journal, a
historian bound to the gateway and per-job checkpoints, runs the same
seeded job list through it, then shuts everything down and checks the
record the campaign left.  No client polls the gateway: its requests
wait behind the historian's rounds and the federated render for the
GIL, and with such a client (and the historian sampling every 0.2 s)
the round's view p90 swung by up to 55% and its job rate by 13% between
runs on the reference host.
Calibration is timed before and after each round, while no
simulation or client runs.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from calib import NOMINAL_CALIB_S, CalibrationProcess
from client import parse_prometheus
from sims import kernel_walk, op_latencies
from stats import median

from repro.fleet import (CampaignJournal, FleetGateway, FleetManager,
                         JobQueue, JobSpec, replay_journal)
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.historian import Historian, HistorianService

#: The job kinds a round draws from: (workload, chiplets, params).
JOB_KINDS = [
    ("fir", 1, {"num_samples": 1024}),
    ("fir", 2, {"num_samples": 1024}),
    ("storestorm", 1, {"num_workgroups": 2, "stores_per_wavefront": 16}),
    ("storestorm", 2, {"num_workgroups": 2, "stores_per_wavefront": 16}),
]
#: Jobs per round: each kind twice, in a seeded order.
JOBS_PER_KIND = 2
#: Checkpoint cadence: every job saves at least once.
CHECKPOINT_EVENTS = 2000

#: Where rounds keep their journal, historian and checkpoints; removed
#: when the run ends.
WORK_ROOT = Path(__file__).resolve().parent.parent / ".bench_out"


def job_list(seed: int, round_index: int) -> List[JobSpec]:
    specs = [JobSpec(f"r{round_index}-{wl}-c{chiplets}-{k}", wl,
                     chiplets=chiplets, params=dict(params), max_retries=0)
             for k in range(JOBS_PER_KIND)
             for wl, chiplets, params in JOB_KINDS]
    random.Random(seed * 104729 + round_index).shuffle(specs)
    return specs


def reference(spec: JobSpec) -> Dict[str, Any]:
    """An unobserved run of the job's kernel, for the exact-equality
    check, plus the kernel walk of its committed totals."""
    workload = spec.build_workload()
    platform = GPUPlatform(GPUPlatformConfig.small(
        num_chiplets=spec.chiplets))
    workload.enqueue(platform.driver)
    platform.run()
    return {"events": platform.engine.event_count,
            "sim_time": platform.engine.now,
            **kernel_walk(workload)}


def _vm_hwm_mb(pid: Optional[int]) -> float:
    """Peak resident set of a live process, from its status file."""
    if pid is None:
        return 0.0
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class CampaignRun:
    """One benchmark run of the campaign workload."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rounds: List[Dict[str, Any]] = []
        self.jobs: List[Dict[str, float]] = []
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.references: Dict[tuple, Dict[str, Any]] = {}
        self.calibrator: Optional[CalibrationProcess] = None
        #: Per job: wall times of its claim, started and done frames.
        self.stamps: List[Dict[str, float]] = []
        self.work = WORK_ROOT / f"campaign-{os.getpid()}"
        #: Called once the reference runs are done, before the rounds.
        self.on_measure = None

    def _key(self, spec: JobSpec) -> tuple:
        return (spec.workload, spec.chiplets,
                tuple(sorted(spec.params.items())))

    def one_round(self, index: int) -> None:
        d = self.work / f"round-{index}"
        d.mkdir(parents=True)
        specs = job_list(self.seed, index)
        queue = JobQueue()
        journal = CampaignJournal(str(d / "campaign.wal"))
        journal.attach(queue)
        queue.submit_all(specs)
        manager = FleetManager(
            queue, num_workers=1, journal=journal,
            worker_args=["--checkpoint-dir", str(d / "ckpt"),
                         "--checkpoint-events", str(CHECKPOINT_EVENTS)])
        stamps: Dict[str, Dict[str, float]] = {}
        handle_event = manager._handle_event

        def stamped(handle, event):
            kind = event.get("event")
            if kind in ("started", "done", "failed"):
                stamps.setdefault(event.get("job_id"), {})[kind] = \
                    time.perf_counter()
            handle_event(handle, event)

        manager._handle_event = stamped
        claims: List[float] = []

        def on_claim(event, job):
            if event == "claim":
                claims.append(time.perf_counter())
                stamps.setdefault(job.spec.job_id, {})["claim"] = claims[-1]

        queue.subscribe(on_claim)
        gateway = FleetGateway(manager)
        historian = Historian(str(d / "historian.db"))
        service = HistorianService(historian, manager=manager)
        service.bind_gateway(gateway)
        gateway.start()
        calib_before = self.calibrator.measure()
        try:
            t0 = time.perf_counter()
            manager.start()
            service.start()
            ready = manager.wait_ready(timeout=60)
            t1 = time.perf_counter()
            drained = manager.wait(timeout=120)
            t2 = time.perf_counter()
            pids = [h.get("pid") for h in manager.status()["workers"]
                    if h.get("state") != "exited"]
            rss = max([_vm_hwm_mb(pid) for pid in pids] or [0.0])
        finally:
            # Stop every process the round started, whatever happened.
            manager.stop()
            service.stop()
            gateway.stop()
        finals = manager.final_metrics()
        states = {j.spec.job_id: j for j in queue.jobs()}
        outcomes = historian.jobs(service.campaign_id)
        historian.close()
        journal.close()
        replay = replay_journal(str(d / "campaign.wal"))
        calib_after = self.calibrator.measure()
        calib = (calib_before + calib_after) / 2

        # A fault of the round fails every job of the round.
        round_errors = []
        if not ready:
            round_errors.append(f"round {index}: pool never became ready")
        if not drained:
            round_errors.append(f"round {index}: queue did not drain")
        outcome_names = [o["name"] for o in outcomes]
        if sorted(outcome_names) != sorted(s.job_id for s in specs):
            round_errors.append(f"round {index}: historian holds "
                                f"{sorted(outcome_names)}")
        if replay.duplicates or replay.corrupt_records:
            round_errors.append(
                f"round {index}: journal replay duplicates="
                f"{replay.duplicates} corrupt={replay.corrupt_records}")
        self.errors.extend(round_errors)
        round_events = 0
        for spec in specs:
            errors = self.check_job(spec, states.get(spec.job_id),
                                    replay.jobs.get(spec.job_id),
                                    finals.get(spec.job_id),
                                    stamps.get(spec.job_id, {}))
            self.attempted += 1
            if errors or round_errors:
                self.failed += 1
                self.errors.extend(errors)
                continue
            job = states[spec.job_id]
            s = stamps[spec.job_id]
            self.jobs.append({"events": job.result["events"],
                              "run_s": s["done"] - s["started"],
                              "op_s": s["done"] - s["claim"],
                              "calib_s": calib})
            round_events += job.result["events"]
        self.stamps.extend(stamps.values())
        shutil.rmtree(d, ignore_errors=True)
        self.rounds.append({
            "setup_s": t1 - t0,
            "drain_s": t2 - (claims[0] if claims else t1),
            "jobs": len(specs), "events": round_events, "calib_s": calib,
            "setup_calib_s": calib_before, "rss_mb": rss})

    def check_job(self, spec: JobSpec, job, replayed, final,
                  stamps) -> List[str]:
        ref = self.references[self._key(spec)]
        jid = spec.job_id
        if job is None or job.state != "completed":
            return [f"{jid}: not completed "
                    f"({job.state if job else 'missing'})"]
        errors = []
        if replayed is None or replayed.get("state") != "completed":
            errors.append(f"{jid}: journal replay says {replayed}")
        if not {"claim", "started", "done"} <= stamps.keys():
            errors.append(f"{jid}: no claim/started/done stamps")
        result = job.result or {}
        for key in ("events", "sim_time"):
            if result.get(key) != ref[key]:
                errors.append(f"{jid}: {key} {result.get(key)} != "
                              f"unobserved run {ref[key]}")
        if not (result.get("checkpoints") or {}).get("count"):
            errors.append(f"{jid}: no checkpoint saved "
                          f"({result.get('checkpoints')})")
        try:
            totals = parse_prometheus((final or {}).get("text", ""))
        except ValueError as exc:
            return errors + [f"{jid}: final metrics unparsable: {exc}"]
        got = totals.get("rtm_cu_instructions_total")
        if got != ref["instructions"]:
            errors.append(f"{jid}: final metrics instructions {got} != "
                          f"kernel walk {ref['instructions']}")
        return errors

    def run(self) -> None:
        for wl, chiplets, params in JOB_KINDS:
            spec = JobSpec("ref", wl, chiplets=chiplets,
                           params=dict(params))
            self.references[self._key(spec)] = reference(spec)
        if self.on_measure is not None:
            self.on_measure()
        self.calibrator = CalibrationProcess()
        try:
            deadline = time.perf_counter() + self.seconds
            while not self.rounds or time.perf_counter() < deadline:
                self.one_round(len(self.rounds))
        finally:
            self.calibrator.close()
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass

    def metrics(self) -> Dict[str, float]:
        """The workload's end-to-end metrics (see README.md)."""
        return {
            "sim_events_per_s": median(
                r["events"] / r["drain_s"] * r["calib_s"] / NOMINAL_CALIB_S
                for r in self.rounds),
            "setup_s": median(r["setup_s"] * NOMINAL_CALIB_S
                              / r["setup_calib_s"] for r in self.rounds),
            "peak_rss_mb": max(r["rss_mb"] for r in self.rounds),
            **op_latencies([j["op_s"] * NOMINAL_CALIB_S / j["calib_s"]
                            for j in self.jobs]),
        }

    def report(self) -> Dict[str, Any]:
        """Figures printed beside the result line."""
        return {"rounds": len(self.rounds), "jobs": len(self.jobs),
                "raw_events_per_s": median(r["events"] / r["drain_s"]
                                           for r in self.rounds),
                "raw_jobs_per_s": median(r["jobs"] / r["drain_s"]
                                         for r in self.rounds),
                "raw_setup_s": median(r["setup_s"] for r in self.rounds),
                "job_events_per_s": median(j["events"] / j["run_s"]
                                           for j in self.jobs),
                "calib_s": median(r["calib_s"] for r in self.rounds)}
