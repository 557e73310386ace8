"""The traced run: span recorders around each layer's entry points.

``traced_run`` patches the public entry points of every measured layer
with span recorders, runs the workload exactly as an untraced run does,
and turns the spans into the per-layer metrics.  A span records its
name, start, end and parent span; a layer's self time is its spans'
durations minus the time their child spans cover.  Spans are kept in
memory (the first ``KEEP_SPANS`` of them in full, every one in the
per-name totals) and written to ``.bench_out/`` when the run ends.

Counts are per simulation pass (per job on ``campaign``) so that they
repeat exactly from run to run; times are means per call, or per pass
for component self time.  A layer that does no work on a workload
reports 0.  End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from stats import median

#: Server views, as the per-layer ``core`` metrics name them.
VIEWS = ("overview", "resources", "progress", "buffers", "component",
         "watches", "hang", "alerts", "control", "metrics")
GPU_KINDS = ("cu", "rob", "addr_translator", "l1", "l2", "write_buffer",
             "dram", "rdma", "network", "control")
#: (name, unit, better) of every per-layer metric, as BENCHMARK.json
#: lists them.
PER_LAYER = (
    [("akita.events", "count", "lower"),
     ("akita.event_self_ns", "ns", "lower"),
     ("akita.queue_ops", "count", "lower"),
     ("akita.queue_op_ns", "ns", "lower"),
     ("akita.port_sends", "count", "lower"),
     ("akita.port_send_accept_ratio", "ratio", "higher"),
     ("akita.hook_calls", "count", "lower"),
     ("akita.hook_call_ns", "ns", "lower")]
    + [(f"gpu.{k}.self_ms", "ms", "lower") for k in GPU_KINDS]
    + [("gpu.ticks", "count", "lower"),
       ("gpu.tick_progress_ratio", "ratio", "higher"),
       ("gpu.sim_ns", "ns", "lower"),
       ("gpu.instructions", "count", "lower"),
       ("gpu.mem_reqs", "count", "lower"),
       ("gpu.rdma_forwarded", "count", "lower"),
       ("gpu.l1_hit_ratio", "ratio", "higher"),
       ("workloads.ops", "count", "lower"),
       ("workloads.op_gen_ns", "ns", "lower")]
    + [(f"core.{m}.{v}", unit, better) for v in VIEWS
       for m, unit, better in (("requests", "count", "higher"),
                               ("handler_ms", "ms", "lower"),
                               ("response_kb", "KB", "lower"))]
    + [("core.wait_ms", "ms", "lower"),
       ("core.pause_ms", "ms", "lower"),
       ("metrics.callbacks", "count", "lower"),
       ("metrics.callback_ns", "ns", "lower"),
       ("metrics.expose_ms", "ms", "lower"),
       ("metrics.expose_kb", "KB", "lower"),
       ("metrics.series", "count", "lower"),
       ("trace.records", "count", "lower"),
       ("trace.record_ns", "ns", "lower"),
       ("trace.overwritten", "count", "lower"),
       ("profile.samples", "count", "lower"),
       ("profile.sample_us", "us", "lower"),
       ("fleet.boot_s", "s", "lower"),
       ("fleet.dispatch_ms", "ms", "lower"),
       ("fleet.job_run_ms", "ms", "lower"),
       ("fleet.settle_ms", "ms", "lower"),
       ("fleet.frames", "count", "lower"),
       ("fleet.journal_appends", "count", "lower"),
       ("fleet.journal_append_us", "us", "lower"),
       ("historian.records", "count", "lower"),
       ("historian.ingest_ms", "ms", "lower"),
       ("checkpoint.saves", "count", "lower"),
       ("checkpoint.save_ms", "ms", "lower"),
       ("checkpoint.kb", "KB", "lower")])

#: Component class -> gpu kind.
KIND_OF = {
    "ComputeUnit": "cu", "ReorderBuffer": "rob",
    "AddressTranslator": "addr_translator", "L1VCache": "l1",
    "L2Cache": "l2", "WriteBuffer": "write_buffer",
    "DRAMController": "dram", "RDMAEngine": "rdma",
    "ChipletSwitch": "network", "CommandProcessor": "control",
    "Dispatcher": "control", "Driver": "control",
}
#: Hook owner class -> span name.
HOOK_SPAN = {"SimMetrics": "metrics.callback", "Tracer": "trace.record",
             "Checkpointer": "checkpoint.hook", "FaultInjector": "faults.hook"}

KEEP_SPANS = 50_000
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"
#: Directory whose sitecustomize installs the worker-side recorder.
WORKER_HOOKS = Path(__file__).resolve().parent / "worker_spans"


class Recorder:
    """Per-thread span stacks feeding per-name totals."""

    def __init__(self, keep: int = KEEP_SPANS) -> None:
        self.keep = keep
        self.spans: List[tuple] = []
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.true: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget everything recorded so far (the untimed reference
        runs before the measured passes)."""
        with self._lock:
            self.spans.clear()
            for table in (self.count, self.total, self.self_time,
                          self.true, self.extra):
                table.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        frame = [name, time.perf_counter(), 0.0,
                 stack[-1][0] if stack else None]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name = frame[0]
        dur = end - frame[1]
        with self._lock:
            self.count[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[2]
            if len(self.spans) < self.keep:
                self.spans.append((name, frame[1], end, frame[3]))
        if stack:
            stack[-1][2] += dur
        return dur

    def wrap(self, name: Any, fn: Callable,
             truthy: bool = False) -> Callable:
        """*fn* inside a span; *name* is a string or a function of the
        call's arguments.  With *truthy*, true results are counted."""
        rec = self
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            frame = rec.enter(name(*args) if dynamic else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(frame)
            if truthy and result:
                rec.true[frame[0]] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def _view_of(path: str, method: str = "GET") -> str:
    path = path.split("?", 1)[0]
    if path == "/metrics":
        return "metrics"
    if method != "GET" or path in ("/api/pause", "/api/continue"):
        return "control"
    tail = path.rsplit("/", 1)[-1]
    return tail if tail in VIEWS else tail or "other"


def _patch(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, attr, make(getattr(cls, attr)))


def install(rec: Recorder) -> None:
    """Patch every measured layer's entry points with span recorders."""
    from repro.akita.component import TickingComponent
    from repro.akita.connection import DirectConnection
    from repro.akita.engine import Engine
    from repro.akita.hooks import Hookable
    from repro.akita.port import Port
    from repro.akita.queue import EventQueue
    from repro.core import monitor as monitor_mod, server as server_mod
    from repro.core.bottleneck import BufferAnalyzer
    from repro.core.timeseries import ValueMonitor
    from repro.fleet.gateway import FleetGateway, _GatewayHandler
    from repro.fleet.journal import CampaignJournal
    from repro.fleet.manager import FleetManager
    from repro.gpu.cache.l1 import L1VCache
    from repro.gpu.driver import Driver
    from repro.historian.service import HistorianService
    from repro.historian.store import Historian
    from repro.profile.continuous import ContinuousProfiler
    from repro.trace.tracer import Tracer

    # akita: the engine loop, the event queue, port sends, hooks.
    _patch(Engine, "run", lambda f: rec.wrap("akita.run", f))
    _patch(EventQueue, "push", lambda f: rec.wrap("akita.queue_push", f))
    _patch(EventQueue, "pop", lambda f: rec.wrap("akita.queue_pop", f))
    _patch(Port, "send", lambda f: rec.wrap("akita.port_send", f,
                                            truthy=True))
    _patch(DirectConnection, "handle",
           lambda f: rec.wrap("akita.delivery", f))
    accept, remove = Hookable.accept_hook, Hookable.remove_hook

    # Each hookable keeps the wrappers of its own hooks, so removing a
    # hook finds its wrapper and a finished pass's observers are freed
    # with its platform.
    def accept_hook(self, hook, positions=None):
        owner = type(getattr(hook, "__self__", None)).__name__
        w = rec.wrap(HOOK_SPAN.get(owner, "akita.hook"), hook)
        self.__dict__.setdefault("_span_wrappers", {})[hook] = w
        accept(self, w, positions)

    def remove_hook(self, hook):
        wrappers = self.__dict__.get("_span_wrappers", {})
        remove(self, wrappers.pop(hook, hook))

    Hookable.accept_hook = accept_hook
    Hookable.remove_hook = remove_hook

    # gpu: component self time by kind, ticks and their progress.
    kind_cache: Dict[type, str] = {}

    def kind_span(self, event):
        cls = type(self)
        name = kind_cache.get(cls)
        if name is None:
            name = kind_cache[cls] = "gpu." + KIND_OF.get(cls.__name__,
                                                          "control")
        return name

    _patch(TickingComponent, "handle", lambda f: rec.wrap(kind_span, f))
    todo = [TickingComponent]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "tick" in cls.__dict__ and cls is not TickingComponent:
            def counted(f):
                def tick(self):
                    progress = f(self)
                    rec.count["gpu.tick"] += 1
                    if progress:
                        rec.true["gpu.tick"] += 1
                    return progress
                return tick
            _patch(cls, "tick", counted)
    # L1 hits: a tag lookup that hits is always consumed as a read.
    l1_init = L1VCache.__init__

    def l1_counting_init(self, *args, **kwargs):
        l1_init(self, *args, **kwargs)
        lookup = self.tags.lookup

        def counted_lookup(line):
            hit = lookup(line)
            if hit:
                rec.extra["gpu.l1_hits"] += 1
            return hit
        self.tags.lookup = counted_lookup

    L1VCache.__init__ = l1_counting_init

    # workloads: every op a wavefront program yields.
    launch = Driver.launch_kernel

    def traced_launch(self, descriptor):
        program = descriptor.program
        if not getattr(program, "_traced", False):
            def traced_program(wg, wf, _p=program):
                gen = _p(wg, wf)
                while True:
                    frame = rec.enter("workloads.op_gen")
                    op = next(gen, None)
                    if op is None:
                        frame[0] = "workloads.op_end"
                    rec.exit(frame)
                    if op is None:
                        return
                    yield op
            traced_program._traced = True
            descriptor.install_program(traced_program)
        return launch(self, descriptor)

    Driver.launch_kernel = traced_launch

    # core: each route by view, its response size, the monitor calls.
    current = threading.local()

    def routed(view_of_args):
        def make(f):
            def route(self, *args):
                view = view_of_args(self, *args)
                current.view = view
                frame = rec.enter("core." + view)
                try:
                    return f(self, *args)
                finally:
                    rec.exit(frame)
                    current.view = None
            return route
        return make

    handler = server_mod._Handler
    _patch(handler, "_route_get", routed(lambda s, p, q: _view_of(p)))
    _patch(handler, "_route_post",
           routed(lambda s, p, q: _view_of(p, "POST")))
    _patch(handler, "_route_delete",
           routed(lambda s, p, q: _view_of(p, "DELETE")))
    _patch(_GatewayHandler, "_route",
           routed(lambda s, m: _view_of(s.path, m)))
    send_header = server_mod.JSONRequestHandler.send_header

    def sized_header(self, keyword, value):
        view = getattr(current, "view", None)
        if view and keyword == "Content-Length":
            rec.extra[f"core.bytes.{view}"] += int(value)
        return send_header(self, keyword, value)

    server_mod.JSONRequestHandler.send_header = sized_header
    for cls, names in ((monitor_mod.Monitor,
                        ("overview", "component_detail", "progress_bars",
                         "hang_status", "pause", "continue_",
                         "watch_value")),
                       (BufferAnalyzer, ("snapshot",)),
                       (ValueMonitor, ("to_dict", "unwatch"))):
        for attr in names:
            _patch(cls, attr, lambda f, a=attr: rec.wrap(
                f"core.monitor.{a}", f))

    # metrics: the exposition render (and its size and series).
    def measured_expose(f):
        def expose(*args, **kwargs):
            frame = rec.enter("metrics.expose")
            try:
                text = f(*args, **kwargs)
            finally:
                rec.exit(frame)
            rec.extra["metrics.expose_bytes"] += len(text)
            rec.extra["metrics.series_last"] = sum(
                1 for line in text.splitlines()
                if line and not line.startswith("#"))
            return text
        return expose

    server_mod._expose = measured_expose(server_mod._expose)
    _patch(FleetGateway, "federated_metrics", measured_expose)

    # trace: the record path is the tracer's hook (above); the store's
    # totals are taken when each tracer stops.
    stopped = set()
    tracer_stop = Tracer.stop

    def counted_stop(self):
        tracer_stop(self)
        if id(self) not in stopped:
            stopped.add(id(self))
            stats = self.store.stats()
            rec.extra["trace.recorded"] += stats["recorded"]
            rec.extra["trace.dropped"] += stats["dropped"]

    Tracer.stop = counted_stop

    # profile: one sample of every thread's stack.
    _patch(ContinuousProfiler, "_sample",
           lambda f: rec.wrap("profile.sample", f))

    # fleet, historian: the manager's frames and settles, the journal,
    # the historian's rounds and records.
    _patch(FleetManager, "_handle_event",
           lambda f: rec.wrap("fleet.frame", f))
    _patch(FleetManager, "_settle_job",
           lambda f: rec.wrap("fleet.settle", f))
    _patch(CampaignJournal, "append",
           lambda f: rec.wrap("fleet.journal_append", f))
    _patch(HistorianService, "tick",
           lambda f: rec.wrap("historian.ingest", f))
    _patch(Historian, "record", lambda f: rec.wrap("historian.record", f))


def _mean(rec: Recorder, name: str, scale: float) -> float:
    """Mean duration of *name*'s spans, times *scale*; 0 without any."""
    n = rec.count.get(name, 0)
    return rec.total[name] / n * scale if n else 0.0


def sim_layers(rec: Recorder, run) -> Dict[str, float]:
    """Per-layer figures of a simulation workload's run."""
    n = len(run.passes)
    events = sum(p["events"] for p in run.passes)
    platform, _ = run.last
    cus = [c for c in platform.simulation.components
           if hasattr(c, "num_instructions")]
    l1s = [c for c in platform.simulation.components
           if type(c).__name__ == "L1VCache"]
    reads = sum(c.num_reads for c in l1s)
    hook_names = ("akita.hook", "metrics.callback", "trace.record",
                  "checkpoint.hook", "faults.hook")
    hook_calls = sum(rec.count.get(h, 0) for h in hook_names)
    hook_time = sum(rec.total.get(h, 0.0) for h in hook_names)
    queue_ops = rec.count["akita.queue_push"] + rec.count["akita.queue_pop"]
    queue_time = rec.total["akita.queue_push"] + rec.total["akita.queue_pop"]
    sends = rec.count["akita.port_send"]
    ticks = rec.count["gpu.tick"]
    out = {
        "akita.events": events / n,
        "akita.event_self_ns": rec.self_time["akita.run"] / events * 1e9,
        "akita.queue_ops": queue_ops / n,
        "akita.queue_op_ns": queue_time / queue_ops * 1e9,
        "akita.port_sends": sends / n,
        "akita.port_send_accept_ratio":
            rec.true["akita.port_send"] / sends if sends else 0.0,
        "akita.hook_calls": hook_calls / n,
        "akita.hook_call_ns": hook_time / hook_calls * 1e9
        if hook_calls else 0.0,
        "gpu.ticks": ticks / n,
        "gpu.tick_progress_ratio": rec.true["gpu.tick"] / ticks,
        "gpu.sim_ns": platform.engine.now * 1e9,
        "gpu.instructions": sum(c.num_instructions for c in cus),
        "gpu.mem_reqs": sum(c.num_mem_reqs for c in cus),
        "gpu.rdma_forwarded": sum(
            getattr(c, "num_forwarded", 0)
            for c in platform.simulation.components
            if type(c).__name__ == "RDMAEngine"),
        # Hits are counted over every pass; reads are the last pass's.
        "gpu.l1_hit_ratio": rec.extra["gpu.l1_hits"] / n / reads
        if reads else 0.0,
        "workloads.ops": rec.count["workloads.op_gen"] / n,
        "workloads.op_gen_ns": _mean(rec, "workloads.op_gen", 1e9),
        "metrics.callbacks": rec.count["metrics.callback"] / n,
        "metrics.callback_ns": _mean(rec, "metrics.callback", 1e9),
        "trace.records": rec.extra["trace.recorded"] / n,
        "trace.record_ns": _mean(rec, "trace.record", 1e9),
        "trace.overwritten": rec.extra["trace.dropped"] / n,
        "profile.samples": rec.count["profile.sample"] / n,
        "profile.sample_us": _mean(rec, "profile.sample", 1e6),
        "core.pause_ms": 1e3 * sum(p["paused_s"] for p in run.passes),
    }
    for kind in GPU_KINDS:
        out[f"gpu.{kind}.self_ms"] = rec.self_time[f"gpu.{kind}"] / n * 1e3
    return out


def campaign_layers(rec: Recorder, run, worker: Dict[str, float]
                    ) -> Dict[str, float]:
    jobs = max(1, len(run.jobs))
    stamps = [j for j in run.stamps if {"claim", "started", "done"} <= set(j)]
    return {
        "fleet.boot_s": median(r["setup_s"] for r in run.rounds),
        "fleet.dispatch_ms": 1e3 * sum(
            s["started"] - s["claim"] for s in stamps) / len(stamps),
        "fleet.job_run_ms": 1e3 * sum(
            s["done"] - s["started"] for s in stamps) / len(stamps),
        "fleet.settle_ms": _mean(rec, "fleet.settle", 1e3),
        "fleet.frames": rec.count["fleet.frame"] / jobs,
        "fleet.journal_appends": rec.count["fleet.journal_append"] / jobs,
        "fleet.journal_append_us": _mean(rec, "fleet.journal_append", 1e6),
        "historian.records": rec.count["historian.record"] / jobs,
        "historian.ingest_ms": _mean(rec, "historian.ingest", 1e3),
        "checkpoint.saves": worker.get("saves", 0) / jobs,
        "checkpoint.save_ms": 1e3 * worker["save_s"] / worker["saves"]
        if worker.get("saves") else 0.0,
        "checkpoint.kb": worker["bytes"] / worker["saves"] / 1024
        if worker.get("saves") else 0.0,
    }


def core_layers(rec: Recorder, samples: List[list],
                units: int) -> Dict[str, float]:
    """Server figures; request counts are per pass (per job on
    ``campaign``), over *units* of them."""
    out = {}
    for view in VIEWS:
        n = rec.count.get(f"core.{view}", 0)
        out[f"core.requests.{view}"] = n / units
        out[f"core.handler_ms.{view}"] = _mean(rec, f"core.{view}", 1e3)
        out[f"core.response_kb.{view}"] = (
            rec.extra[f"core.bytes.{view}"] / n / 1024 if n else 0.0)
    names = [k for k in rec.count if k.startswith("core.")
             and not k.startswith("core.monitor.")]
    handled = sum(rec.count[k] for k in names)
    handled_time = sum(rec.total[k] for k in names)
    latencies = [s[1] for s in samples]
    out["core.wait_ms"] = (1e3 * (sum(latencies) / len(latencies)
                                  - handled_time / handled)
                           if latencies and handled else 0.0)
    expose_n = rec.count.get("metrics.expose", 0)
    out["metrics.expose_ms"] = _mean(rec, "metrics.expose", 1e3)
    out["metrics.expose_kb"] = (rec.extra["metrics.expose_bytes"]
                                / expose_n / 1024 if expose_n else 0.0)
    out["metrics.series"] = rec.extra["metrics.series_last"]
    return out


def _worker_totals(directory: Path) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for path in directory.glob("*.json"):
        with open(path) as f:
            for k, v in json.load(f).items():
                totals[k] += v
    return totals


def traced_run(workload: str, seed: int, seconds: float):
    """Run *workload* under span recorders; returns (result, report)."""
    rec = Recorder()
    install(rec)
    worker_dir: Optional[Path] = None
    if workload == "campaign":
        from campaign import CampaignRun
        worker_dir = OUT_DIR / f"worker-spans-{os.getpid()}"
        worker_dir.mkdir(parents=True, exist_ok=True)
        os.environ["PERFBENCH_WORKER_SPANS"] = str(worker_dir)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [str(WORKER_HOOKS), os.environ["PYTHONPATH"]])
        run = CampaignRun(workload, seed, seconds)
    else:
        from sims import SimRun
        run = SimRun(workload, seed, seconds)
    run.on_measure = rec.reset
    run.run()
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    if workload == "campaign":
        values.update(campaign_layers(rec, run,
                                      _worker_totals(worker_dir)))
        shutil.rmtree(worker_dir, ignore_errors=True)
        samples, units = [], max(1, len(run.jobs))
    else:
        values.update(sim_layers(rec, run))
        samples, units = run.samples, len(run.passes)
    values.update(core_layers(rec, samples, units))
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    rec.write(spans_path)
    report = run.report()
    traced = run.metrics()
    report["traced_sim_events_per_s"] = traced["sim_events_per_s"]
    report["spans_written"] = len(rec.spans)
    report["spans_file"] = str(spans_path.relative_to(OUT_DIR.parent))
    for err in run.errors[:10]:
        print(f"check failed: {err}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit, _ in PER_LAYER}}
    return result, report
