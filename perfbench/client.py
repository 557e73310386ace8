"""The benchmark's out-of-process HTTP client.

One process, one connection at a time, on an open-loop schedule: every
request has a due time fixed by the schedule, is sent at that time (or
as soon as the previous request returns, when the generator runs late),
and its latency is timed from the due time.  The schedule is seeded, so
the same seed gives the same request sequence.

The parent drives the client over stdin/stdout, one JSON object a line:

* ``{"cmd": "go", "mode": ..., "url": ..., "seed": n, "pass": i, ...}``
  starts a mode's schedule against ``url``;
* ``{"cmd": "halt"}`` ends the schedule: the client finishes the
  request in flight, releases a pause it holds, makes the mode's final
  reads and answers with one ``{"event": "result", ...}`` line;
* ``{"cmd": "exit"}`` ends the process.

Modes and their streams (period in seconds):

* ``dashboard``: what the shipped dashboard (``src/repro/core/static/
  app.js``) asks for when left open, at its own intervals: the header
  stream's frame, ``overview`` and ``resources`` (0.5), ``progress``
  (0.75), ``watches`` (0.5), ``hang`` (1.0), the right panel's
  ``buffers`` table (1.5) and ``alerts`` (2.0); then a user's clicks at
  the paper's one-second interval, ``component`` detail cycling through
  every component in a seeded order (1.0); and control writes beside
  the reads: a watch added and later removed (5.0) and a
  pause -> inspect -> continue cycle (5.0).
* ``scraper``: ``/metrics`` (0.2), five times the default sampling
  rate of the repository's own exposition reader, ``HistorianService``,
  so that a run makes about a hundred scrapes and its p90 has about ten
  beyond it.

This file imports no program code.
"""

from __future__ import annotations

import heapq
import http.client
import json
import random
import sys
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

#: (view, period_s) streams of each mode.  A view names what the
#: request reads or does; ``watch`` is a watch added (and removed on the
#: stream's next turn), ``pause`` a whole pause cycle.  The dashboard's
#: header reads ``/api/stream?interval=0.5``; its frames carry an
#: overview and a resource sample, so they are polled at the stream's
#: interval here, keeping one connection at a time.
STREAMS = {
    "dashboard": [("overview", 0.5), ("resources", 0.5),
                  ("progress", 0.75), ("watches", 0.5), ("hang", 1.0),
                  ("buffers", 1.5), ("alerts", 2.0), ("component", 1.0),
                  ("watch", 5.0), ("pause", 5.0)],
    "scraper": [("metrics", 0.2)],
}

#: Gap between the steps of one pause cycle and the span it holds the
#: simulation paused.
PAUSE_STEP_S = 0.01


def parse_prometheus(text: str) -> Dict[str, float]:
    """Sum every sample of each family; raises ValueError on a line
    that is not ``name[{labels}] value``."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        if not head:
            raise ValueError(f"bad exposition line {line!r}")
        name = head.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


class Client:
    def __init__(self) -> None:
        self.halt = threading.Event()
        self.watch_id: Optional[int] = None
        self.samples: List[Tuple[str, float, float, bool]] = []
        self.errors: List[str] = []
        self.finals = 0
        self.final_failed = 0
        self.last_now = -1.0

    # -- one request --------------------------------------------------
    def request(self, method: str, url: str, path: str
                ) -> Tuple[bool, Any, str]:
        """Send one request on a fresh connection; returns
        (ok, parsed body, error)."""
        parts = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                          timeout=60)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            body = resp.read()
            status = resp.status
        except OSError as exc:
            return False, None, f"{method} {path}: {exc}"
        finally:
            conn.close()
        if status != 200:
            return False, None, f"{method} {path}: HTTP {status}"
        try:
            if path.startswith("/metrics"):
                return True, parse_prometheus(body.decode()), ""
            return True, json.loads(body), ""
        except ValueError as exc:
            return False, None, f"{method} {path}: unparsable ({exc})"

    def timed(self, view: str, due: float, method: str, url: str,
              path: str, check=None) -> Any:
        start = time.perf_counter()
        ok, body, err = self.request(method, url, path)
        end = time.perf_counter()
        if ok and check is not None:
            err = check(body) or ""
            ok = not err
        if not ok:
            self.errors.append(err)
        self.samples.append((view, end - due, max(0.0, start - due), ok))
        return body if ok else None

    def final(self, method: str, url: str, path: str) -> Any:
        """A read made after the schedule; counted, not timed."""
        self.finals += 1
        ok, body, err = self.request(method, url, path)
        if not ok:
            self.final_failed += 1
            self.errors.append(err)
            return None
        return body

    def check_overview(self, body: Any) -> Optional[str]:
        now = float(body["now"])
        if now < self.last_now:
            return f"overview time went back {self.last_now} -> {now}"
        self.last_now = now
        return None

    # -- schedules ----------------------------------------------------
    def run(self, cmd: Dict[str, Any]) -> Dict[str, Any]:
        mode, url = cmd["mode"], cmd["url"]
        rng = random.Random(cmd["seed"] * 7919 + cmd["pass"])
        components = list(cmd.get("components") or [])
        rng.shuffle(components)
        watchable = list(cmd.get("watchable") or [])
        rng.shuffle(watchable)
        t0 = time.perf_counter()
        heap = [(t0 + rng.uniform(0.0, period), i)
                for i, (_, period) in enumerate(STREAMS[mode])]
        heapq.heapify(heap)
        counters = {"component": 0, "watch": 0, "pause": 0}
        self.watch_id = None
        while not self.halt.is_set():
            due, i = heapq.heappop(heap)
            view, period = STREAMS[mode][i]
            heapq.heappush(heap, (due + period, i))
            wait = due - time.perf_counter()
            if wait > 0 and self.halt.wait(wait):
                break
            self.one(view, due, url, components, watchable, counters)
        if self.watch_id is not None:
            self.final("DELETE", url, f"/api/watch?id={self.watch_id}")
        result = {"finals": {}}
        bars = self.final("GET", url, "/api/progress")
        if bars is not None:
            result["finals"]["progress"] = bars["bars"]
        if mode == "scraper":
            totals = self.final("GET", url, "/metrics")
            if totals is not None:
                result["finals"]["instructions"] = totals.get(
                    "rtm_cu_instructions_total")
        return result

    def one(self, view: str, due: float, url: str, components: List[str],
            watchable: List[List[str]], counters: Dict[str, int]) -> None:
        q = urllib.parse.quote
        if view == "overview":
            self.timed(view, due, "GET", url, "/api/overview",
                       self.check_overview)
        elif view in ("resources", "progress", "watches", "hang",
                      "alerts"):
            self.timed(view, due, "GET", url, f"/api/{view}")
        elif view == "buffers":
            # The right panel's table, as app.js asks for it.
            self.timed(view, due, "GET", url,
                       "/api/buffers?sort=percent&top=30")
        elif view == "metrics":
            self.timed(view, due, "GET", url, "/metrics")
        elif view == "component":
            name = components[counters["component"] % len(components)]
            counters["component"] += 1
            self.timed(view, due, "GET", url,
                       f"/api/component?name={q(name)}")
        elif view == "watch":
            # Remove the watch the last turn added, then add the next.
            if self.watch_id is not None:
                self.timed("control", due, "DELETE", url,
                           f"/api/watch?id={self.watch_id}")
                self.watch_id = None
            comp, path = watchable[counters["watch"] % len(watchable)]
            counters["watch"] += 1
            added = self.timed(
                "control", due, "POST", url,
                f"/api/watch?component={q(comp)}&path={q(path)}")
            if added is not None:
                self.watch_id = added["id"]
        elif view == "pause":
            # pause -> inspect -> continue; the continue is sent even
            # when a halt arrives mid-cycle, so no pause outlives it.
            name = components[counters["pause"] % len(components)]
            counters["pause"] += 1
            self.timed("control", due, "POST", url, "/api/pause")
            step = due + PAUSE_STEP_S
            time.sleep(max(0.0, step - time.perf_counter()))
            self.timed("overview", step, "GET", url, "/api/overview",
                       self.check_overview)
            step += PAUSE_STEP_S
            time.sleep(max(0.0, step - time.perf_counter()))
            self.timed("component", step, "GET", url,
                       f"/api/component?name={q(name)}")
            step += PAUSE_STEP_S
            time.sleep(max(0.0, step - time.perf_counter()))
            self.timed("control", step, "POST", url, "/api/continue")
        else:
            raise ValueError(f"unknown view {view!r}")


class ClientProcess:
    """Parent-side handle: spawns this file as a child process and
    speaks its line protocol."""

    def __init__(self, env: Optional[Dict[str, str]] = None) -> None:
        import subprocess
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env)
        if self.receive().get("event") != "ready":
            raise RuntimeError("client did not start")

    def send(self, cmd: Dict[str, Any]) -> None:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("client exited")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.send({"cmd": "exit"})
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    client = Client()
    out = sys.stdout
    commands: "list[Dict[str, Any]]" = []
    ready = threading.Condition()

    def reader() -> None:
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "halt":
                client.halt.set()
                continue
            with ready:
                commands.append(cmd)
                ready.notify()
        with ready:
            commands.append({"cmd": "exit"})
            ready.notify()

    threading.Thread(target=reader, daemon=True).start()
    print(json.dumps({"event": "ready"}), file=out, flush=True)
    while True:
        with ready:
            while not commands:
                ready.wait()
            cmd = commands.pop(0)
        if cmd["cmd"] == "exit":
            return 0
        client.samples, client.errors = [], []
        client.finals = client.final_failed = 0
        client.last_now = -1.0
        result = client.run(cmd)
        client.halt.clear()
        result.update(event="result", samples=client.samples,
                      errors=client.errors[:20],
                      failed=sum(1 for s in client.samples if not s[3])
                      + client.final_failed,
                      attempted=len(client.samples) + client.finals)
        print(json.dumps(result), file=out, flush=True)


if __name__ == "__main__":
    sys.exit(main())
