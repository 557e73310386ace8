"""Worker-side span recorder for the traced campaign run.

Fleet workers are separate processes, so the traced run puts this
directory first on their ``PYTHONPATH``; the interpreter imports this
module at start-up.  When ``PERFBENCH_WORKER_SPANS`` names a directory,
every checkpoint save is timed and sized, and the totals are written to
``<dir>/<pid>.json`` when the worker exits.  Otherwise it does nothing.
"""

import atexit
import json
import os
import time

_DIR = os.environ.get("PERFBENCH_WORKER_SPANS")

if _DIR:
    from repro.checkpoint.checkpointer import Checkpointer

    _totals = {"saves": 0, "save_s": 0.0, "bytes": 0}
    _save_now = Checkpointer.save_now

    def _timed_save_now(self):
        t0 = time.perf_counter()
        header = _save_now(self)
        if header is not None:
            _totals["saves"] += 1
            _totals["save_s"] += time.perf_counter() - t0
            _totals["bytes"] += header["payload_bytes"]
        return header

    Checkpointer.save_now = _timed_save_now

    def _write():
        path = os.path.join(_DIR, f"{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump(_totals, f)

    atexit.register(_write)
