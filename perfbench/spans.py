"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.installed()``
replaces named functions and methods of ``repro`` by attribute with
wrappers that open a span around each call, and restores the originals
on exit.  No code under ``src/`` knows about tracing.

Each span carries its name, start and end (``perf_counter`` seconds), the
parent span's id, the run id shared by every span of one timed selection,
and the Spark jobs and tasks launched while it was the innermost open
span.  Job counts come from a per-span Spark job group read back through
``statusTracker().getJobIdsForGroup`` right after the span closes, so
they never depend on job ids accumulated by earlier spans.  Kernels that
run inside Spark Python workers (``walk_kernel``, ``batch_scores_np``)
cannot be wrapped from the driver; their work shows as the jobs and tasks
of the driver-side span that launched them.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Callable


class Tracer:
    """Keeps spans in memory; ``write_jsonl`` dumps them at exit."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        self.sc.setJobGroup(f"bench-span-{rec['id']}", name)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if self._stack:
                top = self._stack[-1]
                self.sc.setJobGroup(f"bench-span-{top['id']}", top["name"])
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
            rec["jobs"], rec["tasks"] = self._spark_work(f"bench-span-{rec['id']}")

    def _spark_work(self, group: str) -> tuple[int, int]:
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        tasks = 0
        for jid in jobs:
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                stage = tracker.getStageInfo(sid)
                tasks += stage.numCompletedTasks if stage else 0
        return len(jobs), tasks

    def _wrap(self, fn: Callable, name: str, counter: Callable | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if counter is not None:
                    rec.update(counter(*args, **kwargs))
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attr, span_name, counter)`` in ``targets``.

        A module-level function is also replaced in every loaded ``repro``
        module that imported it by name, so calls through either binding
        are traced.  A missing attribute raises: the benchmark names the
        boundaries it measures and must be updated when they move.
        """
        undo = []
        try:
            for owner, attr, name, counter in targets:
                orig = getattr(owner, attr)
                traced = self._wrap(orig, name, counter)
                holders = [owner]
                if not isinstance(owner, type):
                    holders += [
                        m for key, m in list(sys.modules.items())
                        if key.startswith("repro") and m is not owner
                        and getattr(m, attr, None) is orig
                    ]
                for h in holders:
                    setattr(h, attr, traced)
                    undo.append((h, attr, orig))
            yield self
        finally:
            for h, attr, orig in reversed(undo):
                setattr(h, attr, orig)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")

