"""Span tracing around the program's public entry points.

The tracer patches each traced name where its caller looks it up (a
class attribute for methods, a module attribute for functions) with a
wrapper that records one span per call.  Nothing inside the program is
changed; :meth:`Tracer.uninstall` puts every original back.

A span is ``(index, name_id, start_ns, end_ns, parent_index, op_id)``.
Spans are appended to one flat ``array('q')`` (48 bytes a span) and stay
in memory until :meth:`Tracer.save` writes them out after the run.  Each
layer's inclusive time, self time (inclusive time minus the time of its
child spans) and call count are accumulated as the spans close, so the
per-layer metrics need no second pass over the spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "TRACE_POINTS"]

#: ``(module, attribute, class or None, span name)`` of every traced
#: entry point.  Functions are patched in the namespace their caller
#: resolves them from: certify calls its own ``explore_mp`` import, the
#: campaign layer its own ``sweep_spec`` and ``campaign_shard_worker``,
#: the batch engine its own ``build_plan`` and ``batch_run``.
TRACE_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.harness.exhaustive", None, "explore_mp", "exhaustive.explore"),
    ("repro.harness.exhaustive", None, "explore_sm", "exhaustive.explore"),
    ("repro.verify.certify", None, "explore_mp", "exhaustive.explore"),
    ("repro.verify.certify", None, "explore_sm", "exhaustive.explore"),
    ("repro.verify.certify", None, "confirm_exploration", "certify.confirm"),
    ("repro.runtime.kernel", "MPKernel", "step", "kernel.step"),
    ("repro.runtime.kernel", "MPKernel", "snapshot", "kernel.snapshot"),
    ("repro.runtime.kernel", "MPKernel", "restore", "kernel.restore"),
    ("repro.runtime.kernel", "MPKernel", "run", "kernel.run"),
    ("repro.shm.kernel", "SMKernel", "step_pid", "shm.step"),
    ("repro.shm.kernel", "SMKernel", "restore", "shm.restore"),
    ("repro.shm.kernel", "SMKernel", "run", "shm.run"),
    ("repro.harness.symmetry", "MPSymmetryContext", "canonical",
     "symmetry.canonical"),
    ("repro.harness.symmetry", "SMSymmetryContext", "canonical",
     "symmetry.canonical"),
    ("repro.harness.visited", "ExactStore", "probe", "visited.probe"),
    ("repro.core.problem", "SCProblem", "check", "judge"),
    ("repro.verify.oracles", None, "check_execution", "oracles"),
    ("repro.harness.sweep", None, "sweep_spec", "sweep"),
    ("repro.harness.campaign", None, "sweep_spec", "sweep"),
    ("repro.batch.engine", None, "build_plan", "batch.plan"),
    ("repro.batch.engine", None, "batch_run", "batch.run"),
    ("repro.batch.engine", "BatchResult", "stats", "batch.stats"),
    ("repro.jobs", None, "run_shards", "jobs.supervisor"),
    ("repro.harness.campaign", None, "campaign_shard_worker",
     "campaign.worker"),
) + tuple(
    ("repro.jobs.store", "JobStore", method, "jobs.store")
    for method in (
        "create_run", "load_run", "add_shards", "lease", "complete",
        "fail", "release_expired", "shards", "results", "counts",
        "next_not_before", "record_event", "events",
    )
)


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans = array("q")
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        self.op_id = -1
        self._next = 0
        # Open spans: [index, start_ns, child_ns].
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def span(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped so that every call records one ``name`` span.

        ``on_result``, when given, is called with the return value, after
        the span has closed.
        """
        nid = self._name_id(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        calls, total, own = self.calls, self.total_ns, self.self_ns
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._next
            tracer._next = index + 1
            frame = [index, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - frame[1]
                calls[nid] += 1
                total[nid] += took
                own[nid] += took - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += took
                spans.extend((
                    index, nid, frame[1], end,
                    parent[0] if parent is not None else -1, tracer.op_id,
                ))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks: Dict[str, Callable]) -> None:
        """Patch every :data:`TRACE_POINTS` entry; ``hooks`` maps a span
        name to its ``on_result`` callback."""
        for module_name, class_name, attr, name in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def stat(self, name: str) -> Tuple[int, int, int]:
        """``(calls, total_ns, self_ns)`` of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid]

    def save(self, path) -> None:
        """Write the span table (one row a span) and the name table."""
        import numpy as np

        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        np.savez_compressed(
            path, spans=rows, names=np.array(self.names),
            columns=np.array(
                ["index", "name", "start_ns", "end_ns", "parent", "op"]
            ),
        )
