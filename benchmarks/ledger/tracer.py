"""Span tracer for the ledger's traced run.

Layers are measured from outside: ``install()`` wraps the public methods
named in :data:`TARGETS` by ``setattr`` on the imported classes, and
``uninstall()`` puts every attribute back.  Each call records one span —
name, thread, start, end and the enclosing span on the same thread — into
an in-memory list that is written out only when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, class, method, span name)``.  Span names share their layer's
#: prefix so ``layers.py`` can sum a layer without listing its methods.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.engine", "ScoreEngine", "checkpoint", "core.engine.checkpoint"),
    ("repro.core.engine", "ScoreEngine", "restore", "core.engine.restore"),
    ("repro.core.engine", "ScoreEngine", "wait_for_flushes", "core.engine.wait_for_flushes"),
    ("repro.core.engine", "ScoreEngine", "prefetch_enqueue", "core.engine.prefetch_enqueue"),
    ("repro.core.engine", "ScoreEngine", "prefetch_start", "core.engine.prefetch_start"),
    ("repro.core.cache", "CacheBuffer", "reserve", "core.cache.reserve"),
    ("repro.core.scoring", "ScorePolicy", "select", "core.scoring.select"),
    ("repro.core.alloctable", "AllocTable", "find_gap", "core.alloctable.find_gap"),
    ("repro.core.alloctable", "AllocTable", "insert", "core.alloctable.insert"),
    ("repro.core.alloctable", "AllocTable", "remove", "core.alloctable.remove"),
    ("repro.core.restore_queue", "RestoreQueue", "enqueue", "core.restore_queue.enqueue"),
    ("repro.core.restore_queue", "RestoreQueue", "consume", "core.restore_queue.consume"),
    ("repro.core.restore_queue", "RestoreQueue", "distance", "core.restore_queue.distance"),
    ("repro.core.flusher", "Flusher", "schedule", "core.flusher.schedule"),
    ("repro.core.flusher", "Flusher", "drain", "core.flusher.drain"),
    ("repro.simgpu.bandwidth", "Link", "transfer", "simgpu.bandwidth.transfer"),
    ("repro.simgpu.stream", "Stream", "submit", "simgpu.stream.submit"),
    ("repro.clock", "VirtualClock", "sleep", "clock.sleep"),
    ("repro.tiers.ssd", "SsdStore", "put", "tiers.ssd.put"),
    ("repro.tiers.ssd", "SsdStore", "get", "tiers.ssd.get"),
    ("repro.tiers.ssd", "SsdStore", "open_put", "tiers.ssd.open_put"),
    ("repro.tiers.ssd", "SsdStore", "open_get", "tiers.ssd.open_get"),
    ("repro.tiers.pfs", "PfsStore", "put", "tiers.pfs.put"),
    ("repro.tiers.pfs", "PfsStore", "get", "tiers.pfs.get"),
    ("repro.tiers.pfs", "PfsStore", "open_put", "tiers.pfs.open_put"),
    ("repro.tiers.pfs", "PfsStore", "open_get", "tiers.pfs.open_get"),
    ("repro.tiers.pfs", "PfsStore", "put_batch", "tiers.pfs.put_batch"),
    ("repro.sched.scheduler", "LinkScheduler", "open", "sched.open"),
    ("repro.sched.scheduler", "LinkScheduler", "acquire", "sched.acquire"),
    ("repro.sched.scheduler", "LinkScheduler", "release", "sched.release"),
    ("repro.sched.scheduler", "LinkScheduler", "finish", "sched.finish"),
    ("repro.reduce.pipeline", "Reducer", "encode", "reduce.encode"),
    ("repro.reduce.pipeline", "Reducer", "reconstruct", "reduce.reconstruct"),
    ("repro.faults.health", "HealthRegistry", "allow", "faults.health.allow"),
    ("repro.faults.health", "HealthRegistry", "success", "faults.health.success"),
    ("repro.faults.health", "HealthRegistry", "failure", "faults.health.failure"),
    ("repro.cluster.service", "ClientSession", "submit", "cluster.service.submit"),
    ("repro.cluster.service", "ClientSession", "restore", "cluster.service.restore"),
    ("repro.cluster.fabric", "ClusterFabric", "peer_source", "cluster.fabric.peer_source"),
    ("repro.cluster.fabric", "ClusterFabric", "pfs_put", "cluster.fabric.pfs_put"),
    ("repro.cluster.directory", "ReplicaDirectory", "publish", "cluster.directory.publish"),
    ("repro.cluster.directory", "ReplicaDirectory", "holders", "cluster.directory.holders"),
    ("repro.telemetry.bus", "TraceBus", "instant", "telemetry.bus.instant"),
    ("repro.telemetry.bus", "TraceBus", "complete", "telemetry.bus.complete"),
    ("repro.simgpu.memory", "DeviceBuffer", "fill_random", "workloads.fill_random"),
)


def _sleep_request(args, kwargs, result) -> Optional[float]:
    """Requested *real* seconds of a ``VirtualClock.sleep`` (``None`` once
    the clock no longer scales wall time)."""
    time_scale = getattr(args[0], "time_scale", None)
    if time_scale is None:
        return None
    return (args[1] if len(args) > 1 else kwargs["virtual_seconds"]) * time_scale


def _fragments(args, kwargs, result) -> int:
    return len(args[1] if len(args) > 1 else kwargs["fragments"])


#: span name -> what one extra value the span carries.
CAPTURES: Dict[str, Callable] = {
    "clock.sleep": _sleep_request,
    "core.scoring.select": _fragments,
}

_MISSING = object()

#: one span: (id, parent id, name, thread, start, end, self seconds, value)
Span = tuple


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: every ``Link`` a transfer ran on, by name (read for its counters
        #: when the run ends).
        self.links: Dict[str, object] = {}
        #: targets that no longer resolve (a later refactor renamed them).
        self.unresolved: List[str] = []
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: List[Tuple[type, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def install(self) -> None:
        captures = dict(CAPTURES)
        captures["simgpu.bandwidth.transfer"] = self._link_transfer
        for module_name, class_name, method, span_name in TARGETS:
            try:
                cls = getattr(importlib.import_module(module_name), class_name)
                original = getattr(cls, method)
            except (ImportError, AttributeError):
                self.unresolved.append(f"{module_name}.{class_name}.{method}")
                continue
            self._saved.append((cls, method, cls.__dict__.get(method, _MISSING)))
            setattr(cls, method, self._wrap(original, span_name, captures.get(span_name)))

    def uninstall(self) -> None:
        for cls, method, saved in reversed(self._saved):
            if saved is _MISSING:  # the method was inherited, not the class's own
                delattr(cls, method)
            else:
                setattr(cls, method, saved)
        self._saved.clear()

    def _link_transfer(self, args, kwargs, result) -> Tuple[str, int, float]:
        """``(link name, bytes, accounted nominal seconds)`` of a transfer."""
        link = args[0]
        self.links[link.name] = link
        return link.name, args[1] if len(args) > 1 else kwargs["nbytes"], result

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.thread = threading.current_thread().name
            local.stack = []
            return local.stack

    def _wrap(
        self, fn: Callable, name: str, capture: Optional[Callable] = None, value=None
    ) -> Callable:
        """``fn`` recording one span per call; the span's ``value`` is the
        given one, or what ``capture(args, kwargs, result)`` returns."""
        spans, local, ids, now, stack_of = (
            self.spans,
            self._local,
            self._ids,
            time.perf_counter,
            self._stack,
        )

        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [next(ids), 0.0]  # span id, seconds covered by child spans
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            captured = value
            start = now()
            try:
                result = fn(*args, **kwargs)
                if capture is not None:
                    captured = capture(args, kwargs, result)
                return result
            finally:
                end = now()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self_s = end - start - frame[1]
                spans.append((frame[0], parent, name, local.thread, start, end, self_s, captured))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def root(self, name: str, op_id: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside the driver's own span around one
        operation: the root of every span the operation causes on the
        calling thread, carrying the op id as its value."""
        return self._wrap(fn, name, value=op_id)(*args)

    # -- reading ----------------------------------------------------------
    def totals(self) -> Dict[str, List[float]]:
        """``name -> [calls, host seconds, self seconds]``."""
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            entry = out.setdefault(span[2], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span[5] - span[4]
            entry[2] += span[6]
        return out

    def write(self, path: str) -> None:
        """One JSON object per span; times are seconds since the tracer was made."""
        origin = self.origin
        with open(path, "w") as fh:
            for span_id, parent, name, thread, start, end, self_s, value in self.spans:
                row = {
                    "id": span_id,
                    "parent": parent or None,
                    "name": name,
                    "thread": thread,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "self": round(self_s, 7),
                }
                if value is not None:
                    row["value"] = value
                fh.write(json.dumps(row))
                fh.write("\n")
