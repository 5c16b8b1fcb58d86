"""Span recording around the program's public callables (traced runs only).

:func:`install` swaps each callable listed in :data:`PATCHES` for a thin
wrapper that records one span per call — name, start, end, parent span
and request id — into a :class:`Recorder` held in memory; :func:`restore`
puts every original object back.  Nothing under ``src/`` changes: the
wrappers are attribute assignments on the modules and classes where the
program looks the callables up, and they exist only between ``install``
and ``restore``.

Self time of a span is its duration minus the union of the intervals its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: one recorded span: (id, name, start_ns, end_ns, parent_id, request_id);
#: parent_id and request_id are -1 when absent
Span = Tuple[int, str, int, int, int, int]

class Recorder:
    """In-memory span and counter store; thread-safe under the GIL."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._grouped: Optional[Dict[str, List[Span]]] = None
        self._grouped_len = -1
        self._own: Optional[Dict[int, int]] = None

    # -- span stack (per thread) ----------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> Tuple[int, int, int]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def close(self, name: str, token: Tuple[int, int, int]) -> int:
        """Record the span opened as ``token``; returns its end (ns)."""
        end = time.perf_counter_ns()
        sid, parent, start = token
        self._stack().pop()
        rid = getattr(self._local, "rid", -1)
        self.spans.append((sid, name, start, end, parent, rid))
        return end

    def span(self, name: str, rid: Optional[int] = None) -> "_SpanCtx":
        return _SpanCtx(self, name, rid)

    # -- counters -------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def observe(self, name: str, value: float) -> None:
        self.values[name].append(value)

    # -- queries (after the run) ----------------------------------------
    def _by_name(self) -> Dict[str, List[Span]]:
        if self._grouped is None or self._grouped_len != len(self.spans):
            grouped: Dict[str, List[Span]] = defaultdict(list)
            for s in self.spans:
                grouped[s[1]].append(s)
            self._grouped, self._grouped_len = grouped, len(self.spans)
            self._own = None
        return self._grouped

    def named(self, name: str, window: Optional[Tuple[int, int]] = None) -> List[Span]:
        """Spans called ``name``, optionally only those starting in ``window``."""
        spans = self._by_name().get(name, [])
        if window is None:
            return spans
        lo, hi = window
        return [s for s in spans if lo <= s[2] < hi]

    def durations_us(self, name: str, window: Optional[Tuple[int, int]] = None) -> List[float]:
        return [(s[3] - s[2]) / 1e3 for s in self.named(name, window)]

    def self_us(self, name: str, window: Optional[Tuple[int, int]] = None) -> List[float]:
        spans = self.named(name, window)
        if self._own is None:
            self._own = self_times(self.spans)
        return [self._own[s[0]] / 1e3 for s in spans]

    def write(self, path: str) -> None:
        """Dump every span as compact arrays (``.npz``) plus a name table."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = np.array(
            [(s[0], index[s[1]], s[2], s[3], s[4], s[5]) for s in self.spans],
            dtype=np.int64,
        ).reshape(-1, 6)
        np.savez_compressed(
            path,
            spans=rows,
            names=np.array(names, dtype=object).astype(str),
            columns=np.array(["id", "name", "start_ns", "end_ns", "parent", "request"]),
        )


class _SpanCtx:
    """``with recorder.span(name, rid):`` — a benchmark-side root span."""

    def __init__(self, rec: Recorder, name: str, rid: Optional[int]) -> None:
        self.rec, self.name, self.rid = rec, name, rid

    def __enter__(self) -> "_SpanCtx":
        if self.rid is not None:
            self.rec._local.rid = self.rid
        self.token = self.rec.open()
        return self

    def __exit__(self, *exc: object) -> None:
        self.rec.close(self.name, self.token)
        if self.rid is not None:
            self.rec._local.rid = -1


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: duration minus its children's cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    own: Dict[int, int] = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        own[sid] = (end - start) - covered
    return own


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: called after a wrapped call returns: (recorder, result, args, elapsed ns)
Hook = Callable[[Recorder, Any, Tuple[Any, ...], int], None]


def _plan_savings(rec: Recorder, result: Any, args: tuple, elapsed: int) -> None:
    plan = args[1]
    rec.count("planner.probes_requested", plan.probes_requested)
    rec.count("planner.probes_saved", plan.probes_saved)


def _sc_changes(rec: Recorder, result: Any, args: tuple, elapsed: int) -> None:
    rec.observe("maintenance.sc_changes", len(result))


def _delta_captured(rec: Recorder, result: Any, args: tuple, elapsed: int) -> None:
    # None means the delta preconditions failed and a full capture follows
    if result is not None:
        rec.observe("delta.capture_ms", elapsed / 1e6)


def _publish_report(rec: Recorder, result: Any, args: tuple, elapsed: int) -> None:
    if result.mode == "noop":
        return
    rec.count("publish.count")
    rec.count(f"publish.mode.{result.mode}")
    n = result.snapshot.num_vertices
    rec.observe("publish.affected", n if result.affected is None else len(result.affected))
    if result.mode == "delta":
        rec.observe("publish.shared_fraction", result.shared_fraction)


#: (module, class or None, attribute, span name, result hook)
PATCHES: Tuple[Tuple[str, Optional[str], str, str, Optional[Hook]], ...] = (
    # repro.index build phases, looked up by SMCCIndex.build
    ("repro.core.queries", None, "build_connectivity_graph", "index.connectivity_graph.build", None),
    ("repro.core.queries", None, "build_mst", "index.mst.build", None),
    ("repro.core.queries", None, "build_mst_star", "index.mst_star.build", None),
    # serving facade
    ("repro.serve.serving", "ServingIndex", "sc", "serve.serving.sc", None),
    ("repro.serve.serving", "ServingIndex", "sc_batch", "serve.serving.batch", None),
    ("repro.serve.serving", "ServingIndex", "smcc", "serve.serving.smcc", None),
    ("repro.serve.serving", "ServingIndex", "smcc_l", "serve.serving.smcc_l", None),
    ("repro.serve.serving", "ServingIndex", "publish", "serve.serving.publish", None),
    # result cache
    ("repro.serve.cache", "QueryCache", "get", "serve.cache.get", None),
    ("repro.serve.cache", "QueryCache", "put", "serve.cache.put", None),
    ("repro.serve.cache", "QueryCache", "advance", "serve.cache.advance", None),
    # batch planner, where the serving facade looks it up
    ("repro.serve.serving", None, "plan_batch", "serve.planner.plan", None),
    ("repro.serve.serving", None, "execute_batch", "serve.planner.execute", _plan_savings),
    # snapshot / MST* / MST kernels
    ("repro.serve.snapshot", "IndexSnapshot", "steiner_connectivity", "serve.snapshot.sc", None),
    ("repro.serve.snapshot", "IndexSnapshot", "smcc", "serve.snapshot.smcc", None),
    ("repro.serve.snapshot", "IndexSnapshot", "smcc_l", "serve.snapshot.smcc_l", None),
    ("repro.index.mst_star", "MSTStar", "smcc_l_interval", "index.mst_star.smcc_l_interval", None),
    ("repro.index.mst", "MSTIndex", "vertices_with_connectivity", "index.mst.extract", None),
    # index maintenance
    ("repro.index.maintenance", "IndexMaintainer", "delete_edge", "index.maintenance.update", _sc_changes),
    ("repro.index.maintenance", "IndexMaintainer", "insert_edge", "index.maintenance.update", _sc_changes),
    # publisher / delta capture, where the publisher looks them up
    ("repro.serve.publisher", "SnapshotPublisher", "publish", "serve.publisher.publish", _publish_report),
    ("repro.serve.publisher", None, "capture_delta_snapshot", "serve.delta.capture", _delta_captured),
    ("repro.serve.publisher", None, "capture_snapshot", "serve.snapshot.capture", None),
    # shard tier (gateway side)
    ("repro.serve.shard", "ShardGateway", "__init__", "serve.shard.start", None),
    ("repro.serve.shard", "ShardGateway", "shard_of", "serve.shard.route", None),
    ("repro.serve.shard", "WorkerPool", "request", "serve.shard.request", None),
    ("repro.serve.shard", "SharedSnapshotStore", "publish_snapshot", "serve.shard.export", None),
)


def _wrap(rec: Recorder, name: str, fn: Callable[..., Any], hook: Optional[Hook]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = rec.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = rec.close(name, token)
        if hook is not None:
            hook(rec, result, args, end - token[2])
        return result

    return wrapper


def _wrap_engine_factory(rec: Recorder, get_engine: Callable[..., Any]) -> Callable[..., Any]:
    """``get_engine`` whose engines record one ``kecc`` span per call."""

    @functools.wraps(get_engine)
    def factory(*args: Any, **kwargs: Any) -> Any:
        return _wrap(rec, "kecc", get_engine(*args, **kwargs), None)

    return factory


#: the originals replaced by :func:`install`: (owner, attribute, original)
Installed = List[Tuple[Any, str, Any]]


def _owner(module: str, cls: Optional[str]) -> Any:
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def targets() -> List[Tuple[Any, str]]:
    """Every (owner, attribute) pair a traced run replaces."""
    out = [(_owner(m, c), a) for m, c, a, _, _ in PATCHES]
    out.append((_owner("repro.index.connectivity_graph", None), "get_engine"))
    return out


def install(rec: Recorder) -> Installed:
    """Wrap every target; each must be defined on its owner itself."""
    installed: Installed = []
    try:
        for module, cls, attr, name, hook in PATCHES:
            owner = _owner(module, cls)
            original = vars(owner)[attr]
            installed.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, name, original, hook))
        owner = _owner("repro.index.connectivity_graph", None)
        original = vars(owner)["get_engine"]
        installed.append((owner, "get_engine", original))
        setattr(owner, "get_engine", _wrap_engine_factory(rec, original))
    except BaseException:
        restore(installed)
        raise
    return installed


def restore(installed: Installed) -> None:
    """Put back every original, newest patch first (idempotent)."""
    while installed:
        owner, attr, original = installed.pop()
        setattr(owner, attr, original)
