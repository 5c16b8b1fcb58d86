"""The writer: serialized index mutation + atomic snapshot publication.

One :class:`SnapshotPublisher` owns the mutable index (an
:class:`~repro.core.queries.SMCCIndex`, whose
:class:`~repro.index.maintenance.IndexMaintainer` applies Section 5.2
updates).  All mutation goes through the publisher's write lock;
readers never touch the mutable index at all — they hold
:class:`~repro.serve.snapshot.IndexSnapshot` references published here.

Publication protocol:

1. the writer applies updates under the lock — preferably as one
   :meth:`apply_updates` batch, which reports applied/no-op operations,
   sc deltas, and the *affected vertex set* (every endpoint of an edge
   whose steiner-connectivity changed, per Observations I/II);
2. ``publish()`` captures a new snapshot (still under the lock, so it
   is transactionally consistent), bumps the generation, and swaps the
   published reference — a single atomic store.  With delta publishing
   enabled (the default) the capture is *copy-on-write*: only the MST
   region the batch actually touched is rebuilt, and every untouched
   array is shared with the last full snapshot by object identity (see
   :mod:`repro.serve.delta`); the publisher falls back to a full
   capture whenever the delta preconditions fail or the region exceeds
   ``region_fraction_limit`` of the vertices;
3. the caller (the serving facade) feeds the
   :class:`~repro.serve.reports.PublishReport` to the result cache so
   unaffected entries carry over.

Between publishes the published snapshot is *stale* by
``staleness()`` updates; freshness-sensitive reads degrade to a direct
online computation against the live graph (see
:class:`~repro.serve.serving.ServingIndex`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.analysis.tsan import AnyRLock, monitored, new_rlock
from repro.core.queries import SMCCIndex
from repro.graph.graph import edge_key
from repro.obs import runtime as _obs
from repro.obs.spans import span
from repro.serve.delta import capture_delta_snapshot, shared_fraction
from repro.serve.reports import PublishReport, UpdateOp, UpdateReport
from repro.serve.snapshot import IndexSnapshot, capture_snapshot

__all__ = ["SnapshotPublisher"]

Edge = Tuple[int, int]


@monitored
class SnapshotPublisher:
    """Serializes writers and publishes immutable snapshots atomically."""

    def __init__(
        self,
        index: SMCCIndex,
        *,
        delta: bool = True,
        region_fraction_limit: float = 0.25,
    ) -> None:
        self._index = index  # guarded-by: immutable-after-publish
        #: delta publishing on/off (off = every publish is a full capture)
        self._delta_enabled = delta  # guarded-by: immutable-after-publish
        #: a delta region larger than this fraction of |V| falls back to
        #: a full capture (rebuilding most of the tree region-locally
        #: costs more than a clean rebuild)
        # guarded-by: immutable-after-publish
        self._region_fraction_limit = region_fraction_limit
        #: reentrant: degraded direct reads nest under writer-side calls
        self._lock = new_rlock("SnapshotPublisher._lock")
        self._generation = 0  # guarded-by: _lock
        #: written under the lock; read lock-free by staleness() — an
        #: advisory int on the per-query admission hot path
        self._pending_updates = 0  # guarded-by: _lock [writes]
        #: vertices touched by sc changes since the last publish; None
        #: once region tracking has been abandoned for this window
        self._affected: Optional[Set[int]] = set()  # guarded-by: _lock
        #: the live graph's sorted edge list, maintained incrementally so
        #: a delta capture never pays the O(|E| log |E|) re-sort
        # guarded-by: _lock
        self._edges_list: List[Edge] = sorted(index.conn_graph.graph.edges())
        # Delta captures patch against the last *full* snapshot, with the
        # tree's dirty set accumulating since that base (cleared only on
        # full publishes).  Arm tracking before any mutation can happen.
        index.mst.begin_dirty_tracking()
        #: swapped under the lock; read lock-free by snapshot() — the
        #: atomic reference publication at the heart of the design
        # guarded-by: _lock [writes]
        self._snapshot = capture_snapshot(
            index.conn_graph, index.mst, generation=0
        )
        self._base_snapshot = self._snapshot  # guarded-by: _lock
        #: advisory flag; lock-free readers only ever observe it
        self._publishing = False  # guarded-by: _lock [writes]
        #: optional hook exporting each published generation to an
        #: out-of-process transport (the shared-memory shard store);
        #: invoked under the lock so export order == publication order
        # guarded-by: _lock
        self._exporter: Optional[Callable[[IndexSnapshot], object]] = None

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def snapshot(self) -> IndexSnapshot:
        """The current published snapshot (atomic reference read)."""
        return self._snapshot

    @property
    def generation(self) -> int:
        return self._snapshot.generation

    def staleness(self) -> int:
        """Updates applied to the live index since the last publish."""
        return self._pending_updates

    @property
    def publishing(self) -> bool:
        """True while a capture/publish is in progress (mid-rebuild)."""
        return self._publishing

    @property
    def lock(self) -> AnyRLock:
        """The write lock; degraded direct reads acquire it too."""
        return self._lock

    @property
    def index(self) -> SMCCIndex:
        """The live mutable index; only touch it while holding ``lock``."""
        return self._index

    @property
    def delta_enabled(self) -> bool:
        return self._delta_enabled

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        *,
        inserts: Optional[Iterable[Edge]] = None,
        deletes: Optional[Iterable[Edge]] = None,
    ) -> UpdateReport:
        """Apply one batch of edge updates to the live index.

        Deletes run before inserts (so swapping an edge's endpoints in
        one batch behaves as expected), each under the write lock as one
        transaction.  Operations that cannot change the graph — deleting
        a missing edge, re-inserting an existing one, self-loops — are
        reported as no-ops instead of raising, which makes replayed /
        at-least-once update feeds idempotent.  Nothing is published;
        call :meth:`publish` (or rely on the facade's auto-publish).
        """
        applied: List[UpdateOp] = []
        noops: List[UpdateOp] = []
        sc_changes: List[Tuple[int, int, int]] = []
        batch_affected: Set[int] = set()
        with self._lock:
            graph = self._index.graph
            for u, v in deletes or ():
                if not graph.has_edge(u, v):
                    noops.append(("delete", u, v))
                    continue
                changes = self._index.delete_edge(u, v)
                self._note_changes(u, v, changes)
                self._drop_edge_key(u, v)
                applied.append(("delete", u, v))
                sc_changes.extend(changes)
                batch_affected.add(u)
                batch_affected.add(v)
                batch_affected.update(a for a, _, _ in changes)
                batch_affected.update(b for _, b, _ in changes)
            for u, v in inserts or ():
                if u == v or graph.has_edge(u, v):
                    noops.append(("insert", u, v))
                    continue
                changes = self._index.insert_edge(u, v)
                self._note_changes(u, v, changes)
                insort(self._edges_list, edge_key(u, v))
                applied.append(("insert", u, v))
                sc_changes.extend(changes)
                batch_affected.add(u)
                batch_affected.add(v)
                batch_affected.update(a for a, _, _ in changes)
                batch_affected.update(b for _, b, _ in changes)
        return UpdateReport(
            applied=tuple(applied),
            noops=tuple(noops),
            sc_changes=tuple(sc_changes),
            affected=frozenset(batch_affected),
        )

    # guarded-by: _lock
    def _note_changes(
        self, u: int, v: int, changes: List[Tuple[int, int, int]]
    ) -> None:
        self._pending_updates += 1
        if self._affected is not None:
            self._affected.add(u)
            self._affected.add(v)
            for a, b, _ in changes:
                self._affected.add(a)
                self._affected.add(b)

    # guarded-by: _lock
    def _drop_edge_key(self, u: int, v: int) -> None:
        key = edge_key(u, v)
        i = bisect_left(self._edges_list, key)
        if i < len(self._edges_list) and self._edges_list[i] == key:
            del self._edges_list[i]

    def abandon_region_tracking(self) -> None:
        """Force the next publish to invalidate wholesale."""
        with self._lock:
            self._affected = None

    def set_exporter(
        self, exporter: Optional[Callable[[IndexSnapshot], object]]
    ) -> None:
        """Install (or clear, with None) the publish export hook.

        The hook runs inside the publisher lock immediately after the
        atomic snapshot swap of every non-noop :meth:`publish`, so
        exported generations observe exactly the in-process publication
        order.  The shard gateway uses this to push each generation
        into its :class:`~repro.serve.shard.SharedSnapshotStore`; the
        installer is responsible for exporting the *current* snapshot
        itself (the hook only sees future publishes).
        """
        with self._lock:
            self._exporter = exporter

    def publish(self) -> PublishReport:
        """Capture + atomically publish a new snapshot generation.

        The report carries the new generation, the publish ``mode``
        (``"delta"``, ``"full"``, or ``"noop"`` when nothing was
        pending), the rebuilt-region size, the fraction of named buffers
        shared with the previous generation, and the affected vertex
        set for cache invalidation (``None`` = invalidate everything).
        For one release the report also forwards snapshot attribute
        reads behind a ``DeprecationWarning``.
        """
        with self._lock:
            if self._pending_updates == 0:
                return PublishReport(
                    generation=self._snapshot.generation,
                    mode="noop",
                    region_size=0,
                    shared_fraction=1.0,
                    snapshot=self._snapshot,
                    affected=frozenset(),
                )
            self._publishing = True
            try:
                with span("serve.publish") as sp:
                    new_generation = self._generation + 1
                    mode = "full"
                    region_size = 0
                    snapshot: Optional[IndexSnapshot] = None
                    if self._delta_enabled:
                        delta = capture_delta_snapshot(
                            self._base_snapshot,
                            self._index.mst,
                            new_generation,
                            self._index.graph.num_vertices,
                            tuple(self._edges_list),
                            self._region_fraction_limit,
                        )
                        if delta is not None:
                            snapshot, region_size = delta
                            mode = "delta"
                    if snapshot is None:
                        snapshot = capture_snapshot(
                            self._index.conn_graph,
                            self._index.mst,
                            generation=new_generation,
                        )
                        region_size = snapshot.num_vertices
                        # This snapshot is the new delta base; the dirty
                        # set accumulates against it from here on.
                        self._base_snapshot = snapshot
                        self._index.mst.clear_dirty()
                    sp.set("generation", new_generation)
                    sp.set("pending_updates", self._pending_updates)
                    sp.set("mode", mode)
                    sp.set("region_size", region_size)
                previous = self._snapshot
                affected = (
                    frozenset(self._affected)
                    if self._affected is not None
                    else None
                )
                self._generation = new_generation
                self._pending_updates = 0
                self._affected = set()
                # The atomic store: readers see old or new, never a mix.
                self._snapshot = snapshot
                if self._exporter is not None:
                    # Still under the lock: export order must match
                    # publication order for out-of-process readers.
                    self._exporter(snapshot)
            finally:
                self._publishing = False
        fraction = shared_fraction(previous, snapshot)
        registry = _obs.REGISTRY
        if registry is not None:
            registry.counter("serve.publish.count").inc()
            registry.counter(f"serve.publish.mode.{mode}").inc()
            registry.gauge("serve.publish.region_size").set(region_size)
            registry.gauge("serve.publish.shared_fraction").set(fraction)
            registry.gauge("serve.snapshot.generation").set(snapshot.generation)
        return PublishReport(
            generation=snapshot.generation,
            mode=mode,
            region_size=region_size,
            shared_fraction=fraction,
            snapshot=snapshot,
            affected=affected,
        )
