"""Sharded multi-process serving over shared-memory snapshots.

One Python process caps aggregate throughput at the GIL even though
every read structure in an :class:`~repro.serve.snapshot.IndexSnapshot`
is a frozen flat buffer.  This module publishes those buffers **once**
into ``multiprocessing.shared_memory`` segments and lets N worker
processes map them zero-copy:

- :class:`SharedSnapshotStore` (writer side) serializes a snapshot's
  named buffers into shared-memory segments and writes one *manifest*
  per generation — a checksummed JSON document naming every segment
  with its dtype and shape.  Segments are **refcounted**: a delta
  generation re-points its ``star.*`` / ``lca.*`` entries at the base
  generation's segments by name, so PR 7's copy-on-write sharing
  survives the process boundary, and a segment is unlinked exactly when
  the last generation referencing it is retired (on Linux existing
  worker mappings survive the unlink, so retirement never races a
  reader — a worker that loses an attach simply re-reads the head and
  attaches the newer generation);
- :class:`SharedSnapshotView` (worker side) maps a manifest read-only
  and reconstructs the MST* / Euler-LCA / delta-overlay read structures
  directly over the shared ndarrays — byte-identical answers to the
  in-process snapshot for the four served query families (``sc``,
  ``sc_pairs_batch`` / batched ``sc``, ``smcc``, ``smcc_l``);
- :class:`WorkerPool` forks N worker processes, each serving requests
  over a pipe through the existing batch planner
  (:func:`~repro.serve.planner.plan_batch` /
  :func:`~repro.serve.planner.execute_batch`), swapping to the newest
  generation *between* requests (snapshot isolation per answer);
- :class:`ShardGateway` fronts the pool: it shards requests by MST
  component, coalesces same-shard single queries into planner batches
  on the asyncio event loop, propagates the serving tier's deadline /
  staleness admission control across the process hop (stale reads
  degrade to the in-process direct path), retries on a sibling when a
  worker crashes, and aggregates per-worker ``serve.shard.*`` metrics;
- :func:`run_shard_workload` is the asyncio load driver behind
  ``repro serve --workers N`` and the scaling curves in
  ``BENCH_serve.json``.

Generation handoff: the store maintains a tiny *head* segment holding
the newest generation number behind a seqlock (single writer, many
readers, no locks across processes); ``SnapshotPublisher.publish()``
exports each new generation through the exporter hook and bumps the
head, and workers observe the bump on their next request.  Every
answer therefore reflects exactly one published generation — the same
observation-window contract the in-process stateful suite enforces.

This module lives inside ``repro.serve`` — the sanctioned home of
concurrency — and is the one place allowed to import
``multiprocessing`` (the ``multiprocessing-outside-parallel`` lint
rule exempts only ``repro.serve``): worker lifecycle and shared-memory
lifetime are part of the serving tier's lock discipline.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import struct
import uuid
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis import leaktrack as _leaktrack
from repro.analysis.tsan import monitored, new_lock
from repro.core.queries import SMCCResult
from repro.errors import (
    EmptyQueryError,
    ManifestError,
    QueryError,
    ServeError,
    WorkerCrashError,
)
from repro.index.lca import EulerTourLCA
from repro.index.mst import MSTIndex
from repro.index.mst_star import MSTStar
from repro.obs import runtime as _obs
from repro.obs.timing import Stopwatch
from repro.serve.delta import (
    DeltaStar,
    _DeltaEdgeOfNode,
    _DeltaParents,
    _DeltaWeights,
)
from repro.serve.planner import execute_batch, plan_batch
from repro.serve.serving import Deadline, ServingIndex
from repro.serve.snapshot import IndexSnapshot

__all__ = [
    "SharedSnapshotStore",
    "SharedSnapshotView",
    "WorkerPool",
    "ShardGateway",
    "ShardWorkloadSpec",
    "run_shard_workload",
    "read_manifest",
    "system_segments",
    "list_repro_segments",
]

Edge = Tuple[int, int]

#: manifest wire format: magic + version + payload length + crc32,
#: then the JSON payload.  Decoding validates all four before parsing.
_MANIFEST_MAGIC = b"RSHM"
_MANIFEST_VERSION = 1
_MANIFEST_HEADER = struct.Struct("<4sHxxII")

#: head segment seqlock layout: [sequence, generation, sequence-mirror]
_HEAD_DTYPE = np.int64
_HEAD_SLOTS = 3

#: buffers of one exported MST* (suffix -> snapshot attribute chain)
_STAR_SUFFIXES = (
    "parents",
    "weights",
    "leaf_order",
    "leaf_position",
    "interval_start",
    "interval_end",
    "jump",
)
_LCA_SUFFIXES = ("first", "component", "euler", "depth", "log", "table2d")


#: serializes the registration-suppression window below against
#: concurrent segment *creation* in the same process (creation must
#: register with the tracker; attachment must not)
_TRACKER_PATCH_LOCK = new_lock("shard._TRACKER_PATCH_LOCK")


# owns: shm-segment
def _attach_segment(name: str) -> "multiprocessing.shared_memory.SharedMemory":
    """Attach an existing segment without resource-tracker ownership.

    Readers must not register attachments with the ``resource_tracker``
    (bpo-38119): forked workers share the creator's tracker daemon, so
    a reader-side registration followed by *any* unregister (explicit,
    or the tracker's at reader exit) clobbers the creator's bookkeeping
    and can unlink the segment out from under every other process.
    Python 3.13 grew ``track=False`` for exactly this; on older
    interpreters the registration call is suppressed for the duration
    of the attach (under a lock, so concurrent creations still
    register).
    """
    from multiprocessing import resource_tracker, shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    else:
        # transfers: shm
        return _leaktrack.tracked(shm, "shm-segment", f"attached:{name}")
    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    # transfers: shm
    return _leaktrack.tracked(shm, "shm-segment", f"attached:{name}")


# owns: shm-segment
def _create_segment(
    name: str, size: int
) -> "multiprocessing.shared_memory.SharedMemory":
    from multiprocessing import shared_memory

    # Under the patch lock so a concurrent attach's registration
    # suppression can never swallow this creation's tracker entry.
    with _TRACKER_PATCH_LOCK:
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(size, 1)
        )
    # transfers: shm
    return _leaktrack.tracked(shm, "shm-segment", f"created:{name}")


def system_segments(prefix: str) -> List[str]:
    """Live shared-memory segment names carrying ``prefix`` (leak probe).

    Reads ``/dev/shm`` where the platform exposes it (Linux); tests use
    this as ground truth that retirement and shutdown actually unlink.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux fallback
        return []
    return sorted(
        entry for entry in os.listdir(shm_dir) if entry.startswith(prefix)
    )


def list_repro_segments(prefix: str = "rsh") -> List[str]:
    """Every live repro shard segment on this host.

    Store prefixes default to ``rsh<uuid>``, so the bare default is a
    process-wide zero-leak probe: the shared pytest fixture snapshots
    it before and after each shard test and fails naming any leftover
    segment.
    """
    return system_segments(prefix)


# ----------------------------------------------------------------------
# Manifest encoding
# ----------------------------------------------------------------------
def _encode_manifest(doc: Dict[str, Any]) -> bytes:
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    header = _MANIFEST_HEADER.pack(
        _MANIFEST_MAGIC, _MANIFEST_VERSION, len(payload), zlib.crc32(payload)
    )
    return header + payload


def _decode_manifest(raw: bytes, source: str) -> Dict[str, Any]:
    if len(raw) < _MANIFEST_HEADER.size:
        raise ManifestError(source, "manifest segment shorter than its header")
    magic, version, length, crc = _MANIFEST_HEADER.unpack_from(raw)
    if magic != _MANIFEST_MAGIC:
        raise ManifestError(source, f"bad manifest magic {magic!r}")
    if version != _MANIFEST_VERSION:
        raise ManifestError(source, f"unsupported manifest version {version}")
    payload = raw[_MANIFEST_HEADER.size : _MANIFEST_HEADER.size + length]
    if len(payload) < length:
        raise ManifestError(
            source,
            f"manifest truncated: header promises {length} bytes, "
            f"segment holds {len(payload)}",
        )
    if zlib.crc32(payload) != crc:
        raise ManifestError(source, "manifest checksum mismatch (garbled)")
    try:
        doc = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise ManifestError(source, f"manifest is not valid JSON: {exc}")
    _validate_manifest(doc, source)
    return doc


def _validate_manifest(doc: Any, source: str) -> None:
    if not isinstance(doc, dict):
        raise ManifestError(source, "manifest payload is not an object")
    for key in ("generation", "kind", "num_vertices", "num_edges", "segments"):
        if key not in doc:
            raise ManifestError(source, f"manifest is missing {key!r}")
    if doc["kind"] not in ("full", "delta"):
        raise ManifestError(source, f"unknown manifest kind {doc['kind']!r}")
    segments = doc["segments"]
    if not isinstance(segments, dict):
        raise ManifestError(source, "manifest segment table is not an object")
    required: Tuple[str, ...] = tuple(
        ["star." + s for s in _STAR_SUFFIXES]
        + ["lca." + s for s in _LCA_SUFFIXES]
        + ["mst.parent", "mst.parent_weight", "edges"]
    )
    if doc["kind"] == "delta":
        required += tuple(
            ["patch." + s for s in _STAR_SUFFIXES]
            + ["plca." + s for s in _LCA_SUFFIXES]
            + [
                "delta.leaf_order",
                "delta.leaf_position",
                "delta.local_map",
                "delta.region_leaves",
            ]
        )
        if not isinstance(doc.get("region"), dict):
            raise ManifestError(source, "delta manifest is missing its region")
    for buffer in required:
        spec = segments.get(buffer)
        if (
            not isinstance(spec, dict)
            or not isinstance(spec.get("segment"), str)
            or not isinstance(spec.get("dtype"), str)
            or not isinstance(spec.get("shape"), list)
        ):
            raise ManifestError(
                source, f"manifest entry for buffer {buffer!r} is invalid"
            )


def read_manifest(prefix: str, generation: int) -> Dict[str, Any]:
    """Attach and decode the manifest of one generation.

    Raises :class:`FileNotFoundError` when the generation was retired
    (callers re-read the head and retry on the newer generation) and
    :class:`~repro.errors.ManifestError` when the manifest bytes are
    truncated, garbled, or structurally invalid.
    """
    name = f"{prefix}m{generation}"
    shm = _attach_segment(name)
    try:
        return _decode_manifest(bytes(shm.buf), name)
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Head segment: single-writer seqlock over the newest generation number
# ----------------------------------------------------------------------
# owns: head-reader
class _HeadReader:
    """Reader end of the generation head (attach once, read many)."""

    __slots__ = ("_shm", "_arr", "_closed")

    def __init__(self, prefix: str) -> None:
        self._shm = _attach_segment(f"{prefix}head")
        # guarded-by: thread-local
        self._arr = np.ndarray(
            (_HEAD_SLOTS,), dtype=_HEAD_DTYPE, buffer=self._shm.buf
        )
        self._closed = False  # guarded-by: thread-local

    def generation(self) -> int:
        arr = self._arr
        while True:
            s1 = int(arr[0])
            generation = int(arr[1])
            s2 = int(arr[2])
            if s1 == s2 and s1 % 2 == 0:
                return generation

    def close(self) -> None:
        if self._closed:  # second close is a no-op, not an error
            return
        self._closed = True
        # Drop the ndarray before closing: mmap refuses to unmap while
        # exported buffers are alive (BufferError).
        self._arr = None  # type: ignore[assignment]
        self._shm.close()


# ----------------------------------------------------------------------
# Writer side: the store
# ----------------------------------------------------------------------
@monitored
# owns: snapshot-store
class SharedSnapshotStore:
    """Serializes snapshot generations into refcounted shm segments.

    Owned by the writer process (the one holding the
    :class:`~repro.serve.publisher.SnapshotPublisher`).  Each exported
    generation gets one manifest segment plus one segment per named
    buffer it does not share; a delta generation re-points every
    ``star.*`` / ``lca.*`` entry at the base generation's segments by
    name, so only the patch, the patched leaf order, the routing map,
    the MST parent arrays, and the edge log are copied.  Segment
    refcounts are per-generation references; :meth:`retire` decrements
    them and unlinks on zero — on Linux a worker still mapping the
    segment keeps the memory alive until it detaches, so retirement is
    safe at any time.
    """

    def __init__(self, *, prefix: Optional[str] = None) -> None:
        #: shared namespace of every segment this store creates
        # guarded-by: immutable-after-publish
        self.prefix = prefix or f"rsh{uuid.uuid4().hex[:8]}"
        #: serializes export/retire/close against concurrent publishers
        self._lock = new_lock("SharedSnapshotStore._lock")
        #: open handles of every live segment, by name
        self._segments: Dict[str, Any] = {}  # guarded-by: _lock
        #: generations currently holding a reference, per segment name
        self._refs: Dict[str, int] = {}  # guarded-by: _lock
        #: per-generation record: manifest segment + referenced segments
        self._generations: Dict[int, Dict[str, Any]] = {}  # guarded-by: _lock
        #: identity cache: one exported MST* is shared across the
        #: generations whose snapshots share it by object identity
        self._star_exports: Dict[Tuple[int, str], Dict[str, str]] = {}  # guarded-by: _lock
        #: strong refs keeping the identity keys above stable
        self._star_pins: Dict[Tuple[int, str], object] = {}  # guarded-by: _lock
        self._seg_counter = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        head = _create_segment(
            f"{self.prefix}head", _HEAD_SLOTS * np.dtype(_HEAD_DTYPE).itemsize
        )
        try:
            arr = np.ndarray(
                (_HEAD_SLOTS,), dtype=_HEAD_DTYPE, buffer=head.buf
            )
            arr[:] = 0
            arr[1] = -1
        except BaseException:
            # The store never existed: unlink the head rather than leak
            # an orphan segment no close() will ever reach.
            head.unlink()
            head.close()
            raise
        self._head_shm = head  # guarded-by: immutable-after-publish
        self._head_arr = arr  # guarded-by: _lock [writes]

    # -- segment plumbing ----------------------------------------------
    # guarded-by: _lock
    def _new_segment_name(self) -> str:
        self._seg_counter += 1
        return f"{self.prefix}s{self._seg_counter}"

    # guarded-by: _lock
    def _export_array(self, value: Any) -> str:
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.int64))
        name = self._new_segment_name()
        shm = _create_segment(name, arr.nbytes)
        # Register the handle *before* filling the buffer: a copy that
        # dies faulting in pages (ENOSPC on /dev/shm) must leave the
        # segment reachable by the export rollback, not leaked.
        self._segments[name] = shm
        self._refs[name] = 0
        if arr.nbytes:
            dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            np.copyto(dest, arr)
        return name

    # guarded-by: _lock
    def _spec(self, value: Any, segment: str) -> Dict[str, Any]:
        arr = np.asarray(value, dtype=np.int64)
        return {
            "segment": segment,
            "dtype": "int64",
            "shape": list(arr.shape),
        }

    # guarded-by: _lock
    def _jump_matrix(self, star: MSTStar) -> np.ndarray:
        jump = star._jump
        if isinstance(jump, np.ndarray):
            return jump
        return np.asarray([list(row) for row in jump], dtype=np.int64)

    # guarded-by: _lock
    def _export_star(
        self, star: MSTStar, star_prefix: str, lca_prefix: str
    ) -> Tuple[Dict[str, str], Dict[str, Any]]:
        """Export one plain MST* (or reuse a prior identical export).

        Returns ``(segment names by buffer, array values by buffer)``;
        the values are only materialized for fresh exports (reuse needs
        just the names plus the shapes recorded below).
        """
        key = (id(star), star_prefix)
        cached = self._star_exports.get(key)
        if cached is not None and all(
            name in self._refs for name in cached.values()
        ):
            return dict(cached), {}
        lca = star._lca
        values: Dict[str, Any] = {
            star_prefix + "parents": star._parents_arr,
            star_prefix + "weights": star._weights_arr,
            star_prefix + "leaf_order": star.leaf_order,
            star_prefix + "leaf_position": star.leaf_position,
            star_prefix + "interval_start": star._interval_start,
            star_prefix + "interval_end": star._interval_end,
            star_prefix + "jump": self._jump_matrix(star),
            lca_prefix + "first": lca.first_arr,
            lca_prefix + "component": lca.component_arr,
            lca_prefix + "euler": lca.euler_arr,
            lca_prefix + "depth": lca.depth_arr,
            lca_prefix + "log": lca.log_arr,
            lca_prefix + "table2d": lca.table2d,
        }
        names = {buffer: self._export_array(v) for buffer, v in values.items()}
        self._star_exports[key] = dict(names)
        self._star_pins[key] = star
        return names, values

    # -- export / publish ----------------------------------------------
    def export_snapshot(self, snapshot: IndexSnapshot) -> Dict[str, Any]:
        """Export one generation's buffers + manifest; returns the doc.

        Does not move the head — callers that want workers to observe
        the generation use :meth:`publish_snapshot`.
        """
        with self._lock:
            if self._closed:
                raise ServeError("SharedSnapshotStore is closed")
            generation = snapshot.generation
            if generation in self._generations:
                return self._generations[generation]["doc"]
            before = set(self._segments)
            try:
                return self._export_locked(snapshot, generation)
            except BaseException as exc:
                self._rollback_export(before)
                if isinstance(exc, OSError):
                    raise ServeError(
                        f"exporting generation {generation} failed: {exc}"
                    ) from exc
                raise

    # guarded-by: _lock
    def _rollback_export(self, before: "set[str]") -> None:
        """Undo a partial export: unlink every segment it created.

        Fresh segments register in ``_segments`` before their buffers
        fill, so an export dying after the Nth ``_create_segment``
        (ENOSPC, a poisoned snapshot attribute) leaves every partial
        segment reachable here and ``/dev/shm`` exactly as it was.
        Reused segments belong to prior generations (they are in
        ``before``) and are untouched.
        """
        for name in [n for n in self._segments if n not in before]:
            self._refs.pop(name, None)
            self._drop_segment(name, unlink_now=True)
        for key in [
            k
            for k, names in self._star_exports.items()
            if any(n not in self._refs for n in names.values())
        ]:
            self._star_exports.pop(key, None)
            self._star_pins.pop(key, None)

    # guarded-by: _lock
    def _export_locked(
        self, snapshot: IndexSnapshot, generation: int
    ) -> Dict[str, Any]:
        star = snapshot.star
        segments: Dict[str, Dict[str, Any]] = {}
        shapes: Dict[str, Any] = {}
        kind = "full"
        region: Optional[Dict[str, int]] = None
        if isinstance(star, DeltaStar):
            kind = "delta"
            base_names, base_values = self._export_star(
                star.base, "star.", "lca."
            )
            patch_names, patch_values = self._export_star(
                star.patch, "patch.", "plca."
            )
            names = dict(base_names)
            names.update(patch_names)
            shapes.update(base_values)
            shapes.update(patch_values)
            delta_values: Dict[str, Any] = {
                "delta.leaf_order": star.leaf_order,
                "delta.leaf_position": star.leaf_position,
                "delta.local_map": star._local_map,
                "delta.region_leaves": star._global_of,
            }
            for buffer, value in delta_values.items():
                names[buffer] = self._export_array(value)
                shapes[buffer] = value
            region = {
                "node": int(star.region_node),
                "start": int(star.region_start),
                "end": int(star.region_end),
                "boundary_weight": int(star.boundary_weight),
            }
        else:
            names, shapes = self._export_star(star, "star.", "lca.")
        mst = snapshot._mst
        per_gen: Dict[str, Any] = {
            "mst.parent": mst._parent,
            "mst.parent_weight": mst._parent_weight,
            "edges": np.asarray(snapshot.edges, dtype=np.int64).reshape(
                (snapshot.num_edges, 2)
            ),
        }
        for buffer, value in per_gen.items():
            names[buffer] = self._export_array(value)
            shapes[buffer] = value
        for buffer, segment in names.items():
            value = shapes.get(buffer)
            if value is None:
                # Reused segment: recover the shape from the live
                # handle (1-D int64 except the matrices, whose shape
                # a prior generation's manifest already recorded).
                value = self._reused_shape(generation, buffer, segment)
            segments[buffer] = self._spec(value, segment)
        doc: Dict[str, Any] = {
            "format": "repro-shard-manifest",
            "version": _MANIFEST_VERSION,
            "generation": generation,
            "kind": kind,
            "num_vertices": snapshot.num_vertices,
            "num_edges": snapshot.num_edges,
            "segments": segments,
            "region": region,
        }
        manifest_name = f"{self.prefix}m{generation}"
        payload = _encode_manifest(doc)
        shm = _create_segment(manifest_name, len(payload))
        # Register before filling (same rollback contract as
        # _export_array).
        self._segments[manifest_name] = shm
        shm.buf[: len(payload)] = payload
        for segment in names.values():
            self._refs[segment] += 1
        self._generations[generation] = {
            "doc": doc,
            "manifest": manifest_name,
            "segments": sorted(set(names.values())),
        }
        return doc

    # guarded-by: _lock
    def _reused_shape(self, generation: int, buffer: str, segment: str) -> Any:
        for record in self._generations.values():
            spec = record["doc"]["segments"].get(buffer)
            if spec is not None and spec["segment"] == segment:
                return np.empty(tuple(spec["shape"]), dtype=np.int64)
        raise ServeError(
            f"generation {generation}: reused segment {segment!r} for "
            f"buffer {buffer!r} has no recorded shape"
        )

    def publish_snapshot(self, snapshot: IndexSnapshot) -> Dict[str, Any]:
        """Export ``snapshot``, move the head to it, retire older gens.

        This is the publisher's exporter hook: called for every
        published generation, in order, from the writer process.
        """
        doc = self.export_snapshot(snapshot)
        with self._lock:
            self._bump_head(snapshot.generation)
            for generation in sorted(self._generations):
                if generation < snapshot.generation:
                    self._retire(generation)
            live = len(self._segments)
        registry = _obs.REGISTRY
        if registry is not None:
            registry.counter("serve.shard.exports").inc()
            registry.gauge("serve.shard.head_generation").set(
                snapshot.generation
            )
            registry.gauge("serve.shard.live_segments").set(live)
        return doc

    # guarded-by: _lock
    def _bump_head(self, generation: int) -> None:
        arr = self._head_arr
        seq = int(arr[0]) + 1
        arr[0] = seq  # odd: write in progress
        arr[1] = generation
        arr[2] = seq + 1
        arr[0] = seq + 1  # even again: readers may trust the value

    def head_generation(self) -> int:
        with self._lock:
            arr = self._head_arr
            return int(arr[1])

    # -- retirement -----------------------------------------------------
    def retire(self, generation: int) -> None:
        """Drop one generation's references; unlink segments at zero."""
        with self._lock:
            self._retire(generation)

    # guarded-by: _lock
    def _retire(self, generation: int) -> None:
        record = self._generations.pop(generation, None)
        if record is None:
            return
        self._drop_segment(record["manifest"], unlink_now=True)
        for segment in record["segments"]:
            self._refs[segment] -= 1
            if self._refs[segment] <= 0:
                del self._refs[segment]
                self._drop_segment(segment, unlink_now=True)
        dead = [
            key
            for key, names in self._star_exports.items()
            if any(name not in self._refs for name in names.values())
        ]
        for key in dead:
            self._star_exports.pop(key, None)
            self._star_pins.pop(key, None)

    # guarded-by: _lock
    def _drop_segment(self, name: str, *, unlink_now: bool) -> None:
        shm = self._segments.pop(name, None)  # owns: shm-segment
        if shm is None:
            return
        if unlink_now:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        shm.close()

    def live_segment_names(self) -> List[str]:
        """Every segment (buffers + manifests + head) still linked."""
        with self._lock:
            names = set(self._segments)
            if not self._closed:
                names.add(f"{self.prefix}head")
            return sorted(names)

    def generations(self) -> List[int]:
        with self._lock:
            return sorted(self._generations)

    def close(self) -> None:
        """Retire every generation and unlink the head segment."""
        with self._lock:
            if self._closed:
                return
            for generation in sorted(self._generations):
                self._retire(generation)
            for name in list(self._segments):
                self._drop_segment(name, unlink_now=True)
            try:
                self._head_shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            # Drop the seqlock ndarray before closing: mmap refuses to
            # unmap while exported buffers are alive (BufferError).
            self._head_arr = None  # type: ignore[assignment]
            self._head_shm.close()
            self._star_exports.clear()
            self._star_pins.clear()
            self._closed = True
        # Zero-leak sweep: with REPRO_LEAKTRACK=1 armed, any segment
        # this store created and never dropped raises LeakError naming
        # its allocation stack (no-op when disarmed).
        _leaktrack.sweep(
            "SharedSnapshotStore.close",
            label_prefixes=(f"created:{self.prefix}",),
            kinds=("shm-segment",),
        )

    def __enter__(self) -> "SharedSnapshotStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker side: the view
# ----------------------------------------------------------------------
def _build_star_view(
    arrays: Dict[str, np.ndarray], star_prefix: str, lca_prefix: str
) -> MSTStar:
    """Reconstruct an MST* read structure over shared ndarrays.

    Every scalar hot path of :class:`MSTStar` / :class:`EulerTourLCA`
    indexes its tables with plain ``[i]`` — list and int64-ndarray
    indexing are interchangeable there — and the batch kernels want the
    ndarrays anyway, so one set of shared buffers backs both paths.
    ``tree_edge_of_node`` is debug metadata with no read path in the
    served families and is not exported.
    """
    lca = EulerTourLCA.__new__(EulerTourLCA)
    first = arrays[lca_prefix + "first"]
    lca.n = int(first.shape[0])
    lca._first = first  # type: ignore[assignment]
    lca._component = arrays[lca_prefix + "component"]  # type: ignore[assignment]
    lca._euler = arrays[lca_prefix + "euler"]  # type: ignore[assignment]
    lca._depth = arrays[lca_prefix + "depth"]  # type: ignore[assignment]
    lca._log = arrays[lca_prefix + "log"]  # type: ignore[assignment]
    lca._table = arrays[lca_prefix + "table2d"]  # type: ignore[assignment]
    lca.first_arr = first
    lca.component_arr = arrays[lca_prefix + "component"]
    lca.euler_arr = arrays[lca_prefix + "euler"]
    lca.depth_arr = arrays[lca_prefix + "depth"]
    lca.log_arr = arrays[lca_prefix + "log"]
    lca.table2d = arrays[lca_prefix + "table2d"]
    star = MSTStar.__new__(MSTStar)
    star.num_leaves = int(arrays[star_prefix + "leaf_position"].shape[0])
    star.parents = arrays[star_prefix + "parents"]  # type: ignore[assignment]
    star.weights = arrays[star_prefix + "weights"]  # type: ignore[assignment]
    star.tree_edge_of_node = None  # type: ignore[assignment]
    star._lca = lca
    star.leaf_order = arrays[star_prefix + "leaf_order"]  # type: ignore[assignment]
    star.leaf_position = arrays[star_prefix + "leaf_position"]  # type: ignore[assignment]
    star._interval_start = arrays[star_prefix + "interval_start"]  # type: ignore[assignment]
    star._interval_end = arrays[star_prefix + "interval_end"]  # type: ignore[assignment]
    star._jump = arrays[star_prefix + "jump"]  # type: ignore[assignment]
    star._parents_arr = arrays[star_prefix + "parents"]
    star._weights_arr = arrays[star_prefix + "weights"]
    star._np_arrays = (
        lca.first_arr,
        lca.component_arr,
        lca.euler_arr,
        lca.depth_arr,
        lca.log_arr,
        lca.table2d,
        star._weights_arr,
    )
    return star


def _build_delta_view(
    doc: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> DeltaStar:
    base = _build_star_view(arrays, "star.", "lca.")
    patch = _build_star_view(arrays, "patch.", "plca.")
    region = doc["region"]
    delta = DeltaStar.__new__(DeltaStar)
    delta.base = base
    delta.patch = patch
    delta.region_node = int(region["node"])
    delta.region_start = int(region["start"])
    delta.region_end = int(region["end"])
    delta.boundary_weight = int(region["boundary_weight"])
    delta.num_leaves = base.num_leaves
    region_leaves = arrays["delta.region_leaves"]
    delta._global_of = region_leaves  # type: ignore[assignment]
    delta._local_of = {
        int(v): i for i, v in enumerate(region_leaves.tolist())
    }
    delta.leaf_order = arrays["delta.leaf_order"]  # type: ignore[assignment]
    delta.leaf_position = arrays["delta.leaf_position"]  # type: ignore[assignment]
    delta.parents = _DeltaParents(delta)  # type: ignore[assignment]
    delta.weights = _DeltaWeights(delta)  # type: ignore[assignment]
    delta.tree_edge_of_node = _DeltaEdgeOfNode(delta)  # type: ignore[assignment]
    delta._local_map = arrays["delta.local_map"]
    return delta


# owns: snapshot-view
class SharedSnapshotView:
    """A worker-side, read-only mapping of one published generation.

    Mirrors the :class:`~repro.serve.snapshot.IndexSnapshot` query
    surface for the four served families, answering byte-identically:
    the same code paths run over the same numbers, only the buffers
    live in shared memory.  ``smcc_l`` on delta generations rebuilds a
    local :class:`MSTIndex` from the exported parent arrays — its
    Algorithm 5 walk is deterministic given the tree edge *set*
    (``_sorted_adj`` fully orders each row by ``(weight, neighbor)``),
    so the visited order matches the writer-side clone exactly.

    Views are confined to one worker process and swapped between
    requests; they are not thread-safe (the lazy ``smcc_l`` index uses
    the MST's epoch scratch).
    """

    def __init__(
        self,
        doc: Dict[str, Any],
        segments: Dict[str, Any],  # escape: owned
        arrays: Dict[str, np.ndarray],  # escape: owned
    ) -> None:
        self.generation = int(doc["generation"])
        self.num_vertices = int(doc["num_vertices"])
        self.num_edges = int(doc["num_edges"])
        self.kind = str(doc["kind"])
        # Views are confined to one worker process/thread; close()
        # nulls these before unmapping (BufferError discipline).
        self._segments = segments  # guarded-by: thread-local
        self._arrays = arrays  # guarded-by: thread-local
        if self.kind == "delta":
            # guarded-by: thread-local
            self.star: MSTStar = _build_delta_view(doc, arrays)
        else:
            self.star = _build_star_view(arrays, "star.", "lca.")
        self._mst: Optional[MSTIndex] = None  # guarded-by: thread-local
        self._closed = False  # guarded-by: thread-local

    @classmethod
    def attach(cls, prefix: str, generation: int) -> "SharedSnapshotView":
        doc = read_manifest(prefix, generation)
        segments: Dict[str, Any] = {}
        arrays: Dict[str, np.ndarray] = {}
        try:
            for buffer, spec in doc["segments"].items():
                name = spec["segment"]
                shm = segments.get(name)
                if shm is None:
                    shm = _attach_segment(name)
                    segments[name] = shm
                shape = tuple(spec["shape"])
                try:
                    arr = np.ndarray(
                        shape, dtype=np.dtype(spec["dtype"]), buffer=shm.buf
                    )
                except (TypeError, ValueError) as exc:
                    raise ManifestError(
                        name,
                        f"buffer {buffer!r} does not fit its segment: {exc}",
                    )
                arr.flags.writeable = False
                arrays[buffer] = arr
        except BaseException:
            for shm in segments.values():
                shm.close()
            raise
        return cls(doc, segments, arrays)

    # -- the served query families --------------------------------------
    @property
    def edges(self) -> List[Edge]:
        return [tuple(row) for row in self._arrays["edges"].tolist()]

    def sc(self, q: Sequence[int]) -> int:
        """``sc(q)``, scalar path (raises exactly like the snapshot)."""
        return int(self.star.steiner_connectivity(q))

    def sc_pairs_batch(
        self, us: Sequence[int], vs: Sequence[int]
    ) -> List[int]:
        return self.star.sc_pairs_batch(us, vs).tolist()

    def steiner_connectivity_batch(
        self, queries: Sequence[Sequence[int]]
    ) -> List[int]:
        return self.star.steiner_connectivity_batch(queries).tolist()

    def sc_batch(self, queries: Sequence[Sequence[int]]) -> List[int]:
        """Planned batched sc — the gateway's coalesced request shape."""
        return execute_batch(self, plan_batch(queries))

    def smcc(self, q: Sequence[int]) -> Tuple[List[int], int]:
        sc, start, end = self.star.smcc_interval(q)
        vertices = self.star.leaf_order[int(start) : int(end)]
        if isinstance(vertices, np.ndarray):
            vertices = vertices.tolist()
        return list(vertices), int(sc)

    def smcc_l(
        self, q: Sequence[int], size_bound: int
    ) -> Tuple[List[int], int]:
        star = self.star
        if star.has_interval_smcc_l:
            k, start, end = star.smcc_l_interval(q, size_bound)
            vertices = star.leaf_order[int(start) : int(end)]
            if isinstance(vertices, np.ndarray):
                vertices = vertices.tolist()
            return list(vertices), int(k)
        vertices, k = self._mst_walk().smcc_l(q, size_bound)
        return [int(v) for v in vertices], int(k)

    def _mst_walk(self) -> MSTIndex:
        """Lazily rebuild the MST from the exported parent arrays."""
        if self._mst is None:
            parent = self._arrays["mst.parent"]
            weight = self._arrays["mst.parent_weight"]
            mst = MSTIndex(self.num_vertices)
            for v in range(self.num_vertices):
                p = int(parent[v])
                if p >= 0:
                    mst.add_tree_edge(v, p, int(weight[v]))
            mst._ensure_derived()
            self._mst = mst
        return self._mst

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Release every ndarray over the mapped buffers first: the
        # segment mmaps refuse to unmap while exported buffers are
        # alive, and the DeltaStar wrappers form reference cycles that
        # only the collector breaks.
        self.star = None  # type: ignore[assignment]
        self._mst = None
        self._arrays = {}
        import gc

        gc.collect()
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stray external ref
                pass
        self._segments = {}

    def __repr__(self) -> str:
        return (
            f"SharedSnapshotView(generation={self.generation}, "
            f"kind={self.kind!r}, n={self.num_vertices})"
        )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _rebuild_error(name: str, message: str) -> BaseException:
    """Reconstruct a typed error from its wire form (name + message).

    Exceptions cross the pipe as ``(class name, message)`` instead of
    pickled objects: several repro errors have non-trivial ``__init__``
    signatures that unpickling would call incorrectly.  The type is
    resolved against :mod:`repro.errors`; unknown names degrade to
    :class:`ServeError` rather than crashing the gateway.
    """
    import repro.errors as _errors

    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        exc = cls.__new__(cls)
        Exception.__init__(exc, message)
        return exc
    return ServeError(f"worker error {name}: {message}")


def _worker_main(conn: Any, prefix: str, worker_id: int) -> None:
    """Serve requests over ``conn`` against the newest generation.

    One view is active at a time; the head is re-read before every
    request, so each answer reflects exactly one published generation
    at least as new as the head at the previous answer (snapshot
    isolation with monotonic generations per worker).
    """
    counters = {
        "answered": 0,
        "batches": 0,
        "errors": 0,
        "generation_swaps": 0,
        "attach_retries": 0,
    }
    view: Optional[SharedSnapshotView] = None
    try:
        head = _HeadReader(prefix)
    except FileNotFoundError:
        conn.send(("err", "ServeError", "shard store head segment missing"))
        conn.close()
        return

    def ensure_view() -> SharedSnapshotView:
        nonlocal view
        target = head.generation()
        while view is None or view.generation < target:
            try:
                fresh = SharedSnapshotView.attach(prefix, target)
            except FileNotFoundError:
                counters["attach_retries"] += 1
                newer = head.generation()
                if newer == target:
                    raise ManifestError(
                        f"{prefix}m{target}",
                        "current generation has no manifest segment",
                    )
                target = newer
                continue
            if view is not None:
                view.close()
                counters["generation_swaps"] += 1
            view = fresh
            target = head.generation()
        return view

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "stop":
                conn.send(("ok", view.generation if view else -1, None))
                break
            if kind == "stats":
                generation = view.generation if view is not None else -1
                conn.send(("ok", generation, dict(counters)))
                continue
            try:
                current = ensure_view()
                deadline = Deadline(msg[-1])
                deadline.check()
                if kind == "sc":
                    result: Any = current.sc(msg[1])
                    counters["answered"] += 1
                elif kind == "sc_batch":
                    result = current.sc_batch(msg[1])
                    counters["answered"] += len(msg[1])
                    counters["batches"] += 1
                elif kind == "smcc":
                    result = current.smcc(msg[1])
                    counters["answered"] += 1
                elif kind == "smcc_l":
                    result = current.smcc_l(msg[1], msg[2])
                    counters["answered"] += 1
                else:
                    raise ServeError(f"unknown shard request kind {kind!r}")
                conn.send(("ok", current.generation, result))
            except Exception as exc:
                counters["errors"] += 1
                conn.send(("err", type(exc).__name__, str(exc)))
    finally:
        # Mappings and the pipe are released even when the request loop
        # dies on an unexpected error (the parent sees EOF either way).
        if view is not None:
            view.close()
        head.close()
        conn.close()


def _fork_context() -> Any:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@monitored
# owns: worker-pool
class WorkerPool:
    """N forked worker processes, one duplex pipe each.

    Requests are serialized per worker (one in flight per pipe); a
    worker that dies mid-request is respawned immediately and the
    failed request surfaces as :class:`~repro.errors.WorkerCrashError`
    so the gateway can retry it on a sibling.
    """

    def __init__(
        self,
        prefix: str,
        workers: int,
        *,
        ctx: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"worker pool needs >= 1 worker, got {workers}")
        self.prefix = prefix  # guarded-by: immutable-after-publish
        self.size = workers  # guarded-by: immutable-after-publish
        self._ctx = ctx or _fork_context()  # guarded-by: immutable-after-publish
        #: one lock per pipe: request/response pairs must not interleave
        # guarded-by: immutable-after-publish
        self._conn_locks = [
            new_lock(f"WorkerPool.conn.{i}") for i in range(workers)
        ]
        #: guards spawn/respawn bookkeeping
        self._lock = new_lock("WorkerPool._lock")
        self._procs: List[Optional[Any]] = [None] * workers  # guarded-by: _lock
        self._conns: List[Optional[Any]] = [None] * workers  # guarded-by: _lock
        # Advisory counter: bumped under the lock by _respawn, read
        # lock-free by stats()/tests (a monotonic int, never decided on).
        self.restarts = 0  # guarded-by: _lock [writes]
        self._stopped = False  # guarded-by: _lock

    def start(self) -> None:
        with self._lock:
            for i in range(self.size):
                if self._procs[i] is None:
                    self._spawn(i)

    # guarded-by: _lock
    def _spawn(self, worker: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        try:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.prefix, worker),
                name=f"repro-shard-worker-{worker}",
                daemon=True,
            )
            proc.start()
        except BaseException:
            # A fork that fails (EAGAIN under pid pressure) must not
            # leak either pipe end.
            parent_conn.close()
            child_conn.close()
            raise
        # Close the parent's copy of the child end: worker death must
        # surface as EOF on the parent pipe, not a silent hang.
        child_conn.close()
        # transfers: proc, parent_conn
        self._procs[worker] = _leaktrack.tracked(
            proc, "worker-process", f"proc:{self.prefix}:{worker}"
        )
        self._conns[worker] = _leaktrack.tracked(
            parent_conn, "pipe", f"pipe:{self.prefix}:{worker}"
        )

    def process(self, worker: int) -> Any:
        with self._lock:
            return self._procs[worker]

    def request(self, worker: int, msg: Tuple[Any, ...]) -> Tuple[int, Any]:
        """Send one request; returns ``(generation, payload)``.

        Raises the worker's typed error on an ``err`` reply and
        :class:`WorkerCrashError` (after respawning) when the worker
        died mid-request.
        """
        if not (0 <= worker < self.size):
            raise ValueError(f"no worker {worker} in a pool of {self.size}")
        with self._conn_locks[worker]:
            with self._lock:
                if self._stopped:
                    raise ServeError("worker pool is stopped")
                conn = self._conns[worker]
                if conn is None:
                    self._spawn(worker)
                    conn = self._conns[worker]
            try:
                conn.send(msg)
                reply = conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
                self._respawn(worker)
                raise WorkerCrashError(
                    worker, f"{type(exc).__name__} during {msg[0]!r}"
                )
        status, generation, payload = reply
        if status == "err":
            # Error replies carry (type name, message) in the last slots.
            raise _rebuild_error(generation, payload)
        return int(generation), payload

    def _respawn(self, worker: int) -> None:
        with self._lock:
            if self._stopped:
                return
            proc = self._procs[worker]
            conn = self._conns[worker]
            if conn is not None:
                conn.close()
            if proc is not None:
                proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join(timeout=1.0)
            self._procs[worker] = None
            self._conns[worker] = None
            self.restarts += 1
            self._spawn(worker)

    def worker_stats(self) -> List[Dict[str, int]]:
        """Per-worker counters (answered, batches, swaps, ...)."""
        stats: List[Dict[str, int]] = []
        for worker in range(self.size):
            try:
                _, payload = self.request(worker, ("stats",))
            except (WorkerCrashError, ServeError):
                payload = {}
            stats.append(payload if isinstance(payload, dict) else {})
        return stats

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            procs = list(self._procs)
            conns = list(self._conns)
            self._procs = [None] * self.size
            self._conns = [None] * self.size
        for conn in conns:
            if conn is None:
                continue
            try:
                conn.send(("stop",))
                conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError):
                pass
            conn.close()
        for proc in procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
        # Zero-leak sweep: any worker process or pipe this pool spawned
        # and never reaped raises LeakError with its allocation stack
        # when REPRO_LEAKTRACK=1 is armed (no-op when disarmed).
        _leaktrack.sweep(
            "WorkerPool.stop",
            label_prefixes=(
                f"proc:{self.prefix}:",
                f"pipe:{self.prefix}:",
            ),
        )

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------
@monitored
# owns: shard-gateway
class ShardGateway:
    """Fronts a :class:`WorkerPool` for one :class:`ServingIndex`.

    Routing: every request is assigned a shard by the MST component of
    its smallest query vertex (component-affine placement — queries
    over one component always land on one worker, so its page cache
    and lazily rebuilt ``smcc_l`` tree stay hot), then dispatched to
    ``shard % workers``.  A crashed worker is respawned and the request
    retried on the next sibling; an answer is never fabricated.

    Admission control is propagated, not re-implemented: deadlines are
    armed here with the serving config's defaults, the *remaining*
    budget crosses the hop, and the worker re-checks it before and
    after its computation; a staleness budget the snapshot cannot meet
    degrades the request to the owning :class:`ServingIndex`'s direct
    in-process path (the workers only ever serve published
    generations).

    The asyncio front (:meth:`sc_async`) coalesces same-shard single
    queries into planner batches: queries enqueued during one event
    loop tick flush as one ``sc_batch`` request (batch convention: a
    disconnected query answers 0 instead of raising).
    """

    def __init__(
        self,
        serving: ServingIndex,  # escape: borrowed
        workers: int,
        *,
        prefix: Optional[str] = None,
    ) -> None:
        self.serving = serving  # guarded-by: immutable-after-publish
        self.store = SharedSnapshotStore(prefix=prefix)  # guarded-by: immutable-after-publish
        try:
            self.store.publish_snapshot(serving.snapshot())
            # Every later publish exports through the store *inside* the
            # publisher lock, so generation order on the head matches the
            # in-process publication order exactly.
            serving.publisher.set_exporter(self.store.publish_snapshot)
            self.pool = WorkerPool(self.store.prefix, workers)  # guarded-by: immutable-after-publish
            self.pool.start()
            #: guards the local dispatch counters
            self._lock = new_lock("ShardGateway._lock")
            self._counters = {  # guarded-by: _lock
                "dispatched": 0,
                "batches": 0,
                "coalesced": 0,
                "retries": 0,
                "degraded": 0,
            }
            #: pending coalesced singles per shard — event-loop-confined
            #: (only touched from loop callbacks, never from pool threads)
            self._pending: Dict[int, List[Tuple[List[int], Any]]] = {}
            #: executes blocking pipe round-trips off the event loop; one
            #: slot per worker (requests to one worker serialize anyway)
            executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="shard-gateway"
            )
            # guarded-by: immutable-after-publish
            self._executor = _leaktrack.tracked(  # transfers: executor
                executor, "thread-pool", f"executor:{self.store.prefix}"
            )
        except BaseException:
            # A half-built gateway (bad worker count, a publish that
            # dies exporting) must not leak the store's segments, the
            # already-forked workers, or the exporter hook.
            serving.publisher.set_exporter(None)
            pool = getattr(self, "pool", None)
            if pool is not None:
                pool.stop()
            self.store.close()
            raise
        self._closed = False  # guarded-by: _lock
        registry = _obs.REGISTRY
        if registry is not None:
            registry.gauge("serve.shard.workers").set(workers)

    # -- routing --------------------------------------------------------
    def shard_of(self, q: Sequence[int]) -> int:
        """The worker index owning ``q`` (component-affine, stable)."""
        try:
            v = min(q)
        except ValueError:
            raise EmptyQueryError("query vertex set is empty")
        star = self.serving.snapshot().star
        base = star.base if isinstance(star, DeltaStar) else star
        component = base._lca.component_arr
        if 0 <= v < component.shape[0]:
            return int(component[v]) % self.pool.size
        return int(v) % self.pool.size

    # -- dispatch core --------------------------------------------------
    def _dispatch(self, shard: int, msg: Tuple[Any, ...]) -> Any:
        """Send to the owning worker, retrying siblings on crashes."""
        last: Optional[WorkerCrashError] = None
        for attempt in range(self.pool.size):
            worker = (shard + attempt) % self.pool.size
            try:
                _, payload = self.pool.request(worker, msg)
            except WorkerCrashError as exc:
                last = exc
                self._count("retries")
                registry = _obs.REGISTRY
                if registry is not None:
                    registry.counter("serve.shard.worker_restarts").inc()
                continue
            self._count("dispatched")
            return payload
        if last is None:  # unreachable: the loop ran >= 1 attempt
            raise ServeError("shard dispatch loop made no attempt")
        raise last

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount
        registry = _obs.REGISTRY
        if registry is not None and amount:
            registry.counter(f"serve.shard.{name}").inc(amount)

    def _deadline(self, timeout: Optional[float]) -> Deadline:
        config = self.serving.config
        deadline = Deadline(
            timeout if timeout is not None else config.default_timeout
        )
        deadline.check()
        return deadline

    # -- synchronous query surface --------------------------------------
    def sc(
        self,
        q: Sequence[int],
        *,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> int:
        deadline = self._deadline(timeout)
        if self.serving._needs_direct(max_staleness):
            self._count("degraded")
            return self.serving.sc(
                q, timeout=deadline.remaining(), max_staleness=max_staleness
            )
        return self._dispatch(
            self.shard_of(q), ("sc", list(q), deadline.remaining())
        )

    def sc_batch(
        self,
        queries: Sequence[Sequence[int]],
        *,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> List[int]:
        if not queries:
            return []
        deadline = self._deadline(timeout)
        if self.serving._needs_direct(max_staleness):
            self._count("degraded")
            return self.serving.sc_batch(
                queries,
                timeout=deadline.remaining(),
                max_staleness=max_staleness,
            )
        # The whole batch routes by its first query: same-shard batches
        # are the common case (the async front coalesces per shard).
        answers = self._dispatch(
            self.shard_of(queries[0]),
            ("sc_batch", [list(q) for q in queries], deadline.remaining()),
        )
        self._count("batches")
        return answers

    def smcc(
        self,
        q: Sequence[int],
        *,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> SMCCResult:
        deadline = self._deadline(timeout)
        if self.serving._needs_direct(max_staleness):
            self._count("degraded")
            return self.serving.smcc(
                q, timeout=deadline.remaining(), max_staleness=max_staleness
            )
        vertices, sc = self._dispatch(
            self.shard_of(q), ("smcc", list(q), deadline.remaining())
        )
        return SMCCResult(vertices, sc)

    def smcc_l(
        self,
        q: Sequence[int],
        *,
        size_bound: int,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> SMCCResult:
        deadline = self._deadline(timeout)
        if self.serving._needs_direct(max_staleness):
            self._count("degraded")
            return self.serving.smcc_l(
                q,
                size_bound=size_bound,
                timeout=deadline.remaining(),
                max_staleness=max_staleness,
            )
        vertices, k = self._dispatch(
            self.shard_of(q),
            ("smcc_l", list(q), size_bound, deadline.remaining()),
        )
        return SMCCResult(vertices, k)

    # -- asyncio coalescing front ---------------------------------------
    async def sc_async(
        self,
        q: Sequence[int],
        *,
        timeout: Optional[float] = None,
        max_staleness: Optional[int] = None,
    ) -> int:
        """Coalesced single-query ``sc`` (batch convention: 0, not raise).

        Queries awaited during the same event-loop tick that target the
        same shard flush as **one** planner batch through one worker
        round-trip.  Because the batch kernels use the 0-for-
        disconnected convention, a disconnected query answers 0 here
        instead of raising — callers wanting the raising behavior use
        :meth:`sc`.
        """
        if self.serving._needs_direct(max_staleness):
            loop = asyncio.get_running_loop()
            self._count("degraded")
            deadline = self._deadline(timeout)
            return await loop.run_in_executor(
                self._executor,
                lambda: self.serving.sc_batch(
                    [list(q)],
                    timeout=deadline.remaining(),
                    max_staleness=max_staleness,
                )[0],
            )
        loop = asyncio.get_running_loop()
        future: Any = loop.create_future()
        shard = self.shard_of(q)
        bucket = self._pending.setdefault(shard, [])
        bucket.append((list(q), future))
        if len(bucket) == 1:
            # First query of this shard this tick: flush on the next
            # callback slot, after every already-scheduled enqueue ran.
            loop.call_soon(self._flush_shard, shard, timeout)
        return await future

    def _flush_shard(self, shard: int, timeout: Optional[float]) -> None:
        batch = self._pending.pop(shard, [])
        if not batch:
            return
        if len(batch) > 1:
            self._count("coalesced", len(batch) - 1)
        loop = asyncio.get_running_loop()

        def run() -> List[int]:
            deadline = self._deadline(timeout)
            answers = self._dispatch(
                shard,
                (
                    "sc_batch",
                    [q for q, _ in batch],
                    deadline.remaining(),
                ),
            )
            self._count("batches")
            return answers

        dispatched = loop.run_in_executor(self._executor, run)

        def deliver(done: Any) -> None:
            exc = done.exception()
            for i, (_, future) in enumerate(batch):
                if future.cancelled():
                    continue
                if exc is not None:
                    future.set_exception(exc)
                else:
                    future.set_result(done.result()[i])

        dispatched.add_done_callback(deliver)

    # -- introspection / lifecycle --------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregated gateway + per-worker health (mirrors to obs)."""
        per_worker = self.pool.worker_stats()
        totals: Dict[str, int] = {}
        for counters in per_worker:
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        with self._lock:
            gateway = dict(self._counters)
        registry = _obs.REGISTRY
        if registry is not None:
            registry.gauge("serve.shard.head_generation").set(
                self.store.head_generation()
            )
            for key, value in totals.items():
                registry.gauge(f"serve.shard.workers.{key}").set(value)
        return {
            "workers": self.pool.size,
            "head_generation": self.store.head_generation(),
            "restarts": self.pool.restarts,
            "gateway": gateway,
            "worker_totals": totals,
            "per_worker": per_worker,
        }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.serving.publisher.set_exporter(None)
        self.pool.stop()
        self._executor.shutdown(wait=True)
        self.store.close()
        # The pool and store ran their own sweeps; this one covers the
        # gateway's executor (no-op when REPRO_LEAKTRACK is disarmed).
        _leaktrack.sweep(
            "ShardGateway.close",
            label_prefixes=(f"executor:{self.store.prefix}",),
        )

    def __enter__(self) -> "ShardGateway":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# The asyncio workload driver (repro serve --workers N)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardWorkloadSpec:
    """Shape of one sharded serving run (fully seeded, no sleeps)."""

    workers: int = 2
    clients: int = 4
    queries_per_client: int = 200
    query_size: int = 3
    smcc_fraction: float = 0.25
    #: >0 groups sc queries into explicit batches of this size; 0 lets
    #: the gateway's coalescing form the batches
    batch_size: int = 0
    query_pool: int = 0
    updates: int = 20
    publish_every: int = 5
    seed: int = 42
    timeout: Optional[float] = None
    max_staleness: Optional[int] = None


def run_shard_workload(
    serving: ServingIndex,  # escape: borrowed
    spec: Optional[ShardWorkloadSpec] = None,
    *,
    gateway: Optional[ShardGateway] = None,  # escape: borrowed
) -> Dict[str, Any]:
    """Drive a sharded gateway with N async clients + 1 writer.

    Clients reuse the deterministic per-reader operation streams of
    :func:`repro.serve.workload.reader_queries` (same seeds → the same
    queries a threaded run would issue), so single-process and sharded
    throughput numbers compare like for like.  The writer interleaves
    ``apply_updates``/``publish`` on the event loop, yielding between
    batches; synchronization is purely event-based — nothing sleeps.
    """
    from repro.serve.workload import ServeWorkloadSpec, reader_queries

    spec = spec or ShardWorkloadSpec()
    num_vertices = serving.snapshot().num_vertices
    if num_vertices < 2:
        raise ValueError("shard workload needs a graph with >= 2 vertices")
    reader_spec = ServeWorkloadSpec(
        readers=spec.clients,
        queries_per_reader=spec.queries_per_client,
        query_size=spec.query_size,
        smcc_fraction=spec.smcc_fraction,
        batch_size=spec.batch_size,
        query_pool=spec.query_pool,
        updates=spec.updates,
        publish_every=spec.publish_every,
        seed=spec.seed,
        timeout=spec.timeout,
        max_staleness=spec.max_staleness,
    )
    client_ops = [
        reader_queries(reader_spec, i, num_vertices)
        for i in range(spec.clients)
    ]
    counts = {
        "answered": 0,
        "query_errors": 0,
        "updates_applied": 0,
        "publishes": 0,
    }
    own_gateway = gateway is None
    gw = gateway or ShardGateway(serving, spec.workers)

    async def client(ops: List[Tuple[str, List[List[int]]]]) -> None:
        loop = asyncio.get_running_loop()
        for kind, queries in ops:
            try:
                if kind == "sc":
                    await gw.sc_async(
                        queries[0],
                        timeout=spec.timeout,
                        max_staleness=spec.max_staleness,
                    )
                    counts["answered"] += 1
                elif kind == "batch":
                    await loop.run_in_executor(
                        None,
                        lambda qs=queries: gw.sc_batch(
                            qs,
                            timeout=spec.timeout,
                            max_staleness=spec.max_staleness,
                        ),
                    )
                    counts["answered"] += len(queries)
                else:
                    await loop.run_in_executor(
                        None,
                        lambda q=queries[0]: gw.smcc(
                            q,
                            timeout=spec.timeout,
                            max_staleness=spec.max_staleness,
                        ),
                    )
                    counts["answered"] += 1
            except QueryError:
                # Churn can transiently split components; counting and
                # moving on matches the threaded workload's readers.
                counts["query_errors"] += 1

    async def writer() -> None:
        if spec.updates <= 0:
            return
        import random

        rng = random.Random(spec.seed * 7_000_003 + 17)
        loop = asyncio.get_running_loop()

        def list_edges() -> List[Edge]:
            # Taking the publisher lock would block the event loop (and
            # every coalesced client on it): hop through the executor.
            with serving.publisher.lock:
                return list(serving.publisher.index.graph.edges())

        edges = await loop.run_in_executor(None, list_edges)
        if not edges:
            return
        churn = rng.sample(
            edges, min(len(edges), max(1, spec.updates // 2))
        )
        for applied in range(spec.updates):
            u, v = churn[(applied // 2) % len(churn)]
            if applied % 2 == 0:
                await loop.run_in_executor(
                    None, lambda: serving.apply_updates(deletes=[(u, v)])
                )
            else:
                await loop.run_in_executor(
                    None, lambda: serving.apply_updates(inserts=[(u, v)])
                )
            counts["updates_applied"] += 1
            if (
                spec.publish_every
                and (applied + 1) % spec.publish_every == 0
            ):
                report = await loop.run_in_executor(None, serving.publish)
                counts["publishes"] += report.mode != "noop"
            await asyncio.sleep(0)  # yield the loop to the clients
        report = await loop.run_in_executor(None, serving.publish)
        counts["publishes"] += report.mode != "noop"

    async def main() -> float:
        watch = Stopwatch()
        tasks: List[Any] = []
        for i, ops in enumerate(client_ops):
            task = asyncio.create_task(client(ops))
            tasks.append(task)
            _leaktrack.track_task(task, f"shard-client:{i}")
        writer_task = asyncio.create_task(writer())
        tasks.append(writer_task)
        _leaktrack.track_task(writer_task, "shard-writer")
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            # A client that dies must not strand its siblings: cancel
            # the rest (asyncio.run drains them before closing).
            for task in tasks:
                task.cancel()
            raise
        # One extra tick so every done callback — the leak tracker's
        # included — has run before the zero-leak sweep.
        await asyncio.sleep(0)
        _leaktrack.sweep(
            "run_shard_workload",
            label_prefixes=("shard-client:", "shard-writer"),
        )
        return watch.lap()

    try:
        elapsed = asyncio.run(main())
        stats = gw.stats()
    finally:
        if own_gateway:
            gw.close()
    total = counts["answered"]
    return {
        "spec": {
            "workers": spec.workers,
            "clients": spec.clients,
            "queries_per_client": spec.queries_per_client,
            "query_size": spec.query_size,
            "smcc_fraction": spec.smcc_fraction,
            "batch_size": spec.batch_size,
            "query_pool": spec.query_pool,
            "updates": spec.updates,
            "publish_every": spec.publish_every,
            "seed": spec.seed,
        },
        "num_vertices": num_vertices,
        "elapsed_seconds": elapsed,
        "queries_answered": total,
        "query_errors": counts["query_errors"],
        "updates_applied": counts["updates_applied"],
        "publishes": counts["publishes"],
        "throughput_qps": (total / elapsed) if elapsed > 0 else None,
        "final_generation": serving.generation,
        "shard_stats": stats,
    }
