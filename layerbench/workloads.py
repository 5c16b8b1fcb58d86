"""The three workloads: inputs from a seed, set-up, timed phase, oracles.

Every workload uses the program's defaults (``jobs`` unset, a default
:class:`~repro.serve.serving.ServeConfig`).  The program only receives
the generated graph, queries and updates.

- ``cold-uniform``: closed loop of distinct uniform |q| = 10 reads on one
  SSCA#2 graph (no cache hits, whole-graph SMCCs), followed by an
  Eval-VI write phase with a publish every 2 updates.
- ``hot-local-churn``: closed loop of skewed local |q| = 3 reads over a
  pool that fits the cache, with the paper's Eval-VI delete/insert
  stream interleaved at fixed positions and a publish every 2 updates.
- ``shard-open``: open loop (seeded Poisson arrivals) of local reads
  through a 2-worker :class:`~repro.serve.shard.ShardGateway` over an
  island graph, followed by an Eval-VI write phase whose publishes are
  exported to the workers.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import sc_baseline, smcc_baseline, smcc_l_baseline
from repro.bench.workloads import generate_local_queries, generate_update_workload
from repro.core.queries import SMCCIndex
from repro.errors import QueryError
from repro.graph.generators import ssca_graph
from repro.graph.graph import Graph
from repro.serve.serving import ServingIndex
from repro.serve.shard import ShardGateway

from layerbench import oracle, pace, stats, sysinfo
from layerbench.oracle import Raised, Recorded
from layerbench.trace import Recorder

READS = ("sc", "batch", "smcc", "smcc_l")
#: the tail percentile each timed op reports (sets its sample floor)
TAILS = {"sc": 99, "batch": 99, "smcc": 99, "smcc_l": 90, "publish": 90}
BATCH = 16
#: cold-uniform: answers per read kind re-checked against the index-free
#: baselines (one seeded query of each sampled batch).  A baseline answer
#: costs 0.3-0.5 s at n = 3000, which keeps the sample small.
BASELINE_CHECKS = 6
#: hot-local-churn: update cycles (reads_per_update reads, one update)
#: per second of ``--seconds``, but never fewer than the 200 whose 100
#: publishes the publish p90 needs
CYCLES_PER_SECOND = 10
#: shard-open: islands of the graph and gateway worker processes
ISLANDS = 4
WORKERS = 2


def _ns() -> int:
    return time.perf_counter_ns()


# ----------------------------------------------------------------------
# Sizes (the defaults are the benchmark; tests shrink them)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Sizes:
    n: int = 3000
    #: minimum samples per op before a timed phase may end
    floors: Tuple[Tuple[str, int], ...] = tuple(stats.floors_for(TAILS).items())
    #: set-ups per run (setup_s is their median)
    setups: int = 3
    #: publishes in the closed write phase of cold-uniform and shard-open
    publishes: int = 150
    #: hot-local-churn: query pool size and read ops between updates
    pool: int = 1000
    reads_per_update: int = 100
    #: hot-local-churn: generations re-checked against a from-scratch build
    sampled_generations: int = 3
    #: shard-open: per-op Poisson rates (1/s)
    rates: Tuple[Tuple[str, float], ...] = (
        ("sc", 130.0),
        ("batch", 120.0),
        ("smcc", 120.0),
        ("smcc_l", 15.0),
    )

    def floor(self, op: str) -> int:
        return dict(self.floors).get(op, 1)


TINY = Sizes(
    n=240,
    floors=(("sc", 12), ("batch", 12), ("smcc", 12), ("smcc_l", 3), ("publish", 4)),
    setups=1,
    publishes=4,
    pool=40,
    reads_per_update=10,
    sampled_generations=2,
    rates=(("sc", 60.0), ("batch", 40.0), ("smcc", 40.0), ("smcc_l", 10.0)),
)


# ----------------------------------------------------------------------
# Per-run bookkeeping
# ----------------------------------------------------------------------
class Run:
    """Latency samples, attempt/failure counts and answers of one pass.

    ``lat`` holds measured times; the end-to-end metrics report them at
    the reference pace (:meth:`paced`, :meth:`paced_setup_s`).
    """

    def __init__(self, rec: Optional[Recorder] = None) -> None:
        self.rec = rec
        self.lat: Dict[str, List[float]] = {k: [] for k in (*READS, "update", "publish", "probe")}
        #: perf_counter_ns start of each sample in ``lat``
        self.at: Dict[str, List[int]] = {k: [] for k in self.lat}
        self.pacer = pace.Pacer()
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}
        #: plain tuples from :func:`oracle.record`; see :meth:`recorded`
        self.answers: List[Tuple[Any, ...]] = []
        self.setup_s: List[float] = []
        #: pace factor of each set-up, from the probe bursts around it
        self.setup_scale: List[float] = []
        self.extra: Dict[str, float] = {}
        self.read_queries = 0
        #: perf_counter_ns bounds of the phase ``read_qps`` is counted over
        self.read_window = (0, 0)
        self.rss_mb = 0.0
        self.lags_ms: List[float] = []
        #: perf_counter_ns bounds of the timed phase (traced spans are
        #: attributed to set-up or timed phase by their start)
        self.window = (0, 0)
        self.cache_before: Dict[str, int] = {}
        self.cache_after: Dict[str, int] = {}
        self._rid = 0

    def fail(self, what: str, count: int = 1) -> None:
        if count:
            self.failed += count
            self.errors[what] = self.errors.get(what, 0) + count

    def call(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Time one synchronous op; query errors are answers, others fail."""
        self.pacer.tick()
        self.attempted += 1
        self._rid += 1
        rec = self.rec
        start = _ns()
        self.at[kind].append(start)
        try:
            if rec is None:
                value = fn()
            else:
                with rec.span(f"bench.{kind}", self._rid):
                    value = fn()
        except QueryError as exc:
            value = Raised(type(exc).__name__)
        except Exception as exc:  # an unexpected exception is a failed op
            self.lat[kind].append((_ns() - start) / 1e3)
            self.fail(f"{kind}:{type(exc).__name__}")
            return None
        self.lat[kind].append((_ns() - start) / 1e3)
        return value

    @property
    def read_seconds(self) -> float:
        return (self.read_window[1] - self.read_window[0]) / 1e9

    def paced(self, kind: str, exponent: float = 1.0) -> List[float]:
        """The ``kind`` samples at the reference pace (the factor raised to
        ``exponent``; :data:`pace.TAIL_EXPONENT` for tails)."""
        return (self.pacer.scale(self.at[kind], exponent) * self.lat[kind]).tolist()

    def paced_setup_s(self) -> List[float]:
        return [s * k for s, k in zip(self.setup_s, self.setup_scale)]

    def paced_read_seconds(self) -> float:
        """The ``read_qps`` phase without its probes, at the reference pace."""
        busy = self.pacer.busy_s(self.read_window)
        return (self.read_seconds - busy) * self.pacer.mean_scale(self.read_window)

    def recorded(self) -> List[Recorded]:
        return [Recorded._make(a) for a in self.answers]

    def floors_met(self, sizes: Sizes, ops: Sequence[str]) -> bool:
        return all(len(self.lat[op]) >= sizes.floor(op) for op in ops)


def _read(run: Run, serving: Any, kind: str, query: Any, size_bound: int, generation: int) -> None:
    """One read through a facade; the answer is kept for the oracle."""
    if kind == "sc":
        answer = run.call(kind, lambda: serving.sc(query))
    elif kind == "batch":
        answer = run.call(kind, lambda: serving.sc_batch(query))
    elif kind == "smcc":
        answer = run.call(kind, lambda: serving.smcc(query))
    else:
        answer = run.call(kind, lambda: serving.smcc_l(query, size_bound=size_bound))
    run.read_queries += len(query) if kind == "batch" else 1
    if answer is not None:
        run.answers.append(oracle.record(kind, query, answer, generation))


def _check_against(run: Run, answers: Sequence[Recorded], expected: Callable[[Recorded], Any], label: str) -> None:
    bad = oracle.mismatches(answers, expected)
    run.fail(f"oracle:{label}", len(bad))


#: one update: (deleted edge, inserted edge), applied by one ``apply_updates``
Update = Tuple[Tuple[int, int], Tuple[int, int]]


def eval_vi_updates(
    regions: Sequence[Tuple[Graph, int]], count: int, rng: random.Random, block: int = 20
) -> List[Update]:
    """At least ``count`` updates pairing the deletions and insertions of Eval-VI.

    Each region (a graph and the offset of its vertices) has its own
    stream of the paper's chunks of 20 deletions + 20 insertions,
    generated one after the other on a simulated copy of the region.
    The result takes ``block`` updates from each region in turn.  Each
    update carries one deletion and one insertion of a chunk, so update
    costs do not alternate between the two kinds.
    """
    sims = [(graph.copy(), offset) for graph, offset in regions]
    pending: List[List[Update]] = [[] for _ in sims]
    updates: List[Update] = []
    region = 0
    while len(updates) < count:
        sim, offset = sims[region]
        queue = pending[region]
        while len(queue) < block:
            chunk = generate_update_workload(sim, 20, 20, seed=rng.randrange(2**31))
            for kind, u, v in chunk:
                (sim.remove_edge if kind == "delete" else sim.add_edge)(u, v)
            deletes = [(u + offset, v + offset) for kind, u, v in chunk if kind == "delete"]
            inserts = [(u + offset, v + offset) for kind, u, v in chunk if kind == "insert"]
            queue += zip(deletes, inserts)
        updates += queue[:block]
        del queue[:block]
        region = (region + 1) % len(sims)
    return updates


def _update(run: Run, serving: Any, update: Update) -> None:
    deleted, inserted = update
    run.call("update", lambda: serving.apply_updates(deletes=[deleted], inserts=[inserted]))


def _write_phase(run: Run, serving: Any, updates: Sequence[Update], publishes: int, every: int) -> None:
    """Closed loop of updates with a publish after every ``every``."""
    for i in range(publishes * every):
        _update(run, serving, updates[i])
        if (i + 1) % every == 0:
            _publish(run, serving)


def _publish(run: Run, serving: Any) -> Any:
    return run.call("publish", serving.publish)


def _build_serving(graph: Graph) -> Tuple[ServingIndex, float]:
    """Graph in hand -> ready to serve (build + ServingIndex), timed."""
    start = _ns()
    serving = ServingIndex(SMCCIndex.build(graph))
    return serving, (_ns() - start) / 1e9


def _pid_list(state: Dict[str, Any]) -> List[int]:
    pids = [os.getpid()]
    gateway = state.get("gateway")
    if gateway is not None:
        for worker in range(gateway.pool.size):
            proc = gateway.pool.process(worker)
            if proc is not None and proc.pid is not None:
                pids.append(proc.pid)
    return pids


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: updates per publish.  Chosen so that the publish p50 and p90 each
    #: fall well inside one capture mode (delta or full) rather than on
    #: the boundary between them, where they would jump between runs.
    publish_every = 2

    def __init__(self, seed: int, sizes: Sizes = Sizes()) -> None:
        self.seed = seed
        self.sizes = sizes
        self.size_bound = max(2, sizes.n // 10)

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{stream}")

    def prepare(self, seconds: float) -> None:
        """Generate inputs that depend on the run length."""

    # subclasses implement these
    def setup(self, run: Run) -> Dict[str, Any]:
        raise NotImplementedError

    def warm(self, state: Dict[str, Any]) -> None:
        """Untimed work after the last set-up that brings the timed phase
        to its steady state."""

    def timed(self, state: Dict[str, Any], run: Run, seconds: float) -> None:
        raise NotImplementedError

    def check(self, state: Dict[str, Any], run: Run) -> None:
        raise NotImplementedError

    def teardown(self, state: Dict[str, Any]) -> None:
        gateway = state.pop("gateway", None)
        if gateway is not None:
            gateway.close()

    def execute(
        self, seconds: float, rec: Optional[Recorder] = None, setups: Optional[int] = None
    ) -> Tuple[Run, Dict[str, Any]]:
        """Set up ``setups`` times (keep the last), run the timed phase, tear down.

        The oracles run separately (:meth:`check`), after any tracing
        wrappers are gone.
        """
        run = Run(rec)
        state: Dict[str, Any] = {}
        self.prepare(seconds)
        # Nothing is frozen (gc.freeze): the collector scans the imported
        # modules, the index and the serving state as it would in a server.
        try:
            for _ in range(setups or self.sizes.setups):
                self.teardown(state)
                state = {}  # the previous set-up is freed before the next one
                around = run.pacer.burst()
                state = self.setup(run)
                around += run.pacer.burst()
                run.setup_scale.append(pace.REFERENCE_US / stats.median(around))
            self.warm(state)
            cache = state["serving"].cache
            run.cache_before = cache.stats()
            start = _ns()
            self.timed(state, run, seconds)
            run.window = (start, _ns())
            run.cache_after = cache.stats()
        finally:
            self.teardown(state)
        return run, state


# ----------------------------------------------------------------------
# cold-uniform
# ----------------------------------------------------------------------
class ColdUniform(Workload):
    name = "cold-uniform"

    def __init__(self, seed: int, sizes: Sizes = Sizes()) -> None:
        super().__init__(seed, sizes)
        self.graph = ssca_graph(sizes.n, seed=seed)
        self.updates = eval_vi_updates(
            [(self.graph, 0)], self.publish_every * sizes.publishes, self.rng("updates")
        )

    def setup(self, run: Run) -> Dict[str, Any]:
        graph = self.graph.copy()
        serving, seconds = _build_serving(graph)
        run.setup_s.append(seconds)
        return {"serving": serving}

    def _queries(self) -> Callable[[], List[int]]:
        rng, n, seen = self.rng("queries"), self.sizes.n, set()

        def fresh() -> List[int]:
            while True:
                q = rng.sample(range(n), 10)
                key = tuple(sorted(q))
                if key not in seen:
                    seen.add(key)
                    return q

        return fresh

    def warm(self, state: Dict[str, Any]) -> None:
        # Fill the cache and turn it over once, so that every timed read
        # pays the put and eviction of a full cache.  Timed, the first ~1.5 s
        # of reads into an empty cache were slower and made up most of the
        # top 1.5% of smcc latencies.
        serving = state["serving"]
        fresh = state["fresh"] = self._queries()
        cache = serving.cache
        while cache.stats()["evictions"] < cache.capacity:
            for call in (
                lambda: serving.sc(fresh()),
                lambda: serving.sc_batch([fresh() for _ in range(BATCH)]),
                lambda: serving.smcc(fresh()),
            ):
                try:
                    call()
                except QueryError:
                    pass

    def timed(self, state: Dict[str, Any], run: Run, seconds: float) -> None:
        serving = state["serving"]
        state["snapshot0"] = serving.snapshot()
        fresh = state["fresh"]
        start = _ns()
        block = 0
        while True:
            _read(run, serving, "sc", fresh(), self.size_bound, 0)
            _read(run, serving, "batch", [fresh() for _ in range(BATCH)], self.size_bound, 0)
            _read(run, serving, "smcc", fresh(), self.size_bound, 0)
            if block % 10 == 0:
                _read(run, serving, "smcc_l", fresh(), self.size_bound, 0)
            block += 1
            if (_ns() - start) / 1e9 >= seconds and run.floors_met(self.sizes, READS):
                break
        run.read_window = (start, _ns())
        run.rss_mb = sysinfo.pss_mb(_pid_list(state))
        _write_phase(run, serving, self.updates, self.sizes.publishes, self.publish_every)
        state["final"] = serving.snapshot()

    def check(self, state: Dict[str, Any], run: Run) -> None:
        snap0 = state["snapshot0"]
        bound = self.size_bound
        recorded = run.recorded()
        _check_against(
            run, recorded, lambda r: oracle.kernel_answer(snap0, r.kind, r.query, bound), "snapshot"
        )
        # every answer again against a from-scratch build of the input graph
        rebuilt = SMCCIndex.build(self.graph.copy())
        _check_against(
            run, recorded, lambda r: oracle.kernel_answer(rebuilt, r.kind, r.query, bound), "rebuild:g0"
        )
        # a seeded sample of every read kind against the index-free baselines
        rng = self.rng("baseline")
        graph = self.graph
        sc_of = lambda q: oracle.evaluate("sc", lambda: sc_baseline(graph, q))  # noqa: E731
        baselines = {
            "sc": sc_of,
            # the batch convention: a disconnected query answers 0, not an error
            "batch": lambda b: [0 if isinstance(v, Raised) else v for v in map(sc_of, b)],
            "smcc": lambda q: oracle.evaluate("smcc", lambda: smcc_baseline(graph, q)),
            "smcc_l": lambda q: oracle.evaluate("smcc_l", lambda: smcc_l_baseline(graph, q, bound)),
        }
        for kind, answer_of in baselines.items():
            pool = [r for r in recorded if r.kind == kind]
            sample = rng.sample(pool, min(BASELINE_CHECKS, len(pool)))
            if kind == "batch":
                sample = [
                    Recorded(kind, [r.query[i]], [r.answer[i]], r.generation)
                    for r in sample
                    for i in (rng.randrange(len(r.query)),)
                ]
            _check_against(run, sample, lambda r, f=answer_of: f(r.query), f"baseline:{kind}")
        # the write phase: the final generation against a from-scratch build
        final = state["final"]
        rebuilt = SMCCIndex.build(Graph.from_edges(final.edges, final.num_vertices))
        fresh = self._queries()
        probes = [Recorded("sc", q, oracle.evaluate("sc", lambda q=q: final.steiner_connectivity(q)), -1)
                  for q in (fresh() for _ in range(64))]
        _check_against(run, probes, lambda r: oracle.kernel_answer(rebuilt, "sc", r.query, bound), "rebuild")


# ----------------------------------------------------------------------
# hot-local-churn
# ----------------------------------------------------------------------
class HotLocalChurn(Workload):
    name = "hot-local-churn"

    def __init__(self, seed: int, sizes: Sizes = Sizes()) -> None:
        super().__init__(seed, sizes)
        self.graph = ssca_graph(sizes.n, seed=seed)
        self.pool = generate_local_queries(
            self.graph, sizes.pool, size=3, seed=self.rng("pool").randrange(2**31)
        )
        # skewed draw: Zipf(1) over a seeded permutation of the pool
        order = list(range(len(self.pool)))
        self.rng("rank").shuffle(order)
        self.ranked = [self.pool[i] for i in order]
        self.cum = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(self.pool))))

    def setup(self, run: Run) -> Dict[str, Any]:
        serving, seconds = _build_serving(self.graph.copy())
        run.setup_s.append(seconds)
        return {"serving": serving}

    def warm(self, state: Dict[str, Any]) -> None:
        # one untimed pass over the pool fills the cache
        serving = state["serving"]
        for q in self.pool:
            for call in (serving.sc, serving.smcc, lambda q: serving.smcc_l(q, size_bound=self.size_bound)):
                try:
                    call(q)
                except QueryError:
                    pass

    def prepare(self, seconds: float) -> None:
        # The timed phase is a fixed number of update cycles, so its op mix
        # does not depend on how fast the program or the host is.
        cycles = max(self.publish_every * self.sizes.floor("publish"), round(seconds * CYCLES_PER_SECOND))
        self.updates = eval_vi_updates([(self.graph, 0)], cycles, self.rng("updates"))[:cycles]
        # the publishes whose generation the oracle rebuilds (a publish
        # with nothing pending keeps the generation it follows)
        publishes = cycles // self.publish_every
        self.sampled = set(self.rng("sampled").sample(
            range(1, publishes + 1), min(self.sizes.sampled_generations, publishes)
        ))

    def timed(self, state: Dict[str, Any], run: Run, seconds: float) -> None:
        serving = state["serving"]
        rng = self.rng("draws")
        draw = lambda: rng.choices(self.ranked, cum_weights=self.cum)[0]  # noqa: E731
        snap = serving.snapshot()
        edges: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {0: (snap.num_vertices, snap.edges)}
        # the read kinds in op-stream order: smcc_l in every 10th round
        kinds = itertools.cycle((*READS, *(READS[:-1] * 9)))
        start = _ns()
        for applied, update in enumerate(self.updates, 1):
            for _ in range(self.sizes.reads_per_update):
                kind = next(kinds)
                query = [draw() for _ in range(BATCH)] if kind == "batch" else draw()
                _read(run, serving, kind, query, self.size_bound, serving.generation)
            _update(run, serving, update)
            if applied % self.publish_every == 0:
                report = _publish(run, serving)
                if report is not None and applied // self.publish_every in self.sampled:
                    snap = report.snapshot
                    edges[report.generation] = (snap.num_vertices, snap.edges)
        run.read_window = (start, _ns())
        run.rss_mb = sysinfo.pss_mb(_pid_list(state))
        state["edges"] = edges

    def check(self, state: Dict[str, Any], run: Run) -> None:
        bound = self.size_bound
        for generation, (n, edge_list) in sorted(state["edges"].items()):
            answers = [r for r in run.recorded() if r.generation == generation]
            if not answers:
                continue
            rebuilt = SMCCIndex.build(Graph.from_edges(edge_list, n))
            _check_against(
                run,
                answers,
                lambda r: oracle.kernel_answer(rebuilt, r.kind, r.query, bound),
                f"rebuild:g{generation}",
            )


# ----------------------------------------------------------------------
# shard-open
# ----------------------------------------------------------------------
def island_parts(islands: int, per: int, seed: int) -> List[Graph]:
    return [ssca_graph(per, seed=seed * 1000 + i) for i in range(islands)]


def island_graph(parts: Sequence[Graph]) -> Graph:
    """The disjoint union of ``parts`` (one MST component each, at least)."""
    graph = Graph(sum(p.num_vertices for p in parts))
    offset = 0
    for part in parts:
        for u, v in part.edges():
            graph.add_edge(u + offset, v + offset)
        offset += part.num_vertices
    return graph


class ShardOpen(Workload):
    name = "shard-open"
    # island-bounded regions make publishes deltas unless the stream
    # moves to another island (see the update stream below)
    publish_every = 1

    def __init__(self, seed: int, sizes: Sizes = Sizes()) -> None:
        super().__init__(seed, sizes)
        parts = island_parts(ISLANDS, sizes.n // ISLANDS, seed)
        self.graph = island_graph(parts)
        self.pool = generate_local_queries(
            self.graph, 4 * sizes.pool, size=3, seed=self.rng("pool").randrange(2**31)
        )
        # Eval-VI updates inside the islands, so islands never merge and
        # component-affine routing keeps spreading load over the workers.
        # Runs of 5 updates per island, round robin: every move to the
        # next island forces a full capture (the dirty region spans two
        # components), so ~20% of publishes are full and the publish p50
        # (delta) and p90 (full) each sit well inside one capture mode.
        offsets = [sum(p.num_vertices for p in parts[:i]) for i in range(len(parts))]
        self.updates = eval_vi_updates(
            list(zip(parts, offsets)),
            self.publish_every * sizes.publishes,
            self.rng("updates"),
            block=5,
        )

    def prepare(self, seconds: float) -> None:
        self.events = self.schedule(seconds)

    def schedule(self, seconds: float) -> List[Tuple[float, str, Any]]:
        """Seeded Poisson arrivals per op; each runs past ``seconds`` until its floor."""
        rng = self.rng("schedule")
        events: List[Tuple[float, str, Any]] = []
        for kind, rate in self.sizes.rates:
            floor = self.sizes.floor(kind)
            t, count = 0.0, 0
            while True:
                t += rng.expovariate(rate)
                if t >= seconds and count >= floor:
                    break
                if kind == "batch":
                    payload: Any = [rng.choice(self.pool) for _ in range(BATCH)]
                else:
                    payload = rng.choice(self.pool)
                events.append((t, kind, payload))
                count += 1
        events.sort(key=lambda e: (e[0], e[1]))
        return events

    def setup(self, run: Run) -> Dict[str, Any]:
        graph = self.graph.copy()
        start = _ns()
        serving = ServingIndex(SMCCIndex.build(graph))
        gateway = ShardGateway(serving, WORKERS)
        try:
            started = _ns()
            # ready = a first answer from every worker
            want = set(range(WORKERS))
            for q in self.pool:
                shard = gateway.shard_of(q)
                if shard in want:
                    gateway.sc(q)
                    want.discard(shard)
                    if not want:
                        break
            done = _ns()
        except BaseException:
            gateway.close()
            raise
        run.setup_s.append((done - start) / 1e9)
        run.extra["warmup_s"] = (done - started) / 1e9
        return {"serving": serving, "gateway": gateway}

    def timed(self, state: Dict[str, Any], run: Run, seconds: float) -> None:
        serving: ServingIndex = state["serving"]
        gateway: ShardGateway = state["gateway"]
        events = self.events
        state["snapshot0"] = serving.snapshot()
        lags: List[float] = []
        bound = self.size_bound
        rec = run.rec

        def traced(kind: str, rid: int, fn: Callable[[], Any]) -> Callable[[], Any]:
            if rec is None:
                return fn
            def inner() -> Any:
                with rec.span(f"bench.{kind}", rid):
                    return fn()
            return inner

        async def read(op: str, rid: int, query: Any, due_ns: int, helpers: ThreadPoolExecutor) -> None:
            loop = asyncio.get_running_loop()
            kind = "sc_async" if op == "sc" else op
            try:
                if kind == "sc_async":
                    answer: Any = await gateway.sc_async(query)
                elif kind == "batch":
                    answer = await loop.run_in_executor(helpers, traced(kind, rid, lambda: gateway.sc_batch(query)))
                elif kind == "smcc":
                    answer = await loop.run_in_executor(helpers, traced(kind, rid, lambda: gateway.smcc(query)))
                else:
                    answer = await loop.run_in_executor(
                        helpers, traced(kind, rid, lambda: gateway.smcc_l(query, size_bound=bound))
                    )
            except QueryError as exc:
                answer = Raised(type(exc).__name__)
            except Exception as exc:
                run.lat[op].append((_ns() - due_ns) / 1e3)
                run.at[op].append(due_ns)
                run.fail(f"{kind}:{type(exc).__name__}")
                return
            run.lat[op].append((_ns() - due_ns) / 1e3)
            run.at[op].append(due_ns)
            run.read_queries += len(query) if kind == "batch" else 1
            run.answers.append(oracle.record(kind, query, answer, 0))

        async def main() -> None:
            loop = asyncio.get_running_loop()
            helpers = ThreadPoolExecutor(max_workers=sysinfo.nproc(), thread_name_prefix="layerbench")
            # Only requests in flight are held: thousands of finished tasks
            # kept alive would lengthen every collection in this process.
            in_flight: set = set()

            def finished(task: "asyncio.Task[None]") -> None:
                in_flight.discard(task)
                task.result()  # read() records its own failures; this re-raises bugs

            try:
                origin = _ns()
                for rid, (due, kind, payload) in enumerate(events):
                    due_ns = origin + int(due * 1e9)
                    if due_ns - _ns() > 2 * pace.REFERENCE_US * 1e3:
                        run.pacer.tick()  # only while idle: arrivals stay on time
                    delay = (due_ns - _ns()) / 1e9
                    if delay > 0:
                        await asyncio.sleep(delay)
                    lags.append((_ns() - due_ns) / 1e6)
                    task = asyncio.ensure_future(read(kind, rid, payload, due_ns, helpers))
                    in_flight.add(task)
                    task.add_done_callback(finished)
                while in_flight:
                    await asyncio.gather(*in_flight)
                run.read_window = (origin, _ns())
            finally:
                for task in list(in_flight):
                    task.cancel()
                helpers.shutdown(wait=True)

        asyncio.run(main())
        run.attempted += len(events)
        # closed write phase; every publish is exported to the workers
        _write_phase(run, serving, self.updates, self.sizes.publishes, self.publish_every)
        run.rss_mb = sysinfo.pss_mb(_pid_list(state))
        run.lags_ms = lags
        # untimed probes of the last exported generation, for the oracle
        final = state["final"] = serving.snapshot()
        for q in self.rng("probes").sample(self.pool, min(64, len(self.pool))):
            answer = run.call("probe", lambda q=q: gateway.sc(q))
            if answer is not None:
                run.answers.append(oracle.record("sc", q, answer, final.generation))
        if rec is not None:
            shard_stats = gateway.stats()
            answered = [w.get("answered", 0) for w in shard_stats["per_worker"]]
            mean = sum(answered) / len(answered) if answered else 0.0
            run.extra["load_max_over_mean"] = max(answered) / mean if mean else 0.0
            gw = shard_stats["gateway"]
            run.extra["coalesced_per_batch"] = gw["coalesced"] / gw["batches"] if gw["batches"] else 0.0
            run.extra["restarts"] = float(shard_stats["restarts"])

    def check(self, state: Dict[str, Any], run: Run) -> None:
        """Worker answers against the in-process snapshot of their generation."""
        by_generation = {0: state["snapshot0"], state["final"].generation: state["final"]}
        bound = self.size_bound
        _check_against(
            run,
            run.recorded(),
            lambda r: oracle.kernel_answer(by_generation[r.generation], r.kind, r.query, bound),
            "snapshot",
        )


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (ColdUniform, HotLocalChurn, ShardOpen)
}
