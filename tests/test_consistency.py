"""Cross-artifact consistency: registries, docs, engines, and serving agree."""

import random
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestExperimentRegistry:
    def test_every_paper_table_and_figure_has_an_experiment(self):
        from repro.bench.harness import EXPERIMENTS

        required = {
            "table1_table2", "table3", "figure5", "table4", "table5",
            "figure6", "table6", "table7", "table8", "table9",
            "table10", "table11",
        }
        assert required <= set(EXPERIMENTS)

    def test_every_experiment_has_a_benchmark_module(self):
        bench_dir = REPO / "benchmarks"
        names = {p.stem for p in bench_dir.glob("bench_*.py")}
        for token in ("table3", "fig5", "table4", "table5", "fig6", "table6",
                      "table7", "table8", "table9", "table10", "table11"):
            assert any(token in name for name in names), token

    def test_design_doc_lists_every_experiment(self):
        text = (REPO / "DESIGN.md").read_text()
        for exp in ("Table 3", "Figure 5", "Table 4", "Table 5", "Figure 6",
                    "Table 6", "Table 7", "Table 8", "Table 9", "Table 10",
                    "Table 11"):
            assert exp in text, exp

    def test_experiments_doc_covers_every_table(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for exp in ("Table 3", "Figure 5", "Table 4", "Table 5", "Figure 6",
                    "Table 6", "Table 7", "Table 8", "Table 9", "Table 10",
                    "Table 11"):
            assert exp in text, exp


class TestProfiles:
    def test_named_profiles_resolve(self):
        from repro.bench.harness import FULL, QUICK, _profile

        assert _profile("quick") is QUICK
        assert _profile("paper") is FULL
        assert _profile(QUICK) is QUICK
        with pytest.raises(KeyError):
            _profile("warp-speed")

    def test_paper_profile_uses_paper_workloads(self):
        from repro.bench.harness import FULL

        assert FULL.opt_queries == 1000
        assert FULL.blr_trials == 50  # the paper's t = 50

    def test_prepared_index_memoized(self):
        from repro.bench.harness import prepared_index

        assert prepared_index("D1") is prepared_index("D1")


class TestPackaging:
    def test_version_exposed(self):
        import repro

        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_py_typed_marker(self):
        assert (REPO / "src" / "repro" / "py.typed").exists()

    def test_public_all_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_paper_reference_covers_registry(self):
        from repro.bench import paper_reference as ref
        from repro.bench.datasets import ALL_DATASETS, QUERY_TABLE_DATASETS

        assert set(QUERY_TABLE_DATASETS) <= set(ref.PAPER_TABLE3)
        assert set(QUERY_TABLE_DATASETS) <= set(ref.PAPER_TABLE5)
        assert set(ALL_DATASETS) <= set(ref.PAPER_TABLE7)
        assert set(ALL_DATASETS) <= set(ref.PAPER_TABLE8)


class TestCrossEngineSnapshots:
    """Differential fuzz: every KECC engine feeds identical snapshots.

    The serving layer's correctness argument leans on the connectivity
    graph (and hence the maximum spanning forest) being a function of
    the input graph alone — whichever engine computed it.  Here the
    exact, randomized-contraction, and cut-based engines are run over
    seeded random graphs and must agree on the full sc map, and the
    snapshots captured from each must answer identically.
    """

    @staticmethod
    def _sc_map(conn):
        return {
            (u, v) if u < v else (v, u): w
            for u, v, w in conn.edges_with_weights()
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_engines_agree_on_sc_map(self, seed):
        from conftest import random_connected_graph
        from repro.index.connectivity_graph import build_connectivity_graph

        graph = random_connected_graph(seed * 101 + 11, min_n=8, max_n=16)
        exact = self._sc_map(build_connectivity_graph(graph, engine="exact"))
        cut = self._sc_map(build_connectivity_graph(graph, engine="cut"))
        rnd = self._sc_map(
            build_connectivity_graph(graph, engine="random", seed=seed)
        )
        assert exact == cut
        assert exact == rnd

    @pytest.mark.parametrize("seed", range(4))
    def test_snapshots_answer_identically_across_engines(self, seed):
        from conftest import random_connected_graph
        from repro.core.queries import SMCCIndex
        from repro.serve import capture_snapshot

        graph = random_connected_graph(seed * 37 + 3, min_n=8, max_n=14)
        n = graph.num_vertices
        snaps = []
        for engine in ("exact", "cut", "random"):
            kwargs = {"seed": seed} if engine == "random" else {}
            index = SMCCIndex.build(graph, engine=engine, **kwargs)
            snaps.append(capture_snapshot(index.conn_graph, index.mst, 0))
        rng = random.Random(seed)
        for _ in range(50):
            q = rng.sample(range(n), rng.randint(2, min(4, n)))
            answers = [s.steiner_connectivity(q) for s in snaps]
            assert answers[0] == answers[1] == answers[2], q
            components = [
                (r.connectivity, sorted(r.vertices))
                for r in (s.smcc(q) for s in snaps)
            ]
            assert components[0] == components[1] == components[2], q

    @pytest.mark.parametrize("seed", range(2))
    def test_shm_views_answer_identically_across_engines(self, seed):
        """Exported views of every engine's snapshot agree byte-for-byte.

        Each engine's snapshot round-trips through a shared-memory
        store; the mapped views must agree with each other *and* with
        the in-process snapshots on sc, batch sc, and smcc — the same
        function-of-the-graph argument, now across a serialization
        boundary.
        """
        from conftest import random_connected_graph
        from repro.core.queries import SMCCIndex
        from repro.serve import (
            SharedSnapshotStore,
            SharedSnapshotView,
            capture_snapshot,
        )
        from repro.serve.shard import system_segments

        graph = random_connected_graph(seed * 41 + 9, min_n=8, max_n=14)
        n = graph.num_vertices
        prefixes = []
        snaps, views, stores = [], [], []
        try:
            for engine in ("exact", "cut", "random"):
                kwargs = {"seed": seed} if engine == "random" else {}
                index = SMCCIndex.build(graph, engine=engine, **kwargs)
                snap = capture_snapshot(index.conn_graph, index.mst, 0)
                store = SharedSnapshotStore()
                store.publish_snapshot(snap)
                snaps.append(snap)
                stores.append(store)
                prefixes.append(store.prefix)
                views.append(SharedSnapshotView.attach(store.prefix, 0))
            rng = random.Random(seed)
            queries = [
                rng.sample(range(n), rng.randint(2, min(4, n)))
                for _ in range(30)
            ]
            for q in queries:
                answers = {v.sc(q) for v in views}
                assert len(answers) == 1, q
                assert answers == {snaps[0].steiner_connectivity(q)}, q
                components = {
                    (k, tuple(sorted(vs)))
                    for vs, k in (v.smcc(q) for v in views)
                }
                assert len(components) == 1, q
            batches = [v.steiner_connectivity_batch(queries) for v in views]
            assert batches[0] == batches[1] == batches[2]
            assert batches[0] == snaps[0].steiner_connectivity_batch(queries)
        finally:
            for view in views:
                view.close()
            for store in stores:
                store.close()
        for prefix in prefixes:
            assert system_segments(prefix) == []


class TestServeTraceConsistency:
    """Cached, uncached, and batched serving agree over a 1k-query trace.

    The trace repeats queries from a small pool (so the cache genuinely
    hits), applies an update plus a publish every 100 queries (so
    entries cross generations through region invalidation), and demands
    the three answer streams be identical element-for-element.
    """

    def test_cached_uncached_batched_identical_over_trace(self):
        from conftest import random_connected_graph
        from repro.serve import ServeConfig, ServingIndex

        rng = random.Random(987)
        graph = random_connected_graph(99, min_n=20, max_n=24)
        n = graph.num_vertices
        present = set(graph.edges())
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in present
        ]
        rng.shuffle(non_edges)
        config = ServeConfig(region_fraction_limit=1.0)
        # Separate graph copies: each server mutates its own live graph.
        cached = ServingIndex.build(graph.copy(), config=config)
        batched = ServingIndex.build(graph.copy(), config=config)
        # A small pool guarantees repeats, hence real cache hits.
        pool = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(60)]
        trace = [rng.choice(pool) for _ in range(1000)]
        inserted = []
        answers_cached = []
        answers_uncached = []
        answers_batched = []
        for i in range(0, len(trace), 100):
            chunk = trace[i:i + 100]
            snap = cached.snapshot()  # the uncached reference path
            answers_uncached.extend(
                snap.steiner_connectivity(q) for q in chunk
            )
            answers_cached.extend(cached.sc(q) for q in chunk)
            for j in range(0, len(chunk), 10):
                answers_batched.extend(batched.sc_batch(chunk[j:j + 10]))
            # Mid-trace churn: only edges beyond the original connected
            # graph are deleted, so every query stays connected and the
            # batch 0-convention never diverges from the raising path.
            if inserted and rng.random() < 0.5:
                u, v = inserted.pop()
                cached.apply_updates(deletes=[(u, v)])
                batched.apply_updates(deletes=[(u, v)])
            else:
                u, v = non_edges.pop()
                inserted.append((u, v))
                cached.apply_updates(inserts=[(u, v)])
                batched.apply_updates(inserts=[(u, v)])
            cached.publish()
            batched.publish()
        assert answers_cached == answers_uncached
        assert answers_batched == answers_uncached
        assert cached.cache.stats()["hits"] > 0
        assert cached.generation == 10
        assert batched.generation == 10
