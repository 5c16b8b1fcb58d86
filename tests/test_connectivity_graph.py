"""Unit tests for the connectivity graph and its construction algorithms."""

import random

import pytest

from conftest import brute_force_sc_pairs, random_connected_graph
from repro.errors import EdgeNotFoundError, GraphError
from repro.graph.generators import (
    PAPER_EXAMPLE_SC,
    clique_chain_graph,
    complete_graph,
    paper_example_graph,
)
from repro.graph.graph import Graph
from repro.index.connectivity_graph import (
    ConnectivityGraph,
    build_connectivity_graph,
    conn_graph_batch,
    conn_graph_sharing,
)

ENGINES = [("exact", {}), ("random", {"seed": 7}), ("cut", {})]


def _multi_component_graph(seed: int) -> Graph:
    """Random graph with 2-3 components plus two isolated vertices."""
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(2, 3)):
        n = rng.randint(3, 9)
        comp = Graph(n)
        vertices = list(range(n))
        rng.shuffle(vertices)
        for i in range(1, n):
            comp.add_edge(vertices[i], vertices[rng.randrange(i)])
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not comp.has_edge(u, v):
                comp.add_edge(u, v)
        parts.append(comp)
    graph = Graph(sum(p.num_vertices for p in parts) + 2)
    offset = 0
    for comp in parts:
        for u, v in comp.edges():
            graph.add_edge(offset + u, offset + v)
        offset += comp.num_vertices
    return graph


class TestConnectivityGraphContainer:
    def test_weight_accessors(self):
        graph = Graph.from_edges([(0, 1)])
        conn = ConnectivityGraph(graph, {(0, 1): 3})
        assert conn.weight(0, 1) == 3
        assert conn.weight(1, 0) == 3

    def test_missing_edge_weight_raises(self):
        conn = ConnectivityGraph(Graph(2), {})
        with pytest.raises(EdgeNotFoundError):
            conn.weight(0, 1)

    def test_set_weight_requires_existing(self):
        graph = Graph.from_edges([(0, 1)])
        conn = ConnectivityGraph(graph, {(0, 1): 1})
        conn.set_weight(1, 0, 5)
        assert conn.weight(0, 1) == 5
        with pytest.raises(EdgeNotFoundError):
            conn.set_weight(0, 2, 1)

    def test_add_remove_edge_keeps_sync(self):
        graph = Graph.from_edges([(0, 1)], num_vertices=3)
        conn = ConnectivityGraph(graph, {(0, 1): 1})
        conn.add_edge(1, 2, 4)
        assert conn.weight(1, 2) == 4
        assert graph.has_edge(1, 2)
        assert conn.remove_edge(2, 1) == 4
        assert not graph.has_edge(1, 2)
        conn.validate()

    def test_validate_detects_desync(self):
        graph = Graph.from_edges([(0, 1)])
        conn = ConnectivityGraph(graph, {})
        with pytest.raises(GraphError):
            conn.validate()

    def test_max_weight(self):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        conn = ConnectivityGraph(graph, {(0, 1): 2, (1, 2): 7})
        assert conn.max_weight() == 7
        assert ConnectivityGraph(Graph(0), {}).max_weight() == 0


class TestConstructionCorrectness:
    def test_paper_example_sharing(self):
        conn = conn_graph_sharing(paper_example_graph())
        for (u, v), expected in PAPER_EXAMPLE_SC.items():
            assert conn.weight(u, v) == expected, (u, v)

    def test_paper_example_batch(self):
        conn = conn_graph_batch(paper_example_graph())
        for (u, v), expected in PAPER_EXAMPLE_SC.items():
            assert conn.weight(u, v) == expected, (u, v)

    def test_clique_chain_ground_truth(self):
        sizes = [5, 4, 6]
        conn = conn_graph_sharing(clique_chain_graph(sizes))
        starts = [0, 5, 9]
        for start, size in zip(starts, sizes):
            for i in range(start, start + size):
                for j in range(i + 1, start + size):
                    assert conn.weight(i, j) == size - 1
        assert conn.weight(0, 5) == 1  # bridge
        assert conn.weight(5, 9) == 1  # bridge

    def test_complete_graph_all_weights(self):
        conn = conn_graph_sharing(complete_graph(6))
        assert all(w == 5 for _, _, w in conn.edges_with_weights())

    def test_disconnected_input(self):
        graph = Graph.from_edges([(0, 1), (2, 3), (3, 4), (2, 4)], num_vertices=6)
        conn = conn_graph_sharing(graph)
        assert conn.weight(0, 1) == 1
        assert conn.weight(2, 3) == 2
        conn.validate()

    @pytest.mark.parametrize("seed", range(6))
    def test_methods_agree_on_random_graphs(self, seed):
        for graph in (random_connected_graph(seed), _multi_component_graph(seed)):
            for engine, kwargs in ENGINES:
                a = conn_graph_sharing(graph.copy(), engine=engine, **kwargs)
                b = conn_graph_batch(graph.copy(), engine=engine, **kwargs)
                assert a.weights_dict() == b.weights_dict(), engine

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_oracle(self, seed):
        graph = random_connected_graph(seed + 50, max_n=16)
        conn = conn_graph_sharing(graph.copy())
        oracle = brute_force_sc_pairs(graph)
        for u, v, w in conn.edges_with_weights():
            assert oracle[(u, v)] == w, (u, v)

    def test_random_engine_construction(self):
        graph = paper_example_graph()
        conn = build_connectivity_graph(graph, engine="random", seed=3)
        for (u, v), expected in PAPER_EXAMPLE_SC.items():
            assert conn.weight(u, v) == expected

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            build_connectivity_graph(Graph(2), method="psychic")
