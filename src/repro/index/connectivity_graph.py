"""The connectivity graph and its construction algorithms.

Definition 4.1 of the paper: the *connectivity graph* ``G_c`` of ``G``
has the same vertices and edges as ``G``, and every edge ``(u, v)``
carries the weight ``sc(u, v)`` — the steiner-connectivity of its
endpoints, i.e. the largest ``k`` such that ``u`` and ``v`` lie in a
common k-edge connected component.

Two construction algorithms from Section 5.1.1:

- :func:`conn_graph_batch` (**ConnGraph-B**) recomputes the k-edge
  connected components of the *whole* graph for each k and overwrites
  sc values — ``O(|V| · h · l · |E|)``.
- :func:`conn_graph_sharing` (**ConnGraph-BS**, Algorithm 6) feeds the
  k-eccs of round ``k`` as the input of round ``k+1`` and assigns each
  edge's sc exactly once, when the edge is removed (Lemma 5.1) —
  ``O(α(G) · h · l · |E|)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import EdgeNotFoundError, GraphError
from repro.graph.graph import Graph, edge_key
from repro.kecc import get_engine
from repro.obs import runtime as _obs
from repro.obs.spans import span

Edge = Tuple[int, int]


class ConnectivityGraph:
    """``G`` plus the steiner-connectivity weight of each edge.

    Mutations (used by index maintenance) keep the edge weights and the
    underlying graph in lockstep; the class does not recompute sc values
    itself — construction and maintenance algorithms do.
    """

    __slots__ = ("graph", "_sc")

    def __init__(self, graph: Graph, sc: Optional[Dict[Edge, int]] = None) -> None:
        self.graph = graph
        self._sc: Dict[Edge, int] = {} if sc is None else sc

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def weight(self, u: int, v: int) -> int:
        """Return ``sc(u, v)`` for an *edge* of the graph."""
        try:
            return self._sc[edge_key(u, v)]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def set_weight(self, u: int, v: int, value: int) -> None:
        key = edge_key(u, v)
        if key not in self._sc:
            raise EdgeNotFoundError(u, v)
        self._sc[key] = value

    def add_edge(self, u: int, v: int, weight: int) -> None:
        self.graph.add_edge(u, v)
        self._sc[edge_key(u, v)] = weight

    def remove_edge(self, u: int, v: int) -> int:
        """Remove the edge; return the weight it carried."""
        self.graph.remove_edge(u, v)
        return self._sc.pop(edge_key(u, v))

    def add_vertex(self) -> int:
        return self.graph.add_vertex()

    def edges_with_weights(self) -> Iterable[Tuple[int, int, int]]:
        """Yield ``(u, v, sc)`` for every edge (``u < v``)."""
        for (u, v), w in self._sc.items():
            yield u, v, w

    def weights_dict(self) -> Dict[Edge, int]:
        """A copy of the edge → sc mapping."""
        return dict(self._sc)

    def max_weight(self) -> int:
        return max(self._sc.values(), default=0)

    def validate(self) -> None:
        """Check graph/weight consistency (used by tests and after load)."""
        edges = set(self.graph.edges())
        weighted = set(self._sc)
        if edges != weighted:
            missing = edges - weighted
            extra = weighted - edges
            raise GraphError(
                f"connectivity graph out of sync: {len(missing)} unweighted, "
                f"{len(extra)} stale weights"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConnectivityGraph(n={self.num_vertices}, m={self.num_edges})"


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_connectivity_graph(
    graph: Graph,
    method: str = "sharing",
    engine: str = "exact",
    **engine_kwargs: Any,
) -> ConnectivityGraph:
    """Build the connectivity graph of ``graph``.

    ``method`` is ``"sharing"`` (ConnGraph-BS, Algorithm 6 — default) or
    ``"batch"`` (ConnGraph-B).  ``engine`` selects the KECC engine
    (``"exact"``, ``"random"`` or ``"cut"``); extra keyword arguments are
    forwarded to the engine (e.g. ``seed=...`` for the random engine).
    """
    if method == "sharing":
        return conn_graph_sharing(graph, engine=engine, **engine_kwargs)
    if method == "batch":
        return conn_graph_batch(graph, engine=engine, **engine_kwargs)
    raise ValueError(f"unknown construction method {method!r}; use 'sharing' or 'batch'")


def conn_graph_batch(
    graph: Graph, engine: str = "exact", **engine_kwargs: Any
) -> ConnectivityGraph:
    """ConnGraph-B: batch processing without computation sharing.

    For each ``k`` from 2 upward, recompute the k-eccs of the *entire*
    graph and overwrite ``sc(u, v) = k`` for every edge inside a k-ecc,
    stopping once no k-ecc contains an edge.
    """
    kecc: Callable = get_engine(engine)
    n = graph.num_vertices
    edges = graph.edge_list()
    sc: Dict[Edge, int] = {edge_key(u, v): 1 for u, v in edges}
    k = 1
    while True:
        k += 1
        with span("conn_graph.batch.round") as sp:
            groups = kecc(n, edges, k, **engine_kwargs)
            owner = _owner_map(groups)
            assigned = 0
            for u, v in edges:
                if owner[u] == owner[v]:
                    sc[edge_key(u, v)] = k
                    assigned += 1
            sp.set("k", k)
            sp.set("edges_assigned", assigned)
        if assigned == 0:
            break
    registry = _obs.REGISTRY
    if registry is not None:
        registry.counter("conn_graph.batch.rounds").inc(k - 1)
    return ConnectivityGraph(graph, sc)


def conn_graph_sharing(
    graph: Graph, engine: str = "exact", **engine_kwargs: Any
) -> ConnectivityGraph:
    """ConnGraph-BS (Algorithm 6): batch processing with computation sharing.

    Round ``k`` takes the (k-1)-edge connected components as input instead
    of ``G``, and each edge's sc is assigned exactly once — to ``k - 1``
    at the moment the edge is removed (Lemma 5.1).
    """
    kecc: Callable = get_engine(engine)
    sc: Dict[Edge, int] = {}
    # phi_1: connected components, each carried as (vertices, edges).
    pieces = _component_pieces(graph)
    k = 1
    while pieces:
        k += 1
        with span("conn_graph.sharing.round") as round_span:
            round_span.set("k", k)
            sizes = [len(piece_edges) for _, piece_edges in pieces]
            round_span.set("pieces", len(pieces))
            round_span.set("edges", sum(sizes))
            round_span.set("max_piece_edges", max(sizes))
            next_pieces: List[Tuple[List[int], List[Edge]]] = []
            for vertices, piece_edges in pieces:
                index = {v: i for i, v in enumerate(vertices)}
                local_edges = [(index[u], index[v]) for u, v in piece_edges]
                groups = kecc(len(vertices), local_edges, k, **engine_kwargs)
                owner = _owner_map(groups)
                edges_by_group: Dict[int, List[Edge]] = {}
                for (u, v), (lu, lv) in zip(piece_edges, local_edges):
                    if owner[lu] != owner[lv]:
                        # Removed while computing k-eccs of a (k-1)-edge
                        # connected graph: sc is exactly k - 1 (Lemma 5.1).
                        sc[edge_key(u, v)] = k - 1
                    else:
                        edges_by_group.setdefault(owner[lu], []).append((u, v))
                for group in groups:
                    if len(group) < 2:
                        continue
                    kept = edges_by_group.get(owner[group[0]], [])
                    if kept:
                        next_pieces.append(([vertices[i] for i in group], kept))
            pieces = next_pieces
    registry = _obs.REGISTRY
    if registry is not None:
        registry.counter("conn_graph.sharing.rounds").inc(k - 1)
    conn = ConnectivityGraph(graph, sc)
    conn.validate()
    return conn


# ----------------------------------------------------------------------
def _owner_map(groups: Sequence[Sequence[int]]) -> Dict[int, int]:
    owner: Dict[int, int] = {}
    for gid, group in enumerate(groups):
        for v in group:
            owner[v] = gid
    return owner


def _component_pieces(graph: Graph) -> List[Tuple[List[int], List[Edge]]]:
    """Connected components with their edge lists (components with edges only)."""
    from repro.graph.traversal import connected_components

    pieces = []
    for component in connected_components(graph):
        if len(component) < 2:
            continue
        piece_edges = graph.induced_edges(component)
        if piece_edges:
            pieces.append((component, piece_edges))
    return pieces
