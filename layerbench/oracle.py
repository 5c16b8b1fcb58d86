"""Answer normalization and comparison for the oracles.

Every recorded answer is reduced to a plain, comparable value: an int
for ``sc``, a list of ints for a batch, ``(connectivity, vertex count,
vertex set)`` for ``smcc`` / ``smcc_l``, and ``Raised(<error type>)`` when
the program answered with a query error (a disconnected query, an
infeasible size bound).  Oracles compute the same normal form from an
independent source and count mismatches; a mismatch is a failed op.
"""

from __future__ import annotations

from typing import Any, Callable, List, NamedTuple, Sequence, Tuple

from repro.errors import QueryError


class Raised(NamedTuple):
    """The program answered by raising this query-error type."""

    error: str


class Recorded(NamedTuple):
    """One answered read: its kind, query (or batch), raw answer, generation."""

    kind: str
    query: Any
    answer: Any
    generation: int


def record(kind: str, query: Any, value: Any, generation: int) -> Tuple[Any, ...]:
    """One answered read as a plain tuple of tuples and ints.

    The garbage collector stops tracking such tuples (it does not for a
    ``NamedTuple``), so thousands of recorded answers do not lengthen
    the collections the measured process runs.  :class:`Recorded` is the
    named view of the same fields.
    """
    if kind == "batch":
        query = tuple(tuple(q) for q in query)
    else:
        query = tuple(query)
    if isinstance(value, Raised):
        pass  # rare; kept as is
    elif kind == "batch":
        value = tuple(value)
    elif kind in ("smcc", "smcc_l"):
        if not isinstance(value, tuple):
            value = (value.vertices, value.connectivity)
        value = (tuple(value[0]), value[1])
    return (kind, query, value, generation)


def normal(kind: str, value: Any) -> Any:
    if isinstance(value, Raised):
        return value
    if kind in ("sc", "sc_async"):
        return int(value)
    if kind == "batch":
        return [int(v) for v in value]
    # smcc / smcc_l: an SMCCResult, or a (vertices, k) pair
    if isinstance(value, tuple):
        vertices, k = value
    else:
        vertices, k = value.vertices, value.connectivity
    # a set compares in linear time; the count still catches a repeated vertex
    return int(k), len(vertices), frozenset(map(int, vertices))


def evaluate(kind: str, fn: Callable[[], Any]) -> Any:
    """Normal form of ``fn()``, with query errors captured as ``Raised``."""
    try:
        return normal(kind, fn())
    except QueryError as exc:
        return Raised(type(exc).__name__)


def kernel_answer(source: Any, kind: str, query: Any, size_bound: int) -> Any:
    """The answer of ``source`` (a snapshot or an index) in normal form.

    ``source`` exposes ``steiner_connectivity``, ``steiner_connectivity_batch``,
    ``smcc`` and ``smcc_l`` — both :class:`~repro.serve.snapshot.IndexSnapshot`
    and :class:`~repro.core.queries.SMCCIndex` do.
    """
    if kind == "sc":
        return evaluate(kind, lambda: source.steiner_connectivity(query))
    if kind == "sc_async":
        # the coalescing front uses the batch convention (0, not raise)
        return evaluate("sc", lambda: source.steiner_connectivity_batch([query])[0])
    if kind == "batch":
        return evaluate(kind, lambda: source.steiner_connectivity_batch(query))
    if kind == "smcc":
        return evaluate(kind, lambda: source.smcc(query))
    if kind == "smcc_l":
        if hasattr(source, "mst_star"):  # SMCCIndex takes the bound by keyword
            return evaluate(kind, lambda: source.smcc_l(query, size_bound=size_bound))
        return evaluate(kind, lambda: source.smcc_l(query, size_bound))
    raise ValueError(f"unknown read kind {kind!r}")


def mismatches(
    answers: Sequence[Recorded], expected: Callable[[Recorded], Any]
) -> List[Tuple[Recorded, Any]]:
    """Every recorded answer whose normal form differs from ``expected``."""
    return [(rec, want) for rec in answers if (want := expected(rec)) != normal(rec.kind, rec.answer)]
