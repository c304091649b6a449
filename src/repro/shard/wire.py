"""Columnar wire codec for shard replies.

A ``query`` reply does not ship :class:`~repro.core.query.NNResult`
object graphs: unpickling one k=10 result costs tens of microseconds of
parent-GIL time (each :class:`~repro.core.neighbors.Neighbor` drags a
:class:`~repro.geometry.rect.Rect` through ``__reduce__``) for every
shard asked, winners and losers alike.  Instead the worker flattens
each result to a tuple of primitive tuples (~2 us to unpickle) and the
parent's merge constructs ``Neighbor`` objects *only for the k winners*
that survive the cross-shard merge.  Every reply takes this shape — a
lone query is a window of one — so there is one codec to fuzz and the
``shard.wire_us`` rung times the codec every sharded answer pays.

The flat shape, one tuple per point::

    (payloads, distances, distances_squared, rect_los, rect_his, stats)

where the first five are parallel tuples over the result's neighbors in
rank order, and ``stats`` is the 12-scalar flattening of
:class:`~repro.core.stats.SearchStats` (with its nested
:class:`~repro.core.pruning.PruningStats`) produced by
:func:`flatten_stats`.  ``inflate_stats(flatten_stats(s))`` round-trips
bit-for-bit (``tests/shard/test_wire_properties.py`` holds the whole
codec to that over generated results).

Sampled requests additionally ship **compact span records** back from
the worker (the ``("oks", ...)`` reply variants — see
:mod:`repro.shard.worker`): each record is the 5-tuple ``(name,
parent_rel, start_s, duration_ms, attrs_items)`` defined by
:mod:`repro.obs.spans`, with ``parent_rel`` a *relative* link inside the
shipped batch (workers cannot allocate parent-side span ids).
:func:`flatten_spans`/:func:`inflate_spans` are the codec for one such
batch; the parent re-roots it with
:meth:`~repro.obs.spans.SpanContext.graft`.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.core.neighbors import Neighbor
from repro.core.pruning import PruningStats
from repro.core.query import NNResult
from repro.core.stats import SearchStats
from repro.errors import InvalidParameterError
from repro.geometry.rect import Rect, _from_bounds
from repro.obs.spans import WIRE_PARENT

__all__ = [
    "FlatResult",
    "WireSpan",
    "flatten_result",
    "flatten_spans",
    "flatten_stats",
    "inflate_neighbor",
    "inflate_result",
    "inflate_spans",
    "inflate_stats",
]

#: One point's flattened reply (see module docstring for the layout).
FlatResult = Tuple[tuple, tuple, tuple, tuple, tuple, tuple]

#: One compact span record: (name, parent_rel, start_s, duration_ms,
#: attrs_items) — the wire shape of a worker-side span.
WireSpan = Tuple[str, int, float, float, tuple]


def flatten_stats(stats: SearchStats) -> tuple:
    """``SearchStats`` (+ nested pruning) as a 12-scalar tuple."""
    pruning = stats.pruning
    return (
        stats.nodes_accessed,
        stats.leaf_accesses,
        stats.internal_accesses,
        stats.objects_examined,
        stats.branch_entries_considered,
        stats.pages_skipped_corrupt,
        stats.truncated,
        stats.truncation_reason,
        stats.frontier_sq,
        pruning.p1_pruned,
        pruning.p2_bound_updates,
        pruning.p3_pruned,
    )


def inflate_stats(flat: tuple) -> SearchStats:
    """Rebuild the exact ``SearchStats`` that ``flatten_stats`` saw."""
    return SearchStats(
        nodes_accessed=flat[0],
        leaf_accesses=flat[1],
        internal_accesses=flat[2],
        objects_examined=flat[3],
        branch_entries_considered=flat[4],
        pages_skipped_corrupt=flat[5],
        truncated=flat[6],
        truncation_reason=flat[7],
        frontier_sq=flat[8],
        pruning=PruningStats(
            p1_pruned=flat[9],
            p2_bound_updates=flat[10],
            p3_pruned=flat[11],
        ),
    )


def flatten_result(result: NNResult) -> FlatResult:
    """Flatten one per-shard result for the wire (worker side)."""
    neighbors = result.neighbors
    return (
        tuple(n.payload for n in neighbors),
        tuple(n.distance for n in neighbors),
        tuple(n.distance_squared for n in neighbors),
        tuple(n.rect.lo for n in neighbors),
        tuple(n.rect.hi for n in neighbors),
        flatten_stats(result.stats),
    )


def inflate_neighbor(flat: FlatResult, rank: int) -> Neighbor:
    """Construct the single ``Neighbor`` at *rank* of a flat reply.

    This is the deliberate asymmetry of the codec: the merge touches
    only distances (already primitive), so object construction is
    deferred to the winners instead of paid for every shard's full k.
    """
    payloads, distances, distances_squared, los, his, _ = flat
    # Past the frozen dataclass __init__, as kernels._heap_to_neighbors.
    nb = object.__new__(Neighbor)
    fields = nb.__dict__
    fields["payload"] = payloads[rank]
    # Bounds a worker read out of validated rects: nothing to re-check.
    fields["rect"] = _from_bounds(Rect, los[rank], his[rank])
    fields["distance"] = distances[rank]
    fields["distance_squared"] = distances_squared[rank]
    return nb


def inflate_result(flat: FlatResult) -> NNResult:
    """Fully rebuild one ``NNResult`` (test/diagnostic helper)."""
    neighbors: List[Any] = [
        inflate_neighbor(flat, rank) for rank in range(len(flat[0]))
    ]
    return NNResult(neighbors=neighbors, stats=inflate_stats(flat[5]))


def flatten_spans(spans: Sequence[Sequence[Any]]) -> Tuple[WireSpan, ...]:
    """Normalize worker span records to the compact wire shape.

    Validates the relative-parent invariant (a record may only point at
    an *earlier* record in the same batch, or :data:`WIRE_PARENT`) and
    coerces attribute mappings to item tuples, so a reply is always a
    tuple of 5-tuples of primitives — cheap to pickle and stable under
    ``inflate_spans(flatten_spans(s)) == flatten_spans(s)``.
    """
    out: List[WireSpan] = []
    for index, record in enumerate(spans):
        name, parent_rel, start_s, duration_ms, attrs = record
        if parent_rel != WIRE_PARENT and not 0 <= parent_rel < index:
            raise InvalidParameterError(
                f"span record {index} ({name!r}) has parent_rel="
                f"{parent_rel}; must be {WIRE_PARENT} or an earlier index"
            )
        items = tuple(attrs.items()) if hasattr(attrs, "items") else tuple(attrs)
        out.append(
            (str(name), int(parent_rel), float(start_s),
             float(duration_ms), items)
        )
    return tuple(out)


def inflate_spans(flat: Sequence[WireSpan]) -> List[WireSpan]:
    """The reader side of :func:`flatten_spans` (validation included)."""
    return list(flatten_spans(flat))
