"""Allocation-free k-NN kernels over a :class:`~repro.packed.layout.PackedTree`.

These are the same algorithms as :mod:`repro.core.knn_dfs` and
:mod:`repro.core.knn_best_first` — the paper's ordered depth-first
branch-and-bound search and Hjaltason & Samet's best-first search — but
re-expressed over the packed slabs:

- traversal walks integer node indices and entry offsets, never touching a
  ``Node``/``Entry``/``Rect`` object;
- squared MINDIST/MINMAXDIST are computed inline (unrolled for the 2-D
  common case), with zero per-entry allocation;
- the query point is validated once, up front;
- the candidate buffer is an inlined max-heap of ``(-dist_sq, counter,
  entry_index)`` triples — :class:`~repro.core.neighbors.Neighbor` objects
  are materialized only for the k results actually returned.

**Exactness contract:** for any tree and query, each kernel returns the
same neighbors in the same order, with the same :class:`SearchStats`
counters, as its object-graph counterpart.  That makes the packed path a
drop-in serving accelerator *and* lets :mod:`repro.audit` diff it against
every other backend.  To preserve the contract the kernels replicate the
object kernels' floating-point evaluation order exactly (including the
prune slack, read from :mod:`repro.core.knn_dfs` so the audit's
broken-prune seam reaches this path too), their stable ABL sort, and the
candidate buffer's tie-breaking counter discipline.

**Four loops.**  Each algorithm has one *general* loop
(:func:`_dfs_general`, :func:`_best_first_general`: any dimension, every
ordering/pruning/epsilon combination, with ``None``-checked budget-clock
and trace hooks) plus one 2-D specialization without the hooks
(:func:`_dfs_2d`, :func:`_best_first_2d`; the DFS one also covers every
ordering/pruning/epsilon combination), which the entry points select
when ``dim == 2 and trace is None and budget is None`` — unless
:func:`_select_block` sends a hot best-first query to the numpy block of
:mod:`repro.packed.batch`.  docs/INTERNALS.md ("Packed kernel dispatch")
holds the measurements behind both choices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop, heappush, heapreplace
from operator import itemgetter
from time import perf_counter as _clock
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.trace import Trace

from repro.core import knn_dfs as _knn_dfs
from repro.core.budget import Budget, BudgetClock, finish_truncated
from repro.core.config import QueryConfig
from repro.core.neighbors import Neighbor
from repro.core.pruning import PruningConfig
from repro.core.query import NNResult
from repro.core.stats import SearchStats
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.point import as_point
from repro.packed.layout import PackedTree
from repro.storage.tracker import AccessTracker

__all__ = [
    "packed_nearest_dfs",
    "packed_nearest_best_first",
    "run_packed_query",
]

_INF = math.inf
_VALID_ORDERINGS = ("mindist", "minmaxdist")
_key0 = itemgetter(0)
#: Upper bound for ref values in the ABL pre-filter bisect probe — larger
#: than any node index, so probes never fall between equal-distance pairs.
_MAXREF = 2 ** 62
_DEFAULT_PRUNING_K1 = PruningConfig.all().effective_for_k(1)
_DEFAULT_PRUNING_KN = PruningConfig.all().effective_for_k(2)
#: Prefill item for the candidate heap: a slot at distance +inf that any
#: real candidate displaces; entry index -1 marks it for the materializer.
_SENTINEL = (-math.inf, 0, -1)
#: The numpy block's gate (benchmarks/bench_kernel_select.py measures
#: both crossovers): mean entries per node, and seconds since this
#: process's previous best-first query finished.
_BLOCK_MIN_FANOUT = 96
_BLOCK_WARM_S = 0.00075
_last_done = -math.inf


def _check_k_epsilon(k: int, epsilon: float) -> None:
    """The ``k``/``epsilon`` rule of every packed door (``QueryConfig``'s)."""
    _knn_dfs._check_k(k)
    _knn_dfs._check_epsilon(epsilon)


def _begin_query(
    ptree: PackedTree, point: Sequence[float], k: int, epsilon: float
) -> Tuple[Tuple[float, ...], SearchStats, int, float]:
    """The validation prelude both entry points share.

    Returns ``(query, stats, slots, shrink_sq)``.  *slots* is the
    candidate-heap size, ``min(k, ptree.size)``: no more than ``size``
    objects can ever be offered, so the smaller heap keeps the "worst
    stays +inf until full" bound — answers and stats are those of a
    ``k``-slot heap — while a huge ``k`` costs nothing.  ``slots == 0``
    means an empty snapshot: the caller answers ``[]`` without a loop.
    """
    query = as_point(point)
    _check_k_epsilon(k, epsilon)
    stats = SearchStats()
    # The snapshot reads no storage at query time, but the *compile* may
    # have skipped corrupt pages — every query on such a snapshot is
    # missing those subtrees (even the degenerate all-corrupt one that
    # compiled empty), so surface the degradation exactly like the
    # object kernels surface their per-query skips.
    stats.pages_skipped_corrupt = ptree.pages_skipped_corrupt
    size = ptree.size
    if size and ptree.dimension != len(query):
        raise DimensionMismatchError(ptree.dimension, len(query), "query point")
    return query, stats, min(k, size), 1.0 / (1.0 + epsilon) ** 2


def _finish_instrumented(
    ptree: PackedTree,
    heap: List[tuple],
    frontier_sq: float,
    stats: SearchStats,
    trace: Optional["Trace"],
    budget: Optional[Budget],
    clock: Optional[BudgetClock],
) -> Tuple[List[Neighbor], SearchStats]:
    """Close out a general-loop run: skip events, exhaustion policy."""
    if trace is not None:
        trace.skips(ptree.pages_skipped_corrupt)
    if clock is not None and clock.reason:
        finish_truncated(stats, budget, clock.reason, frontier_sq)
    return _heap_to_neighbors(ptree, heap), stats


def packed_nearest_dfs(
    ptree: PackedTree,
    point: Sequence[float],
    k: int = 1,
    ordering: str = "mindist",
    pruning: Optional[PruningConfig] = None,
    tracker: Optional[AccessTracker] = None,
    epsilon: float = 0.0,
    trace: Optional["Trace"] = None,
    budget: Optional[Budget] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """Packed equivalent of :func:`repro.core.knn_dfs.nearest_dfs`.

    Same parameters, same results, same stats — minus the
    ``object_distance_sq`` hook (exact object distances need the payload
    objects on the hot path; use the object kernel for those queries).

    A 2-D query with neither a :class:`repro.obs.Trace` nor a *budget*
    (the served default) runs a hook-free 2-D loop; every other query
    runs :func:`_dfs_general` (see the module docstring).
    """
    if ordering not in _VALID_ORDERINGS:
        raise InvalidParameterError(
            f"ordering must be one of {_VALID_ORDERINGS}, got {ordering!r}"
        )
    query, stats, slots, shrink_sq = _begin_query(ptree, point, k, epsilon)
    if not slots:
        return [], stats
    if pruning is None:
        # Same result as PruningConfig.all().effective_for_k(k), without
        # building two throwaway config objects per query.
        config = _DEFAULT_PRUNING_K1 if k == 1 else _DEFAULT_PRUNING_KN
    else:
        config = pruning.effective_for_k(k)
    slack = _knn_dfs._PRUNE_SLACK
    if ptree.dimension == 2 and trace is None and budget is None:
        heap = _dfs_2d(
            ptree, query[0], query[1], slots, config, ordering, shrink_sq,
            slack, tracker, stats,
        )
        return _heap_to_neighbors(ptree, heap), stats
    clock = budget.start() if budget is not None else None
    heap, frontier_sq = _dfs_general(
        ptree, query, slots, config, ordering, shrink_sq, slack, tracker,
        stats, clock, trace,
    )
    return _finish_instrumented(
        ptree, heap, frontier_sq, stats, trace, budget, clock
    )


def packed_nearest_best_first(
    ptree: PackedTree,
    point: Sequence[float],
    k: int = 1,
    tracker: Optional[AccessTracker] = None,
    epsilon: float = 0.0,
    trace: Optional["Trace"] = None,
    budget: Optional[Budget] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """Packed equivalent of :func:`repro.core.knn_best_first.nearest_best_first`
    (same contract and loop selection as :func:`packed_nearest_dfs`, plus the
    numpy block for a hot hook-free query: :func:`_select_block`)."""
    global _last_done
    query, stats, slots, shrink_sq = _begin_query(ptree, point, k, epsilon)
    if not slots:
        return [], stats
    hooked = trace is not None or budget is not None
    block = None if hooked else _select_block(ptree)
    if block is not None:
        heap = block(ptree, query, slots, shrink_sq, tracker, stats)
    elif ptree.dimension == 2 and not hooked:
        heap = _best_first_2d(
            ptree, query[0], query[1], slots, shrink_sq, tracker, stats
        )
    else:
        clock = budget.start() if budget is not None else None
        heap, frontier_sq = _best_first_general(
            ptree, query, slots, shrink_sq, tracker, stats, clock, trace
        )
        _last_done = _clock()
        return _finish_instrumented(
            ptree, heap, frontier_sq, stats, trace, budget, clock
        )
    _last_done = _clock()
    return _heap_to_neighbors(ptree, heap), stats


def _select_block(ptree: PackedTree) -> Optional[Callable[..., List[tuple]]]:
    """The numpy block when the tree is wide and the caches warm, else None.

    Only the time differs: the answer and ``SearchStats`` are the solo
    loop's either way (tests/packed/test_block_selection.py).
    """
    starts = ptree.starts
    if (
        starts[-1] < _BLOCK_MIN_FANOUT * (len(starts) - 1)
        or _clock() - _last_done >= _BLOCK_WARM_S
    ):
        return None
    from repro.packed import batch  # call time: batch imports this module

    return batch._window_of_one if batch._np is not None else None


def run_packed_query(
    ptree: PackedTree,
    point: Sequence[float],
    cfg: QueryConfig,
    tracker: Optional[AccessTracker] = None,
    trace: Optional["Trace"] = None,
) -> NNResult:
    """Dispatch a validated :class:`QueryConfig` to the packed kernels.

    The packed mirror of :func:`repro.core.query._run_query`.  Raises
    :class:`InvalidParameterError` if the config carries an
    ``object_distance_sq`` hook — exact object distances need payloads on
    the hot path, so callers (e.g. ``QueryEngine``) route those queries to
    the object kernels instead.
    """
    if cfg.object_distance_sq is not None:
        raise InvalidParameterError(
            "packed kernels do not support object_distance_sq; "
            "run this query through the object-graph kernels"
        )
    if trace is not None:
        trace.meta.update(
            point=tuple(float(c) for c in point),
            k=cfg.k,
            algorithm=cfg.algorithm,
        )
    if cfg.algorithm == "dfs":
        neighbors, stats = packed_nearest_dfs(
            ptree,
            point,
            k=cfg.k,
            ordering=cfg.ordering,
            pruning=cfg.pruning,
            tracker=tracker,
            epsilon=cfg.epsilon,
            trace=trace,
            budget=cfg.budget,
        )
    else:
        neighbors, stats = packed_nearest_best_first(
            ptree,
            point,
            k=cfg.k,
            tracker=tracker,
            epsilon=cfg.epsilon,
            trace=trace,
            budget=cfg.budget,
        )
    # A packed snapshot reads no storage at query time; any corrupt-page
    # skips happened at compile time and were already folded into the
    # stats by the kernels above.
    return NNResult(neighbors=neighbors, stats=stats)


# ----------------------------------------------------------------------
# Result materialization
# ----------------------------------------------------------------------

def _heap_to_neighbors(ptree: PackedTree, heap: List[tuple]) -> List[Neighbor]:
    """Turn the inlined candidate heap into sorted Neighbor objects.

    The heap holds ``(-dist_sq, counter, entry_index)``; sorting by
    ``(dist_sq, counter)`` reproduces ``NeighborBuffer.to_sorted_list``
    exactly, because the counters were assigned in the same accept order
    as the object kernels' buffer.
    """
    refs = ptree.refs
    payloads = ptree.payloads
    rects = ptree.rects
    sqrt = math.sqrt
    new = object.__new__
    heap.sort(key=lambda it: (-it[0], it[1]))
    out = []
    append = out.append
    for neg_d, _counter, idx in heap:
        if idx < 0:
            continue  # unconsumed sentinel slot: fewer than k objects offered
        d_sq = -neg_d
        ref = refs[idx]
        # Bypass the frozen dataclass __init__/__setattr__ dance — result
        # materialization is a measurable share of small queries.  The
        # rect comes straight from the compile-time list, so it is the
        # very object the source tree's entry holds.
        nb = new(Neighbor)
        fields = nb.__dict__
        fields["payload"] = payloads[ref]
        fields["rect"] = rects[ref]
        fields["distance"] = sqrt(d_sq)
        fields["distance_squared"] = d_sq
        append(nb)
    return out


# ----------------------------------------------------------------------
# DFS kernels
# ----------------------------------------------------------------------
#
# Both DFS loops share one shape: an explicit stack of
# (mindist_sq, node_index) pairs replaces the recursion.  Per internal
# node the ABL is built, stable-sorted ascending by the ordering key, and
# pushed in reverse, so the first branch in ABL order pops first — this
# reproduces the recursive kernel's visit order exactly, including when
# each P3 re-check happens and therefore how the k-th-candidate bound
# evolves.

def _dfs_2d(
    ptree: PackedTree,
    px: float,
    py: float,
    k: int,
    config: PruningConfig,
    ordering: str,
    shrink_sq: float,
    slack: float,
    tracker: Optional[AccessTracker],
    stats: SearchStats,
) -> List[tuple]:
    """2-D DFS covering every ordering/pruning/epsilon combination.

    Everything lives in locals and reads the per-axis columns; the
    per-entry work is a few slab reads and a handful of float operations.
    Two shortcuts beyond :func:`_dfs_general`, both exactness-preserving:

    - ``bound`` caches the P3 test's ``min(worst * shrink, minmax_bound) *
      slack`` (``inf`` without P3) and is refreshed only when the k-th
      candidate or the P2 bound improves (the object kernel recomputes the
      same expression, in the same float order, at every P3 check);
    - branches already beyond ``bound`` when their node's ABL is built are
      counted as P3-pruned immediately instead of being pushed: the bound
      only ever tightens, so the object kernel is guaranteed to prune
      them at its later re-check — same visits, same counts, fewer stack
      round-trips.
    """
    kinds = ptree.kinds
    starts = ptree.starts
    refs = ptree.refs
    xlo = ptree.xlo
    ylo = ptree.ylo
    xhi = ptree.xhi
    yhi = ptree.yhi
    page_ids = ptree.page_ids
    track = tracker.access if tracker is not None else None
    use_p1 = config.use_p1
    use_p2 = config.use_p2
    use_p3 = config.use_p3
    by_minmax = ordering == "minmaxdist"
    need_minmax = by_minmax or use_p1 or use_p2

    # Sentinel-prefilled candidate heap: k slots at distance +inf.  The
    # worst (root) slot stays +inf until k real candidates have displaced
    # the sentinels — exactly NeighborBuffer's "inf until full" bound —
    # and every accept is a single heapreplace, no size checks.
    heap: List[tuple] = [_SENTINEL] * k
    worst = _INF
    minmax_bound = _INF  # the P2 bound; stays inf without P2
    bound = _INF
    counter = 0
    leaves = internals = objects = branch_total = p1 = p2 = p3 = 0
    stack: List[tuple] = [(0.0, 0)]
    pop = stack.pop
    while stack:
        md, ni = pop()
        if md > bound:
            p3 += 1
            continue
        s = starts[ni]
        e = starts[ni + 1]
        kind = kinds[ni]
        if kind != 0:  # leaf (points or rects)
            if track is not None:
                track(page_ids[ni], True)
            leaves += 1
            objects += e - s
            i = s
            if kind == 2:  # points leaf: degenerate rects, read only lo coords
                for x, y in zip(xlo[s:e], ylo[s:e]):
                    t = px - x
                    d = t * t
                    t = py - y
                    d += t * t
                    if d < worst:
                        counter += 1
                        heapreplace(heap, (-d, counter, i))
                        worst = -heap[0][0]
                    i += 1
            else:  # rect leaf: full per-axis clamp
                for lo, hi, lo2, hi2 in zip(
                    xlo[s:e], xhi[s:e], ylo[s:e], yhi[s:e]
                ):
                    d = 0.0
                    if px < lo:
                        t = lo - px
                        d = t * t
                    elif px > hi:
                        t = px - hi
                        d = t * t
                    if py < lo2:
                        t = lo2 - py
                        d += t * t
                    elif py > hi2:
                        t = py - hi2
                        d += t * t
                    if d < worst:
                        counter += 1
                        heapreplace(heap, (-d, counter, i))
                        worst = -heap[0][0]
                    i += 1
            if use_p3:
                bound = min(worst * shrink_sq, minmax_bound) * slack
            continue
        # Internal node: build, sort, cut and push the ABL.
        if track is not None:
            track(page_ids[ni], False)
        internals += 1
        branch_total += e - s
        abl = []
        append = abl.append
        for lo, lo2, hi, hi2, ref in zip(
            xlo[s:e], ylo[s:e], xhi[s:e], yhi[s:e], refs[s:e]
        ):
            d = 0.0
            if px < lo:
                t = lo - px
                d = t * t
            elif px > hi:
                t = px - hi
                d = t * t
            if py < lo2:
                t = lo2 - py
                d += t * t
            elif py > hi2:
                t = py - hi2
                d += t * t
            append((d, ref))
        # Plain tuple sort: refs ascend in entry order (BFS numbering), so
        # distance ties resolve exactly like the object kernel's stable
        # sort over entry order.
        if not by_minmax:
            abl.sort()
        if need_minmax:
            # A second pass, only for P1, P2 or MINMAXDIST order: unrolled
            # 2-D MINMAXDIST^2 in metrics._minmaxdist_sq_unchecked's float
            # order.  Its every term is >= the MINDIST term, so in MINDIST
            # order no entry at or past the running minimum can lower it.
            # Siblings are numbered in a run: entry = ref + shift.
            mmds = []
            min_minmax = _INF
            shift = s - refs[s] if abl else 0
            for d, ref in abl:
                if d >= min_minmax and not by_minmax:
                    break
                j = ref + shift
                lo = xlo[j]
                hi = xhi[j]
                mid = (lo + hi) / 2.0
                t = px - (lo if px <= mid else hi)
                near_x = t * t
                t = px - (lo if px >= mid else hi)
                far_x = t * t
                lo = ylo[j]
                hi = yhi[j]
                mid = (lo + hi) / 2.0
                t = py - (lo if py <= mid else hi)
                near_y = t * t
                t = py - (lo if py >= mid else hi)
                far_y = t * t
                mmd = near_x + far_y
                t = far_x + near_y
                if t < mmd:
                    mmd = t
                if mmd < min_minmax:
                    min_minmax = mmd
                mmds.append(mmd)
            if use_p2 and min_minmax < minmax_bound:
                minmax_bound = min_minmax
                p2 += 1
                if use_p3:
                    bound = min(worst * shrink_sq, minmax_bound) * slack
            p1_bound = min_minmax * slack if use_p1 else _INF
        if by_minmax:
            # Sort key (mmd, ref), ties again by entry order.  P1 and the
            # P3 pre-cut filter on MINDIST, which this order leaves unsorted.
            keyed = []
            for (d, ref), mmd in zip(abl, mmds):
                if d > p1_bound:
                    p1 += 1
                elif d > bound:
                    p3 += 1
                else:
                    keyed.append((mmd, ref, d))
            keyed.sort()
            stack.extend([(d, ref) for _mmd, ref, d in reversed(keyed)])
            continue
        # Under MINDIST order both cuts are one bisect each.
        if use_p1 and abl and abl[-1][0] > p1_bound:
            cut = bisect_right(abl, (p1_bound, _MAXREF))
            p1 += len(abl) - cut
            del abl[cut:]
        if abl and abl[-1][0] > bound:
            cut = bisect_right(abl, (bound, _MAXREF))
            p3 += len(abl) - cut
            del abl[cut:]
        stack.extend(reversed(abl))

    stats.nodes_accessed = leaves + internals
    stats.leaf_accesses = leaves
    stats.internal_accesses = internals
    stats.objects_examined = objects
    stats.branch_entries_considered = branch_total
    stats.pruning.p1_pruned = p1
    stats.pruning.p2_bound_updates = p2
    stats.pruning.p3_pruned = p3
    return heap


def _dfs_general(
    ptree: PackedTree,
    query: Sequence[float],
    k: int,
    config: PruningConfig,
    ordering: str,
    shrink_sq: float,
    slack: float,
    tracker: Optional[AccessTracker],
    stats: SearchStats,
    clock: Optional[BudgetClock],
    trace: Optional["Trace"],
) -> Tuple[List[tuple], float]:
    """Any-dimension DFS covering every ordering/pruning/epsilon combo,
    charging *clock* once per node visit and emitting the full *trace*
    event stream when given either.  Returns the candidate heap and the
    frontier bound — ``inf`` unless the clock refused.

    Truncation-point parity: the object DFS charges at ``visit()`` entry,
    which a node reaches only after surviving its parent's P3 re-check;
    this loop charges after the pop-time P3 re-check passes.  The two
    charge sequences are therefore identical, so under a deterministic
    ``max_pages`` budget both kernels truncate at the same node — and the
    abandoned set (the refused node plus everything still on the explicit
    stack) is exactly the set the object kernel's unwinding folds into
    its frontier, giving bit-identical frontier bounds too.

    The stack carries ``(..., depth)`` so every event gets the
    root-relative depth the object kernels derive from ``node.level``.
    """
    kinds = ptree.kinds
    starts = ptree.starts
    refs = ptree.refs
    coords = ptree.coords
    page_ids = ptree.page_ids
    track = tracker.access if tracker is not None else None
    use_p1 = config.use_p1
    use_p2 = config.use_p2
    use_p3 = config.use_p3
    by_minmax = ordering == "minmaxdist"
    need_minmax = by_minmax or use_p1 or use_p2
    dim = ptree.dimension
    twodim = 2 * dim
    q = tuple(query)
    charge = clock.charge if clock is not None else None

    minmax_bound = _INF
    heap: List[tuple] = [_SENTINEL] * k
    worst = _INF
    counter = 0
    leaves = internals = objects = branch_total = 0
    p1 = p2 = p3 = 0
    frontier = _INF
    stack: List[tuple] = [(0.0, 0, 0)]  # (mindist_sq, node_index, depth)
    pop = stack.pop
    while stack:
        md, ni, depth = pop()
        if use_p3:
            bound = worst * shrink_sq
            if use_p2 and minmax_bound < bound:
                bound = minmax_bound
            if md > bound * slack:
                p3 += 1
                if trace is not None:
                    trace.prune("p3", depth, page_ids[ni], md, bound)
                continue
        if charge is not None and charge():
            # Budget exhausted.  The refused node and everything still
            # stacked are exactly the subtrees the search abandons;
            # their MINDISTs lower-bound their contents, so the minimum
            # is a sound frontier (no P3 re-filtering — conservative).
            frontier = md
            for rem_md, _rem_ni, _rem_depth in stack:
                if rem_md < frontier:
                    frontier = rem_md
            break
        s = starts[ni]
        e = starts[ni + 1]
        base = s * twodim
        kind = kinds[ni]
        if kind != 0:  # leaf
            if track is not None:
                track(page_ids[ni], True)
            leaves += 1
            if trace is not None:
                trace.enter(depth, page_ids[ni], True, md)
            objects += e - s
            points_mode = kind == 2
            for i in range(s, e):
                d = 0.0
                if points_mode:
                    for j in range(dim):
                        t = q[j] - coords[base + j]
                        d += t * t
                else:
                    for j in range(dim):
                        p = q[j]
                        lo = coords[base + j]
                        if p < lo:
                            t = lo - p
                            d += t * t
                        else:
                            hi = coords[base + dim + j]
                            if p > hi:
                                t = p - hi
                                d += t * t
                base += twodim
                if d < worst:
                    counter += 1
                    heapreplace(heap, (-d, counter, i))
                    worst = -heap[0][0]
                    if trace is not None:
                        trace.accept(depth, d)
            if trace is not None:
                trace.exit(depth, page_ids[ni])
            continue
        # Internal node.
        if track is not None:
            track(page_ids[ni], False)
        internals += 1
        if trace is not None:
            trace.enter(depth, page_ids[ni], False, md)
        branch_total += e - s
        abl = []
        append = abl.append
        min_minmax = _INF
        for i in range(s, e):
            d = 0.0
            for j in range(dim):
                p = q[j]
                lo = coords[base + j]
                if p < lo:
                    t = lo - p
                    d += t * t
                else:
                    hi = coords[base + dim + j]
                    if p > hi:
                        t = p - hi
                        d += t * t
            if need_minmax:
                # Mirror of metrics._minmaxdist_sq_unchecked: per-axis
                # near/far terms, then direct axis-order candidate sums
                # (the shared-sum trick cancels catastrophically).
                near_terms = []
                far_terms = []
                for j in range(dim):
                    p = q[j]
                    lo = coords[base + j]
                    hi = coords[base + dim + j]
                    mid = (lo + hi) / 2.0
                    t = p - (lo if p <= mid else hi)
                    near_terms.append(t * t)
                    t = p - (lo if p >= mid else hi)
                    far_terms.append(t * t)
                mmd = _INF
                for ax in range(dim):
                    candidate = 0.0
                    for j in range(dim):
                        candidate += (
                            near_terms[j] if j == ax else far_terms[j]
                        )
                    if candidate < mmd:
                        mmd = candidate
                if mmd < min_minmax:
                    min_minmax = mmd
            else:
                mmd = _INF
            base += twodim
            append((mmd if by_minmax else d, d, refs[i]))

        if use_p2 and min_minmax < minmax_bound:
            minmax_bound = min_minmax
            p2 += 1
            if trace is not None:
                trace.bound(depth, min_minmax)
        if use_p1 and abl:
            p1_bound = min_minmax * slack
            kept = []
            for b in abl:
                if b[1] <= p1_bound:
                    kept.append(b)
                else:
                    p1 += 1
                    if trace is not None:
                        trace.prune(
                            "p1", depth + 1, page_ids[b[2]], b[1], min_minmax
                        )
            abl = kept
        abl.sort(key=_key0)
        child_depth = depth + 1
        for j in range(len(abl) - 1, -1, -1):
            b = abl[j]
            stack.append((b[1], b[2], child_depth))
        if trace is not None:
            trace.exit(depth, page_ids[ni])

    stats.nodes_accessed = leaves + internals
    stats.leaf_accesses = leaves
    stats.internal_accesses = internals
    stats.objects_examined = objects
    stats.branch_entries_considered = branch_total
    stats.pruning.p1_pruned = p1
    stats.pruning.p2_bound_updates = p2
    stats.pruning.p3_pruned = p3
    return heap, frontier


# ----------------------------------------------------------------------
# Best-first kernels
# ----------------------------------------------------------------------

def _best_first_2d(
    ptree: PackedTree,
    px: float,
    py: float,
    k: int,
    shrink_sq: float,
    tracker: Optional[AccessTracker],
    stats: SearchStats,
) -> List[tuple]:
    """2-D best-first search over the slabs (global MINDIST order)."""
    kinds = ptree.kinds
    starts = ptree.starts
    refs = ptree.refs
    coords = ptree.coords
    page_ids = ptree.page_ids
    track = tracker.access if tracker is not None else None

    heap: List[tuple] = [_SENTINEL] * k
    worst = _INF
    counter = 0
    leaves = internals = objects = branch_total = p3 = 0
    ncounter = 0
    nheap: List[tuple] = [(0.0, 0, 0)]
    while nheap:
        key_sq, _tie, ni = heappop(nheap)
        if key_sq >= worst * shrink_sq:
            break
        s = starts[ni]
        e = starts[ni + 1]
        base = s * 4
        kind = kinds[ni]
        if kind != 0:  # leaf
            if track is not None:
                track(page_ids[ni], True)
            leaves += 1
            objects += e - s
            points_mode = kind == 2
            for i in range(s, e):
                if points_mode:
                    t = px - coords[base]
                    d = t * t
                    t = py - coords[base + 1]
                    d += t * t
                else:
                    lo = coords[base]
                    hi = coords[base + 2]
                    d = 0.0
                    if px < lo:
                        t = lo - px
                        d = t * t
                    elif px > hi:
                        t = px - hi
                        d = t * t
                    lo = coords[base + 1]
                    hi = coords[base + 3]
                    if py < lo:
                        t = lo - py
                        d += t * t
                    elif py > hi:
                        t = py - hi
                        d += t * t
                base += 4
                if d < worst:
                    counter += 1
                    heapreplace(heap, (-d, counter, i))
                    worst = -heap[0][0]
            continue
        if track is not None:
            track(page_ids[ni], False)
        internals += 1
        branch_total += e - s
        for i in range(s, e):
            lo = coords[base]
            hi = coords[base + 2]
            d = 0.0
            if px < lo:
                t = lo - px
                d = t * t
            elif px > hi:
                t = px - hi
                d = t * t
            lo = coords[base + 1]
            hi = coords[base + 3]
            if py < lo:
                t = lo - py
                d += t * t
            elif py > hi:
                t = py - hi
                d += t * t
            base += 4
            if d < worst * shrink_sq:
                ncounter += 1
                heappush(nheap, (d, ncounter, refs[i]))
            else:
                p3 += 1

    stats.nodes_accessed = leaves + internals
    stats.leaf_accesses = leaves
    stats.internal_accesses = internals
    stats.objects_examined = objects
    stats.branch_entries_considered = branch_total
    stats.pruning.p3_pruned = p3
    return heap


def _best_first_general(
    ptree: PackedTree,
    query: Sequence[float],
    k: int,
    shrink_sq: float,
    tracker: Optional[AccessTracker],
    stats: SearchStats,
    clock: Optional[BudgetClock],
    trace: Optional["Trace"],
) -> Tuple[List[tuple], float]:
    """Any-dimension best-first search, instrumented like
    :func:`_dfs_general`.  The budget check sits after the worst-bound
    break test, matching the object kernel; on refusal the frontier is
    the popped key — the heap minimum, which lower-bounds everything
    still pending.  Iterative, so exit events are elided like the object
    best-first kernel's.
    """
    kinds = ptree.kinds
    starts = ptree.starts
    refs = ptree.refs
    coords = ptree.coords
    page_ids = ptree.page_ids
    track = tracker.access if tracker is not None else None
    dim = ptree.dimension
    twodim = 2 * dim
    q = tuple(query)
    charge = clock.charge if clock is not None else None

    heap: List[tuple] = [_SENTINEL] * k
    worst = _INF
    counter = 0
    leaves = internals = objects = branch_total = p3 = 0
    frontier = _INF
    ncounter = 0
    nheap: List[tuple] = [(0.0, 0, 0, 0)]  # (key_sq, tie, node_index, depth)
    while nheap:
        key_sq, _tie, ni, depth = heappop(nheap)
        if key_sq >= worst * shrink_sq:
            break
        if charge is not None and charge():
            frontier = key_sq
            break
        s = starts[ni]
        e = starts[ni + 1]
        base = s * twodim
        kind = kinds[ni]
        if kind != 0:  # leaf
            if track is not None:
                track(page_ids[ni], True)
            leaves += 1
            if trace is not None:
                trace.enter(depth, page_ids[ni], True, key_sq)
            objects += e - s
            points_mode = kind == 2
            for i in range(s, e):
                d = 0.0
                if points_mode:
                    for j in range(dim):
                        t = q[j] - coords[base + j]
                        d += t * t
                else:
                    for j in range(dim):
                        p = q[j]
                        lo = coords[base + j]
                        if p < lo:
                            t = lo - p
                            d += t * t
                        else:
                            hi = coords[base + dim + j]
                            if p > hi:
                                t = p - hi
                                d += t * t
                base += twodim
                if d < worst:
                    counter += 1
                    heapreplace(heap, (-d, counter, i))
                    worst = -heap[0][0]
                    if trace is not None:
                        trace.accept(depth, d)
            continue
        if track is not None:
            track(page_ids[ni], False)
        internals += 1
        if trace is not None:
            trace.enter(depth, page_ids[ni], False, key_sq)
        branch_total += e - s
        child_depth = depth + 1
        for i in range(s, e):
            d = 0.0
            for j in range(dim):
                p = q[j]
                lo = coords[base + j]
                if p < lo:
                    t = lo - p
                    d += t * t
                else:
                    hi = coords[base + dim + j]
                    if p > hi:
                        t = p - hi
                        d += t * t
            base += twodim
            if d < worst * shrink_sq:
                ncounter += 1
                heappush(nheap, (d, ncounter, refs[i], child_depth))
            else:
                p3 += 1
                if trace is not None:
                    trace.prune(
                        "p3", child_depth, page_ids[refs[i]], d,
                        worst * shrink_sq,
                    )

    stats.nodes_accessed = leaves + internals
    stats.leaf_accesses = leaves
    stats.internal_accesses = internals
    stats.objects_examined = objects
    stats.branch_entries_considered = branch_total
    stats.pruning.p3_pruned = p3
    return heap, frontier
