"""Multi-query best-first kernel over one :class:`PackedTree` traversal.

:func:`packed_nearest_batch` answers a whole *window* of k-NN queries in
one pass over the packed slabs.  Each query keeps its own candidate
buffer, its own d_k bound and its own best-first frontier — but whenever
several live queries want the same node in the same round, the squared
MINDIST of that node's entries is computed against *all* of them in a
single strided pass over the coordinate slabs: one ``(queries x
entries)`` distance block per node instead of one python-level float
loop per query per entry.

With numpy importable (``pip install repro[fast]``) the strided pass is
a vectorized broadcast over a cached zero-copy ``float64`` view of the
coordinate slab; without it, a pure-python fallback slices the slabs
once per node group and walks them with the same ``array``/``zip``
loops the solo kernels use.  **The fallback is the canonical
reference** — numpy is strictly optional, and both paths are
bit-identical (see *Exactness* below).

Exactness contract
------------------

For every query in the window, the returned neighbors (payloads, rects,
distances, tie order) and the per-query :class:`SearchStats` are
**bit-for-bit equal** to running :func:`packed_nearest_best_first` on
that query alone.  Two design rules deliver that:

- **Per-query agendas, lockstep rounds.**  A single shared frontier
  cannot be exact: tie-break counters and P3 accounting depend on the
  order *each* query visits nodes, and one global order cannot restrict
  to every query's own ascending-MINDIST order.  Instead each query
  advances its own frontier exactly as the solo kernel would — one pop
  per round, same admission test, same push order — and the batch only
  shares the *distance arithmetic* of queries that happen to pop the
  same node in the same round.  A query's sequence of heap operations
  is therefore literally the solo kernel's sequence.
- **IEEE-identical distance evaluation.**  The numpy pass computes
  each axis term in clip form — the offset of ``min(max(p, lo), hi)``
  from ``p``, squared — which is bit-identical to the solo kernels'
  branchy clamp (see :func:`_block_np`), and axes are accumulated with
  an explicit python loop in axis order (never ``np.sum``, whose
  pairwise reduction reorders the additions).  Distance rows are
  converted back to python floats before any heap sees them, so even
  the *types* in the heaps match the solo kernel.

Two further refinements keep the vectorized path fast without touching
the contract: per-query bounds are applied as C-side vector compares
whose survivors are re-checked by the canonical python accept loop
(sound because a query's bound only ever tightens), and bulk node
admissions enter the frontier as single *sorted runs* that a k-way
merge exposes one head at a time — pops still yield the frontier
multiset's unique total order (tie counters are distinct), but the
per-child heap tuples of never-visited nodes are never built.

A node is descended when *any* live query's P3 test admits it — that is
what forming a round group means — and each query whose own bound
prunes one of the node's children masks that child out of its frontier
(and counts it P3-pruned) exactly as it would alone, so the any-query
descent never leaks extra work into a query's own accounting.

Budgets and traces are per-query machinery with order-dependent
side-effects, so :func:`run_packed_batch` routes configs carrying them
(and every non-best-first algorithm) through the solo kernels
per-query; the batched fast path covers the serving sweet spot the
front-door coalescer produces: same-config best-first windows.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heapreplace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import QueryConfig
from repro.core.neighbors import Neighbor
from repro.core.query import NNResult
from repro.core.stats import SearchStats
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.point import as_point
from repro.packed.kernels import (
    _SENTINEL,
    _check_k_epsilon,
    _heap_to_neighbors,
    run_packed_query,
)
from repro.packed.layout import PackedTree
from repro.storage.tracker import AccessTracker

try:  # numpy is strictly optional: the `repro[fast]` extra.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "NUMPY_AVAILABLE",
    "packed_nearest_batch",
    "run_packed_batch",
]

#: True when the vectorized strided pass is importable.  The kernels are
#: bit-identical either way; this only decides which one runs by default.
NUMPY_AVAILABLE = _np is not None

_INF = math.inf

#: Minimum ``len(group) * entries`` before the numpy pass is worth its
#: per-call dispatch overhead; smaller blocks take the python loops.
#: Purely a performance heuristic — both paths yield identical rows.
_VECTOR_MIN_CELLS = 32

#: Bulk-admit crossover: admits of at least this many children enter the
#: frontier as one sorted *run* (see the run scheme in
#: :func:`packed_nearest_batch`) instead of per-child ``heappush``es.
#: Either way pops yield the frontier multiset's unique total order (tie
#: counters are distinct), so this is purely a constant-factor knob.
_RUN_MIN = 8


class _Agenda:
    """One query's private search state inside a batch."""

    __slots__ = (
        "q", "heap", "worst", "counter", "nheap", "ncounter",
        "leaves", "internals", "objects", "branch", "p3", "stats",
    )

    def __init__(self, q: Tuple[float, ...], k: int, stats: SearchStats) -> None:
        self.q = q
        self.heap: List[tuple] = [_SENTINEL] * k
        self.worst = _INF
        self.counter = 0
        self.nheap: List[tuple] = [(0.0, 0, 0)]
        self.ncounter = 0
        self.leaves = 0
        self.internals = 0
        self.objects = 0
        self.branch = 0
        self.p3 = 0
        self.stats = stats


def _np_views(ptree: PackedTree) -> tuple:
    """Cached zero-copy numpy views of the slabs.

    2-D trees expose the four contiguous component mirrors plus a refs
    view — contiguous columns keep every ufunc on a unit-stride buffer,
    which is the difference between memory-bandwidth speed and stride-4
    gather speed on the hot path.  n-D trees expose the ``(entries,
    2*dim)`` coords matrix (columns are strided, but n-D is the rare
    case) plus the refs view.  The tuple's length distinguishes the two
    shapes.
    """
    views = ptree._np_coords
    if views is None:
        # np.asarray honors the buffer protocol zero-copy for both the
        # in-process ``array('d')`` slabs and the shared-memory
        # ``memoryview`` slabs workers attach (whose 2-D mirrors are
        # *strided* views ``np.frombuffer`` would reject).
        refs_np = _np.asarray(ptree.refs)
        starts_np = _np.asarray(ptree.starts)
        max_count = (
            int(_np.diff(starts_np).max()) if len(starts_np) > 1 else 0
        )
        if ptree.dimension == 2:
            cols = (
                _np.asarray(ptree.xlo),
                _np.asarray(ptree.ylo),
                _np.asarray(ptree.xhi),
                _np.asarray(ptree.yhi),
            )
        else:
            twodim = 2 * ptree.dimension
            matrix = _np.asarray(ptree.coords)
            cols = matrix.reshape(len(matrix) // twodim, twodim)
        views = (cols, refs_np, max_count)
        ptree._np_coords = views
    return views


def _block_np(
    views: tuple, scratch: tuple, s: int, e: int, dim: int,
    group: List[_Agenda], points_mode: bool,
) -> Any:
    """Vectorized ``(group x entries)`` squared-distance block.

    MINDIST per axis is computed in *clip form*: the nearest in-interval
    coordinate is ``min(max(p, lo), hi)`` and the axis term is its
    offset from ``p``, squared.  That is bit-identical to the solo
    kernels' branchy clamp — below the interval the offset is ``lo - p``
    exactly; above it is ``hi - p``, the IEEE-exact negation of
    ``p - hi``, and squaring erases the sign; inside it is ``p - p ==
    +0.0`` — while using one fewer vector op per axis than the
    two-sided ``max(lo - p, 0) + max(p - hi, 0)`` form.  Axes accumulate
    in an explicit axis-order loop (never ``np.sum``, whose pairwise
    reduction reorders the additions).  Values stay ``float64`` arrays
    here; the apply loops convert the few surviving entries to python
    floats before any heap sees them.

    Returns a 1-D ``(entries,)`` array for singleton groups (the common
    case once traversals diverge — scalar broadcasting skips the point-
    matrix build) and a 2-D ``(group, entries)`` array otherwise.
    """
    cols = views[0]
    if type(cols) is tuple:  # 2-D component mirrors
        xlo = cols[0][s:e]
        ylo = cols[1][s:e]
        if len(group) == 1:
            # Singleton group (the common case once traversals have
            # diverged): scalar broadcasting into preallocated scratch
            # — zero heap allocations on the per-node hot path.
            px, py = group[0].q
            count = e - s
            t = scratch[0][:count]
            acc = scratch[1][:count]
            if points_mode:
                _np.subtract(px, xlo, out=t)
                _np.multiply(t, t, out=acc)
                _np.subtract(py, ylo, out=t)
            else:
                xhi = cols[2][s:e]
                yhi = cols[3][s:e]
                _np.maximum(px, xlo, out=t)
                _np.minimum(t, xhi, out=t)
                t -= px
                _np.multiply(t, t, out=acc)
                _np.maximum(py, ylo, out=t)
                _np.minimum(t, yhi, out=t)
                t -= py
            _np.multiply(t, t, out=t)
            acc += t
            return acc
        qx = _np.array([a.q[0] for a in group])[:, None]
        qy = _np.array([a.q[1] for a in group])[:, None]
        if points_mode:
            t = qx - xlo
            acc = t * t
            t = qy - ylo
            acc += t * t
        else:
            t = _np.minimum(_np.maximum(qx, xlo), cols[2][s:e])
            t -= qx
            acc = t * t
            t = _np.minimum(_np.maximum(qy, ylo), cols[3][s:e])
            t -= qy
            acc += t * t
        return acc
    block = cols[s:e]
    if len(group) == 1:
        q = group[0].q
        if points_mode:
            t = q[0] - block[:, 0]
            acc = t * t
            for j in range(1, dim):
                t = q[j] - block[:, j]
                acc += t * t
        else:
            t = _np.minimum(_np.maximum(q[0], block[:, 0]), block[:, dim])
            t -= q[0]
            acc = t * t
            for j in range(1, dim):
                t = _np.minimum(
                    _np.maximum(q[j], block[:, j]), block[:, dim + j]
                )
                t -= q[j]
                acc += t * t
        return acc
    pts = _np.array([a.q for a in group], dtype=_np.float64)
    if points_mode:
        t = pts[:, 0][:, None] - block[:, 0]
        acc = t * t
        for j in range(1, dim):
            t = pts[:, j][:, None] - block[:, j]
            acc += t * t
    else:
        qj = pts[:, 0][:, None]
        t = _np.minimum(_np.maximum(qj, block[:, 0]), block[:, dim])
        t -= qj
        acc = t * t
        for j in range(1, dim):
            qj = pts[:, j][:, None]
            t = _np.minimum(
                _np.maximum(qj, block[:, j]), block[:, dim + j]
            )
            t -= qj
            acc += t * t
    return acc


def _rows_py(
    ptree: PackedTree, s: int, e: int, group: List[_Agenda],
    points_mode: bool,
) -> List[List[float]]:
    """Pure-python strided pass: slice the slabs once, walk per query.

    The canonical reference for :func:`_block_np`.  The 2-D component
    mirrors are sliced one time per node *group* (a straight memcpy)
    and every group member zips over the shared slices; n-D strides
    ``coords`` with the exact per-axis branch order of the solo kernels.
    """
    dim = ptree.dimension
    rows: List[List[float]] = []
    if dim == 2:
        xlo = ptree.xlo[s:e]
        ylo = ptree.ylo[s:e]
        if points_mode:
            for a in group:
                px, py = a.q
                row = []
                append = row.append
                for x, y in zip(xlo, ylo):
                    t = px - x
                    d = t * t
                    t = py - y
                    d += t * t
                    append(d)
                rows.append(row)
        else:
            xhi = ptree.xhi[s:e]
            yhi = ptree.yhi[s:e]
            for a in group:
                px, py = a.q
                row = []
                append = row.append
                for lo, hi, lo2, hi2 in zip(xlo, xhi, ylo, yhi):
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
                    append(d)
                rows.append(row)
        return rows
    coords = ptree.coords
    twodim = 2 * dim
    start_base = s * twodim
    for a in group:
        q = a.q
        row = []
        append = row.append
        base = start_base
        if points_mode:
            for _ in range(s, e):
                d = 0.0
                for j in range(dim):
                    t = q[j] - coords[base + j]
                    d += t * t
                base += twodim
                append(d)
        else:
            for _ in range(s, e):
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
                append(d)
        rows.append(row)
    return rows


def packed_nearest_batch(
    ptree: PackedTree,
    points: Sequence[Sequence[float]],
    k: int = 1,
    tracker: Optional[AccessTracker] = None,
    epsilon: float = 0.0,
    vectorize: Optional[bool] = None,
) -> List[Tuple[List[Neighbor], SearchStats]]:
    """Answer every query in *points* with one shared slab traversal.

    Returns one ``(neighbors, stats)`` pair per point, in order — each
    bit-for-bit equal to ``packed_nearest_best_first(ptree, point, k=k,
    epsilon=epsilon)`` run alone.

    Args:
        ptree: The packed snapshot to search.
        points: The query window; any length (an empty window returns
            an empty list, a singleton degenerates to the solo walk).
        k: Neighbors per query (shared by the window, like the
            coalescer's same-config grouping).
        tracker: Optional shared :class:`AccessTracker`.  Every query
            records the same accesses it would record alone, but the
            rounds interleave them across the window — a per-query
            sequential replay sees the same multiset of ``(page,
            is_leaf)`` events in a different order.
        epsilon: Approximation slack, as in the solo kernel.
        vectorize: ``None`` (default) uses numpy when importable;
            ``False`` forces the pure-python fallback (the audit runs
            both); ``True`` requires numpy and raises
            :class:`InvalidParameterError` without it.
    """
    queries = [as_point(p) for p in points]
    _check_k_epsilon(k, epsilon)
    if vectorize and _np is None:
        raise InvalidParameterError(
            "vectorize=True requires numpy; install the repro[fast] "
            "extra or pass vectorize=None/False for the fallback path"
        )
    use_np = NUMPY_AVAILABLE if vectorize is None else bool(vectorize)
    # Compile-time corrupt-page skips degrade every query on the
    # snapshot; see packed_nearest_dfs.
    skipped = ptree.pages_skipped_corrupt
    if ptree.size == 0:
        return [([], SearchStats(pages_skipped_corrupt=skipped)) for _ in queries]
    dim = ptree.dimension
    for q in queries:
        if dim != len(q):
            raise DimensionMismatchError(dim, len(q), "query point")

    # No more than ``size`` objects can be offered, so the smaller heap
    # behaves exactly like a ``k``-slot one (see kernels._begin_query).
    slots = min(k, ptree.size)
    agendas = [
        _Agenda(q, slots, SearchStats(pages_skipped_corrupt=skipped))
        for q in queries
    ]
    _advance(ptree, agendas, 1.0 / (1.0 + epsilon) ** 2, tracker, use_np)
    return [(_heap_to_neighbors(ptree, a.heap), a.stats) for a in agendas]


def _window_of_one(
    ptree: PackedTree, query: Tuple[float, ...], slots: int, shrink_sq: float,
    tracker: Optional[AccessTracker], stats: SearchStats,
) -> List[tuple]:
    """The block as a solo loop (``_best_first_2d``'s arguments and heap)."""
    agenda = _Agenda(query, slots, stats)
    _advance(ptree, [agenda], shrink_sq, tracker, True)
    return agenda.heap


def _advance(
    ptree: PackedTree, agendas: List[_Agenda], shrink_sq: float,
    tracker: Optional[AccessTracker], use_np: bool,
) -> None:
    """Run every agenda to completion in lockstep rounds; fill its stats."""
    dim = ptree.dimension
    kinds = ptree.kinds
    starts = ptree.starts
    refs = ptree.refs
    page_ids = ptree.page_ids
    track = tracker.access if tracker is not None else None
    if use_np:
        views = _np_views(ptree)
        refs_np = views[1]
        max_count = views[2]
        # Per-call scratch (never per-tree: a PackedTree is shared
        # across threads, its views are read-only).
        scratch = (_np.empty(max_count), _np.empty(max_count))
    else:
        views = refs_np = scratch = None

    live = agendas
    while live:
        # One round: each live query pops the head of its own frontier
        # under the solo kernel's loop conditions; queries landing on
        # the same node share one strided distance pass below.
        groups: Dict[int, List[_Agenda]] = {}
        order: List[int] = []
        advancing: List[_Agenda] = []
        for a in live:
            nheap = a.nheap
            if not nheap:
                continue  # solo: while-loop exit (frontier exhausted)
            item = heappop(nheap)
            key_sq = item[0]
            if key_sq >= a.worst * shrink_sq:
                continue  # solo: the best-first termination break
            ni = item[2]
            if len(item) != 3:
                # Run head popped: expose the run's next element.  Runs
                # are sorted, so every unexposed element is >= the head
                # and the k-way-merge invariant (the global minimum is
                # always some exposed head) holds.
                pos = item[6] + 1
                ds = item[3]
                if pos < len(ds):
                    ncs = item[4]
                    rs = item[5]
                    heappush(
                        nheap,
                        (ds[pos], ncs[pos], rs[pos], ds, ncs, rs, pos),
                    )
            group = groups.get(ni)
            if group is None:
                groups[ni] = group = []
                order.append(ni)
            group.append(a)
            advancing.append(a)
        live = advancing
        for ni in order:
            group = groups[ni]
            s = starts[ni]
            e = starts[ni + 1]
            kind = kinds[ni]
            count = e - s
            points_mode = kind == 2
            page = page_ids[ni]
            if use_np and len(group) * count >= _VECTOR_MIN_CELLS:
                # Vectorized: one distance block for the whole group,
                # then a C-side compare keeps the python loops to the
                # handful of entries that survive each query's bound.
                acc = _block_np(
                    views, scratch, s, e, dim, group, points_mode
                )
                rows = (acc,) if len(group) == 1 else acc
                if kind != 0:  # leaf (points or rects)
                    for arr, a in zip(rows, group):
                        if track is not None:
                            track(page, True)
                        worst = a.worst
                        heap = a.heap
                        counter = a.counter
                        j = 0
                        if worst == _INF:
                            # Warm-up: while a sentinel keeps the bound
                            # at +inf every entry is an unconditional
                            # accept — exactly the solo sequence, just
                            # without the always-true compare.
                            dlist = arr.tolist()
                            while j < count:
                                counter += 1
                                heapreplace(
                                    heap, (-dlist[j], counter, s + j)
                                )
                                worst = -heap[0][0]
                                j += 1
                                if worst != _INF:
                                    break
                        if j < count:
                            # Entries at/above the bound *now* can only
                            # be rejected later too (the bound only
                            # tightens), so skipping them changes
                            # nothing — the accept loop below still
                            # re-checks the live bound.
                            rest = arr[j:] if j else arr
                            idx = (rest < worst).nonzero()[0]
                            if idx.size:
                                for i, d in zip(
                                    (idx + (s + j)).tolist(),
                                    rest[idx].tolist(),
                                ):
                                    if d < worst:
                                        counter += 1
                                        heapreplace(heap, (-d, counter, i))
                                        worst = -heap[0][0]
                        a.worst = worst
                        a.counter = counter
                        a.leaves += 1
                        a.objects += count
                else:  # internal: admit or P3-prune each child
                    for arr, a in zip(rows, group):
                        if track is not None:
                            track(page, False)
                        # worst cannot change while scanning an internal
                        # node, so the solo kernel's per-entry product
                        # is one loop-invariant float — and the whole
                        # admit/prune split is one vector compare.
                        bound = a.worst * shrink_sq
                        if bound == _INF:
                            adm_d = arr
                            adm_r = refs_np[s:e]
                        else:
                            idx = (arr < bound).nonzero()[0]
                            a.p3 += count - idx.size
                            if idx.size == count:
                                adm_d = arr
                                adm_r = refs_np[s:e]
                            elif idx.size:
                                adm_d = arr[idx]
                                adm_r = refs_np[s:e][idx]
                            else:
                                adm_d = None
                        if adm_d is not None:
                            ncounter = a.ncounter
                            admitted = len(adm_d)
                            if admitted >= _RUN_MIN:
                                # Bulk admit as one sorted run: a stable
                                # argsort orders ties by entry order,
                                # i.e. by ascending tie counter — the
                                # run yields exactly the (d, counter)
                                # order per-child pushes would.  Most of
                                # these children are never popped, so
                                # the per-child tuples are never built.
                                order_ = adm_d.argsort(kind="stable")
                                ds = adm_d[order_].tolist()
                                ncs = (order_ + (ncounter + 1)).tolist()
                                rs = adm_r[order_].tolist()
                                heappush(
                                    a.nheap,
                                    (ds[0], ncs[0], rs[0], ds, ncs, rs, 0),
                                )
                                a.ncounter = ncounter + admitted
                            else:
                                nheap = a.nheap
                                for d, r in zip(
                                    adm_d.tolist(), adm_r.tolist()
                                ):
                                    ncounter += 1
                                    heappush(nheap, (d, ncounter, r))
                                a.ncounter = ncounter
                        a.internals += 1
                        a.branch += count
                continue
            rows = _rows_py(ptree, s, e, group, points_mode)
            if kind != 0:  # leaf (points or rects)
                for a, row in zip(group, rows):
                    if track is not None:
                        track(page, True)
                    heap = a.heap
                    worst = a.worst
                    counter = a.counter
                    i = s
                    for d in row:
                        if d < worst:
                            counter += 1
                            heapreplace(heap, (-d, counter, i))
                            worst = -heap[0][0]
                        i += 1
                    a.worst = worst
                    a.counter = counter
                    a.leaves += 1
                    a.objects += count
            else:  # internal: admit or P3-prune each child per query
                for a, row in zip(group, rows):
                    if track is not None:
                        track(page, False)
                    nheap = a.nheap
                    ncounter = a.ncounter
                    p3 = a.p3
                    # worst cannot change while scanning an internal
                    # node, so the solo kernel's per-entry product is
                    # one loop-invariant float here.
                    bound = a.worst * shrink_sq
                    i = s
                    for d in row:
                        if d < bound:
                            ncounter += 1
                            heappush(nheap, (d, ncounter, refs[i]))
                        else:
                            p3 += 1
                        i += 1
                    a.ncounter = ncounter
                    a.p3 = p3
                    a.internals += 1
                    a.branch += count

    for a in agendas:
        stats = a.stats
        stats.nodes_accessed = a.leaves + a.internals
        stats.leaf_accesses = a.leaves
        stats.internal_accesses = a.internals
        stats.objects_examined = a.objects
        stats.branch_entries_considered = a.branch
        stats.pruning.p3_pruned = a.p3


def run_packed_batch(
    ptree: PackedTree,
    points: Sequence[Sequence[float]],
    cfg: QueryConfig,
    tracker: Optional[AccessTracker] = None,
    vectorize: Optional[bool] = None,
) -> List[NNResult]:
    """Dispatch one same-config window to the packed kernels.

    The batch mirror of :func:`run_packed_query`: windows of two or
    more under a best-first config without a budget take the multi-query
    kernel above; a window of one (which that kernel's selection may
    still send to the numpy block) and every other config (DFS orderings,
    budgets — whose wall-clock truncation points are inherently
    per-query) go through :func:`run_packed_query`, so callers can route
    *any* window here safely.  Raises
    :class:`InvalidParameterError` for ``object_distance_sq`` configs,
    exactly like the solo dispatcher.
    """
    if cfg.object_distance_sq is not None:
        raise InvalidParameterError(
            "packed kernels do not support object_distance_sq; "
            "run this query through the object-graph kernels"
        )
    if len(points) > 1 and cfg.algorithm == "best-first" and cfg.budget is None:
        pairs = packed_nearest_batch(
            ptree,
            points,
            k=cfg.k,
            tracker=tracker,
            epsilon=cfg.epsilon,
            vectorize=vectorize,
        )
        return [
            NNResult(neighbors=neighbors, stats=stats)
            for neighbors, stats in pairs
        ]
    return [run_packed_query(ptree, p, cfg, tracker) for p in points]
