"""The paper's ordered depth-first branch-and-bound k-NN search.

This is the algorithm of Sections 4-5 of Roussopoulos, Kelley & Vincent
(SIGMOD 1995), generalized to k neighbors exactly as the paper describes:

1. Visit a node.  If it is a leaf, compute the actual distance to every
   object and offer each to the candidate buffer.
2. Otherwise generate the *Active Branch List* (ABL): every child entry,
   annotated with its MINDIST (and, when needed, MINMAXDIST) from the query
   point, sorted by the chosen *ordering* metric.
3. Apply the downward prunes (P1 and the P2 bound update) to the ABL.
4. Recurse into the surviving branches in ABL order, re-checking each
   branch against the current k-th-nearest bound (P3) just before
   descending — the bound tightens as earlier siblings return.

The *ordering* choice ("mindist" vs "minmaxdist") is the subject of the
paper's first experiment: MINDIST ordering is optimistic and usually visits
fewer pages; MINMAXDIST ordering is pessimistic.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.trace import Trace

from repro.core.budget import Budget, BudgetClock, finish_truncated
from repro.core.metrics import _mindist_sq_unchecked, _minmaxdist_sq_unchecked
from repro.core.neighbors import Neighbor, NeighborBuffer
from repro.core.pruning import PruningConfig
from repro.core.stats import SearchStats
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.point import Point, as_point
from repro.geometry.rect import Rect
from repro.rtree.node import Node
from repro.rtree.tree import RTree
from repro.storage.tracker import AccessTracker

__all__ = ["nearest_dfs", "ObjectDistance", "PruneEvent"]

#: Optional hook computing the *squared* distance from the query point to an
#: actual object (e.g. a line segment).  It must never return less than the
#: squared MINDIST to the object's MBR, or pruning becomes unsound.
ObjectDistance = Callable[[Point, Any, Rect], float]

#: Optional audit instrumentation, called once per pruning decision:
#: ``callback("p1"|"p3", pruned_child_node, mindist_sq)`` for a discarded
#: branch, ``callback("p2", None, minmax_bound_sq)`` for a P2 bound
#: tightening.  Used by :mod:`repro.audit.soundness` to exhaustively
#: re-scan every pruned subtree and certify no true neighbor was dropped.
PruneEvent = Callable[[str, Optional[Node], float], None]

_VALID_ORDERINGS = ("mindist", "minmaxdist")

#: Relative slack on prune comparisons.  MINDIST/MINMAXDIST values reaching
#: a comparison were computed along different floating-point paths; on exact
#: geometric ties they can disagree by a few ulps, and pruning on such a
#: phantom difference would drop a legitimate neighbor.  Widening the bound
#: by one part in 10^12 can only make pruning *less* aggressive, so results
#: stay exact at the cost of (at most) a page or two on pathological ties.
_PRUNE_SLACK = 1.0 + 1e-12


def _check_epsilon(epsilon: float) -> None:
    """Reject a negative or non-finite approximation slack.

    The one epsilon rule for every door (``QueryConfig``, the object and
    packed entry points).  NaN fails every bound comparison and ``inf``
    shrinks the k-th-candidate bound to ``inf * 0``, so best-first would
    stop after one page with no neighbors and no error.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise InvalidParameterError(
            f"epsilon must be finite and >= 0, got {epsilon}"
        )


def _set_prune_slack(value: float) -> float:
    """TEST-ONLY seam: replace the prune slack; returns the previous value.

    The audit subsystem (``python -m repro.audit --demo-broken-prune``)
    injects a slack *below* 1.0 here, which makes P1/P3 prune branches
    they must keep — a deliberately unsound search — and then verifies
    that the differential oracle catches the planted bug and shrinks it
    to a minimal repro.  Production code must never call this.
    """
    global _PRUNE_SLACK
    previous = _PRUNE_SLACK
    _PRUNE_SLACK = value
    return previous


def nearest_dfs(
    tree: RTree,
    point: Sequence[float],
    k: int = 1,
    ordering: str = "mindist",
    pruning: Optional[PruningConfig] = None,
    tracker: Optional[AccessTracker] = None,
    object_distance_sq: Optional[ObjectDistance] = None,
    epsilon: float = 0.0,
    on_prune: Optional[PruneEvent] = None,
    trace: Optional["Trace"] = None,
    budget: Optional[Budget] = None,
) -> Tuple[List[Neighbor], SearchStats]:
    """Find the *k* objects in *tree* nearest to *point*.

    Args:
        tree: The R-tree to search.
        point: Query point (dimension must match the tree's).
        k: Number of neighbors to return (fewer if the tree is smaller).
        ordering: ABL sort metric, ``"mindist"`` (default, optimistic) or
            ``"minmaxdist"`` (pessimistic) — the paper's two variants.
        pruning: Strategy toggles; defaults to everything sound for *k*.
        tracker: Page-access tracker (buffer pool or counter).
        object_distance_sq: Optional exact object distance hook (squared).
        epsilon: Approximation slack.  0 (default) gives exact results;
            ``epsilon > 0`` allows the search to skip a subtree unless it
            could improve the k-th candidate by more than a ``(1 + epsilon)``
            factor, so every returned distance is within ``(1 + epsilon)``
            of the corresponding exact one (the Arya et al. ANN guarantee,
            applied to the paper's P3 prune).
        on_prune: Audit instrumentation (see :data:`PruneEvent`); receives
            every P1/P3-discarded subtree and every P2 bound update.
            ``None`` (the default) costs nothing on the search hot path.
        trace: Optional :class:`repro.obs.Trace` recording the full event
            stream (node enter/exit, prune decisions with both bounds,
            candidate accepts).  ``None`` (the default) records nothing.
        budget: Optional :class:`~repro.core.budget.Budget` bounding the
            work of this one query.  The budget is charged once per node
            visit; on exhaustion the search unwinds, folding the MINDIST
            of every abandoned subtree into ``stats.frontier_sq``, and
            either flags the (sound-prefix) partial result
            ``truncated=True`` or raises
            :class:`~repro.errors.DeadlineExceeded` per the budget's
            ``on_exhausted`` policy.

    Returns:
        ``(neighbors, stats)`` — neighbors sorted nearest-first, and the
        per-query search statistics.
    """
    query = as_point(point)
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if ordering not in _VALID_ORDERINGS:
        raise InvalidParameterError(
            f"ordering must be one of {_VALID_ORDERINGS}, got {ordering!r}"
        )
    _check_epsilon(epsilon)
    stats = SearchStats()
    if len(tree) == 0:
        return [], stats
    if tree.dimension != len(query):
        raise DimensionMismatchError(tree.dimension, len(query), "query point")

    config = (pruning if pruning is not None else PruningConfig.all())
    config = config.effective_for_k(k)
    buffer = NeighborBuffer(k)
    search = _DfsSearch(
        query, config, ordering, buffer, stats, tracker, object_distance_sq,
        epsilon, on_prune, trace,
        clock=budget.start() if budget is not None else None,
    )
    search.root_level = tree.root.level
    search.visit(tree.root)
    if search.clock is not None and search.clock.reason:
        finish_truncated(stats, budget, search.clock.reason, search.frontier_sq)
    return buffer.to_sorted_list(), stats


class _DfsSearch:
    """State shared across the recursive traversal of one query."""

    __slots__ = (
        "query",
        "config",
        "ordering",
        "buffer",
        "stats",
        "tracker",
        "object_distance_sq",
        "minmax_bound_sq",
        "need_minmax",
        "shrink_sq",
        "on_prune",
        "trace",
        "root_level",
        "clock",
        "frontier_sq",
    )

    def __init__(
        self,
        query: Point,
        config: PruningConfig,
        ordering: str,
        buffer: NeighborBuffer,
        stats: SearchStats,
        tracker: Optional[AccessTracker],
        object_distance_sq: Optional[ObjectDistance],
        epsilon: float = 0.0,
        on_prune: Optional[PruneEvent] = None,
        trace: Optional["Trace"] = None,
        clock: Optional[BudgetClock] = None,
    ) -> None:
        self.query = query
        self.config = config
        self.ordering = ordering
        self.buffer = buffer
        self.stats = stats
        self.tracker = tracker
        self.object_distance_sq = object_distance_sq
        self.on_prune = on_prune
        self.trace = trace
        # Depth of a node is root_level - node.level (leaves have level 0);
        # set by nearest_dfs before the root visit, used only when tracing.
        self.root_level = 0
        # Smallest MINMAXDIST^2 over every MBR seen (the P2 bound): some
        # object is guaranteed to lie within this distance.
        self.minmax_bound_sq = math.inf
        self.need_minmax = (
            ordering == "minmaxdist" or config.use_p1 or config.use_p2
        )
        # Approximate search shrinks the P3 bound by (1 + eps): a subtree
        # is skipped unless it could beat the k-th candidate by more than
        # that factor, so no returned distance exceeds (1 + eps) times its
        # exact counterpart.
        self.shrink_sq = 1.0 / (1.0 + epsilon) ** 2
        # Budget state: the armed clock (None = unbounded) and the
        # running frontier bound — the smallest MINDIST^2 of any subtree
        # the budget forced the search to abandon unexplored.
        self.clock = clock
        self.frontier_sq = math.inf

    def prune_bound_sq(self) -> float:
        """Current squared pruning bound for P3 checks.

        The k-th-nearest candidate distance (shrunk by the approximation
        factor, if any), tightened by the P2 MINMAXDIST guarantee when that
        strategy is active.
        """
        bound = self.buffer.worst_distance_squared * self.shrink_sq
        if self.config.use_p2 and self.minmax_bound_sq < bound:
            return self.minmax_bound_sq
        return bound

    def visit(self, node: Node, node_md_sq: float = 0.0) -> None:
        clock = self.clock
        if clock is not None and clock.charge():
            # Budget exhausted: this subtree will not be explored.  Its
            # MINDIST lower-bounds everything inside it, so folding it
            # into the frontier keeps the truncation bound sound.
            if node_md_sq < self.frontier_sq:
                self.frontier_sq = node_md_sq
            return
        if self.tracker is not None:
            self.tracker.access(node.node_id, node.is_leaf)
        self.stats.record_node(node.is_leaf)
        trace = self.trace
        if trace is not None:
            depth = self.root_level - node.level
            trace.enter(depth, node.node_id, node.is_leaf, node_md_sq)
        if node.is_leaf:
            self._scan_leaf(node)
            if trace is not None:
                trace.exit(self.root_level - node.level, node.node_id)
            return

        branches = self._build_branch_list(node)
        use_p3 = self.config.use_p3
        branch_iter = iter(branches)
        for order_key, md_sq, _entry_child in branch_iter:
            # P3: the bound may have tightened since the ABL was built, so
            # re-check right before descending (the paper's upward prune).
            if use_p3 and md_sq > self.prune_bound_sq() * _PRUNE_SLACK:
                self.stats.pruning.p3_pruned += 1
                if self.on_prune is not None:
                    self.on_prune("p3", _entry_child, md_sq)
                if trace is not None:
                    trace.prune(
                        "p3",
                        self.root_level - _entry_child.level,
                        _entry_child.node_id,
                        md_sq,
                        self.prune_bound_sq(),
                    )
                continue
            self.visit(_entry_child, md_sq)
            if clock is not None and clock.reason:
                # Exhausted somewhere below: abandon the remaining
                # siblings, folding their MINDISTs into the frontier
                # (no P3 re-filtering here — strictly conservative).
                for _rem_key, rem_md_sq, _rem_child in branch_iter:
                    if rem_md_sq < self.frontier_sq:
                        self.frontier_sq = rem_md_sq
                break
        if trace is not None:
            trace.exit(self.root_level - node.level, node.node_id)

    def _scan_leaf(self, node: Node) -> None:
        # The query's dimension was validated against the tree's once, in
        # nearest_dfs; every rect in the tree shares it, so the per-entry
        # metric calls skip the check (the hoisted-_check_dims fast path).
        query = self.query
        hook = self.object_distance_sq
        trace = self.trace
        depth = self.root_level - node.level if trace is not None else 0
        for entry in node.entries:
            if hook is not None:
                dist_sq = hook(query, entry.payload, entry.rect)
            else:
                dist_sq = _mindist_sq_unchecked(query, entry.rect)
            self.stats.objects_examined += 1
            accepted = self.buffer.offer(dist_sq, entry.payload, entry.rect)
            if accepted and trace is not None:
                trace.accept(depth, dist_sq)

    def _build_branch_list(self, node: Node) -> List[tuple]:
        """Generate, sort and downward-prune the Active Branch List."""
        query = self.query
        need_minmax = self.need_minmax
        branches = []
        min_minmax_sq = math.inf
        for entry in node.entries:
            md_sq = _mindist_sq_unchecked(query, entry.rect)
            if need_minmax:
                mmd_sq = _minmaxdist_sq_unchecked(query, entry.rect)
                if mmd_sq < min_minmax_sq:
                    min_minmax_sq = mmd_sq
            else:
                mmd_sq = math.inf
            key = md_sq if self.ordering == "mindist" else mmd_sq
            branches.append((key, md_sq, entry.child))
        self.stats.branch_entries_considered += len(branches)

        # P2: remember the tightest MINMAXDIST guarantee seen anywhere.
        if self.config.use_p2 and min_minmax_sq < self.minmax_bound_sq:
            self.minmax_bound_sq = min_minmax_sq
            self.stats.pruning.p2_bound_updates += 1
            if self.on_prune is not None:
                self.on_prune("p2", None, min_minmax_sq)
            if self.trace is not None:
                self.trace.bound(self.root_level - node.level, min_minmax_sq)

        # P1: discard branches whose MINDIST exceeds a sibling's MINMAXDIST.
        # Comparing against the global minimum over the ABL is equivalent to
        # the pairwise rule: MINDIST(M) <= MINMAXDIST(M) always holds, so a
        # branch can never be pruned by its own MINMAXDIST.
        if self.config.use_p1 and branches:
            p1_bound = min_minmax_sq * _PRUNE_SLACK
            kept = []
            for b in branches:
                if b[1] <= p1_bound:
                    kept.append(b)
                else:
                    self.stats.pruning.p1_pruned += 1
                    if self.on_prune is not None:
                        self.on_prune("p1", b[2], b[1])
                    if self.trace is not None:
                        self.trace.prune(
                            "p1",
                            self.root_level - b[2].level,
                            b[2].node_id,
                            b[1],
                            min_minmax_sq,
                        )
            branches = kept

        branches.sort(key=lambda b: b[0])
        return branches
