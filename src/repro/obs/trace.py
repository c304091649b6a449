"""Structured per-query tracing: the event stream behind "why was it slow".

The paper argues for its algorithm through counters — pages accessed,
branches pruned — and :class:`~repro.core.stats.SearchStats` reproduces
them.  A counter, however, cannot answer *which* subtree cost the pages or
*which* bound discarded a branch.  :class:`Trace` records exactly that: a
compact, append-only event stream written by the search kernels while they
run, capturing every node visit (with its MINDIST), every P1/P2/P3 pruning
decision (with both sides of the comparison), candidate-buffer operations,
corrupt-page skips and the serving layer's cache verdicts.

Tracing is strictly opt-in.  Every kernel takes ``trace=None`` and guards
each event site with an ``is not None`` check, so the disabled path
allocates nothing and costs at most a dead branch — the packed kernels
dispatch once at entry and run the untouched hot loops when no trace is
supplied (``tests/obs/test_traced_packed.py`` pins the parity).

Event schema (tuples, first element is the event code):

========  =======================================================
code      payload
========  =======================================================
enter     ``(depth, page_id, is_leaf, mindist_sq)`` — node visit
exit      ``(depth, page_id)`` — recursive DFS only; iterative
          kernels elide exits (nesting is implied by depth)
p1        ``(depth, page_id, mindist_sq, bound_sq)`` — branch
          discarded because MINDIST exceeded a sibling MINMAXDIST
p2        ``(depth, minmax_sq)`` — the global MINMAXDIST bound
          tightened (no branch is discarded by P2 itself)
p3        ``(depth, page_id, mindist_sq, bound_sq)`` — branch
          discarded against the k-th-candidate bound
accept    ``(depth, dist_sq)`` — candidate entered the k-best
          buffer (an inlined heap push/replace in the kernels)
skips     ``(count,)`` — corrupt pages skipped during this query
cache     ``(outcome,)`` — serving layer: ``"hit"`` / ``"miss"``
========  =======================================================

Depths count from the root (0).  In the object kernels the depth is
derived from the node's level, so DFS and best-first traces share one
coordinate system; the packed kernels carry the depth on their explicit
stack.  ``prune_events()`` projects the stream onto the exact
``(kind, page_id, value)`` triples the audit's
:data:`~repro.core.knn_dfs.PruneEvent` hook receives, which is how
:mod:`repro.audit` certifies that a trace is faithful evidence of the
search it claims to describe.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Trace", "TraceNode", "build_trace_tree", "render_trace"]


class Trace:
    """Append-only event recorder for one query.

    Create one, pass it to any search entry point (``nearest(...,
    trace=t)``, ``nearest_dfs``, ``packed_nearest_dfs``,
    ``QueryEngine.query`` ...) and inspect ``events`` afterwards.  A
    ``Trace`` is single-query, single-thread state: use a fresh one per
    query (the engine's slow-query log does exactly that).
    """

    __slots__ = ("events", "request_id", "label", "meta")

    def __init__(
        self, request_id: Optional[int] = None, label: str = ""
    ) -> None:
        #: The raw event tuples, in emission order.
        self.events: List[tuple] = []
        #: Engine-assigned request id (``None`` for standalone traces).
        self.request_id = request_id
        #: Free-form caller annotation (the CLI stores the query here).
        self.label = label
        #: Query metadata (point, k, algorithm ...) set by the façade.
        self.meta: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Event emitters (called by the kernels; one append each)
    # ------------------------------------------------------------------
    def enter(
        self, depth: int, page_id: int, is_leaf: bool, mindist_sq: float
    ) -> None:
        self.events.append(
            ("enter", depth, page_id, 1 if is_leaf else 0, mindist_sq)
        )

    def exit(self, depth: int, page_id: int) -> None:
        self.events.append(("exit", depth, page_id))

    def prune(
        self,
        kind: str,
        depth: int,
        page_id: int,
        value_sq: float,
        bound_sq: float,
    ) -> None:
        """A P1/P3 decision: ``value_sq`` lost against ``bound_sq``."""
        self.events.append((kind, depth, page_id, value_sq, bound_sq))

    def bound(self, depth: int, minmax_sq: float) -> None:
        """A P2 bound tightening."""
        self.events.append(("p2", depth, minmax_sq))

    def accept(self, depth: int, dist_sq: float) -> None:
        self.events.append(("accept", depth, dist_sq))

    def skips(self, count: int) -> None:
        if count:
            self.events.append(("skips", count))

    def cache(self, outcome: str) -> None:
        self.events.append(("cache", outcome))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> Dict[str, int]:
        """Events per code — the trace's one-line summary."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event[0]] = out.get(event[0], 0) + 1
        return out

    def prune_events(self) -> List[Tuple[str, Optional[int], float]]:
        """The stream projected onto the audit hook's coordinates.

        Returns ``(kind, page_id, value_sq)`` triples in emission order —
        P2 entries carry ``None`` for the page id, exactly like the
        ``on_prune`` callback of :func:`~repro.core.knn_dfs.nearest_dfs`.
        The audit uses this to check a trace event-for-event against the
        prune decisions it certified.
        """
        out: List[Tuple[str, Optional[int], float]] = []
        for event in self.events:
            code = event[0]
            if code == "p2":
                out.append(("p2", None, event[2]))
            elif code in ("p1", "p3"):
                out.append((code, event[2], event[3]))
        return out

    def pages_entered(self) -> int:
        """Node-visit events recorded (== ``stats.nodes_accessed``)."""
        return sum(1 for event in self.events if event[0] == "enter")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: metadata plus the raw event list."""
        return {
            "request_id": self.request_id,
            "label": self.label,
            "meta": dict(self.meta),
            "events": [list(event) for event in self.events],
        }

    def to_json(self) -> str:
        """One-line JSON document (the slow-query log's trace payload)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trace":
        """Rebuild a trace parsed from :meth:`to_dict` output."""
        trace = cls(request_id=data.get("request_id"),
                    label=data.get("label", ""))
        trace.meta = dict(data.get("meta", {}))
        trace.events = [tuple(event) for event in data.get("events", [])]
        return trace

    def __repr__(self) -> str:
        return (
            f"Trace(request_id={self.request_id}, events={len(self.events)}, "
            f"pages={self.pages_entered()})"
        )


class TraceNode:
    """One visited node reconstructed from a trace's event stream."""

    __slots__ = (
        "page_id",
        "depth",
        "is_leaf",
        "mindist_sq",
        "children",
        "pruned",
        "accepts",
    )

    def __init__(
        self, page_id: int, depth: int, is_leaf: bool, mindist_sq: float
    ) -> None:
        self.page_id = page_id
        self.depth = depth
        self.is_leaf = is_leaf
        self.mindist_sq = mindist_sq
        #: Child nodes actually visited, in visit order.
        self.children: List["TraceNode"] = []
        #: ``(kind, page_id, mindist_sq, bound_sq)`` of pruned branches.
        self.pruned: List[Tuple[str, int, float, float]] = []
        #: Candidate accepts while scanning this node (leaves, mostly).
        self.accepts = 0

    def subtree_pages(self) -> int:
        """Pages (node visits) in this node's visited subtree."""
        return 1 + sum(child.subtree_pages() for child in self.children)


def build_trace_tree(trace: Trace) -> Optional[TraceNode]:
    """Reconstruct the visited tree from *trace*'s enter events.

    The parent of a node entered at depth ``d`` is the most recently
    entered node at depth ``d - 1`` — exact for depth-first traversals
    and the natural attribution for best-first ones (whose expansion
    order interleaves subtrees).  Returns ``None`` for a trace with no
    node visits.
    """
    root: Optional[TraceNode] = None
    last_at_depth: Dict[int, TraceNode] = {}
    for event in trace.events:
        code = event[0]
        if code == "enter":
            _, depth, page_id, is_leaf, md_sq = event
            node = TraceNode(page_id, depth, bool(is_leaf), md_sq)
            last_at_depth[depth] = node
            parent = last_at_depth.get(depth - 1)
            if parent is not None and depth > 0:
                parent.children.append(node)
            elif root is None:
                root = node
        elif code in ("p1", "p3"):
            _, depth, page_id, value_sq, bound_sq = event
            parent = last_at_depth.get(depth - 1)
            if parent is not None:
                parent.pruned.append((code, page_id, value_sq, bound_sq))
        elif code == "accept":
            parent = last_at_depth.get(event[1])
            if parent is not None:
                parent.accepts += 1
    return root


def render_trace(trace: Trace, max_children: int = 12) -> str:
    """Render *trace* as an indented visit tree (the CLI's output).

    Each line shows one visited node — page id, kind, MINDIST, candidate
    accepts — with its pruned siblings summarized beneath it and the
    per-subtree page count in the right margin.  ``max_children`` caps
    the children printed per node so wide fanouts stay readable.
    """
    lines: List[str] = []
    header = f"trace: {len(trace.events)} events"
    if trace.request_id is not None:
        header += f", request {trace.request_id}"
    if trace.label:
        header += f" — {trace.label}"
    lines.append(header)
    if trace.meta:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
        lines.append(f"  {meta}")
    counts = trace.counts()
    summary = ", ".join(f"{code}={n}" for code, n in sorted(counts.items()))
    lines.append(f"  events: {summary}")
    root = build_trace_tree(trace)
    if root is None:
        lines.append("  (no node visits recorded)")
        return "\n".join(lines)

    def emit(node: TraceNode, prefix: str) -> None:
        kind = "leaf" if node.is_leaf else "node"
        detail = f"mindist^2={node.mindist_sq:.6g}"
        if node.accepts:
            detail += f", accepts={node.accepts}"
        lines.append(
            f"{prefix}{kind} page={node.page_id}  {detail}  "
            f"[subtree pages: {node.subtree_pages()}]"
        )
        child_prefix = prefix + "  "
        for kind_, page_id, value_sq, bound_sq in node.pruned[:max_children]:
            lines.append(
                f"{child_prefix}x {kind_} pruned page={page_id}  "
                f"mindist^2={value_sq:.6g} > bound^2={bound_sq:.6g}"
            )
        if len(node.pruned) > max_children:
            lines.append(
                f"{child_prefix}x ... {len(node.pruned) - max_children} "
                f"more pruned"
            )
        for child in node.children[:max_children]:
            emit(child, child_prefix)
        if len(node.children) > max_children:
            lines.append(
                f"{child_prefix}... {len(node.children) - max_children} "
                f"more children visited"
            )

    emit(root, "  ")
    for event in trace.events:
        if event[0] == "skips":
            lines.append(f"  ! {event[1]} corrupt page(s) skipped")
        elif event[0] == "cache":
            lines.append(f"  cache: {event[1]}")
    return "\n".join(lines)
