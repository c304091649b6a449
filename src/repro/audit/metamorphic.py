"""Metamorphic properties: relations that must hold between *runs*.

A differential oracle catches a wrong answer; metamorphic relations
catch a *consistently* wrong implementation that would fool any
same-input comparison:

- **translation invariance** — shifting every point and the query by
  the same vector must preserve all result distances (up to float
  re-rounding of the shifted coordinates);
- **scale invariance** — scaling by a power of two (exact in binary
  floating point) must scale every distance by exactly that factor;
- **k-monotonicity** — the k-NN distance sequence must be a prefix of
  the (k+1)-NN sequence on the same tree;
- **cache equivalence** — a ``QueryEngine`` answer served from the
  result cache must equal the freshly executed answer, and after a
  mutation bumps the tree epoch the engine must serve the *new* truth,
  never a stale epoch's entry.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.audit.backends import build_memory_tree
from repro.audit.oracle import Discrepancy
from repro.core.config import QueryConfig
from repro.core.knn_dfs import nearest_dfs
from repro.core.query import nearest
from repro.service.engine import QueryEngine
from repro.service.options import EngineOptions

__all__ = [
    "check_translation_invariance",
    "check_scale_invariance",
    "check_k_monotonicity",
    "check_engine_cache_equivalence",
]

#: Translation re-rounds coordinates, so distances may drift by a few
#: ulps of the *coordinate magnitude* — far below any honest neighbor
#: gap, far above accumulated rounding.
_TRANSLATE_TOL = 1e-6
#: Power-of-two scaling is exact in binary floating point.
_SCALE_TOL = 1e-12


def _distances(tree, query: Sequence[float], k: int) -> List[float]:
    return [n.distance for n in nearest_dfs(tree, query, k=k)[0]]


def check_translation_invariance(
    points: Sequence[Sequence[float]],
    query: Sequence[float],
    k: int,
    offset: Sequence[float],
    max_entries: int = 8,
    split: str = "quadratic",
) -> List[Discrepancy]:
    """Distances must survive translating the whole space by *offset*."""
    base = build_memory_tree(points, max_entries=max_entries, split=split)
    moved_points = [
        tuple(c + o for c, o in zip(p, offset)) for p in points
    ]
    moved = build_memory_tree(
        moved_points, max_entries=max_entries, split=split
    )
    moved_query = tuple(c + o for c, o in zip(query, offset))
    original = _distances(base, query, k)
    translated = _distances(moved, moved_query, k)
    for rank, (a, b) in enumerate(zip(original, translated)):
        if abs(a - b) > _TRANSLATE_TOL * max(1.0, abs(a)):
            return [
                Discrepancy(
                    kind="translation-variance",
                    combo=f"dfs-mindist offset={tuple(offset)}",
                    query=tuple(float(c) for c in query),
                    k=k,
                    expected=original,
                    actual=translated,
                    detail=f"rank {rank}: {a} became {b} after translation",
                )
            ]
    if len(original) != len(translated):
        return [
            Discrepancy(
                kind="translation-variance",
                combo=f"dfs-mindist offset={tuple(offset)}",
                query=tuple(float(c) for c in query),
                k=k,
                expected=original,
                actual=translated,
                detail="result sizes differ after translation",
            )
        ]
    return []


def check_scale_invariance(
    points: Sequence[Sequence[float]],
    query: Sequence[float],
    k: int,
    factor: float = 4.0,
    max_entries: int = 8,
    split: str = "quadratic",
) -> List[Discrepancy]:
    """Distances must scale *exactly* by a power-of-two *factor*."""
    base = build_memory_tree(points, max_entries=max_entries, split=split)
    scaled_points = [tuple(c * factor for c in p) for p in points]
    scaled = build_memory_tree(
        scaled_points, max_entries=max_entries, split=split
    )
    scaled_query = tuple(c * factor for c in query)
    original = _distances(base, query, k)
    rescaled = _distances(scaled, scaled_query, k)
    for rank, (a, b) in enumerate(zip(original, rescaled)):
        if abs(a * factor - b) > _SCALE_TOL * max(1.0, abs(b)):
            return [
                Discrepancy(
                    kind="scale-variance",
                    combo=f"dfs-mindist factor={factor}",
                    query=tuple(float(c) for c in query),
                    k=k,
                    expected=[d * factor for d in original],
                    actual=rescaled,
                    detail=(
                        f"rank {rank}: {a} * {factor} != {b} after scaling"
                    ),
                )
            ]
    return []


def check_k_monotonicity(
    tree, query: Sequence[float], ks: Sequence[int]
) -> List[Discrepancy]:
    """The k-NN distance list must be a prefix of every larger k's list."""
    ordered = sorted(set(ks))
    results = {k: _distances(tree, query, k) for k in ordered}
    problems: List[Discrepancy] = []
    for smaller, larger in zip(ordered, ordered[1:]):
        a, b = results[smaller], results[larger]
        if a != b[: len(a)]:
            problems.append(
                Discrepancy(
                    kind="k-monotonicity",
                    combo=f"dfs-mindist k={smaller}->{larger}",
                    query=tuple(float(c) for c in query),
                    k=larger,
                    expected=a,
                    actual=b[: len(a)],
                    detail=(
                        f"k={smaller} result is not a prefix of k={larger}"
                    ),
                )
            )
    return problems


def check_engine_cache_equivalence(
    points: Sequence[Sequence[float]],
    queries: Sequence[Sequence[float]],
    k: int,
    max_entries: int = 8,
    split: str = "quadratic",
) -> List[Discrepancy]:
    """Cache hits must equal misses, across a mutation epoch boundary.

    Round 1 populates the cache (miss path), round 2 must be served from
    it with identical distances (hit path).  An engine-mediated insert
    then bumps the epoch; round 3 must match a fresh uncached search of
    the mutated tree — catching both stale-serving and under-invalidation.
    """
    tree = build_memory_tree(points, max_entries=max_entries, split=split)
    cfg = QueryConfig(k=k)
    problems: List[Discrepancy] = []
    with QueryEngine(
        tree, config=cfg, options=EngineOptions(workers=1, cache_size=256)
    ) as engine:
        first = [engine.query(q) for q in queries]
        second = [engine.query(q) for q in queries]
        hits = engine.stats().cache_hits
        if hits < len(queries):
            problems.append(
                Discrepancy(
                    kind="cache-no-hit",
                    combo="engine",
                    query=tuple(float(c) for c in queries[0]),
                    k=k,
                    detail=(
                        f"expected >= {len(queries)} cache hits on the "
                        f"replay round, saw {hits}"
                    ),
                )
            )
        for q, r1, r2 in zip(queries, first, second):
            if r1.distances() != r2.distances():
                problems.append(
                    Discrepancy(
                        kind="cache-hit-mismatch",
                        combo="engine",
                        query=tuple(float(c) for c in q),
                        k=k,
                        expected=r1.distances(),
                        actual=r2.distances(),
                        detail="cache hit differs from the miss that filled it",
                    )
                )

        # Mutate through the engine: epoch bumps, cache must not serve
        # the old world.
        new_point = tuple(-500.0 for _ in points[0])
        engine.insert(new_point, payload=len(points))
        for q in queries:
            served = engine.query(q)
            fresh = nearest(tree, q, config=cfg)
            if served.distances() != fresh.distances():
                problems.append(
                    Discrepancy(
                        kind="stale-cache-after-epoch",
                        combo="engine",
                        query=tuple(float(c) for c in q),
                        k=k,
                        expected=fresh.distances(),
                        actual=served.distances(),
                        detail="post-mutation answer differs from fresh search",
                    )
                )
    return problems
