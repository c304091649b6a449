"""Guttman's quadratic-cost node split (R-trees, SIGMOD 1984, Sec. 3.5.2).

This is the split the original paper's experiments were run with, and the
default in this library.

PickSeeds and PickNext only ever *read the area* of a union, so neither
builds the union rectangle: the entries' ``lo``/``hi`` tuples are hoisted
once, areas are cached, and every candidate is scored with
:func:`~repro.geometry.rect.union_area` — the same left-to-right product
``Rect.union(...).area()`` evaluates, so each comparison sees the same
float and both groups come back in the same order as the textbook form
(kept as the oracle in ``tests/rtree/test_splits.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import DimensionMismatchError
from repro.geometry.point import Point
from repro.geometry.rect import union_area
from repro.rtree.entry import Entry
from repro.rtree.splits.base import SplitStrategy

__all__ = ["QuadraticSplit"]


class QuadraticSplit(SplitStrategy):
    """Quadratic PickSeeds + PickNext distribution."""

    name = "quadratic"

    def split(
        self, entries: List[Entry], min_entries: int
    ) -> Tuple[List[Entry], List[Entry]]:
        self._check_input(entries, min_entries)
        los = [entry.rect.lo for entry in entries]
        his = [entry.rect.hi for entry in entries]
        dim = len(los[0])
        for lo in los:
            if len(lo) != dim:
                raise DimensionMismatchError(dim, len(lo), "rects")
        areas = [entry.rect.area() for entry in entries]
        seed_a, seed_b = self._pick_seeds(los, his, areas)

        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        lo_a, hi_a = los[seed_a], his[seed_a]
        lo_b, hi_b = los[seed_b], his[seed_b]
        area_a = areas[seed_a]
        area_b = areas[seed_b]
        # Indices into entries/los/his, in entry order.
        rest = [i for i in range(len(entries)) if i not in (seed_a, seed_b)]

        while rest:
            # If one group must absorb everything left to reach min_entries.
            if len(group_a) + len(rest) <= min_entries:
                group_a.extend(entries[i] for i in rest)
                break
            if len(group_b) + len(rest) <= min_entries:
                group_b.extend(entries[i] for i in rest)
                break

            # PickNext: the entry with the greatest preference for one group.
            best_position = 0
            best_diff = -1.0
            best_grow_a = 0.0
            best_grow_b = 0.0
            for position, i in enumerate(rest):
                lo = los[i]
                hi = his[i]
                grow_a = union_area(lo_a, hi_a, lo, hi) - area_a
                grow_b = union_area(lo_b, hi_b, lo, hi) - area_b
                diff = abs(grow_a - grow_b)
                if diff > best_diff:
                    best_diff = diff
                    best_position = position
                    best_grow_a = grow_a
                    best_grow_b = grow_b
            chosen = rest.pop(best_position)

            if best_grow_a < best_grow_b:
                pick_a = True
            elif best_grow_b < best_grow_a:
                pick_a = False
            elif area_a != area_b:
                pick_a = area_a < area_b
            else:
                pick_a = len(group_a) <= len(group_b)
            lo = los[chosen]
            hi = his[chosen]
            # The group's MBR becomes Rect.union's; its area is, by
            # union_area's contract, that union's area.
            if pick_a:
                group_a.append(entries[chosen])
                area_a = union_area(lo_a, hi_a, lo, hi)
                lo_a = tuple(map(min, lo_a, lo))
                hi_a = tuple(map(max, hi_a, hi))
            else:
                group_b.append(entries[chosen])
                area_b = union_area(lo_b, hi_b, lo, hi)
                lo_b = tuple(map(min, lo_b, lo))
                hi_b = tuple(map(max, hi_b, hi))
        return group_a, group_b

    def _pick_seeds(
        self,
        los: Sequence[Point],
        his: Sequence[Point],
        areas: Sequence[float],
    ) -> Tuple[int, int]:
        """The pair wasting the most area if placed together."""
        best_waste = float("-inf")
        best_pair = (0, 1)
        for i in range(len(los)):
            lo_i = los[i]
            hi_i = his[i]
            area_i = areas[i]
            for j in range(i + 1, len(los)):
                waste = union_area(lo_i, hi_i, los[j], his[j]) - area_i - areas[j]
                if waste > best_waste:
                    best_waste = waste
                    best_pair = (i, j)
        return best_pair
