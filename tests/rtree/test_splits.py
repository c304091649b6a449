"""Unit tests for the three node split strategies."""

import hashlib
import random
from typing import List, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import RTree
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.rect import Rect
from repro.rtree.entry import Entry
from repro.rtree.splits import (
    LinearSplit,
    QuadraticSplit,
    RStarSplit,
    SplitStrategy,
    resolve_split_strategy,
)

ALL_STRATEGIES = [LinearSplit(), QuadraticSplit(), RStarSplit()]


def make_entries(rects):
    return [Entry(r, payload=i) for i, r in enumerate(rects)]


def random_entries(n, seed=0, dim=2):
    rng = random.Random(seed)
    rects = []
    for _ in range(n):
        lo = [rng.uniform(0, 100) for _ in range(dim)]
        hi = [c + rng.uniform(0, 10) for c in lo]
        rects.append(Rect(lo, hi))
    return make_entries(rects)


class TestResolve:
    def test_by_name(self):
        assert isinstance(resolve_split_strategy("linear"), LinearSplit)
        assert isinstance(resolve_split_strategy("quadratic"), QuadraticSplit)
        assert isinstance(resolve_split_strategy("rstar"), RStarSplit)

    def test_instance_passthrough(self):
        strategy = QuadraticSplit()
        assert resolve_split_strategy(strategy) is strategy

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            resolve_split_strategy("bogus")


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
class TestSplitContract:
    """Invariants every split strategy must satisfy."""

    def test_partitions_all_entries(self, strategy):
        entries = random_entries(9, seed=1)
        a, b = strategy.split(entries, min_entries=3)
        assert len(a) + len(b) == len(entries)
        ids = sorted(e.payload for e in a + b)
        assert ids == list(range(9))

    def test_respects_min_entries(self, strategy):
        for seed in range(5):
            entries = random_entries(11, seed=seed)
            a, b = strategy.split(entries, min_entries=4)
            assert len(a) >= 4
            assert len(b) >= 4

    def test_does_not_mutate_input(self, strategy):
        entries = random_entries(8, seed=2)
        snapshot = list(entries)
        strategy.split(entries, min_entries=3)
        assert entries == snapshot

    def test_identical_rects_still_split(self, strategy):
        entries = make_entries([Rect((5, 5), (6, 6))] * 10)
        a, b = strategy.split(entries, min_entries=4)
        assert len(a) >= 4 and len(b) >= 4

    def test_collinear_degenerate_rects(self, strategy):
        entries = make_entries(
            [Rect((float(i), 0.0), (float(i), 0.0)) for i in range(9)]
        )
        a, b = strategy.split(entries, min_entries=3)
        assert len(a) + len(b) == 9
        assert len(a) >= 3 and len(b) >= 3

    def test_rejects_tiny_input(self, strategy):
        entries = random_entries(3, seed=3)
        with pytest.raises(InvalidParameterError):
            strategy.split(entries, min_entries=2)

    def test_rejects_bad_min_entries(self, strategy):
        entries = random_entries(8, seed=4)
        with pytest.raises(InvalidParameterError):
            strategy.split(entries, min_entries=0)

    def test_one_dimensional(self, strategy):
        entries = random_entries(8, seed=5, dim=1)
        a, b = strategy.split(entries, min_entries=3)
        assert len(a) + len(b) == 8

    def test_three_dimensional(self, strategy):
        entries = random_entries(10, seed=6, dim=3)
        a, b = strategy.split(entries, min_entries=4)
        assert len(a) + len(b) == 10


class TestSplitQuality:
    def test_separated_clusters_split_cleanly(self):
        # Two well-separated clusters should be separated by every strategy.
        left = [Rect((i, 0.0), (i + 0.5, 0.5)) for i in range(5)]
        right = [Rect((i + 1000.0, 0.0), (i + 1000.5, 0.5)) for i in range(5)]
        entries = make_entries(left + right)
        for strategy in ALL_STRATEGIES:
            a, b = strategy.split(entries, min_entries=3)
            groups = {frozenset(e.payload for e in a), frozenset(e.payload for e in b)}
            assert groups == {frozenset(range(5)), frozenset(range(5, 10))}, (
                strategy.name
            )

    def test_rstar_minimizes_overlap_on_grid(self):
        # A 4x4 grid splits into two non-overlapping halves under R*.
        rects = [
            Rect((x, y), (x + 0.9, y + 0.9))
            for x in range(4)
            for y in range(4)
        ]
        a, b = RStarSplit().split(make_entries(rects), min_entries=6)
        mbr_a = Rect.union_all(e.rect for e in a)
        mbr_b = Rect.union_all(e.rect for e in b)
        assert mbr_a.overlap_area(mbr_b) == 0.0

    def test_base_class_split_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SplitStrategy().split(random_entries(6), min_entries=2)


class TextbookQuadraticSplit(SplitStrategy):
    """Guttman's quadratic split written with ``Rect`` algebra.

    This is the form the library shipped before the production split
    stopped building temporary rectangles; it stays here as the oracle
    the production code is pinned to, decision for decision.
    """

    name = "quadratic"

    def split(
        self, entries: List[Entry], min_entries: int
    ) -> Tuple[List[Entry], List[Entry]]:
        self._check_input(entries, min_entries)
        seed_a, seed_b = self._pick_seeds(entries)

        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a = entries[seed_a].rect
        mbr_b = entries[seed_b].rect
        rest = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]

        while rest:
            # If one group must absorb everything left to reach min_entries.
            if len(group_a) + len(rest) <= min_entries:
                for entry in rest:
                    group_a.append(entry)
                    mbr_a = mbr_a.union(entry.rect)
                break
            if len(group_b) + len(rest) <= min_entries:
                for entry in rest:
                    group_b.append(entry)
                    mbr_b = mbr_b.union(entry.rect)
                break

            # PickNext: the entry with the greatest preference for one group.
            best_index = 0
            best_diff = -1.0
            best_grow_a = 0.0
            best_grow_b = 0.0
            for i, entry in enumerate(rest):
                grow_a = mbr_a.union(entry.rect).area() - mbr_a.area()
                grow_b = mbr_b.union(entry.rect).area() - mbr_b.area()
                diff = abs(grow_a - grow_b)
                if diff > best_diff:
                    best_diff = diff
                    best_index = i
                    best_grow_a = grow_a
                    best_grow_b = grow_b
            entry = rest.pop(best_index)

            if best_grow_a < best_grow_b:
                pick_a = True
            elif best_grow_b < best_grow_a:
                pick_a = False
            elif mbr_a.area() != mbr_b.area():
                pick_a = mbr_a.area() < mbr_b.area()
            else:
                pick_a = len(group_a) <= len(group_b)
            if pick_a:
                group_a.append(entry)
                mbr_a = mbr_a.union(entry.rect)
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry.rect)
        return group_a, group_b

    def _pick_seeds(self, entries: List[Entry]) -> Tuple[int, int]:
        """The pair wasting the most area if placed together."""
        best_waste = float("-inf")
        best_pair = (0, 1)
        for i in range(len(entries)):
            rect_i = entries[i].rect
            area_i = rect_i.area()
            for j in range(i + 1, len(entries)):
                rect_j = entries[j].rect
                waste = rect_i.union(rect_j).area() - area_i - rect_j.area()
                if waste > best_waste:
                    best_waste = waste
                    best_pair = (i, j)
        return best_pair


# A few exact values next to free floats: duplicates, shared edges,
# zero-area seed pairs and exact ties in every comparison are the norm.
_coordinate = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.5, 7.0]),
    st.floats(-1e3, 1e3, allow_nan=False, width=32),
)
_extent = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 1.5]),
    st.floats(0.0, 50.0, allow_nan=False, width=32),
)


@st.composite
def overflowing_nodes(draw):
    """(entries, min_entries): 4..114 entries in 1..3 dimensions."""
    dim = draw(st.integers(1, 3))
    shape = draw(
        st.sampled_from(["points", "mixed", "rects", "duplicates", "collinear"])
    )
    count = draw(st.integers(4, 114))
    corner = st.lists(_coordinate, min_size=dim, max_size=dim)
    extents = st.lists(_extent, min_size=dim, max_size=dim)
    if shape == "duplicates":
        pool = draw(st.lists(st.tuples(corner, extents), min_size=1, max_size=3))
        boxes = [draw(st.sampled_from(pool)) for _ in range(count)]
    elif shape == "collinear":
        # Degenerate boxes along the first axis: every union has zero area.
        boxes = [
            ([draw(_coordinate)] + [3.0] * (dim - 1), [0.0] * dim)
            for _ in range(count)
        ]
    else:
        boxes = []
        for _ in range(count):
            lo = draw(corner)
            if shape == "points" or (shape == "mixed" and draw(st.booleans())):
                boxes.append((lo, [0.0] * dim))
            else:
                boxes.append((lo, draw(extents)))
    entries = make_entries(
        [Rect(lo, [a + e for a, e in zip(lo, ext)]) for lo, ext in boxes]
    )
    # The tree splits max_entries + 1 entries with m <= max_entries // 2;
    # bare callers may go up to len // 2.
    return entries, draw(st.integers(1, count // 2))


class TestQuadraticPinnedToTextbook:
    """The production split is a faster spelling of the textbook one, not a
    different heuristic: same entries, same groups, same order."""

    @given(case=overflowing_nodes())
    def test_same_groups_same_order(self, case):
        entries, min_entries = case
        want_a, want_b = TextbookQuadraticSplit().split(entries, min_entries)
        got_a, got_b = QuadraticSplit().split(entries, min_entries)
        assert len(got_a) == len(want_a) and len(got_b) == len(want_b)
        assert all(x is y for x, y in zip(got_a, want_a))
        assert all(x is y for x, y in zip(got_b, want_b))

    def test_full_page_of_points(self):
        # The benchmark's case: a 4 KiB STR leaf (113 points) plus one.
        rng = random.Random(1995)
        entries = make_entries(
            [Rect.from_point((rng.random(), rng.random())) for _ in range(114)]
        )
        want = TextbookQuadraticSplit().split(entries, 45)
        got = QuadraticSplit().split(entries, 45)
        assert [[e.payload for e in g] for g in got] == [
            [e.payload for e in g] for g in want
        ]

    @pytest.mark.parametrize("odd_one", [0, 1, 5])
    def test_mixed_dimensions_raise_what_rect_union_raised(self, odd_one):
        entries = random_entries(8, seed=9)
        entries[odd_one] = Entry(Rect((1.0,), (2.0,)), payload="1-d")
        with pytest.raises(DimensionMismatchError) as textbook:
            TextbookQuadraticSplit().split(entries, 3)
        with pytest.raises(DimensionMismatchError) as production:
            QuadraticSplit().split(entries, 3)
        assert str(production.value) == str(textbook.value)

    def test_insert_built_tree_is_unchanged(self):
        """2,000 seeded inserts: if any split decision moves, some node ends
        up with different members and the digest with it."""
        rng = random.Random(19950523)
        tree = RTree(max_entries=8)
        for i in range(2000):
            x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
            if i % 3 == 0:
                tree.insert(
                    Rect((x, y), (x + rng.uniform(0, 20), y + rng.uniform(0, 20))), i
                )
            else:
                tree.insert((x, y), i)

        def shape(node):
            if node.is_leaf:
                return (0, [entry.payload for entry in node.entries])
            return (node.level, [shape(entry.child) for entry in node.entries])

        digest = hashlib.sha256(repr(shape(tree.root)).encode()).hexdigest()
        assert digest == (
            "9b997f7f9d88d41652332e1f750b27d5ec8388982b474195f6514f1f051c27b3"
        )
