"""Unit tests for RTree construction, insertion, deletion and queries."""

import pytest

from repro import RTree, Rect
from repro.rtree import validate_tree
from repro.errors import (
    DimensionMismatchError,
    EmptyIndexError,
    InvalidParameterError,
)
from repro.rtree.validate import tree_depth_of_leaves
from tests.conftest import build_point_tree


class TestConstruction:
    def test_defaults(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.dimension is None
        assert tree.node_count == 1

    def test_rejects_bad_max_entries(self):
        with pytest.raises(InvalidParameterError):
            RTree(max_entries=1)

    def test_rejects_min_entries_above_half(self):
        with pytest.raises(InvalidParameterError):
            RTree(max_entries=8, min_entries=5)

    def test_rejects_zero_min_entries(self):
        with pytest.raises(InvalidParameterError):
            RTree(max_entries=8, min_entries=0)

    def test_default_min_entries_is_forty_percent(self):
        assert RTree(max_entries=10).min_entries == 4

    def test_bounds_of_empty_tree_raises(self):
        with pytest.raises(EmptyIndexError):
            RTree().bounds()

    @pytest.mark.parametrize("split", ["linear", "quadratic", "rstar"])
    def test_split_strategies_accepted(self, split):
        tree = RTree(split=split)
        assert tree.split_strategy.name == split


class TestInsert:
    def test_insert_points_and_rects(self):
        tree = RTree(max_entries=4)
        tree.insert((1.0, 2.0), payload="point")
        tree.insert(Rect((3, 3), (4, 4)), payload="rect")
        assert len(tree) == 2
        assert tree.dimension == 2
        assert tree.bounds() == Rect((1, 2), (4, 4))

    def test_dimension_fixed_by_first_insert(self):
        tree = RTree()
        tree.insert((1.0, 2.0, 3.0))
        with pytest.raises(DimensionMismatchError):
            tree.insert((1.0, 2.0))

    def test_root_split_grows_height(self):
        tree = RTree(max_entries=4)
        for i in range(5):
            tree.insert((float(i), 0.0), payload=i)
        assert tree.height == 2
        validate_tree(tree)

    def test_many_inserts_stay_valid(self, small_points):
        tree = build_point_tree(small_points, max_entries=4)
        validate_tree(tree)
        assert len(tree) == len(small_points)

    def test_leaves_all_at_same_depth(self, medium_points):
        tree = build_point_tree(medium_points)
        depths = set(tree_depth_of_leaves(tree))
        assert len(depths) == 1

    @pytest.mark.parametrize("split", ["linear", "quadratic", "rstar"])
    def test_all_split_strategies_build_valid_trees(self, small_points, split):
        tree = build_point_tree(small_points, max_entries=6, split=split)
        validate_tree(tree)

    def test_forced_reinsert_builds_valid_tree(self, small_points):
        tree = build_point_tree(
            small_points, max_entries=6, forced_reinsert=True
        )
        validate_tree(tree)
        assert len(tree) == len(small_points)

    def test_duplicate_rects_allowed(self):
        tree = RTree(max_entries=4)
        for i in range(25):
            tree.insert((7.0, 7.0), payload=i)
        assert len(tree) == 25
        validate_tree(tree)

    def test_items_roundtrip(self, small_points):
        tree = build_point_tree(small_points)
        payloads = sorted(payload for _, payload in tree.items())
        assert payloads == list(range(len(small_points)))


class TestDelete:
    def test_delete_existing(self):
        tree = RTree(max_entries=4)
        tree.insert((1.0, 1.0), payload="a")
        tree.insert((2.0, 2.0), payload="b")
        assert tree.delete((1.0, 1.0), payload="a")
        assert len(tree) == 1
        validate_tree(tree)

    def test_delete_missing_returns_false(self):
        tree = RTree()
        tree.insert((1.0, 1.0), payload="a")
        assert not tree.delete((9.0, 9.0), payload="a")
        assert not tree.delete((1.0, 1.0), payload="other")
        assert len(tree) == 1

    def test_delete_all_resets_to_empty(self, small_points):
        tree = build_point_tree(small_points, max_entries=4)
        for i, p in enumerate(small_points):
            assert tree.delete(p, payload=i)
        assert len(tree) == 0
        assert tree.height == 1
        validate_tree(tree)

    def test_delete_half_keeps_other_half_searchable(self, small_points):
        tree = build_point_tree(small_points, max_entries=4)
        for i, p in enumerate(small_points[:50]):
            assert tree.delete(p, payload=i)
        validate_tree(tree)
        remaining = sorted(payload for _, payload in tree.items())
        assert remaining == list(range(50, 100))

    def test_delete_shrinks_root(self, small_points):
        # min_entries=2 makes CondenseTree dissolve underfull nodes, so the
        # root actually collapses as the tree empties.
        tree = build_point_tree(small_points, max_entries=4, min_entries=2)
        initial_height = tree.height
        for i, p in enumerate(small_points[:95]):
            tree.delete(p, payload=i)
        validate_tree(tree)
        assert tree.height < initial_height

    def test_delete_one_of_duplicates(self):
        tree = RTree(max_entries=4)
        for i in range(10):
            tree.insert((3.0, 3.0), payload=i)
        assert tree.delete((3.0, 3.0), payload=4)
        assert len(tree) == 9
        assert not any(p == 4 for _, p in tree.items())
        validate_tree(tree)

    def test_interleaved_insert_delete(self, rng):
        tree = RTree(max_entries=4)
        live = {}
        for step in range(400):
            if live and rng.random() < 0.4:
                key = rng.choice(list(live))
                assert tree.delete(live.pop(key), payload=key)
            else:
                p = (rng.uniform(0, 100), rng.uniform(0, 100))
                tree.insert(p, payload=step)
                live[step] = p
        validate_tree(tree)
        assert len(tree) == len(live)


class TestSearch:
    def test_window_query_exact(self):
        tree = RTree(max_entries=4)
        for x in range(10):
            for y in range(10):
                tree.insert((float(x), float(y)), payload=(x, y))
        hits = tree.search(Rect((2.0, 2.0), (4.0, 4.0)))
        assert sorted(p for _, p in hits) == [
            (x, y) for x in range(2, 5) for y in range(2, 5)
        ]

    def test_window_query_no_hits(self, small_tree):
        assert tree_search_empty(small_tree)

    def test_point_window(self, small_points):
        tree = build_point_tree(small_points)
        target = small_points[3]
        hits = tree.search(Rect.from_point(target))
        assert 3 in [p for _, p in hits]

    def test_count_in(self, small_tree):
        whole = small_tree.bounds()
        assert small_tree.count_in(whole) == len(small_tree)

    def test_search_on_empty_tree(self):
        assert RTree().search(Rect((0, 0), (1, 1))) == []

    def test_clear(self, small_tree):
        small_tree.clear()
        assert len(small_tree) == 0
        assert small_tree.node_count == 1
        validate_tree(small_tree)


def tree_search_empty(tree) -> bool:
    return tree.search(Rect((-500.0, -500.0), (-400.0, -400.0))) == []


class TestIntrospection:
    def test_nodes_iteration_counts(self, small_tree):
        assert sum(1 for _ in small_tree.nodes()) == small_tree.node_count

    def test_leaves_hold_all_items(self, small_tree):
        total = sum(leaf.entry_count() for leaf in small_tree.leaves())
        assert total == len(small_tree)

    def test_repr(self, small_tree):
        text = repr(small_tree)
        assert "size=100" in text
        assert "split='quadratic'" in text
