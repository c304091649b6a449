"""Unit tests for the invariant validator (it must actually catch breakage)."""

import pytest

from repro import RTree, Rect
from repro.rtree import validate_tree
from repro.errors import TreeInvariantError
from repro.rtree.entry import Entry
from tests.conftest import build_point_tree


@pytest.fixture
def valid_tree(small_points):
    return build_point_tree(small_points, max_entries=4)


class TestValidatorAcceptsGoodTrees:
    def test_empty(self):
        validate_tree(RTree())

    def test_built_tree(self, valid_tree):
        validate_tree(valid_tree)


class TestValidatorCatchesCorruption:
    def test_wrong_size(self, valid_tree):
        valid_tree._size += 1
        with pytest.raises(TreeInvariantError, match="size mismatch"):
            validate_tree(valid_tree)

    def test_loose_parent_rect(self, valid_tree):
        entry = valid_tree.root.entries[0]
        entry.rect = entry.rect.union(Rect((-1e6, -1e6), (-1e6, -1e6)))
        with pytest.raises(TreeInvariantError, match="tight MBR"):
            validate_tree(valid_tree)

    def test_underfull_node(self, valid_tree):
        leaf = next(iter(valid_tree.leaves()))
        # Drop entries below min without updating anything else.
        removed = len(leaf.entries) - 1
        leaf.entries = leaf.entries[:1]
        valid_tree._size -= removed
        with pytest.raises(TreeInvariantError):
            validate_tree(valid_tree)

    def test_overfull_node(self, valid_tree):
        leaf = next(iter(valid_tree.leaves()))
        parent_rect = leaf.mbr()
        for i in range(valid_tree.max_entries + 1):
            leaf.entries.append(
                Entry(Rect.from_point(parent_rect.lo), payload=f"extra{i}")
            )
        valid_tree._size += valid_tree.max_entries + 1
        with pytest.raises(TreeInvariantError):
            validate_tree(valid_tree)

    def test_leaf_entry_in_internal_node(self, valid_tree):
        root = valid_tree.root
        assert not root.is_leaf
        root.entries[0].child = None
        with pytest.raises(TreeInvariantError):
            validate_tree(valid_tree)

    def test_duplicate_node_ids(self, valid_tree):
        root = valid_tree.root
        root.entries[1].child.node_id = root.entries[0].child.node_id
        with pytest.raises(TreeInvariantError, match="duplicate node id"):
            validate_tree(valid_tree)

    def test_wrong_child_level(self, valid_tree):
        root = valid_tree.root
        root.entries[0].child.level = root.level
        with pytest.raises(TreeInvariantError, match="level"):
            validate_tree(valid_tree)

    def test_nonempty_root_leaf_for_empty_tree(self):
        tree = RTree()
        tree.root.entries.append(Entry(Rect((0, 0), (1, 1)), payload="ghost"))
        with pytest.raises(TreeInvariantError, match="bare leaf root"):
            validate_tree(tree)
