"""Deep-path tests for R-tree internals: the branches hypothesis rarely
reaches get pinned explicitly here."""

import random

from repro import RTree, Rect, linear_scan
from repro.rtree import validate_tree
from repro.core.knn_dfs import nearest_dfs
from repro.rtree.validate import tree_depth_of_leaves
from tests.conftest import assert_same_distances


class TestForcedReinsert:
    def test_reinserted_entries_are_not_lost(self):
        tree = RTree(max_entries=4, min_entries=2, forced_reinsert=True)
        points = [(float(i % 17), float(i % 13)) for i in range(200)]
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        validate_tree(tree)
        assert sorted(payload for _, payload in tree.items()) == list(
            range(200)
        )

    def test_reinsert_triggers_at_multiple_levels(self):
        # Enough inserts to overflow internal nodes too.
        tree = RTree(max_entries=3, min_entries=1, forced_reinsert=True)
        rng = random.Random(181)
        for i in range(300):
            tree.insert((rng.uniform(0, 100), rng.uniform(0, 100)), payload=i)
        validate_tree(tree)
        assert tree.height >= 4

    def test_queries_correct_with_reinsertion(self):
        tree = RTree(max_entries=4, forced_reinsert=True)
        rng = random.Random(182)
        for i in range(250):
            tree.insert((rng.uniform(0, 50), rng.uniform(0, 50)), payload=i)
        for q in [(0.0, 0.0), (25.0, 25.0)]:
            got, _ = nearest_dfs(tree, q, k=4)
            assert_same_distances(got, linear_scan(tree, q, k=4))

    def test_reinsert_vs_plain_same_contents(self):
        rng = random.Random(183)
        points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(150)]
        plain = RTree(max_entries=4)
        reins = RTree(max_entries=4, forced_reinsert=True)
        for i, p in enumerate(points):
            plain.insert(p, payload=i)
            reins.insert(p, payload=i)
        assert sorted(p for _, p in plain.items()) == sorted(
            p for _, p in reins.items()
        )
        validate_tree(reins)


class TestCondenseInternalOrphans:
    def _build_tall_tree(self, n=300, seed=184):
        tree = RTree(max_entries=3, min_entries=1)
        rng = random.Random(seed)
        points = []
        for i in range(n):
            p = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.insert(p, payload=i)
            points.append(p)
        return tree, points

    def test_mass_deletion_reinserts_internal_subtrees(self):
        # min_entries high relative to fanout makes internal underflow
        # (and thus orphaned *subtree* reinsertion) frequent.
        tree = RTree(max_entries=4, min_entries=2)
        rng = random.Random(185)
        points = []
        for i in range(400):
            p = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.insert(p, payload=i)
            points.append(p)
        order = list(range(400))
        rng.shuffle(order)
        for count, index in enumerate(order[:350]):
            assert tree.delete(points[index], payload=index)
            if count % 50 == 0:
                validate_tree(tree)
        validate_tree(tree)
        assert len(tree) == 50

    def test_leaves_stay_level_after_orphan_reinsertion(self):
        tree, points = self._build_tall_tree()
        rng = random.Random(186)
        victims = rng.sample(range(len(points)), 200)
        for index in victims:
            assert tree.delete(points[index], payload=index)
        assert len(set(tree_depth_of_leaves(tree))) == 1
        validate_tree(tree)

    def test_root_shrink_cascade(self):
        # min_entries = 2 so underfull nodes actually dissolve and the
        # root can collapse as the tree empties.
        tree = RTree(max_entries=4, min_entries=2)
        rng = random.Random(187)
        points = []
        for i in range(200):
            p = (rng.uniform(0, 100), rng.uniform(0, 100))
            tree.insert(p, payload=i)
            points.append(p)
        tall = tree.height
        for index in range(190):
            assert tree.delete(points[index], payload=index)
        validate_tree(tree)
        assert tree.height < tall


class TestChooseSubtree:
    def test_rstar_overlap_path_exercised(self):
        # With the R* strategy, level-1 nodes use overlap-aware choice.
        tree = RTree(max_entries=4, split="rstar")
        rng = random.Random(188)
        for i in range(200):
            tree.insert((rng.uniform(0, 100), rng.uniform(0, 100)), payload=i)
        validate_tree(tree)
        assert tree.height >= 3  # level-1 choice actually ran

    def test_rect_inserts_choose_minimal_enlargement(self):
        tree = RTree(max_entries=4)
        # Two well-separated groups; a new rect near group A must not
        # inflate group B's MBR.
        for i in range(6):
            tree.insert(Rect((i, 0.0), (i + 0.5, 0.5)), payload=f"a{i}")
        for i in range(6):
            tree.insert(
                Rect((i + 1000.0, 0.0), (i + 1000.5, 0.5)), payload=f"b{i}"
            )
        tree.insert(Rect((3.0, 0.1), (3.2, 0.2)), payload="near-a")
        validate_tree(tree)
        # No top-level MBR spans both groups.
        for entry in tree.root.entries:
            assert not (entry.rect.lo[0] < 500.0 < entry.rect.hi[0])


class TestDegenerateShapes:
    def test_collinear_points(self):
        tree = RTree(max_entries=4)
        for i in range(60):
            tree.insert((float(i), 0.0), payload=i)
        validate_tree(tree)
        got, _ = nearest_dfs(tree, (29.6, 0.0), k=2)
        assert sorted(n.payload for n in got) == [29, 30]

    def test_all_identical_points_deep_tree(self):
        tree = RTree(max_entries=3, min_entries=1)
        for i in range(100):
            tree.insert((7.0, 7.0), payload=i)
        validate_tree(tree)
        got, _ = nearest_dfs(tree, (7.0, 7.0), k=100)
        assert len(got) == 100

    def test_mixed_degenerate_and_extended(self):
        tree = RTree(max_entries=4)
        rng = random.Random(189)
        for i in range(50):
            if i % 2:
                tree.insert((rng.uniform(0, 10), rng.uniform(0, 10)), payload=i)
            else:
                lo = (rng.uniform(0, 10), rng.uniform(0, 10))
                tree.insert(
                    Rect(lo, (lo[0] + rng.uniform(0, 3), lo[1])), payload=i
                )
        validate_tree(tree)
        got, _ = nearest_dfs(tree, (5.0, 5.0), k=5)
        assert_same_distances(got, linear_scan(tree, (5.0, 5.0), k=5))
