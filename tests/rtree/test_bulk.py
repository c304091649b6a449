"""Unit tests for STR bulk loading."""

import gc
import re

import pytest

from repro import PackedTree, RTree, Rect, bulk_load, nearest, linear_scan, validate_tree
from repro.rtree.bulk import _gc_paused
from repro.datasets import uniform_points
from repro.errors import InvalidParameterError
from tests.conftest import assert_same_distances


def items_for(n, seed=0):
    return [(p, i) for i, p in enumerate(uniform_points(n, seed=seed))]


class TestBulkLoad:
    def test_empty_input(self):
        tree = bulk_load([])
        assert len(tree) == 0
        validate_tree(tree)

    def test_single_item(self):
        tree = bulk_load([((1.0, 2.0), "only")])
        assert len(tree) == 1
        assert tree.height == 1
        validate_tree(tree)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 500, 2000])
    def test_sizes_around_boundaries(self, n):
        tree = bulk_load(items_for(n), max_entries=8)
        assert len(tree) == n
        validate_tree(tree)

    @pytest.mark.parametrize("fill", [0.6, 0.8, 1.0])
    def test_fill_factors(self, fill):
        tree = bulk_load(items_for(300), max_entries=10, fill_factor=fill)
        assert len(tree) == 300
        validate_tree(tree)

    def test_rejects_bad_fill_factor(self):
        with pytest.raises(InvalidParameterError):
            bulk_load(items_for(10), fill_factor=0.0)
        with pytest.raises(InvalidParameterError):
            bulk_load(items_for(10), fill_factor=1.5)

    def test_packed_tree_is_shorter_than_dynamic(self):
        items = items_for(2000)
        packed = bulk_load(items, max_entries=8)
        dynamic = RTree(max_entries=8)
        for rect, payload in items:
            dynamic.insert(rect, payload)
        assert packed.node_count < dynamic.node_count
        assert packed.height <= dynamic.height

    def test_queries_match_oracle(self):
        tree = bulk_load(items_for(800), max_entries=12)
        for q in [(0.0, 0.0), (512.0, 256.0), (999.0, 999.0)]:
            got = nearest(tree, q, k=5)
            assert_same_distances(got.neighbors, linear_scan(tree, q, k=5))

    def test_bulk_tree_supports_updates(self):
        tree = bulk_load(items_for(200), max_entries=8)
        tree.insert((5000.0, 5000.0), payload="new")
        assert len(tree) == 201
        validate_tree(tree)
        rect, payload = next(iter(items_for(200)))
        assert tree.delete(rect, payload=payload)
        validate_tree(tree)

    def test_rect_items(self):
        rects = [
            (Rect((float(i), 0.0), (float(i) + 2.0, 3.0)), i) for i in range(50)
        ]
        tree = bulk_load(rects, max_entries=6)
        assert len(tree) == 50
        validate_tree(tree)

    def test_duplicate_points(self):
        items = [((1.0, 1.0), i) for i in range(100)]
        tree = bulk_load(items, max_entries=8)
        assert len(tree) == 100
        validate_tree(tree)

    def test_three_dimensional(self):
        import random

        rng = random.Random(5)
        items = [
            ((rng.random(), rng.random(), rng.random()), i) for i in range(300)
        ]
        tree = bulk_load(items, max_entries=8)
        assert len(tree) == 300
        validate_tree(tree)

    def test_one_dimensional(self):
        items = [((float(i),), i) for i in range(100)]
        tree = bulk_load(items, max_entries=8)
        validate_tree(tree)
        got = nearest(tree, (42.4,), k=2)
        assert sorted(got.payloads()) == [42, 43]


class TestHilbertPacking:
    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidParameterError):
            bulk_load(items_for(10), method="zorder")

    def test_rejects_non_2d(self):
        items = [((1.0, 2.0, 3.0), 0), ((4.0, 5.0, 6.0), 1)]
        with pytest.raises(InvalidParameterError):
            bulk_load(items, max_entries=2, method="hilbert")

    @pytest.mark.parametrize("n", [1, 9, 64, 500])
    def test_valid_trees_at_many_sizes(self, n):
        tree = bulk_load(items_for(n), max_entries=8, method="hilbert")
        assert len(tree) == n
        validate_tree(tree)

    def test_queries_match_oracle(self):
        tree = bulk_load(items_for(600), max_entries=12, method="hilbert")
        for q in [(0.0, 0.0), (512.0, 256.0)]:
            got = nearest(tree, q, k=5)
            assert_same_distances(got.neighbors, linear_scan(tree, q, k=5))

    def test_duplicate_centers(self):
        items = [((5.0, 5.0), i) for i in range(60)]
        tree = bulk_load(items, max_entries=8, method="hilbert")
        validate_tree(tree)

    def test_morton_valid_and_correct(self):
        tree = bulk_load(items_for(700), max_entries=10, method="morton")
        validate_tree(tree)
        for q in [(0.0, 0.0), (512.0, 256.0)]:
            got = nearest(tree, q, k=4)
            assert_same_distances(got.neighbors, linear_scan(tree, q, k=4))

    def test_morton_works_in_three_dimensions(self):
        import random

        rng = random.Random(17)
        items = [
            ((rng.random(), rng.random(), rng.random()), i)
            for i in range(400)
        ]
        tree = bulk_load(items, max_entries=8, method="morton")
        validate_tree(tree)
        got = nearest(tree, (0.5, 0.5, 0.5), k=3)
        assert_same_distances(got.neighbors, linear_scan(tree, (0.5, 0.5, 0.5), k=3))

    def test_query_quality_comparable_to_str(self):
        from repro.core.knn_dfs import nearest_dfs

        items = items_for(3000, seed=77)
        str_tree = bulk_load(items, max_entries=16, method="str")
        hil_tree = bulk_load(items, max_entries=16, method="hilbert")
        str_pages = hil_pages = 0
        for q in [(i * 97.0 % 1000, i * 53.0 % 1000) for i in range(30)]:
            _, s = nearest_dfs(str_tree, q, k=4)
            _, h = nearest_dfs(hil_tree, q, k=4)
            str_pages += s.nodes_accessed
            hil_pages += h.nodes_accessed
        # Hilbert packing is typically within ~2x of STR on point data.
        assert hil_pages < 2.5 * str_pages


class TestCollectorPause:
    """``bulk_load`` allocates with the cyclic GC paused and always hands
    it back in the state it found; nothing else touches the collector."""

    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @staticmethod
    def _watched_items(seen, n=300, fail_at=None):
        for i, point in enumerate(uniform_points(n, seed=3)):
            if i == fail_at:
                raise RuntimeError("mid-build")
            seen.append(gc.isenabled())
            yield point, i

    @pytest.mark.parametrize("start", [True, False], ids=["enabled", "disabled"])
    def test_bulk_load_restores_the_state_it_found(self, start):
        (gc.enable if start else gc.disable)()
        seen = []
        tree = bulk_load(self._watched_items(seen), max_entries=8)
        assert gc.isenabled() is start
        assert len(tree) == 300 and seen == [False] * 300
        with pytest.raises(RuntimeError):
            bulk_load(self._watched_items(seen, fail_at=150), max_entries=8)
        assert gc.isenabled() is start
        with pytest.raises(InvalidParameterError):
            bulk_load(items_for(10), fill_factor=0.0)
        assert gc.isenabled() is start

    @pytest.mark.parametrize("start", [True, False], ids=["enabled", "disabled"])
    def test_packed_leaves_the_collector_alone(self, start):
        """The compile allocates almost nothing the collector tracks (its
        per-leaf lists are transient), so a pause there measured no gain
        and it runs in whatever state the caller has — mid-compile, after
        a failed compile and after ``from_tree`` alike."""
        tree = bulk_load(items_for(300), max_entries=8)
        seen = []

        class Watch(list):
            def __iter__(self):
                seen.append(gc.isenabled())
                return super().__iter__()

        class Boom(list):
            def __len__(self):
                raise MemoryError("mid-compile")

        leaf = next(iter(tree.leaves()))
        entries = leaf.entries
        (gc.enable if start else gc.disable)()
        leaf.entries = Watch(entries)
        tree.packed()
        assert gc.isenabled() is start and seen == [start]
        tree.insert((1.0, 1.0), payload="new")
        leaf.entries = Boom(entries)
        with pytest.raises(MemoryError):
            tree.packed()
        assert gc.isenabled() is start
        leaf.entries = entries
        PackedTree.from_tree(tree)
        assert gc.isenabled() is start
        assert tree.packed().size == 301

    @pytest.mark.parametrize("start", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "order", ["A+ A- B+ B-", "A+ B+ B- A-", "A+ B+ A- B-"]
    )
    def test_two_interleaved_pauses(self, order, start):
        """The collector state is process-wide, so two threads' pauses
        interleave like two context managers stepped by hand.  (The
        fourth interleaving — both read the state before either disables
        — needs a preemption inside the helper; it ends with two
        ``enable`` calls, which is the same as one.)"""
        (gc.enable if start else gc.disable)()
        pauses = {"A": _gc_paused(), "B": _gc_paused()}
        for step in order.split():
            if step[1] == "+":
                pauses[step[0]].__enter__()
                assert not gc.isenabled()
            else:
                pauses[step[0]].__exit__(None, None, None)
        assert gc.isenabled() is start

    def test_nothing_else_in_repro_toggles_the_collector(self):
        """One module calls ``gc.enable`` / ``gc.disable`` — the pause's
        home, which ``bulk_load`` and the sharded build both import —
        and nothing freezes the heap or retunes the thresholds."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        sources = {
            path.relative_to(root).as_posix(): path.read_text()
            for path in root.rglob("*.py")
        }
        togglers = [
            name for name, text in sources.items()
            if re.search(r"\bgc\.(enable|disable)\b", text)
        ]
        assert togglers == ["_gcpause.py"]
        assert not [
            name for name, text in sources.items()
            if re.search(r"\bgc\.(freeze|unfreeze|set_threshold)\b", text)
        ]
        users = sorted(
            name for name, text in sources.items() if "_gc_paused()" in text
        )
        assert users == ["_gcpause.py", "rtree/bulk.py", "shard/engine.py"]


def test_point_rects_share_one_coordinate_tuple():
    """The allocation shape of a cold start: one tuple per indexed point,
    whether the caller built the rects or ``bulk_load`` coerced them."""
    points = uniform_points(10_000, seed=9)
    for items in (
        [(Rect.from_point(p), i) for i, p in enumerate(points)],
        [(p, i) for i, p in enumerate(points)],
    ):
        tree = bulk_load(items, max_entries=113)
        assert sum(r.lo is r.hi for r, _ in tree.items()) == 10_000
