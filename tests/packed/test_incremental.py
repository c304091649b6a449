"""``tree.packed()`` recompiles incrementally; nobody can tell.

After a mutation ``RTree.packed()`` copies every node the mutation did not
touch out of the previous compile's slabs and re-walks only the touched
ones.  The property: whatever the mutation history, the result equals a
from-scratch ``PackedTree.from_tree(tree)`` on every slab, mirror and
header field, and shares the very same leaf ``Rect`` objects.
"""

import sys
import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PackedTree, RTree, bulk_load
from repro.geometry.rect import Rect
from repro.rtree.splits import resolve_split_strategy

pytestmark = pytest.mark.packed

_FIELDS = (
    "dimension", "size", "epoch", "pages_skipped_corrupt",
    "kinds", "starts", "page_ids", "coords", "refs", "payloads",
    "xlo", "ylo", "xhi", "yhi",
)


def assert_same_compile(tree):
    """The cached compile of *tree* vs a from-scratch one."""
    cached = tree.packed()
    fresh = PackedTree.from_tree(tree)
    for field in _FIELDS:
        assert getattr(cached, field) == getattr(fresh, field), field
    assert len(cached.rects) == len(fresh.rects)
    assert all(a is b for a, b in zip(cached.rects, fresh.rects))
    assert tree.packed() is cached


# A coarse grid: duplicates, and rects equal to earlier points, are common.
_coord = st.integers(0, 12).map(float)
_extent = st.sampled_from([0.0, 0.0, 0.5, 3.0])


def _ops(dim):
    insert = st.tuples(
        st.just("insert"),
        st.lists(_coord, min_size=dim, max_size=dim),
        st.lists(_extent, min_size=dim, max_size=dim),
    )
    delete = st.tuples(st.just("delete"), st.integers(0, 10**6), st.none())
    clear = st.tuples(st.just("clear"), st.none(), st.none())
    return st.lists(
        st.one_of(insert, insert, insert, delete, delete, clear),
        min_size=1,
        max_size=40,
    )


def _start(dim, bulk, split, forced_reinsert):
    """An empty tree, or an STR-packed one whose leaves are all full (the
    first insert splits a leaf and, three levels up, the root)."""
    live = []
    if bulk:
        for i in range(5 ** 3):
            point = tuple(float((i * (3 + 4 * axis)) % 13) for axis in range(dim))
            live.append((Rect.from_point(point), i))
        tree = bulk_load(live, max_entries=5)
        tree.split_strategy = resolve_split_strategy(split)
        tree.forced_reinsert = forced_reinsert
    else:
        tree = RTree(max_entries=5, split=split, forced_reinsert=forced_reinsert)
    return tree, live


def _apply(tree, live, op, serial):
    kind, a, b = op
    if kind == "insert":
        rect = Rect(a, [lo + extent for lo, extent in zip(a, b)])
        tree.insert(rect, payload=serial)
        live.append((rect, serial))
    elif kind == "delete":
        if live:
            rect, payload = live.pop(a % len(live))
            assert tree.delete(rect, payload)
    else:
        tree.clear()
        live.clear()


GRID = [
    (split, forced, dim, bulk)
    for split in ("linear", "quadratic", "rstar")
    for forced in (False, True)
    for dim in (2, 3)
    for bulk in (False, True)
]


@pytest.mark.parametrize("split,forced,dim,bulk", GRID)
class TestIncrementalEqualsFromScratch:
    @settings(max_examples=25)
    @given(data=st.data())
    def test_after_every_step(self, split, forced, dim, bulk, data):
        tree, live = _start(dim, bulk, split, forced)
        assert_same_compile(tree)
        for serial, op in enumerate(data.draw(_ops(dim)), start=1000):
            _apply(tree, live, op, serial)
            assert_same_compile(tree)
            assert len(tree) == len(live)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_sparse_and_uncached_observers(self, split, forced, dim, bulk, data):
        """``packed()`` skipped for many mutations, and callers running their
        own un-cached ``from_tree`` in between, which must not disturb the
        marks the next ``packed()`` relies on."""
        tree, live = _start(dim, bulk, split, forced)
        watch = st.sampled_from(["packed", "from_tree", "nothing", "nothing"])
        for serial, op in enumerate(data.draw(_ops(dim)), start=1000):
            _apply(tree, live, op, serial)
            observer = data.draw(watch)
            if observer == "packed":
                assert_same_compile(tree)
            elif observer == "from_tree":
                PackedTree.from_tree(tree)
        assert_same_compile(tree)


@pytest.mark.parametrize("split", ["linear", "quadratic", "rstar"])
def test_drain_to_empty_then_refill(split):
    """Deletes that condense, reinsert orphans and shrink the root all the
    way down to an empty tree, then a refill from empty."""
    tree, live = _start(2, True, split, False)
    heights = {tree.height}
    while live:
        rect, payload = live.pop((7 * len(live)) % len(live))
        assert tree.delete(rect, payload)
        assert_same_compile(tree)
        heights.add(tree.height)
    assert heights >= {1, 2, 3} and len(tree) == 0
    for i in range(40):
        tree.insert((float(i % 7), float(i % 5)), payload=i)
        assert_same_compile(tree)
    assert tree.height > 1


def test_leaf_kind_flips_with_its_contents():
    from repro.packed.layout import NODE_LEAF_POINTS, NODE_LEAF_RECT

    tree = RTree(max_entries=8)
    for i in range(6):
        tree.insert((float(i), 0.0), payload=i)
    assert list(tree.packed().kinds) == [NODE_LEAF_POINTS]
    box = Rect((1.0, 1.0), (2.0, 2.0))
    tree.insert(box, payload="box")
    assert list(tree.packed().kinds) == [NODE_LEAF_RECT]
    assert tree.delete(box, "box")
    assert list(tree.packed().kinds) == [NODE_LEAF_POINTS]
    assert_same_compile(tree)


def test_untouched_nodes_are_not_rewalked():
    """The point of the exercise: one insert re-reads the entries of the
    nodes on its path (and their new siblings), not of the whole tree."""
    tree, _ = _start(2, True, "quadratic", False)
    tree.packed()
    reads = []

    class Spy(list):
        def __iter__(self):
            reads.append(len(self))
            return super().__iter__()

    tree.insert((6.0, 6.0), payload="new")
    leaves = [node for node in tree.nodes() if node.is_leaf]
    dirty = [node for node in leaves if node.packed_index < 0]
    assert 0 < len(dirty) <= 2 < len(leaves)
    for node in leaves:
        node.entries = Spy(node.entries)
    tree.packed()
    assert len(reads) == len(dirty)


def test_failed_compile_does_not_poison_the_next():
    tree, _ = _start(2, True, "quadratic", False)
    tree.packed()
    tree.insert((0.0, 0.0), payload="new")
    # Die on the last node of the walk: by then the split has shifted
    # every later node's index and the walk has re-marked them.
    queue = deque([tree.root])
    while queue:
        victim = queue.popleft()
        queue.extend(victim.children())
    entries = victim.entries

    class Boom(list):
        def __len__(self):
            raise MemoryError("mid-compile")

    victim.entries = Boom(entries)
    with pytest.raises(MemoryError):
        tree.packed()
    victim.entries = entries
    assert_same_compile(tree)


class TestSingleFlight:
    """Readers released together by one write share one compile."""

    def _count_compiles(self, monkeypatch):
        """Epochs of every PackedTree built from here on; each build is
        held open long enough for all the other readers to arrive."""
        built = []
        real = PackedTree.__init__

        def slow_init(self, *args, **kwargs):
            built.append(kwargs["epoch"])
            time.sleep(0.05)
            real(self, *args, **kwargs)

        monkeypatch.setattr(PackedTree, "__init__", slow_init)
        return built

    def test_four_threads_one_compile(self, monkeypatch):
        tree, _ = _start(2, True, "quadratic", False)
        tree.packed()
        calls = self._count_compiles(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(3):
                tree.insert((6.0, float(round_)), payload=("new", round_))
                barrier = threading.Barrier(4)
                seen = []

                def reader():
                    barrier.wait(timeout=10)
                    seen.append(tree.packed())

                threads = [threading.Thread(target=reader) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 4 and all(p is seen[0] for p in seen)
                assert seen[0].epoch == tree.epoch
        finally:
            sys.setswitchinterval(interval)
        assert calls == [tree.epoch - 2, tree.epoch - 1, tree.epoch]
        monkeypatch.undo()
        assert_same_compile(tree)

    def test_engine_workers_share_one_compile(self, monkeypatch):
        from repro import QueryEngine

        tree, _ = _start(2, True, "quadratic", False)
        with QueryEngine(tree, workers=4, packed=True) as engine:
            engine.query((1.0, 1.0), k=1)
            calls = self._count_compiles(monkeypatch)
            engine.insert((6.5, 6.5), payload="new")
            queries = [(float(i % 13), float(i % 11)) for i in range(64)]
            results = engine.query_batch(queries, k=1)
            assert len(results) == 64
            assert engine.query((6.5, 6.5), k=1).payloads() == ["new"]
        assert calls == [tree.epoch]
