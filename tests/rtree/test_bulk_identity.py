"""The fast cold start builds the very same trees, slabs and shard plans.

``Rect.from_point``, ``Rect.union_all``, the STR tiling in
``repro.rtree.bulk`` / ``repro.shard.partition`` and the leaf branch of
``PackedTree._compile`` were rewritten onto C-level builtins.  The forms
they replaced are kept here as references — entry-sorting with a lambda
key, the per-axis ``<`` / ``>`` MBR loop, ``Rect(p, p)``, the per-entry
leaf walk — and every structure the new code builds must equal what they
build, bit for bit: same items in the same order in every node, same node
ids and levels, same MBR bit patterns, same slabs, same shard groups.
"""

import math
import pickle
from array import array
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import PackedTree, RTree, bulk_load
from repro.datasets import gaussian_clusters, uniform_points
from repro.errors import DimensionMismatchError, GeometryError
from repro.geometry.rect import Rect
from repro.packed.layout import NODE_INTERNAL, NODE_LEAF_POINTS, NODE_LEAF_RECT
from repro.rtree.bulk import _rebalance_tail
from repro.rtree.entry import Entry
from repro.shard.partition import plan_shards


# ----------------------------------------------------------------------
# The replaced forms, verbatim in behaviour
# ----------------------------------------------------------------------
def reference_union_all(rects):
    it = iter(rects)
    try:
        first = next(it)
    except StopIteration:
        raise GeometryError("cannot union an empty rect collection") from None
    lo = list(first.lo)
    hi = list(first.hi)
    dim = len(lo)
    for r in it:
        if r.dimension != dim:
            raise DimensionMismatchError(dim, r.dimension, "union_all")
        for i in range(dim):
            if r.lo[i] < lo[i]:
                lo[i] = r.lo[i]
            if r.hi[i] > hi[i]:
                hi[i] = r.hi[i]
    return Rect(lo, hi)


def reference_str_partition(entries, per_node, dimension, axis):
    if len(entries) <= per_node:
        return [entries]
    ordered = sorted(entries, key=lambda e: e.rect.center[axis])
    if axis == dimension - 1:
        return [
            ordered[i:i + per_node] for i in range(0, len(ordered), per_node)
        ]
    leaf_count = math.ceil(len(entries) / per_node)
    slab_count = max(1, math.ceil(leaf_count ** (1.0 / (dimension - axis))))
    slab_capacity = per_node * math.ceil(leaf_count / slab_count)
    groups = []
    for i in range(0, len(ordered), slab_capacity):
        slab = ordered[i:i + slab_capacity]
        groups.extend(reference_str_partition(slab, per_node, dimension, axis + 1))
    return groups


def reference_bulk_load(items, max_entries, fill_factor):
    tree = RTree(max_entries=max_entries)
    entries = [
        Entry(rect if isinstance(rect, Rect) else Rect(rect, rect), payload=payload)
        for rect, payload in items
    ]
    dimension = entries[0].rect.dimension
    per_node = max(2, int(max_entries * fill_factor), 2 * tree.min_entries)
    per_node = min(per_node, max_entries)
    tree._dimension = dimension
    tree._size = len(entries)
    level = 0
    while len(entries) > max_entries:
        groups = reference_str_partition(entries, per_node, dimension, 0)
        _rebalance_tail(groups, tree.min_entries)
        nodes = []
        for group in groups:
            node = tree._new_node(level=level)
            node.entries = group
            nodes.append(node)
        entries = [
            Entry(reference_union_all(e.rect for e in node.entries), child=node)
            for node in nodes
        ]
        level += 1
    root = tree._new_node(level=level)
    root.entries = entries
    tree._release_node(tree.root)
    tree.root = root
    return tree


def reference_compile(tree):
    """The per-entry walk, from scratch; returns the slabs by name."""
    kinds, starts, page_ids = array("b"), array("l", [0]), array("l")
    coords, refs, payloads, rects = array("d"), array("l"), [], []
    queue = deque((tree.root,))
    next_index = 1
    while queue:
        node = queue.popleft()
        page_ids.append(node.node_id)
        if node.is_leaf:
            all_points = True
            for entry in node.entries:
                coords.extend(entry.rect.lo)
                coords.extend(entry.rect.hi)
                if entry.rect.lo != entry.rect.hi:
                    all_points = False
                refs.append(len(payloads))
                payloads.append(entry.payload)
                rects.append(entry.rect)
            kinds.append(NODE_LEAF_POINTS if all_points else NODE_LEAF_RECT)
        else:
            kinds.append(NODE_INTERNAL)
            for entry in node.entries:
                coords.extend(entry.rect.lo)
                coords.extend(entry.rect.hi)
                refs.append(next_index)
                next_index += 1
                queue.append(entry.child)
        starts.append(starts[-1] + len(node.entries))
    return dict(
        kinds=kinds, starts=starts, page_ids=page_ids, coords=coords,
        refs=refs, payloads=payloads, rects=rects,
    )


def reference_plan(items, shards):
    """``plan_shards(method="str")``: (center, item) pairs, lambda key."""
    pool = list(items)

    def widest_axis(centers):
        best_axis, best_extent = 0, -1.0
        for axis in range(len(centers[0])):
            values = [c[axis] for c in centers]
            extent = max(values) - min(values)
            if extent > best_extent:
                best_extent, best_axis = extent, axis
        return best_axis

    def split(run, want):
        if want == 1 or len(run) <= 1:
            return [[item for _, item in run]]
        left_want = (want + 1) // 2
        right_want = want - left_want
        axis = widest_axis([c for c, _ in run])
        run = sorted(run, key=lambda pair: pair[0][axis])
        cut = round(len(run) * left_want / want)
        cut = max(left_want, min(len(run) - right_want, cut))
        return split(run[:cut], left_want) + split(run[cut:], right_want)

    indexed = [(item[0].center, item) for item in pool]
    groups = split(indexed, min(shards, len(pool)))
    mbrs = [reference_union_all(rect for rect, _ in group) for group in groups]
    return groups, mbrs


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def bits(rect):
    """Bounds as hex strings: tells ``-0.0`` from ``0.0``, unlike ``==``."""
    return [c.hex() for c in rect.lo], [c.hex() for c in rect.hi]


def assert_same_tree(tree, reference):
    assert len(tree) == len(reference)
    assert tree.dimension == reference.dimension
    assert tree.height == reference.height
    assert tree.node_count == reference.node_count
    queue = deque([(tree.root, reference.root)])
    while queue:
        node, ref = queue.popleft()
        assert (node.node_id, node.level) == (ref.node_id, ref.level)
        assert len(node.entries) == len(ref.entries)
        for entry, ref_entry in zip(node.entries, ref.entries):
            assert bits(entry.rect) == bits(ref_entry.rect)
            if node.is_leaf:
                assert entry.child is None and ref_entry.child is None
                # Payloads are unique indices: equal payload = same item.
                assert entry.payload == ref_entry.payload
            else:
                assert entry.rect == ref_entry.rect
                queue.append((entry.child, ref_entry.child))


def assert_reference_compile(tree):
    packed = PackedTree.from_tree(tree)
    expected = reference_compile(tree)
    for name, slab in expected.items():
        if name != "rects":
            assert getattr(packed, name) == slab, name
    assert len(packed.rects) == len(expected["rects"])
    assert all(a is b for a, b in zip(packed.rects, expected["rects"]))
    if tree.dimension == 2:
        coords = expected["coords"]
        assert (packed.xlo, packed.ylo, packed.xhi, packed.yhi) == (
            coords[0::4], coords[1::4], coords[2::4], coords[3::4],
        )
    return packed


# ----------------------------------------------------------------------
# Workloads: uniform, clustered (clipped at the bounds, so tie-heavy at
# the edges), and a coarse grid with whole-point duplicates
# ----------------------------------------------------------------------
def _points(kind, n, dim):
    if kind == "uniform":
        return uniform_points(n, seed=dim, dimension=dim)
    if kind == "clustered":
        return gaussian_clusters(
            n, seed=dim, dimension=dim, clusters=5, spread=150.0
        )
    base = uniform_points(n - n // 5, seed=dim, dimension=dim)
    grid = [tuple(50.0 * round(c / 50.0) for c in p) for p in base]
    return grid + grid[:n - len(grid)]


def _items(kind, n, dim, shape):
    points = _points(kind, n, dim)
    if shape == "point":
        return [(p, i) for i, p in enumerate(points)]
    if shape == "point-rect":
        return [(Rect.from_point(p), i) for i, p in enumerate(points)]
    return [
        (Rect(p, [c + 0.5 + (i + axis) % 7 for axis, c in enumerate(p)]), i)
        for i, p in enumerate(points)
    ]


KINDS = ("uniform", "clustered", "grid")
SHAPES = ("point", "point-rect", "box")


@pytest.mark.parametrize("fill_factor", [0.7, 1.0])
@pytest.mark.parametrize("max_entries", [4, 8, 113])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_bulk_load_and_compile_are_bit_identical(
    kind, dim, shape, max_entries, fill_factor
):
    # 797 is prime: never a multiple of the fanout, so the tail rebalances.
    items = _items(kind, 797, dim, shape)
    tree = bulk_load(items, max_entries=max_entries, fill_factor=fill_factor)
    assert_same_tree(tree, reference_bulk_load(items, max_entries, fill_factor))
    if shape != "point":  # pre-built rects are indexed as the same objects
        by_payload = dict((payload, rect) for rect, payload in items)
        assert all(rect is by_payload[payload] for rect, payload in tree.items())
    packed = assert_reference_compile(tree)
    leaf_kinds = set(packed.kinds) - {NODE_INTERNAL}
    assert leaf_kinds == {NODE_LEAF_RECT if shape == "box" else NODE_LEAF_POINTS}


def test_three_levels_at_the_serving_fanout():
    items = _items("clustered", 113 * 113 + 59, 2, "point-rect")
    tree = bulk_load(items, max_entries=113)
    assert tree.height == 3
    assert_same_tree(tree, reference_bulk_load(items, 113, 1.0))
    assert_reference_compile(tree)


def test_cached_compile_after_a_write_matches_the_reference_walk():
    """The reused-run branch and the rewritten leaf branch, interleaved."""
    tree = bulk_load(_items("grid", 797, 2, "point-rect"), max_entries=8)
    tree.packed()
    tree.insert((1.0, 2.0), payload="new")
    tree.insert(Rect((3.0, 4.0), (5.0, 6.0)), payload="box")
    cached = tree.packed()
    for name, slab in reference_compile(tree).items():
        assert getattr(cached, name) == slab, name


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
@pytest.mark.parametrize("shape", ["point-rect", "box"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_shard_plan_is_identical(kind, dim, shape, shards):
    items = _items(kind, 797, dim, shape)
    plan = plan_shards(items, shards, method="str")
    groups, mbrs = reference_plan(items, shards)
    assert len(plan.groups) == len(groups) == shards
    for group, expected in zip(plan.groups, groups):
        assert len(group) == len(expected)
        assert all(a is b for a, b in zip(group, expected))
    assert [bits(m) for m in plan.mbrs] == [bits(m) for m in mbrs]
    assert list(plan.mbrs) == mbrs


# ----------------------------------------------------------------------
# Rect.from_point == Rect(p, p), one tuple instead of two
# ----------------------------------------------------------------------
#: The coordinate domain both constructors accept: finite, |c| <= 1e150
#: (the over-bound side is a ``bad`` case below).
_number = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150),
    st.integers(-10**9, 10**9),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1e150, -1e150, 5e-324]),
)


@given(point=st.lists(_number, min_size=1, max_size=5))
def test_from_point_equals_the_two_bound_constructor(point):
    for spelling in (point, tuple(point), iter(point)):
        rect = Rect.from_point(spelling)
        expected = Rect(point, point)
        assert rect == expected and expected == rect
        assert hash(rect) == hash(expected)
        assert repr(rect) == repr(expected)
        assert bits(rect) == bits(expected)
        assert rect.lo is rect.hi
        assert all(type(c) is float for c in rect.lo)
        assert rect.center is rect.lo
        copy = pickle.loads(pickle.dumps(rect))
        assert copy == rect and bits(copy) == bits(rect)
        with pytest.raises(AttributeError):
            rect.lo = (0.0,)


@pytest.mark.parametrize(
    "bad",
    [
        (), [], (float("nan"), 0.0), (0.0, float("nan")), (float("inf"),),
        (-float("inf"), 1.0), ("a",), (None,), (1.0, "2.0x"), 5, None,
        (10**400,), (math.nextafter(1e150, math.inf),), (0.0, -1e308),
        (10**151, 0),
    ],
    ids=repr,
)
def test_from_point_rejects_what_the_constructor_rejects(bad):
    with pytest.raises(Exception) as expected:
        Rect(bad, bad)
    with pytest.raises(Exception) as got:
        Rect.from_point(bad)
    assert type(got.value) is type(expected.value)
    assert not isinstance(got.value, AssertionError)


def test_from_point_accepts_numeric_strings_like_the_constructor():
    # float() semantics, exactly as before: documented by neither, pinned
    # so the two constructors cannot drift apart.
    assert Rect.from_point(("1.5", 2)) == Rect(("1.5", 2), ("1.5", 2))


def test_from_point_on_a_subclass_builds_the_subclass():
    class Tagged(Rect):
        __slots__ = ()

    assert type(Tagged.from_point((1.0, 2.0))) is Tagged
    assert type(Tagged.union_all([Rect.from_point((1.0, 2.0))])) is Tagged


# ----------------------------------------------------------------------
# Rect.union_all == the per-axis loop, ties included
# ----------------------------------------------------------------------
# Few distinct values, both zeros: first-of-equal decides the sign bit.
_tie_coord = st.sampled_from([-0.0, 0.0, -1.0, 1.0, 2.5])


@st.composite
def _rect_lists(draw):
    dim = draw(st.integers(1, 4))
    rects = []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.lists(_tie_coord, min_size=dim, max_size=dim))
        b = draw(st.lists(_tie_coord, min_size=dim, max_size=dim))
        rects.append(
            Rect([min(x, y) for x, y in zip(a, b)], [max(x, y) for x, y in zip(a, b)])
        )
    return rects


@given(rects=_rect_lists())
def test_union_all_equals_the_loop_form(rects):
    expected = reference_union_all(rects)
    for spelling in (rects, tuple(rects), iter(rects)):
        union = Rect.union_all(spelling)
        assert union == expected
        assert bits(union) == bits(expected)
        assert type(union.lo) is tuple and type(union.hi) is tuple


def test_union_all_keeps_the_first_of_equal_zeros():
    neg, pos = Rect.from_point((-0.0,)), Rect.from_point((0.0,))
    assert bits(Rect.union_all([neg, pos])) == (["-0x0.0p+0"], ["-0x0.0p+0"])
    assert bits(Rect.union_all([pos, neg])) == (["0x0.0p+0"], ["0x0.0p+0"])
    assert bits(Rect.union_all([neg, pos])) == bits(reference_union_all([neg, pos]))
    assert bits(Rect.union_all([pos, neg])) == bits(reference_union_all([pos, neg]))


def test_union_all_edge_cases():
    only = Rect((1.0, 2.0), (3.0, 4.0))
    assert Rect.union_all([only]) == only
    assert Rect.union_all([Rect.from_point((1.0,))]) == Rect((1.0,), (1.0,))
    with pytest.raises(GeometryError):
        Rect.union_all([])
    with pytest.raises(GeometryError):
        Rect.union_all(iter(()))
    for mixed in (
        [Rect.from_point((1.0, 2.0)), Rect.from_point((1.0, 2.0, 3.0))],
        [Rect.from_point((1.0, 2.0, 3.0)), Rect.from_point((1.0, 2.0))],
        [only, only, Rect.from_point((0.0,)), only],
    ):
        with pytest.raises(DimensionMismatchError) as expected:
            reference_union_all(mixed)
        with pytest.raises(DimensionMismatchError) as got:
            Rect.union_all(mixed)
        assert (got.value.expected, got.value.actual) == (
            expected.value.expected, expected.value.actual,
        )
        assert str(got.value) == str(expected.value)
