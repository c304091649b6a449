"""Property-based R-tree tests: random operation sequences keep every
invariant, and queries stay correct throughout."""

import random

from hypothesis import given, settings, strategies as st

from repro import RTree, Rect, bulk_load, linear_scan
from repro.rtree import validate_tree
from repro.core.knn_dfs import nearest_dfs
from tests.conftest import assert_same_distances

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coord, coord)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(point2d, min_size=0, max_size=150),
    st.integers(2, 10),
    st.sampled_from(["linear", "quadratic", "rstar"]),
)
def test_insert_only_sequences_stay_valid(points, max_entries, split):
    tree = RTree(max_entries=max_entries, split=split)
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    validate_tree(tree)
    assert len(tree) == len(points)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mixed_insert_delete_sequences_stay_valid(data):
    max_entries = data.draw(st.integers(2, 8))
    ops = data.draw(st.lists(st.tuples(st.booleans(), point2d), max_size=120))
    tree = RTree(max_entries=max_entries)
    live = []
    for i, (is_insert, p) in enumerate(ops):
        if is_insert or not live:
            tree.insert(p, payload=i)
            live.append((p, i))
        else:
            index = data.draw(st.integers(0, len(live) - 1))
            victim_point, victim_payload = live.pop(index)
            assert tree.delete(victim_point, payload=victim_payload)
    validate_tree(tree)
    assert len(tree) == len(live)
    assert sorted(p for _, p in tree.items()) == sorted(i for _, i in live)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_window_query_matches_brute_force(data):
    points = data.draw(st.lists(point2d, min_size=0, max_size=100))
    tree = RTree(max_entries=data.draw(st.integers(2, 8)))
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    lo = data.draw(point2d)
    extent = data.draw(st.tuples(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    ))
    window = Rect(lo, (lo[0] + extent[0], lo[1] + extent[1]))
    got = sorted(p for _, p in tree.search(window))
    expected = sorted(
        i for i, p in enumerate(points) if window.contains_point(p)
    )
    assert got == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_knn_still_correct_after_heavy_deletion(data):
    points = data.draw(st.lists(point2d, min_size=10, max_size=100))
    tree = RTree(max_entries=4)
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    # Delete a random half.
    indices = list(range(len(points)))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    rng.shuffle(indices)
    for i in indices[: len(points) // 2]:
        assert tree.delete(points[i], payload=i)
    validate_tree(tree)
    query = data.draw(point2d)
    k = data.draw(st.integers(1, 5))
    got, _ = nearest_dfs(tree, query, k=k)
    assert_same_distances(got, linear_scan(tree, query, k=k), tolerance=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(point2d, min_size=1, max_size=200),
    st.integers(4, 16),
    st.floats(min_value=0.5, max_value=1.0),
)
def test_bulk_load_always_valid(points, max_entries, fill):
    tree = bulk_load(
        [(p, i) for i, p in enumerate(points)],
        max_entries=max_entries,
        fill_factor=fill,
    )
    validate_tree(tree)
    assert len(tree) == len(points)
    assert sorted(p for _, p in tree.items()) == list(range(len(points)))


@settings(max_examples=30, deadline=None)
@given(st.lists(point2d, min_size=1, max_size=120), st.integers(2, 8))
def test_bulk_and_dynamic_answer_identically(points, max_entries):
    items = [(p, i) for i, p in enumerate(points)]
    packed = bulk_load(items, max_entries=max_entries)
    dynamic = RTree(max_entries=max_entries)
    for p, i in items:
        dynamic.insert(p, payload=i)
    query = points[0]
    a, _ = nearest_dfs(packed, query, k=3)
    b, _ = nearest_dfs(dynamic, query, k=3)
    assert_same_distances(a, b, tolerance=1e-6)
