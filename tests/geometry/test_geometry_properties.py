"""Property-based tests for the geometric primitives (hypothesis)."""

import math
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.errors import DimensionMismatchError
from repro.geometry.point import euclidean
from repro.geometry.rect import Rect
from repro.geometry.segment import Segment

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw, dimension=None):
    dim = dimension if dimension is not None else draw(st.integers(1, 4))
    lo = [draw(finite) for _ in range(dim)]
    hi = [c + draw(st.floats(min_value=0.0, max_value=1e5)) for c in lo]
    return Rect(lo, hi)


@st.composite
def points(draw, dimension):
    return tuple(draw(finite) for _ in range(dimension))


@given(rects())
def test_union_with_self_is_identity(r):
    assert r.union(r) == r


@given(st.data())
def test_union_contains_both_operands(data):
    dim = data.draw(st.integers(1, 4))
    a = data.draw(rects(dimension=dim))
    b = data.draw(rects(dimension=dim))
    u = a.union(b)
    assert u.contains_rect(a)
    assert u.contains_rect(b)


@given(st.data())
def test_union_is_commutative(data):
    dim = data.draw(st.integers(1, 4))
    a = data.draw(rects(dimension=dim))
    b = data.draw(rects(dimension=dim))
    assert a.union(b) == b.union(a)


@given(st.data())
def test_intersection_contained_in_both(data):
    dim = data.draw(st.integers(1, 3))
    a = data.draw(rects(dimension=dim))
    b = data.draw(rects(dimension=dim))
    inter = a.intersection(b)
    if inter is not None:
        assert a.contains_rect(inter)
        assert b.contains_rect(inter)
        assert a.intersects(b)
    else:
        assert not a.intersects(b)


@given(st.data())
def test_overlap_area_matches_intersection_area(data):
    dim = data.draw(st.integers(1, 3))
    a = data.draw(rects(dimension=dim))
    b = data.draw(rects(dimension=dim))
    inter = a.intersection(b)
    expected = inter.area() if inter is not None else 0.0
    assert math.isclose(a.overlap_area(b), expected, rel_tol=1e-9, abs_tol=1e-9)


@given(st.data())
def test_enlargement_nonnegative(data):
    dim = data.draw(st.integers(1, 3))
    a = data.draw(rects(dimension=dim))
    b = data.draw(rects(dimension=dim))
    assert a.enlargement(b) >= -1e-6


@given(st.data())
def test_enlargement_is_the_two_step_form_without_the_rect(data):
    """``enlargement`` reads the union's area without building the union,
    and the float it returns is the one ``union(...).area() - area()``
    would — equal, not approximately equal: R-tree insertion breaks ties
    on it."""
    dim = data.draw(st.integers(1, 4))
    extent = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e5))

    def draw_rect():
        lo = [data.draw(finite) for _ in range(dim)]
        return Rect(lo, [c + data.draw(extent) for c in lo])

    a = draw_rect()
    b = a if data.draw(st.booleans()) else draw_rect()
    two_step = a.union(b).area() - a.area()
    with mock.patch.object(Rect, "union") as union:
        assert a.enlargement(b) == two_step
    assert not union.called
    if a is b:
        assert two_step == 0.0


def test_enlargement_still_checks_dimensions():
    with pytest.raises(DimensionMismatchError):
        Rect((0.0,), (1.0,)).enlargement(Rect((0.0, 0.0), (1.0, 1.0)))


@given(st.data())
def test_clamp_point_is_inside_and_closest_corner_cases(data):
    dim = data.draw(st.integers(1, 3))
    r = data.draw(rects(dimension=dim))
    p = data.draw(points(dimension=dim))
    clamped = r.clamp_point(p)
    assert r.contains_point(clamped)
    if r.contains_point(p):
        assert clamped == p


@given(st.data())
def test_segment_distance_bounded_by_endpoint_distances(data):
    dim = data.draw(st.integers(1, 3))
    a = data.draw(points(dimension=dim))
    b = data.draw(points(dimension=dim))
    q = data.draw(points(dimension=dim))
    seg = Segment(a, b)
    d = seg.distance_to(q)
    assert d <= euclidean(q, a) + 1e-6
    assert d <= euclidean(q, b) + 1e-6


@given(st.data())
def test_segment_closest_point_lies_on_mbr(data):
    dim = data.draw(st.integers(1, 3))
    a = data.draw(points(dimension=dim))
    b = data.draw(points(dimension=dim))
    q = data.draw(points(dimension=dim))
    seg = Segment(a, b)
    closest = seg.closest_point_to(q)
    # Loosen the box a hair for floating-point roundoff.
    mbr = seg.mbr()
    eps = 1e-6 * (1.0 + max(map(abs, mbr.lo + mbr.hi)))
    grown = Rect([c - eps for c in mbr.lo], [c + eps for c in mbr.hi])
    assert grown.contains_point(closest)


@given(st.data())
def test_euclidean_triangle_inequality(data):
    dim = data.draw(st.integers(1, 4))
    a = data.draw(points(dimension=dim))
    b = data.draw(points(dimension=dim))
    c = data.draw(points(dimension=dim))
    assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-6


@given(st.data())
def test_from_points_contains_all(data):
    dim = data.draw(st.integers(1, 3))
    pts = data.draw(st.lists(points(dimension=dim), min_size=1, max_size=20))
    box = Rect.from_points(pts)
    for p in pts:
        assert box.contains_point(p)


@given(st.data())
def test_segment_distance_is_true_minimum_over_the_segment(data):
    # The closest-point formula must never beat a sampled point on the
    # segment, and must match the best sample to within discretization.
    dim = data.draw(st.integers(1, 3))
    a = data.draw(points(dimension=dim))
    b = data.draw(points(dimension=dim))
    q = data.draw(points(dimension=dim))
    seg = Segment(a, b)
    d = seg.distance_to(q)
    samples = [
        euclidean(q, tuple(x + (y - x) * t for x, y in zip(a, b)))
        for t in [i / 16 for i in range(17)]
    ]
    assert d <= min(samples) + 1e-6 * (1.0 + min(samples))
