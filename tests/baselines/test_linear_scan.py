"""Unit tests for the linear-scan oracle."""

import pytest

from repro import RTree, Rect, linear_scan
from repro.baselines import linear_scan_items
from repro.errors import InvalidParameterError


class TestLinearScanItems:
    def test_empty(self):
        assert linear_scan_items([], (0.0, 0.0), k=3) == []

    def test_orders_by_distance(self):
        items = [
            (Rect.from_point((10.0, 0.0)), "far"),
            (Rect.from_point((1.0, 0.0)), "near"),
            (Rect.from_point((5.0, 0.0)), "mid"),
        ]
        got = linear_scan_items(items, (0.0, 0.0), k=3)
        assert [n.payload for n in got] == ["near", "mid", "far"]
        assert [n.distance for n in got] == [1.0, 5.0, 10.0]

    def test_k_caps_results(self):
        items = [(Rect.from_point((float(i), 0.0)), i) for i in range(10)]
        assert len(linear_scan_items(items, (0.0, 0.0), k=4)) == 4

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            linear_scan_items([], (0.0, 0.0), k=0)

    def test_object_distance_hook(self):
        from repro.geometry.segment import Segment

        seg = Segment((0.0, 10.0), (10.0, 10.0))
        items = [(seg.mbr(), seg), (Rect.from_point((0.0, 3.0)), "pt")]

        def hook(q, payload, rect):
            if isinstance(payload, Segment):
                return payload.distance_squared_to(q)
            from repro.core.metrics import mindist_squared

            return mindist_squared(q, rect)

        got = linear_scan_items(items, (5.0, 9.0), k=2, object_distance_sq=hook)
        assert got[0].payload is seg
        assert got[0].distance == pytest.approx(1.0)


class TestLinearScanTree:
    def test_scans_whole_tree(self, small_tree):
        got = linear_scan(small_tree, (500.0, 500.0), k=len(small_tree))
        assert len(got) == len(small_tree)
        distances = [n.distance for n in got]
        assert distances == sorted(distances)

    def test_empty_tree(self):
        assert linear_scan(RTree(), (0.0, 0.0)) == []
