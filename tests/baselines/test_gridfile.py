"""Unit and property tests for the fixed-grid baseline."""

import pytest

from hypothesis import given, settings, strategies as st

from repro import Rect
from repro.baselines import linear_scan_items
from repro.baselines.gridfile import GridIndex
from repro.datasets import gaussian_clusters, uniform_points
from repro.errors import DimensionMismatchError, InvalidParameterError
from tests.conftest import assert_same_distances

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coord, coord)


def oracle(points, query, k):
    items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    return linear_scan_items(items, query, k=k)


class TestConstruction:
    def test_empty(self):
        grid = GridIndex([])
        assert len(grid) == 0
        neighbors, stats = grid.nearest((0.0, 0.0))
        assert neighbors == []
        assert stats.points_examined == 0

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatchError):
            GridIndex([((1.0, 2.0, 3.0), 0)])

    def test_rejects_bad_cells(self):
        with pytest.raises(InvalidParameterError):
            GridIndex([((0.0, 0.0), 0)], cells=0)

    def test_default_resolution_scales_with_n(self):
        small = GridIndex([(p, i) for i, p in enumerate(uniform_points(16, 1))])
        big = GridIndex([(p, i) for i, p in enumerate(uniform_points(1024, 1))])
        assert big.cells > small.cells

    def test_identical_points_share_a_bucket(self):
        grid = GridIndex([((5.0, 5.0), i) for i in range(20)])
        assert grid.bucket_count == 1


class TestQueries:
    def test_single_point(self):
        grid = GridIndex([((3.0, 4.0), "only")])
        neighbors, _ = grid.nearest((0.0, 0.0))
        assert neighbors[0].payload == "only"
        assert neighbors[0].distance == 5.0

    @pytest.mark.parametrize("k", [1, 4, 11])
    def test_matches_oracle_uniform(self, k):
        points = uniform_points(600, seed=81)
        grid = GridIndex([(p, i) for i, p in enumerate(points)])
        for q in [(0.0, 0.0), (512.0, 512.0), (1200.0, -50.0)]:
            got, _ = grid.nearest(q, k=k)
            assert_same_distances(got, oracle(points, q, k))

    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_oracle_clustered(self, k):
        points = gaussian_clusters(600, seed=82)
        grid = GridIndex([(p, i) for i, p in enumerate(points)])
        for q in [(100.0, 900.0), (500.0, 500.0)]:
            got, _ = grid.nearest(q, k=k)
            assert_same_distances(got, oracle(points, q, k))

    def test_query_outside_bounds(self):
        points = uniform_points(200, seed=83)
        grid = GridIndex([(p, i) for i, p in enumerate(points)])
        got, _ = grid.nearest((-5000.0, -5000.0), k=3)
        assert_same_distances(got, oracle(points, (-5000.0, -5000.0), 3))

    def test_invalid_k(self):
        grid = GridIndex([((0.0, 0.0), 0)])
        with pytest.raises(InvalidParameterError):
            grid.nearest((0.0, 0.0), k=0)

    def test_examines_fraction_of_points_on_uniform(self):
        points = uniform_points(4000, seed=84)
        grid = GridIndex([(p, i) for i, p in enumerate(points)])
        _, stats = grid.nearest((500.0, 500.0), k=1)
        assert stats.points_examined < len(points) / 10

    def test_skew_degrades_grid_but_not_correctness(self):
        # Grid resolution is global: a dense cluster plus one remote
        # outlier stretches the bounds so the whole cluster collapses into
        # a single cell.  The query must stay exact, but the grid is forced
        # to examine nearly every clustered point — the classic fixed-grid
        # skew failure the R-tree avoids.
        points = gaussian_clusters(1999, seed=85, clusters=1, spread=3.0)
        points.append((1e6, 1e6))
        grid = GridIndex([(p, i) for i, p in enumerate(points)])
        q = points[0]
        got, stats = grid.nearest(q, k=5)
        assert_same_distances(got, oracle(points, q, 5))
        assert stats.points_examined > 1000  # the skew penalty is visible


@settings(max_examples=50, deadline=None)
@given(
    st.lists(point2d, min_size=1, max_size=120),
    point2d,
    st.integers(1, 8),
    st.integers(1, 20),
)
def test_property_matches_oracle(points, query, k, cells):
    grid = GridIndex([(p, i) for i, p in enumerate(points)], cells=cells)
    got, _ = grid.nearest(query, k=k)
    assert_same_distances(got, oracle(points, query, k), tolerance=1e-6)
