"""Tests for (1 + epsilon)-approximate nearest-neighbor search."""

import pytest

from hypothesis import given, settings, strategies as st

from repro import QueryConfig, RTree, linear_scan, nearest
from repro.core.knn_best_first import nearest_best_first
from repro.core.knn_dfs import nearest_dfs
from repro.errors import InvalidParameterError

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coord, coord)


class TestValidation:
    def test_negative_epsilon_rejected(self, small_tree):
        with pytest.raises(InvalidParameterError):
            nearest_dfs(small_tree, (0.0, 0.0), epsilon=-0.1)
        with pytest.raises(InvalidParameterError):
            nearest_best_first(small_tree, (0.0, 0.0), epsilon=-0.1)

    def test_epsilon_zero_is_exact(self, medium_tree):
        q = (313.0, 727.0)
        exact = linear_scan(medium_tree, q, k=4)
        for algorithm in ("dfs", "best-first"):
            got = nearest(
                medium_tree,
                q,
                k=4,
                config=QueryConfig(algorithm=algorithm, epsilon=0.0),
            )
            assert got.distances() == pytest.approx(
                [n.distance for n in exact]
            )


class TestGuarantee:
    @pytest.mark.parametrize("algorithm", ["dfs", "best-first"])
    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_error_is_bounded(self, medium_tree, algorithm, epsilon):
        for q in [(0.0, 0.0), (500.0, 500.0), (999.0, 333.0)]:
            for k in (1, 5):
                exact = linear_scan(medium_tree, q, k=k)
                approx = nearest(
                    medium_tree,
                    q,
                    k=k,
                    config=QueryConfig(algorithm=algorithm, epsilon=epsilon),
                )
                assert len(approx) == len(exact)
                for got, want in zip(approx, exact):
                    assert got.distance <= want.distance * (1 + epsilon) + 1e-9

    def test_large_epsilon_reads_fewer_pages(self, medium_tree):
        q = (500.0, 500.0)
        exact = nearest(medium_tree, q, k=8, config=QueryConfig(epsilon=0.0))
        approx = nearest(medium_tree, q, k=8, config=QueryConfig(epsilon=5.0))
        assert approx.stats.nodes_accessed <= exact.stats.nodes_accessed

    def test_pages_monotone_in_epsilon_best_first(self, medium_tree):
        # Best-first expands exactly the nodes within the shrunken bound,
        # so page counts are monotone non-increasing in epsilon.
        q = (250.0, 750.0)
        pages = []
        for epsilon in (0.0, 0.25, 1.0, 4.0):
            result = nearest(
                medium_tree,
                q,
                k=4,
                config=QueryConfig(algorithm="best-first", epsilon=epsilon),
            )
            pages.append(result.stats.nodes_accessed)
        assert pages == sorted(pages, reverse=True)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(point2d, min_size=1, max_size=100),
    point2d,
    st.integers(1, 6),
    st.floats(min_value=0.0, max_value=3.0),
    st.sampled_from(["dfs", "best-first"]),
)
def test_property_approximation_guarantee(points, query, k, epsilon, algorithm):
    tree = RTree(max_entries=4)
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    exact = linear_scan(tree, query, k=k)
    approx = nearest(
        tree,
        query,
        k=k,
        config=QueryConfig(algorithm=algorithm, epsilon=epsilon),
    )
    assert len(approx) == len(exact)
    slack = 1e-6
    for got, want in zip(approx, exact):
        assert got.distance <= want.distance * (1 + epsilon) + slack
