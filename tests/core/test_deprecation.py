"""The one configuration surface is warning-free.

``config=QueryConfig(...)`` says what a query means and
``options=EngineOptions(...)`` how a batch runs; ``k=`` is the one
per-call override.  None of them may emit a ``DeprecationWarning`` (the
suite turns one into an error), and the batch profile keeps the
historical sequential accounting.
"""

import warnings

import pytest

from repro import QueryConfig, nearest, nearest_batch
from repro.core.query import NearestNeighborQuery
from repro.service.options import EngineOptions

from tests.conftest import build_point_tree


@pytest.fixture
def tree(small_points):
    return build_point_tree(small_points)


QUERY = (0.5, 0.5)


class TestSilent:
    def test_config_spelling_is_warning_free(self, tree):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            nearest(tree, QUERY, config=QueryConfig(k=2, algorithm="best-first"))
            nearest_batch(tree, [QUERY], config=QueryConfig(k=2))
            NearestNeighborQuery(tree, config=QueryConfig(k=1))

    def test_k_stays_first_class_and_silent(self, tree):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            nearest(tree, QUERY, k=3)
            nearest_batch(tree, [QUERY], k=3)


class TestBatchOptionsRouting:
    """nearest_batch execution knobs route through one EngineOptions."""

    def test_batch_defaults_reproduce_sequential_accounting(self, tree):
        queries = [QUERY, (0.3, 0.3)]
        results, stats, reads = nearest_batch(tree, queries, k=1)
        singles = [nearest(tree, q, k=1) for q in queries]
        assert [r.distances() for r in results] == [
            s.distances() for s in singles
        ]

    def test_batch_defaults_profile(self):
        opts = EngineOptions.batch_defaults()
        assert opts.workers == 1
        assert opts.cache_size == 0
        assert opts.buffer_pages == 64
