"""Unit tests for the high-level query façade."""

import pytest

from repro import NearestNeighborQuery, QueryConfig, RTree, nearest
from repro.errors import InvalidParameterError


class TestNearestFunction:
    def test_returns_nnresult(self, small_tree):
        result = nearest(small_tree, (500.0, 500.0), k=3)
        assert len(result) == 3
        assert len(result.payloads()) == 3
        assert result.distances() == sorted(result.distances())
        assert result.stats.nodes_accessed > 0

    def test_result_is_iterable_and_indexable(self, small_tree):
        result = nearest(small_tree, (500.0, 500.0), k=3)
        assert [n.payload for n in result] == result.payloads()
        assert result[0].distance <= result[1].distance
        assert [n.payload for n in result[:2]] == result.payloads()[:2]

    def test_algorithms_agree(self, small_tree):
        q = (321.0, 654.0)
        dfs = nearest(small_tree, q, k=4, config=QueryConfig(algorithm="dfs"))
        bf = nearest(
            small_tree, q, k=4, config=QueryConfig(algorithm="best-first")
        )
        assert dfs.distances() == pytest.approx(bf.distances())

    def test_unknown_algorithm(self, small_tree):
        with pytest.raises(InvalidParameterError):
            nearest(
                small_tree, (0.0, 0.0), config=QueryConfig(algorithm="magic")
            )

    def test_empty_tree(self):
        result = nearest(RTree(), (0.0, 0.0), k=5)
        assert len(result) == 0
        assert result.payloads() == []


class TestNearestNeighborQuery:
    def test_reusable_query(self, small_tree):
        query = NearestNeighborQuery(small_tree, k=2)
        a = query((100.0, 100.0))
        b = query((900.0, 900.0))
        assert len(a) == 2 and len(b) == 2
        assert a.payloads() != b.payloads()

    def test_k_override(self, small_tree):
        query = NearestNeighborQuery(small_tree, k=1)
        assert len(query((500.0, 500.0), k=6)) == 6

    def test_validates_algorithm_eagerly(self, small_tree):
        with pytest.raises(InvalidParameterError):
            NearestNeighborQuery(
                small_tree, config=QueryConfig(algorithm="nope")
            )

    def test_repr(self, small_tree):
        query = NearestNeighborQuery(
            small_tree, k=4, config=QueryConfig(ordering="minmaxdist")
        )
        assert "k=4" in repr(query)
        assert "minmaxdist" in repr(query)

    def test_configured_ordering_used(self, small_tree):
        query = NearestNeighborQuery(
            small_tree, k=1, config=QueryConfig(ordering="minmaxdist")
        )
        result = query((500.0, 500.0))
        baseline = nearest(small_tree, (500.0, 500.0), k=1)
        assert result.distances() == pytest.approx(baseline.distances())


class TestCallStyles:
    """``config=`` says what the query means; ``k=`` overrides its k."""

    def test_kwargs_and_config_agree(self, small_tree):
        q = (432.0, 123.0)
        via_kwargs = nearest(
            small_tree,
            q,
            k=4,
            config=QueryConfig(algorithm="best-first", epsilon=0.0),
        )
        via_config = nearest(
            small_tree, q, config=QueryConfig(k=4, algorithm="best-first")
        )
        assert via_kwargs.distances() == via_config.distances()
        assert via_kwargs.payloads() == via_config.payloads()

    def test_explicit_kwarg_overrides_config(self, small_tree):
        config = QueryConfig(k=2)
        assert len(nearest(small_tree, (500.0, 500.0), k=6, config=config)) == 6
        # The config itself is untouched by the call.
        assert config.k == 2

    def test_query_object_accepts_config(self, small_tree):
        config = QueryConfig(k=3, ordering="minmaxdist")
        query = NearestNeighborQuery(small_tree, config=config)
        assert query.config is config
        assert len(query((500.0, 500.0))) == 3

    def test_query_object_validates_config_eagerly(self, small_tree):
        with pytest.raises(InvalidParameterError):
            NearestNeighborQuery(
                small_tree, config=QueryConfig(ordering="sideways")
            )
        with pytest.raises(InvalidParameterError):
            NearestNeighborQuery(small_tree, k=0)

    def test_invalid_ordering_message_lists_choices(self, small_tree):
        with pytest.raises(InvalidParameterError) as excinfo:
            nearest(
                small_tree, (0.0, 0.0), config=QueryConfig(ordering="zigzag")
            )
        message = str(excinfo.value)
        assert "mindist" in message and "minmaxdist" in message


class TestNNResultErgonomics:
    def test_points_returns_object_centers(self, small_tree):
        result = nearest(small_tree, (500.0, 500.0), k=3)
        points = result.points()
        assert len(points) == 3
        assert all(len(p) == 2 for p in points)

    def test_to_dicts_is_ranked_and_complete(self, small_tree):
        result = nearest(small_tree, (500.0, 500.0), k=3)
        dicts = result.to_dicts()
        assert [d["rank"] for d in dicts] == [1, 2, 3]
        assert [d["payload"] for d in dicts] == result.payloads()
        assert [d["distance"] for d in dicts] == result.distances()
        assert [d["point"] for d in dicts] == list(result.points())

    def test_repr_mentions_key_facts(self, small_tree):
        result = nearest(small_tree, (500.0, 500.0), k=3)
        text = repr(result)
        assert "k=3" in text
        assert "best_distance" in text
        assert "nodes_accessed" in text

    def test_empty_result_repr(self):
        result = nearest(RTree(), (0.0, 0.0), k=2)
        assert "k=0" in repr(result) or "empty" in repr(result).lower()
        assert result.points() == []
        assert result.to_dicts() == []
