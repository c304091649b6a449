"""QueryConfig: eager validation, immutability, overrides, cache keys."""

import pytest

from repro import QueryConfig, PruningConfig
from repro.core.config import VALID_ALGORITHMS, VALID_ORDERINGS
from repro.errors import InvalidParameterError


class TestEagerValidation:
    def test_defaults_are_valid(self):
        config = QueryConfig()
        assert config.k == 1
        assert config.algorithm == "dfs"
        assert config.ordering == "mindist"

    @pytest.mark.parametrize("k", [0, -1, 1.5, "3"])
    def test_bad_k_rejected(self, k):
        with pytest.raises(InvalidParameterError):
            QueryConfig(k=k)

    def test_bad_algorithm_lists_choices(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            QueryConfig(algorithm="magic")
        for choice in VALID_ALGORITHMS:
            assert choice in str(excinfo.value)

    def test_bad_ordering_lists_choices(self):
        with pytest.raises(InvalidParameterError) as excinfo:
            QueryConfig(ordering="random")
        for choice in VALID_ORDERINGS:
            assert choice in str(excinfo.value)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(InvalidParameterError):
            QueryConfig(epsilon=-0.1)

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # NaN/inf used to construct, then make best-first answer with
        # zero neighbors and no error.
        with pytest.raises(InvalidParameterError):
            QueryConfig(epsilon=float(epsilon))
        with pytest.raises(InvalidParameterError):
            QueryConfig().replace(epsilon=float(epsilon))

    def test_non_callable_object_distance_rejected(self):
        with pytest.raises(InvalidParameterError):
            QueryConfig(object_distance_sq="not-a-function")

    def test_bad_pruning_rejected(self):
        with pytest.raises(InvalidParameterError):
            QueryConfig(pruning="p1p2")

    def test_replace_revalidates(self):
        config = QueryConfig(k=3)
        with pytest.raises(InvalidParameterError):
            config.replace(ordering="nope")


class TestImmutability:
    def test_frozen(self):
        config = QueryConfig()
        with pytest.raises(Exception):
            config.k = 2

    def test_hashable_and_equal(self):
        assert QueryConfig(k=3) == QueryConfig(k=3)
        assert hash(QueryConfig(k=3)) == hash(QueryConfig(k=3))
        assert QueryConfig(k=3) != QueryConfig(k=4)


class TestOverrides:
    def test_with_overrides_none_means_keep(self):
        config = QueryConfig(k=5, ordering="minmaxdist")
        same = config.with_overrides(k=None, ordering=None)
        assert same is config

    def test_with_overrides_applies_values(self):
        config = QueryConfig(k=5)
        out = config.with_overrides(k=2, algorithm="best-first")
        assert out.k == 2
        assert out.algorithm == "best-first"
        assert config.k == 5  # original untouched


class TestCacheKey:
    def test_equal_configs_share_a_key(self):
        assert QueryConfig(k=3).cache_key() == QueryConfig(k=3).cache_key()

    def test_differing_fields_change_the_key(self):
        base = QueryConfig()
        for variant in (
            QueryConfig(k=2),
            QueryConfig(algorithm="best-first"),
            QueryConfig(ordering="minmaxdist"),
            QueryConfig(epsilon=0.5),
            QueryConfig(pruning=PruningConfig(use_p1=False)),
        ):
            assert variant.cache_key() != base.cache_key()

    def test_distinct_hooks_never_collide(self):
        f = lambda q, payload, rect: 0.0  # noqa: E731
        g = lambda q, payload, rect: 0.0  # noqa: E731
        assert (
            QueryConfig(object_distance_sq=f).cache_key()
            != QueryConfig(object_distance_sq=g).cache_key()
        )


class TestDescribe:
    def test_describe_compact(self):
        assert QueryConfig(k=4).describe() == "k=4 dfs mindist"

    def test_describe_shows_non_defaults(self):
        text = QueryConfig(
            k=2, algorithm="best-first", epsilon=0.5
        ).describe()
        assert "best-first" in text
        assert "epsilon=0.5" in text
        assert "mindist" not in text  # ordering is a DFS-only knob
