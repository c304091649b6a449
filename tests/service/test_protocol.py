"""The Engine protocol: one contract, three implementations.

``query/submit/stats/snapshot/close`` is the whole serving surface.
``ResilientEngine`` composes over *any* backend through it — no
``isinstance`` special-casing — so the protocol is pinned structurally
(``runtime_checkable``) and behaviorally (submit/query agreement,
snapshot composition) for every engine.
"""

import pytest

from repro import QueryConfig, QueryEngine
from repro.errors import InvalidParameterError
from repro.service.options import EngineOptions
from repro.service.protocol import Engine, EngineSnapshot
from repro.service.resilience import ResilientEngine

pytestmark = pytest.mark.service


class TestConformance:
    def test_query_engine_is_an_engine(self, small_tree):
        with QueryEngine(
            small_tree, options=EngineOptions(workers=1)
        ) as engine:
            assert isinstance(engine, Engine)

    def test_resilient_engine_is_an_engine(self, small_tree):
        with ResilientEngine(small_tree, workers=1) as engine:
            assert isinstance(engine, Engine)

    def test_a_plain_object_is_not_an_engine(self):
        assert not isinstance(object(), Engine)


class TestSubmit:
    def test_submit_agrees_with_query(self, small_tree):
        with QueryEngine(
            small_tree, options=EngineOptions(workers=1)
        ) as engine:
            direct = engine.query((0.5, 0.5), k=3)
            future = engine.submit((0.5, 0.5), k=3)
            assert [n.payload for n in future.result().neighbors] == [
                n.payload for n in direct.neighbors
            ]

    def test_submit_without_pool_carries_exceptions(self, small_tree):
        engine = QueryEngine(small_tree, options=EngineOptions(workers=1))
        engine.close()
        with pytest.raises(InvalidParameterError):
            engine.submit((0.0, 0.0), k=1)


class TestSnapshot:
    def test_thread_snapshot_shape(self, small_tree):
        with QueryEngine(
            small_tree, options=EngineOptions(workers=2, packed=False)
        ) as engine:
            snap = engine.snapshot()
            assert isinstance(snap, EngineSnapshot)
            assert snap.backend == "thread"
            assert snap.size == len(small_tree)
            assert snap.detail["workers"] == 2
            assert "epoch" in snap.describe() or snap.describe()

    def test_snapshot_epoch_tracks_mutation(self, small_tree):
        with QueryEngine(
            small_tree, options=EngineOptions(workers=1)
        ) as engine:
            before = engine.snapshot().epoch
            engine.insert((0.25, 0.25), payload="new")
            assert engine.snapshot().epoch != before

    def test_resilient_snapshot_composes_backend(self, small_tree):
        with ResilientEngine(small_tree, workers=1) as engine:
            snap = engine.snapshot()
            assert snap.backend == "resilient+thread"
            assert snap.detail["admission_workers"] == 1
            assert snap.detail["workers"] == 1  # inner engine detail kept


class TestComposition:
    def test_resilient_requires_exactly_one_backend(self, small_tree):
        with pytest.raises(InvalidParameterError):
            ResilientEngine()
        inner = QueryEngine(small_tree, options=EngineOptions(workers=1))
        try:
            with pytest.raises(InvalidParameterError):
                ResilientEngine(small_tree, engine=inner)
        finally:
            inner.close()

    def test_resilient_rejects_engine_plus_construction_knobs(
        self, small_tree
    ):
        inner = QueryEngine(small_tree, options=EngineOptions(workers=1))
        try:
            with pytest.raises(InvalidParameterError):
                ResilientEngine(
                    engine=inner, options=EngineOptions(cache_size=64)
                )
        finally:
            inner.close()

    def test_resilient_over_prebuilt_engine_serves_and_owns_close(
        self, small_tree
    ):
        inner = QueryEngine(
            small_tree, config=QueryConfig(k=2), options=EngineOptions(workers=1)
        )
        with ResilientEngine(engine=inner, workers=1) as resilient:
            served = resilient.query((0.5, 0.5))
            assert len(served.result.neighbors) == 2
        # ResilientEngine.close() closed the backend it was given.
        with pytest.raises(InvalidParameterError):
            inner.query((0.5, 0.5))


class TestOptionsRouting:
    def test_invalid_options_rejected(self, small_tree):
        with pytest.raises(InvalidParameterError):
            EngineOptions(workers=0)
        with pytest.raises(InvalidParameterError):
            QueryEngine(small_tree, options=EngineOptions(workers=0))

    @pytest.mark.parametrize(
        "field,value",
        [
            # "no" is truthy: it used to turn packed serving *on*.
            ("packed", "no"),
            ("packed", 1),
            ("workers", True),
            ("workers", 2.0),
            ("cache_size", 2.5),
            ("cache_size", False),
            ("buffer_pages", 1.5),
            ("slow_log", 2.5),
            ("slow_log", True),
        ],
    )
    def test_options_reject_the_wrong_type(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            EngineOptions(**{field: value})
