"""One coordinate contract at every door.

A coordinate is accepted when it is a finite number with ``|c| <= 1e150``
(``repro.geometry.point._COORD_LIMIT``); everything else is the same
typed error at every door — :class:`GeometryError` in the library, the
packed kernels and both sharded modes, a 400 over HTTP.  The bound keeps
every squared distance finite (``d * (2e150)**2`` for ``d < 4e7``): a
query at 1e160 used to overflow every candidate distance to ``+inf``, so
``d < worst`` rejected them all and each door answered **0 of k**,
untruncated, while the numpy block accepted them and warned.  The
sharded door used to answer ``(inf, 0)`` with an empty exact answer.

At the bound itself every door answers ``min(k, size)`` neighbours, the
kernels agree bit for bit, and nothing raises a ``RuntimeWarning``.

The query fields follow one type rule the same way: a ``bool`` is not a
``k``, an ``epsilon`` or a ``max_pages``, and a string is not a number —
:class:`InvalidParameterError` at every library door, a 400 over HTTP.
And a per-call ``k=`` on top of a ``config=`` means the same thing at
every door.
"""

import math
import warnings
from types import SimpleNamespace

import pytest

from repro import (
    Budget,
    NearestNeighborQuery,
    QueryConfig,
    ResilientEngine,
    ShardedQueryEngine,
    nearest,
    nearest_batch,
)
from repro.datasets import uniform_points
from repro.errors import GeometryError, InvalidParameterError
from repro.geometry.rect import Rect
from repro.packed.batch import packed_nearest_batch
from repro.packed.kernels import packed_nearest_best_first
from repro.rtree.bulk import bulk_load
from repro.server import NNServer
from repro.service.engine import QueryEngine
from repro.service.options import EngineOptions
from tests.server.conftest import ServerHarness

pytestmark = [pytest.mark.server, pytest.mark.shard]

B = 1e150
K = 5
CFG = QueryConfig(k=K, algorithm="best-first")
OPTIONS = EngineOptions(workers=1, cache_size=0, packed=True)
ABOVE = math.nextafter(B, math.inf)
BAD = {
    "nan": (math.nan, 0.0),
    "inf": (0.0, math.inf),
    "-inf": (-math.inf, 0.0),
    "just-above": (ABOVE, 0.0),
    "just-below-minus": (0.0, -ABOVE),
    "1e160": (1e160, 500.0),
}
GOOD = {
    "at-bound": (B, 0.0),
    "at-minus-bound": (-B, -B),
    "corner-to-corner": (B, B),
}
POINT = (500.0, 500.0)
#: Wrong-typed query fields.  Each used to be coerced by some door:
#: ``k=True`` ran as k=1, ``epsilon=True`` as 1.0, ``"epsilon": "0.5"``
#: as 0.5, ``"max_pages": 2.7`` as 2 and ``1e30`` as a 31-digit int.
BAD_FIELDS = {
    "k-true": ("k", True),
    "epsilon-true": ("epsilon", True),
    "epsilon-string": ("epsilon", "0.5"),
    "max-pages-fraction": ("max_pages", 2.7),
    "max-pages-string": ("max_pages", "3"),
    "max-pages-1e30": ("max_pages", 1e30),
    "max-pages-true": ("max_pages", True),
}
#: A per-call ``k`` different from ``CFG.k``.
K_CALL = 3
K_DOORS = [
    "nearest",
    "NearestNeighborQuery",
    "nearest_batch",
    "QueryEngine.query",
    "QueryEngine.submit",
    "QueryEngine.query_batch",
    "ResilientEngine.submit",
    "ShardedQueryEngine inline",
    "HTTP /query",
]


@pytest.fixture(scope="module")
def doors():
    """Every door over one index: 2,000 uniform points plus the four
    corners at ``±B`` (the farthest pair a valid index can hold), built
    at fanout 113 so the packed and shard doors can select the block."""
    points = uniform_points(2000, seed=41) + [
        (B, B), (B, -B), (-B, B), (-B, -B),
    ]
    items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    tree = bulk_load(items, max_entries=113)
    ptree = tree.packed()
    thread = QueryEngine(tree, config=CFG, options=OPTIONS)
    inline = ShardedQueryEngine(
        items=items, shards=2, config=CFG, options=OPTIONS, max_entries=113
    )
    process = ShardedQueryEngine(
        items=items, shards=2, config=CFG, options=OPTIONS, max_entries=113,
        processes=True,
    )
    object_thread = QueryEngine(
        tree, config=CFG, options=EngineOptions(workers=1, cache_size=0)
    )
    resilient = ResilientEngine(tree, config=CFG, workers=1, options=OPTIONS)
    harness = ServerHarness(
        NNServer(QueryEngine(tree, config=CFG, options=OPTIONS))
    ).start()

    def _neighbors(pair):
        return pair[0]

    library = {
        "nearest": lambda p: nearest(tree, p, config=CFG).neighbors,
        "thread engine (object)": lambda p: object_thread.query(p).neighbors,
        "thread engine (packed)": lambda p: thread.query(p).neighbors,
        "thread engine batch": lambda p: thread.query_batch([p, p])[0].neighbors,
        "packed solo": lambda p: _neighbors(
            packed_nearest_best_first(ptree, p, k=K)
        ),
        "packed block (batch)": lambda p: _neighbors(
            packed_nearest_batch(ptree, [p], k=K)[0]
        ),
        "packed python rows": lambda p: _neighbors(
            packed_nearest_batch(ptree, [p], k=K, vectorize=False)[0]
        ),
        "sharded inline": lambda p: inline.query(p).neighbors,
        "sharded inline batch": lambda p: inline.query_batch([p])[0].neighbors,
        "sharded process": lambda p: process.query(p).neighbors,
        "sharded process batch": lambda p: (
            process.query_batch([p])[0].neighbors
        ),
    }
    # The doors that take ``k`` per call, on top of the engine's config.
    per_call_k = {
        "nearest": lambda p, k: nearest(tree, p, k=k, config=CFG),
        "NearestNeighborQuery": (
            lambda p, k: NearestNeighborQuery(tree, config=CFG)(p, k=k)
        ),
        "nearest_batch": (
            lambda p, k: nearest_batch(tree, [p], k=k, config=CFG)[0][0]
        ),
        "QueryEngine.query": lambda p, k: thread.query(p, k=k),
        "QueryEngine.submit": lambda p, k: thread.submit(p, k=k).result(),
        "QueryEngine.query_batch": (
            lambda p, k: thread.query_batch([p], k=k)[0]
        ),
        "ResilientEngine.submit": (
            lambda p, k: resilient.submit(p, k=k).result().result
        ),
        "ShardedQueryEngine inline": lambda p, k: inline.query(p, k=k),
        "ShardedQueryEngine process": lambda p, k: process.query(p, k=k),
    }
    # The same doors with the k inside the config instead.
    want = CFG.replace(k=K_CALL)
    via_config = {
        "nearest": lambda p: nearest(tree, p, config=want),
        "NearestNeighborQuery": lambda p: NearestNeighborQuery(
            tree, config=want
        )(p),
        "nearest_batch": lambda p: nearest_batch(tree, [p], config=want)[0][0],
        "QueryEngine.query": lambda p: thread.query(p, config=want),
        "QueryEngine.submit": (
            lambda p: thread.submit(p, config=want).result()
        ),
        "QueryEngine.query_batch": (
            lambda p: thread.query_batch([p], config=want)[0]
        ),
        "ResilientEngine.submit": (
            lambda p: resilient.submit(p, config=want).result().result
        ),
        "ShardedQueryEngine inline": lambda p: inline.query(p, config=want),
    }
    try:
        yield SimpleNamespace(
            library=library, harness=harness, size=ptree.size, tree=tree,
            ptree=ptree, per_call_k=per_call_k, via_config=via_config,
        )
    finally:
        harness.stop()
        for engine in (thread, object_thread, inline, process, resilient):
            engine.close()


@pytest.mark.parametrize("mode", ["cold", "warm"])
@pytest.mark.parametrize("point", list(BAD.values()), ids=list(BAD))
def test_every_door_rejects_the_same_coordinates(doors, point, mode, kernel_clock):
    library, harness = doors.library, doors.harness
    kernel_clock(mode)
    for name, door in library.items():
        with pytest.raises(GeometryError):
            door(point)
            pytest.fail(f"{name} accepted {point!r}")
    status, _, body = harness.request_json("POST", "/query", {"point": point})
    assert status == 400 and "point" in body["error"]
    status, _, body = harness.request_json(
        "POST", "/batch", {"points": [[0.5, 0.5], list(point)]}
    )
    assert status == 400 and "point" in body["error"]


@pytest.mark.parametrize("mode", ["cold", "warm"])
@pytest.mark.parametrize("point", list(GOOD.values()), ids=list(GOOD))
def test_at_the_bound_every_door_answers_in_full(doors, point, mode, kernel_clock):
    library, harness, size = doors.library, doors.harness, doors.size
    kernel_clock(mode)
    answers = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, door in library.items():
            answers[name] = door(point)
    reference = answers["packed solo"]
    assert len(reference) == min(K, size)
    assert all(math.isfinite(nb.distance_squared) for nb in reference)
    want = [nb.distance_squared.hex() for nb in reference]
    for name, got in answers.items():
        assert [nb.distance_squared.hex() for nb in got] == want, name
        if not name.startswith("sharded"):  # shards break ties by shard
            assert [nb.payload for nb in got] == [
                nb.payload for nb in reference
            ], name
    for path, payload in (
        ("/query", {"point": list(point), "k": K}),
        ("/batch", {"points": [list(point)], "k": K}),
    ):
        status, _, body = harness.request_json("POST", path, payload)
        assert status == 200, body
        result = body if path == "/query" else body["results"][0]
        assert len(result["neighbors"]) == K and not result["truncated"]


@pytest.mark.parametrize(
    "field,value", list(BAD_FIELDS.values()), ids=list(BAD_FIELDS)
)
def test_every_door_rejects_the_same_query_fields(doors, field, value):
    ptree = doors.ptree
    if field == "max_pages":
        library = {"Budget": lambda: Budget(max_pages=value)}
    else:
        kw = {field: value}
        library = {
            "QueryConfig": lambda: QueryConfig(**kw),
            "packed solo": (
                lambda: packed_nearest_best_first(ptree, POINT, **kw)
            ),
            "packed block (batch)": (
                lambda: packed_nearest_batch(ptree, [POINT], **kw)
            ),
        }
    if field == "k":
        for name, door in doors.per_call_k.items():
            library[name] = lambda door=door: door(POINT, value)
    for name, call in library.items():
        with pytest.raises(InvalidParameterError):
            call()
            pytest.fail(f"{name} accepted {field}={value!r}")
    for path, payload in (
        ("/query", {"point": list(POINT), field: value}),
        ("/batch", {"points": [list(POINT)], field: value}),
    ):
        status, _, body = doors.harness.request_json("POST", path, payload)
        assert status == 400 and field in body["error"], (path, body)


@pytest.mark.parametrize("door", K_DOORS)
def test_a_per_call_k_means_the_same_at_every_door(doors, door):
    """``k=`` over a config with another k answers what the config with
    that k answers: same neighbours, same ``SearchStats``."""
    reference = nearest(doors.tree, POINT, config=CFG.replace(k=K_CALL))
    want = [(n.payload, n.distance_squared.hex()) for n in reference]
    assert len(want) == K_CALL != CFG.k
    if door == "HTTP /query":
        status, _, body = doors.harness.request_json(
            "POST", "/query", {"point": list(POINT), "k": K_CALL}
        )
        assert status == 200, body
        got = [(n["payload"], n["distance"]) for n in body["neighbors"]]
        assert got == [(n.payload, n.distance) for n in reference]
        return
    got = doors.per_call_k[door](POINT, K_CALL)
    assert [(n.payload, n.distance_squared.hex()) for n in got] == want
    assert got.stats == doors.via_config[door](POINT).stats
