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
"""

import math
import warnings

import pytest

from repro import QueryConfig, ShardedQueryEngine, nearest
from repro.datasets import uniform_points
from repro.errors import GeometryError
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
    try:
        yield library, harness, ptree.size
    finally:
        harness.stop()
        for engine in (thread, object_thread, inline, process):
            engine.close()


@pytest.mark.parametrize("mode", ["cold", "warm"])
@pytest.mark.parametrize("point", list(BAD.values()), ids=list(BAD))
def test_every_door_rejects_the_same_coordinates(doors, point, mode, kernel_clock):
    library, harness, _ = doors
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
    library, harness, size = doors
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
