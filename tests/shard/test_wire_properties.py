"""The wire codec, held to its contract over *generated* results.

Every sharded answer — a lone query is a window of one — crosses the
process boundary as a pickled :data:`~repro.shard.wire.FlatResult`, so
the codec gets properties, not examples: any ``NNResult`` a kernel could
produce (and plenty none would) must survive ``flatten -> pickle ->
unpickle -> inflate`` field for field and bit for bit, and flattening
what came back must reproduce the original flat tuple.  The parent's
merge of those replies is held to its general k-way form the same way.
"""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.config import QueryConfig
from repro.core.neighbors import Neighbor
from repro.core.pruning import PruningStats
from repro.core.query import NNResult
from repro.core.stats import SearchStats
from repro.geometry.rect import Rect
from repro.shard.engine import ShardedQueryEngine
from repro.shard.wire import flatten_result, inflate_result, inflate_stats

pytestmark = pytest.mark.shard

_coord = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
_extent = st.floats(min_value=1e-6, max_value=1e6)
_distance = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_count = st.integers(min_value=1, max_value=2**40)

_payload = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=8),
    st.tuples(st.integers(), st.text(max_size=4)),
)


@st.composite
def _rects(draw, dim):
    lo = tuple(draw(_coord) for _ in range(dim))
    if draw(st.booleans()):
        return Rect.from_point(lo)
    return Rect(lo, tuple(c + draw(_extent) for c in lo))


@st.composite
def _neighbors(draw, dim):
    return Neighbor(
        payload=draw(_payload),
        rect=draw(_rects(dim)),
        distance=draw(_distance),
        distance_squared=draw(_distance),
    )


@st.composite
def _stats(draw):
    """Every counter non-zero, so a dropped or swapped field shows."""
    reason = draw(st.sampled_from(["", "deadline", "pages", "shard-lost"]))
    return SearchStats(
        nodes_accessed=draw(_count),
        leaf_accesses=draw(_count),
        internal_accesses=draw(_count),
        objects_examined=draw(_count),
        branch_entries_considered=draw(_count),
        pages_skipped_corrupt=draw(_count),
        truncated=bool(reason),
        truncation_reason=reason,
        frontier_sq=draw(st.one_of(_distance, st.just(float("inf")))),
        pruning=PruningStats(
            p1_pruned=draw(_count),
            p2_bound_updates=draw(_count),
            p3_pruned=draw(_count),
        ),
    )


@st.composite
def results(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    neighbors = draw(st.lists(_neighbors(dim), min_size=0, max_size=6))
    return NNResult(neighbors=neighbors, stats=draw(_stats()))


def _bits(result):
    """Distances by bit pattern: ``==`` would let -0.0 pass for 0.0."""
    return [
        (n.distance.hex(), n.distance_squared.hex())
        for n in result.neighbors
    ] + [result.stats.frontier_sq.hex()]


@given(results())
def test_round_trip_through_pickle_is_exact(result):
    flat = flatten_result(result)
    back = inflate_result(pickle.loads(pickle.dumps(flat)))
    assert back.neighbors == result.neighbors  # payload, rect, distances
    assert _bits(back) == _bits(result)
    assert back.stats == result.stats
    assert back.stats.pruning == result.stats.pruning
    assert flatten_result(back) == flat


@given(
    point=st.lists(
        st.one_of(_coord, st.sampled_from([0.0, -0.0])), min_size=1, max_size=3
    ),
    payload=_payload,
    distance=_distance,
)
def test_point_rect_comes_back_a_point_rect(point, payload, distance):
    """``inflate_neighbor`` binds the wire's bounds without re-validating
    them; what it builds is still the rect that went in."""
    rect = Rect.from_point(point)
    result = NNResult(
        neighbors=[Neighbor(payload, rect, distance, distance * distance)],
        stats=SearchStats(),
    )
    flat = pickle.loads(pickle.dumps(flatten_result(result)))
    back = inflate_result(flat).neighbors[0].rect
    assert type(back) is Rect and back.lo == back.hi
    assert back == rect and hash(back) == hash(rect)
    assert repr(back) == repr(rect)
    assert [c.hex() for c in back.lo + back.hi] == [c.hex() for c in rect.lo * 2]
    again = pickle.loads(pickle.dumps(back))  # bytes differ: ``lo is hi`` memoizes
    assert again == rect and (again.lo, again.hi) == (back.lo, back.hi)
    assert type(back.lo) is tuple and all(type(c) is float for c in back.lo)


# ----------------------------------------------------------------------
# The merge: one reply is taken as it is, and that is the k-way merge
# ----------------------------------------------------------------------
def _general_merge(k, collected, lost_minds, pruned_minds):
    """The k-way merge in its general form: fold every reply's stats,
    sort all candidates by (distance², shard, rank), keep k."""
    stats = SearchStats()
    entries = []
    for shard_index, flat in sorted(collected, key=lambda t: t[0]):
        stats.merge(inflate_stats(flat[5]))
        for rank, dist_sq in enumerate(flat[2]):
            entries.append((dist_sq, shard_index, rank, flat))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    neighbors = [
        Neighbor(
            payload=flat[0][rank],
            rect=Rect(flat[3][rank], flat[4][rank]),
            distance=flat[1][rank],
            distance_squared=flat[2][rank],
        )
        for _, _, rank, flat in entries[:k]
    ]
    frontiers = [flat[5][8] for _, flat in collected if flat[5][6]]
    if frontiers or lost_minds:
        stats.truncated = True
        if lost_minds:
            stats.truncation_reason = "shard-lost"
        stats.frontier_sq = min(frontiers + lost_minds + pruned_minds)
    return NNResult(neighbors=neighbors, stats=stats)


#: Few distinct squared distances, so ties within and across replies.
_tied = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4.0]), _distance)


@st.composite
def _replies(draw, k):
    """What a shard kernel sends: at most k neighbours, nearest first."""
    dim = draw(st.integers(min_value=1, max_value=3))
    dists = sorted(draw(st.lists(_tied, max_size=k)))
    neighbors = [
        Neighbor(
            payload=draw(_payload),
            rect=draw(_rects(dim)),
            distance=d ** 0.5,
            distance_squared=d,
        )
        for d in dists
    ]
    return flatten_result(NNResult(neighbors=neighbors, stats=draw(_stats())))


@given(data=st.data())
def test_the_one_reply_merge_is_the_general_merge(data):
    k = data.draw(st.integers(min_value=1, max_value=6))
    shards = data.draw(
        st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)
    )
    collected = [
        (i, pickle.loads(pickle.dumps(data.draw(_replies(k))))) for i in shards
    ]
    lost = data.draw(st.lists(_distance, max_size=2))
    pruned = data.draw(st.lists(_distance, max_size=2))
    cfg = QueryConfig(k=k, algorithm="best-first")
    got = ShardedQueryEngine._merge(None, cfg, collected, lost, pruned)
    want = _general_merge(k, collected, lost, pruned)
    assert got.neighbors == want.neighbors
    assert _bits(got) == _bits(want)
    assert got.stats == want.stats
    assert got.stats.pruning == want.stats.pruning
    assert [type(n.rect) for n in got.neighbors] == [Rect] * len(got.neighbors)
