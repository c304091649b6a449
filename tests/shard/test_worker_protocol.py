"""The worker's wire protocol, driven directly over a real pipe.

`shard_worker_main` runs in a thread of this process against an exported
slab, and the test plays the parent: it sends each op of the protocol
table in :mod:`repro.shard.worker` and checks the exact reply.  The
engine-level suites only see the protocol through `_ProcessShard`; this
one pins the messages themselves, and carries the tripwire that keeps a
rich object graph from creeping back onto the pipe.
"""

import glob
import multiprocessing
import os
import pickle
import threading

import pytest

from repro.core.config import QueryConfig
from repro.errors import DimensionMismatchError
from repro.packed.kernels import run_packed_query
from repro.packed.layout import PackedTree
from repro.rtree.bulk import bulk_load
from repro.shard.slab import export_slab
from repro.shard.wire import inflate_result
from repro.shard.worker import shard_worker_main

pytestmark = pytest.mark.shard

EPOCH = 3
CFG = QueryConfig(k=4, algorithm="best-first")
ONE = [(500.0, 500.0)]
FIVE = [(10.0, 990.0), (250.0, 250.0), (500.0, 1.0), (999.0, 999.0),
        (0.0, 0.0)]


def _recv(conn):
    assert conn.poll(10.0), "worker did not reply within 10 s"
    return conn.recv()


@pytest.fixture()
def served(uniform_items):
    """(parent end of the pipe, the served PackedTree, segment name)."""
    ptree = PackedTree.from_tree(bulk_load(list(uniform_items), max_entries=8))
    ptree.epoch = EPOCH
    name = f"repro-shard-test-proto-{os.getpid():x}"
    slab = export_slab(ptree, 0, None, name)
    parent, child = multiprocessing.Pipe()
    worker = threading.Thread(
        target=shard_worker_main, args=(child, slab.manifest), daemon=True
    )
    worker.start()
    try:
        yield parent, ptree, slab
    finally:
        if worker.is_alive():
            parent.send(("close",))
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        parent.close()
        slab.unlink()
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro-shard-test-proto-*") == []


def _check_window(reply_flats, ptree, points):
    """The reply is the solo kernel's answer per point, primitives only."""
    assert len(reply_flats) == len(points)
    for flat, point in zip(reply_flats, points):
        want = run_packed_query(ptree, point, CFG)
        got = inflate_result(flat)
        assert got.neighbors == want.neighbors
        assert got.stats == want.stats


def test_the_whole_protocol_in_one_session(served):
    conn, ptree, slab = served
    assert _recv(conn) == ("ready", EPOCH)

    answers = []
    for rid, points in ((1, ONE), (2, FIVE)):
        # Plain window: ("ok", rid, [FlatResult, ...]).
        conn.send(("query", rid, points, CFG))
        reply = _recv(conn)
        assert reply[:2] == ("ok", rid) and len(reply) == 3
        _check_window(reply[2], ptree, points)
        answers.append(reply)

        # Sampled window: ("oks", rid, [FlatResult, ...], spans), the
        # same answers plus exactly the queue and kernel records.
        conn.send(("query", rid + 10, points, CFG, 1.0))
        sampled = _recv(conn)
        assert sampled[:2] == ("oks", rid + 10) and len(sampled) == 4
        assert sampled[2] == reply[2]
        queue, kernel = sampled[3]
        assert queue[0] == "shard.queue" and queue[2] == 1.0
        assert kernel[0] == "shard.kernel"
        attrs = dict(kernel[4])
        assert attrs["points"] == len(points)
        assert attrs["epoch"] == EPOCH
        assert attrs["pages"] == sum(flat[5][0] for flat in reply[2])
        answers.append(sampled)

    # Tripwire: an answer on the pipe is primitives only.  (An ``err``
    # legitimately carries a repro.errors class; answers never do.)
    for reply in answers:
        assert b"repro" not in pickle.dumps(reply[2:])

    # A bad point fails its window with one typed err; the loop serves on.
    conn.send(("query", 30, [(1.0, 2.0), (1.0, 2.0, 3.0)], CFG))
    tag, rid, exc = _recv(conn)
    assert (tag, rid) == ("err", 30)
    assert isinstance(exc, DimensionMismatchError)
    conn.send(("ping",))
    assert _recv(conn) == ("pong",)
    conn.send(("query", 31, ONE, CFG))
    assert _recv(conn) == ("ok", 31, answers[0][2])

    # Publishing a segment that is already gone: nack, keep serving.
    gone = export_slab(ptree, 0, None, slab.name + "-gone")
    gone.unlink()
    conn.send(("publish", gone.manifest))
    tag, epoch, why = _recv(conn)
    assert (tag, epoch) == ("nack", EPOCH) and "FileNotFoundError" in why
    conn.send(("query", 32, ONE, CFG))
    assert _recv(conn) == ("ok", 32, answers[0][2])

    conn.send(("close",))
    assert _recv(conn) == ("closed",)
