"""Instrumented packed queries and the corrupt-page propagation sweep.

Two contracts:

1. A packed query carrying a trace, a budget, both or neither returns
   the same neighbors and ``SearchStats`` (truncation point and frontier
   included) as the object kernels, for every algorithm/ordering/
   pruning/epsilon combo in 2-D and 3-D — and its trace stream matches
   the object kernels' event-for-event (modulo ``exit`` placement, which
   differs between recursion and an explicit stack).  The entry points
   pick one of four loops from ``dim``/``trace``/``budget``; this grid
   pins every cell of that choice through the public doors only.
2. ``pages_skipped_corrupt`` propagates through the packed kernels and
   the ``nearest_batch`` merge paths identically to the object kernels
   (the instrumenting-sweep bugfix), exercised with
   ``FaultInjectingPageFile``.
"""

import warnings
from dataclasses import replace

import pytest

from repro import bulk_load
from repro.core.batch import nearest_batch
from repro.core.budget import Budget
from repro.core.knn_best_first import nearest_best_first
from repro.core.knn_dfs import nearest_dfs
from repro.core.pruning import PruningConfig
from repro.core.query import nearest
from repro.datasets.synthetic import uniform_points
from repro.errors import CorruptionWarning
from repro.obs import Trace
from repro.packed.kernels import packed_nearest_best_first, packed_nearest_dfs
from repro.packed.layout import PackedTree
from repro.rtree.disk import DiskRTree, write_tree
from repro.service.options import EngineOptions
from repro.storage.faults import FaultInjectingPageFile, FaultPlan

pytestmark = [pytest.mark.obs, pytest.mark.packed]

QUERIES = [(500.0, 500.0), (50.0, 950.0), (700.0, 120.0)]

DFS_CELLS = [
    (ordering, pruning)
    for ordering in ("mindist", "minmaxdist")
    for pruning in (None, PruningConfig.none(), PruningConfig.all())
]

PACKED_BATCH = replace(EngineOptions.batch_defaults(), packed=True)


def _queries(dim):
    return [q + (300.0,) * (dim - 2) for q in QUERIES]


@pytest.fixture(scope="class")
def tree(request):
    dim = getattr(request.cls, "DIM", 2)
    points = uniform_points(800, seed=91, dimension=dim)
    return bulk_load([(p, i) for i, p in enumerate(points)], max_entries=8)


@pytest.fixture(scope="class")
def ptree(tree):
    return PackedTree.from_tree(tree)


def _events(trace):
    return [e for e in trace.events if e[0] != "exit"]


class TestTracedEquivalence:
    DIM = 2

    @pytest.mark.parametrize("ordering", ["mindist", "minmaxdist"])
    @pytest.mark.parametrize(
        "pruning", [None, PruningConfig.none(), PruningConfig.all()]
    )
    @pytest.mark.parametrize("k", [1, 5])
    def test_traced_dfs_matches_untraced_and_object(
        self, tree, ptree, ordering, pruning, k
    ):
        for query in _queries(self.DIM):
            trace = Trace()
            tr_nb, tr_stats = packed_nearest_dfs(
                ptree, query, k=k, ordering=ordering, pruning=pruning,
                trace=trace,
            )
            un_nb, un_stats = packed_nearest_dfs(
                ptree, query, k=k, ordering=ordering, pruning=pruning
            )
            obj_nb, obj_stats = nearest_dfs(
                tree, query, k=k, ordering=ordering, pruning=pruning
            )
            assert [n.payload for n in tr_nb] == [n.payload for n in un_nb]
            assert [n.payload for n in tr_nb] == [n.payload for n in obj_nb]
            assert [n.distance for n in tr_nb] == [n.distance for n in obj_nb]
            assert tr_stats == un_stats == obj_stats
            counts = trace.counts()
            assert trace.pages_entered() == tr_stats.nodes_accessed
            assert counts.get("p1", 0) == tr_stats.pruning.p1_pruned
            assert counts.get("p2", 0) == tr_stats.pruning.p2_bound_updates
            assert counts.get("p3", 0) == tr_stats.pruning.p3_pruned

    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_traced_best_first_matches(self, tree, ptree, epsilon):
        for query in _queries(self.DIM):
            trace = Trace()
            tr_nb, tr_stats = packed_nearest_best_first(
                ptree, query, k=4, epsilon=epsilon, trace=trace
            )
            un_nb, un_stats = packed_nearest_best_first(
                ptree, query, k=4, epsilon=epsilon
            )
            obj_nb, obj_stats = nearest_best_first(
                tree, query, k=4, epsilon=epsilon
            )
            assert [n.payload for n in tr_nb] == [n.payload for n in un_nb]
            assert [n.payload for n in tr_nb] == [n.payload for n in obj_nb]
            assert tr_stats == un_stats == obj_stats
            assert trace.pages_entered() == tr_stats.nodes_accessed

    def test_packed_trace_matches_object_trace(self, tree, ptree):
        """Same traversal → same events (exits excluded: recursion emits
        them post-subtree, the explicit stack pre-push)."""
        for k in (1, 5):
            for query in _queries(self.DIM):
                obj_trace = Trace()
                nearest_dfs(tree, query, k=k, trace=obj_trace)
                pk_trace = Trace()
                packed_nearest_dfs(ptree, query, k=k, trace=pk_trace)
                assert _events(pk_trace) == _events(obj_trace)

    @pytest.mark.parametrize("pages", [None, 1, 3, 7, 15, 200])
    @pytest.mark.parametrize("traced", [False, True])
    def test_every_instrumentation_cell_matches_object(
        self, tree, ptree, traced, pages
    ):
        """{trace, none} x {max_pages, none} x every DFS cell + best-first:
        same neighbors, whole ``SearchStats`` (truncation flag, reason and
        frontier included) and event stream as the object kernels."""
        budget = Budget(max_pages=pages) if pages is not None else None

        def run(kernel, index, query, k, **kwargs):
            trace = Trace() if traced else None
            neighbors, stats = kernel(
                index, query, k=k, trace=trace, budget=budget, **kwargs
            )
            return (
                [(n.payload, n.distance) for n in neighbors],
                stats,
                _events(trace) if traced else None,
            )

        for query in _queries(self.DIM):
            for k in (1, 5):
                for ordering, pruning in DFS_CELLS:
                    cell = dict(ordering=ordering, pruning=pruning)
                    assert run(
                        packed_nearest_dfs, ptree, query, k, **cell
                    ) == run(nearest_dfs, tree, query, k, **cell)
                for epsilon in (0.0, 0.5):
                    assert run(
                        packed_nearest_best_first, ptree, query, k,
                        epsilon=epsilon,
                    ) == run(
                        nearest_best_first, tree, query, k, epsilon=epsilon
                    )

    def test_nd_general_traced_path(self):
        points = [(float(i % 17), float(i % 13), float(i % 7))
                  for i in range(300)]
        tree3 = bulk_load(
            [(p, i) for i, p in enumerate(points)], max_entries=8
        )
        ptree3 = PackedTree.from_tree(tree3)
        trace = Trace()
        tr_nb, tr_stats = packed_nearest_dfs(
            ptree3, (8.0, 6.0, 3.0), k=5, trace=trace
        )
        obj_nb, obj_stats = nearest_dfs(tree3, (8.0, 6.0, 3.0), k=5)
        assert [n.payload for n in tr_nb] == [n.payload for n in obj_nb]
        assert tr_stats == obj_stats
        assert trace.pages_entered() == tr_stats.nodes_accessed


class TestTracedEquivalence3D(TestTracedEquivalence):
    """The same grid on 3-D data, where untraced queries share the
    general loop with traced and budgeted ones."""

    DIM = 3


class TestCorruptSkipPropagation:
    """pages_skipped_corrupt: packed == object, query by query."""

    N = 300
    PAGE_SIZE = 1024

    @pytest.fixture
    def disk_path(self, tmp_path):
        points = uniform_points(self.N, seed=92)
        tree = bulk_load(
            [(p, i) for i, p in enumerate(points)], max_entries=16
        )
        path = tmp_path / "tree.rnn"
        write_tree(tree, path, page_size=self.PAGE_SIZE)
        return path

    def _leaf_page(self, disk_path):
        with DiskRTree(disk_path, page_size=self.PAGE_SIZE) as disk:
            node = disk.root
            while not node.is_leaf:
                node = node.entries[0].child
            return node.node_id

    def _open_degraded(self, disk_path, leaf_page):
        pages = FaultInjectingPageFile(
            disk_path,
            page_size=self.PAGE_SIZE,
            plan=FaultPlan(flip_pages=frozenset([leaf_page])),
        )
        return DiskRTree(page_file=pages, on_corrupt="skip")

    def test_packed_query_reports_compile_time_skips(self, disk_path):
        leaf_page = self._leaf_page(disk_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorruptionWarning)
            with self._open_degraded(disk_path, leaf_page) as disk:
                # Object kernel: a full traversal re-skips the page.
                obj = nearest(disk, (500.0, 500.0), k=self.N)
                assert obj.stats.pages_skipped_corrupt == 1
                ptree = PackedTree.from_tree(disk)
                assert ptree.pages_skipped_corrupt == 1
                for query in QUERIES:
                    obj_full = nearest(disk, query, k=self.N)
                    pk_nb, pk_stats = packed_nearest_dfs(
                        ptree, query, k=self.N
                    )
                    # Identical propagation: same count, same degraded
                    # flag, same (degraded) answer.
                    assert (
                        pk_stats.pages_skipped_corrupt
                        == obj_full.stats.pages_skipped_corrupt
                        == 1
                    )
                    assert pk_stats.degraded and obj_full.stats.degraded
                    assert [n.payload for n in pk_nb] == [
                        n.payload for n in obj_full
                    ]
                    bf_nb, bf_stats = packed_nearest_best_first(
                        ptree, query, k=self.N
                    )
                    assert bf_stats.pages_skipped_corrupt == 1
                    assert [n.payload for n in bf_nb] == [
                        n.payload for n in pk_nb
                    ]

    def test_traced_packed_records_skip_events(self, disk_path):
        leaf_page = self._leaf_page(disk_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorruptionWarning)
            with self._open_degraded(disk_path, leaf_page) as disk:
                ptree = PackedTree.from_tree(disk)
        trace = Trace()
        _, stats = packed_nearest_dfs(ptree, (500.0, 500.0), k=3, trace=trace)
        assert stats.pages_skipped_corrupt == 1
        assert ("skips", 1) in trace.events

    def test_batch_merge_paths_agree(self, disk_path):
        leaf_page = self._leaf_page(disk_path)
        queries = QUERIES
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorruptionWarning)
            with self._open_degraded(disk_path, leaf_page) as disk:
                obj_results, obj_combined, _ = nearest_batch(
                    disk, queries, k=self.N
                )
            with self._open_degraded(disk_path, leaf_page) as disk:
                pk_results, pk_combined, _ = nearest_batch(
                    disk, queries, k=self.N, options=PACKED_BATCH
                )
        assert all(r.stats.pages_skipped_corrupt == 1 for r in obj_results)
        assert all(r.stats.pages_skipped_corrupt == 1 for r in pk_results)
        assert (
            obj_combined.pages_skipped_corrupt
            == pk_combined.pages_skipped_corrupt
            == len(queries)
        )

    def test_all_corrupt_snapshot_compiles_empty_but_degraded(
        self, disk_path
    ):
        with DiskRTree(disk_path, page_size=self.PAGE_SIZE) as disk:
            root_page = disk.root.node_id
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorruptionWarning)
            with self._open_degraded(disk_path, root_page) as disk:
                ptree = PackedTree.from_tree(disk)
        neighbors, stats = packed_nearest_dfs(ptree, (500.0, 500.0), k=3)
        assert neighbors == []
        assert stats.pages_skipped_corrupt >= 1
        assert stats.degraded
