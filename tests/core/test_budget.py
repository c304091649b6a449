"""Per-query budgets: deadlines, page caps, truncation soundness.

The acceptance properties pinned here:

- a ``Budget`` must carry at least one limit and validates its fields;
- the ``BudgetClock`` charges deterministically (deadline checked
  *before* a page is spent; the exhaustion reason is sticky);
- every algorithm in the audit grid (the six ``ALGORITHM_COMBOS``), on
  both the in-memory and disk backends, honors a page budget and
  returns a *sound prefix*: ``check_truncated_result`` finds nothing;
- a generous budget changes nothing (bit-identical to the unbudgeted
  run);
- packed kernels truncate at the *same point* as the object kernels
  under the same ``max_pages`` — identical neighbors, stats, frontier;
- ``on_exhausted="raise"`` raises ``DeadlineExceeded`` with the frontier;
- ``SearchStats.merge`` folds truncation flags conservatively.
"""

import math

import pytest

from repro.audit.oracle import (
    ALGORITHM_COMBOS,
    check_truncated_result,
    exact_neighbors,
)
from repro.core.budget import Budget, BudgetClock
from repro.core.config import QueryConfig
from repro.core.knn_best_first import nearest_best_first, nearest_incremental
from repro.core.knn_dfs import nearest_dfs
from repro.core.pruning import PruningConfig
from repro.core.query import nearest
from repro.core.stats import SearchStats
from repro.datasets import uniform_points
from repro.errors import DeadlineExceeded, InvalidParameterError
from repro.geometry.rect import Rect
from repro.obs import Trace
from repro.packed.kernels import packed_nearest_best_first, packed_nearest_dfs
from repro.rtree.disk import build_disk_index

from tests.conftest import build_point_tree

pytestmark = pytest.mark.resilience


@pytest.fixture(scope="module")
def workload():
    points = uniform_points(1200, seed=5)
    tree = build_point_tree(points, max_entries=8)
    items = [(Rect(p, p), i) for i, p in enumerate(points)]
    return points, tree, items


class TestBudgetValidation:
    def test_needs_at_least_one_limit(self):
        with pytest.raises(InvalidParameterError):
            Budget()

    @pytest.mark.parametrize("bad", [0, -5.0])
    def test_deadline_must_be_positive(self, bad):
        with pytest.raises(InvalidParameterError):
            Budget(deadline_ms=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_max_pages_must_be_positive(self, bad):
        with pytest.raises(InvalidParameterError):
            Budget(max_pages=bad)

    def test_bad_exhaustion_mode(self):
        with pytest.raises(InvalidParameterError):
            Budget(max_pages=1, on_exhausted="explode")

    def test_budget_is_hashable_for_cache_keys(self):
        a = Budget(deadline_ms=5.0, max_pages=10)
        b = Budget(deadline_ms=5.0, max_pages=10)
        assert hash(a) == hash(b) and a == b

    def test_describe(self):
        assert "5" in Budget(deadline_ms=5.0).describe()
        assert "pg" in Budget(max_pages=3).describe()


class TestBudgetClock:
    def test_pages_count_down_then_exhaust(self):
        clock = Budget(max_pages=2).start()
        assert clock.charge() == ""
        assert clock.charge() == ""
        assert clock.charge() == "pages"

    def test_reason_is_sticky(self):
        clock = Budget(max_pages=1).start()
        clock.charge()
        assert clock.charge() == "pages"
        assert clock.charge() == "pages"

    def test_deadline_uses_injected_clock(self):
        t = [0.0]
        clock = BudgetClock(
            Budget(deadline_ms=10.0), clock=lambda: t[0]
        )
        assert clock.charge() == ""
        t[0] = 0.011
        assert clock.charge() == "deadline"

    def test_deadline_checked_before_spending_a_page(self):
        t = [0.0]
        clock = BudgetClock(
            Budget(deadline_ms=10.0, max_pages=5), clock=lambda: t[0]
        )
        t[0] = 1.0
        assert clock.charge() == "deadline"
        assert clock.pages_left == 5  # the expired charge spent nothing


def _combo_runners_with_budget():
    """The six audit combos, re-expressed to thread a budget through."""

    def incremental(tree, q, k, budget):
        out = []
        for n in nearest_incremental(tree, q, budget=budget):
            out.append(n)
            if len(out) >= k:
                break
        return out

    return [
        ("dfs-mindist", lambda t, q, k, b: nearest_dfs(
            t, q, k=k, ordering="mindist", budget=b)[0]),
        ("dfs-minmaxdist", lambda t, q, k, b: nearest_dfs(
            t, q, k=k, ordering="minmaxdist", budget=b)[0]),
        ("dfs-noprune", lambda t, q, k, b: nearest_dfs(
            t, q, k=k, pruning=PruningConfig.none(), budget=b)[0]),
        ("dfs-p3only", lambda t, q, k, b: nearest_dfs(
            t, q, k=k, pruning=PruningConfig.only_p3(), budget=b)[0]),
        ("best-first", lambda t, q, k, b: nearest_best_first(
            t, q, k=k, budget=b)[0]),
        ("incremental", incremental),
    ]


class TestBudgetAcrossAuditGrid:
    """Satellite requirement: deadline/budget checks in all six
    algorithm combos, on both tree backends."""

    def test_grid_covers_all_audit_combos(self):
        ours = {name for name, _ in _combo_runners_with_budget()}
        theirs = {name for name, _, _ in ALGORITHM_COMBOS}
        assert ours == theirs

    @pytest.mark.parametrize(
        "combo", _combo_runners_with_budget(), ids=lambda c: c[0]
    )
    @pytest.mark.parametrize("backend", ["mem", "disk"])
    def test_page_budget_yields_sound_prefix(
        self, workload, tmp_path, combo, backend
    ):
        points, tree, items = workload
        name, runner = combo
        if backend == "disk":
            tree = build_disk_index(
                items, tmp_path / "t.rtree", page_size=1024
            )
        try:
            for q in [(0.3, 0.7), (0.9, 0.1)]:
                exact = exact_neighbors(items, q, 10)
                for pages in (1, 4, 16):
                    budget = Budget(max_pages=pages)
                    got = runner(tree, q, 10, budget)
                    # The prefix must be certifiably sound.  The frontier
                    # lives on the stats object, which the combo lambdas
                    # drop — go through nearest() for the two public
                    # algorithms; for the others assert the subset
                    # property (frontier=0 disables the band check).
                    problems = check_truncated_result(
                        got, q, 10, exact,
                        combo=f"{name}@{backend}", frontier=0.0,
                    )
                    assert not problems, problems[0].describe()
        finally:
            if backend == "disk":
                tree.close()

    @pytest.mark.parametrize("algorithm", ["dfs", "best-first"])
    @pytest.mark.parametrize("backend", ["mem", "disk"])
    def test_frontier_certifies_public_algorithms(
        self, workload, tmp_path, algorithm, backend
    ):
        points, tree, items = workload
        if backend == "disk":
            tree = build_disk_index(
                items, tmp_path / "t.rtree", page_size=1024
            )
        try:
            for q in [(0.3, 0.7), (0.5, 0.5)]:
                exact = exact_neighbors(items, q, 10)
                for pages in (2, 8, 32):
                    r = nearest(
                        tree, q, k=10, algorithm=algorithm,
                        budget=Budget(max_pages=pages),
                    )
                    problems = check_truncated_result(
                        r.neighbors, q, 10, exact,
                        combo=f"{algorithm}@{backend}",
                        frontier=r.frontier_distance,
                    )
                    assert not problems, problems[0].describe()
        finally:
            if backend == "disk":
                tree.close()

    def test_generous_budget_is_a_noop(self, workload):
        points, tree, items = workload
        q = (0.4, 0.6)
        free = nearest(tree, q, k=5)
        capped = nearest(
            tree, q, k=5, budget=Budget(max_pages=10_000)
        )
        assert not capped.truncated
        assert capped.distances() == free.distances()
        assert capped.stats.nodes_accessed == free.stats.nodes_accessed

    def test_deadline_truncates_via_injected_pressure(self, workload):
        """An already-expired deadline yields an empty, flagged result."""
        points, tree, items = workload
        r = nearest(
            tree, (0.2, 0.2), k=5,
            budget=Budget(deadline_ms=1e-6),
        )
        assert r.truncated
        assert r.truncation_reason == "deadline"
        assert r.neighbors == []
        assert r.frontier_distance < math.inf


class TestPackedObjectTruncationParity:
    """The packed kernels must truncate at the *same charge* as the
    object kernels — identical neighbors, stats, and frontier."""

    DIM = 2
    QUERIES = [(0.3, 0.7), (0.9, 0.1)]

    @pytest.fixture(scope="class")
    def trees(self):
        points = uniform_points(1200, seed=5, dimension=self.DIM)
        tree = build_point_tree(points, max_entries=8)
        return tree, tree.packed()

    @pytest.mark.parametrize("algorithm", ["dfs", "best-first"])
    def test_bit_identical_truncation(self, trees, algorithm):
        tree, ptree = trees
        for q in self.QUERIES:
            for pages in (1, 3, 7, 15, 200):
                budget = Budget(max_pages=pages)
                if algorithm == "dfs":
                    obj, ostats = nearest_dfs(tree, q, k=10, budget=budget)
                    pk, pstats = packed_nearest_dfs(
                        ptree, q, k=10, budget=budget
                    )
                else:
                    obj, ostats = nearest_best_first(
                        tree, q, k=10, budget=budget
                    )
                    pk, pstats = packed_nearest_best_first(
                        ptree, q, k=10, budget=budget
                    )
                assert [n.distance for n in pk] == [n.distance for n in obj]
                assert [n.payload for n in pk] == [n.payload for n in obj]
                assert pstats.truncated == ostats.truncated
                assert pstats.truncation_reason == ostats.truncation_reason
                assert pstats.frontier_sq == ostats.frontier_sq
                assert pstats.nodes_accessed == ostats.nodes_accessed

    @pytest.mark.parametrize("algorithm", ["dfs", "best-first"])
    def test_trace_and_budget_together(self, trees, algorithm):
        """A query carrying both hooks truncates where the budget-only
        query does, and its event stream stops where the object
        kernel's does."""
        tree, ptree = trees
        obj_kernel, pk_kernel = (
            (nearest_dfs, packed_nearest_dfs) if algorithm == "dfs"
            else (nearest_best_first, packed_nearest_best_first)
        )
        for q in self.QUERIES:
            for pages in (1, 3, 7, 15, 200):
                budget = Budget(max_pages=pages)
                obj_trace, pk_trace = Trace(), Trace()
                obj, ostats = obj_kernel(
                    tree, q, k=10, budget=budget, trace=obj_trace
                )
                pk, pstats = pk_kernel(
                    ptree, q, k=10, budget=budget, trace=pk_trace
                )
                plain, plain_stats = pk_kernel(ptree, q, k=10, budget=budget)
                assert [n.payload for n in pk] == [n.payload for n in obj]
                assert [n.payload for n in pk] == [n.payload for n in plain]
                assert pstats == ostats == plain_stats
                assert pk_trace.pages_entered() == pstats.nodes_accessed
                assert [e for e in pk_trace.events if e[0] != "exit"] == [
                    e for e in obj_trace.events if e[0] != "exit"
                ]


class TestPackedObjectTruncationParity3D(TestPackedObjectTruncationParity):
    """3-D: the general loop serves budgeted and unbudgeted queries alike."""

    DIM = 3
    QUERIES = [(0.3, 0.7, 0.5), (0.9, 0.1, 0.2)]


class TestRaiseMode:
    def test_raise_mode_raises_with_frontier(self, workload):
        points, tree, items = workload
        with pytest.raises(DeadlineExceeded) as err:
            nearest(
                tree, (0.5, 0.5), k=5,
                budget=Budget(max_pages=1, on_exhausted="raise"),
            )
        assert err.value.reason == "pages"
        assert err.value.frontier_sq < math.inf

    def test_config_carries_budget(self, workload):
        points, tree, items = workload
        cfg = QueryConfig(k=3, budget=Budget(max_pages=2))
        r = nearest(tree, (0.1, 0.1), config=cfg)
        assert r.truncated
        # The budget participates in result identity.
        assert cfg.cache_key() != QueryConfig(k=3).cache_key()


class TestStatsMerge:
    def test_merge_folds_truncation(self):
        a = SearchStats()
        b = SearchStats()
        b.truncated = True
        b.truncation_reason = "pages"
        b.frontier_sq = 0.25
        a.merge(b)
        assert a.truncated
        assert a.truncation_reason == "pages"
        assert a.frontier_sq == 0.25

    def test_merge_keeps_min_frontier(self):
        a = SearchStats()
        a.truncated = True
        a.truncation_reason = "deadline"
        a.frontier_sq = 0.1
        b = SearchStats()
        b.truncated = True
        b.truncation_reason = "pages"
        b.frontier_sq = 0.5
        a.merge(b)
        assert a.frontier_sq == 0.1
        assert a.truncation_reason == "deadline"  # first reason wins

    def test_as_dict_exports_truncated_flag(self):
        s = SearchStats()
        s.truncated = True
        assert s.as_dict()["truncated"] == 1
