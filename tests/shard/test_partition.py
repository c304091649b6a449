"""The shard partitioner: balance, determinism, degeneracy fallback —
and the one-pass sharded build giving the plan, slabs and segment bytes
of the forms it replaced (kept below as references)."""

import os
from dataclasses import asdict

import pytest

from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.point import axis_columns
from repro.geometry.rect import Rect
from repro.packed.layout import PackedTree
from repro.rtree.bulk import bulk_load
from repro.shard import ShardedQueryEngine
from repro.shard.partition import (
    PARTITION_METHODS, _hash_groups, _zero_extent, plan_shards,
)
from repro.shard.slab import export_slab

from tests.rtree.test_bulk_identity import KINDS, _items, bits
from tests.shard.conftest import grid_tie_items

pytestmark = pytest.mark.shard


class TestBalance:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5, 7])
    def test_sizes_within_one(self, uniform_items, shards):
        plan = plan_shards(uniform_items, shards)
        sizes = plan.sizes()
        assert sum(sizes) == len(uniform_items)
        assert max(sizes) - min(sizes) <= 1
        assert all(s > 0 for s in sizes)

    def test_every_item_assigned_exactly_once(self, uniform_items):
        plan = plan_shards(uniform_items, 4)
        seen = [payload for group in plan.groups for _, payload in group]
        assert sorted(seen) == sorted(p for _, p in uniform_items)

    def test_mbrs_cover_their_groups(self, uniform_items):
        plan = plan_shards(uniform_items, 4)
        for group, mbr in zip(plan.groups, plan.mbrs):
            for rect, _ in group:
                assert mbr.contains_rect(rect)


class TestDeterminism:
    def test_same_input_same_plan(self, uniform_items):
        a = plan_shards(uniform_items, 4)
        b = plan_shards(list(uniform_items), 4)
        assert a.method == b.method
        assert a.mbrs == b.mbrs
        assert [
            [p for _, p in g] for g in a.groups
        ] == [[p for _, p in g] for g in b.groups]

    def test_tie_heavy_grid_is_deterministic(self):
        items = grid_tie_items(side=6, copies=2)
        a = plan_shards(items, 3)
        b = plan_shards(items, 3)
        assert a.groups == b.groups


class TestDegenerate:
    def test_auto_uses_str_on_spread_data(self, uniform_items):
        assert plan_shards(uniform_items, 3).method == "str"

    def test_auto_falls_back_to_hash_on_single_point(self):
        items = [(Rect.from_point((5.0, 5.0)), i) for i in range(40)]
        plan = plan_shards(items, 4)
        assert plan.method == "hash"
        sizes = plan.sizes()
        assert sum(sizes) == 40
        assert max(sizes) - min(sizes) <= 1

    def test_hash_never_leaves_an_empty_shard(self, uniform_items):
        plan = plan_shards(uniform_items, 5, method="hash")
        assert all(plan.sizes())
        assert max(plan.sizes()) - min(plan.sizes()) <= 1

    def test_fewer_items_than_shards(self):
        items = [(Rect.from_point((float(i), 0.0)), i) for i in range(3)]
        plan = plan_shards(items, 8)
        assert plan.shards == 3
        assert plan.sizes() == [1, 1, 1]


class TestValidation:
    def test_rejects_unknown_method(self, uniform_items):
        with pytest.raises(InvalidParameterError):
            plan_shards(uniform_items, 2, method="zorder")

    def test_rejects_bad_shard_count(self, uniform_items):
        with pytest.raises(InvalidParameterError):
            plan_shards(uniform_items, 0)

    def test_rejects_empty_items(self):
        with pytest.raises(InvalidParameterError):
            plan_shards([], 2)

    def test_method_never_reports_auto(self, uniform_items):
        plan = plan_shards(uniform_items, 2, method="auto")
        assert plan.method in PARTITION_METHODS
        assert plan.method != "auto"


# ----------------------------------------------------------------------
# The one-pass build == the forms it replaced
# ----------------------------------------------------------------------
def reference_plan_shards(items, shards, method):
    """``plan_shards`` as it was: a center per rect through the property,
    item lists copied to tuples, every group's rects re-unioned."""
    pool = list(items)
    effective = min(shards, len(pool))
    centers = [rect.center for rect, _ in pool]
    if method == "auto":
        method = "hash" if _zero_extent(centers) else "str"
    if method == "hash":
        groups = _hash_groups(pool, centers, effective)
    else:
        columns = axis_columns(centers)

        def widest_axis(run):
            best_axis, best_extent = 0, -1.0
            for axis, column in enumerate(columns):
                values = [column[i] for i in run]
                extent = max(values) - min(values)
                if extent > best_extent:
                    best_extent, best_axis = extent, axis
            return best_axis

        def split(run, want):
            if want == 1 or len(run) <= 1:
                return [run]
            left_want = (want + 1) // 2
            right_want = want - left_want
            run = sorted(run, key=columns[widest_axis(run)].__getitem__)
            cut = round(len(run) * left_want / want)
            cut = max(left_want, min(len(run) - right_want, cut))
            return split(run[:cut], left_want) + split(run[cut:], right_want)

        groups = [
            [pool[i] for i in run]
            for run in split(list(range(len(pool))), effective)
        ]
    mbrs = [Rect.union_all([rect for rect, _ in group]) for group in groups]
    return method, groups, mbrs


def reference_build(groups, mbrs, max_entries, epoch, prefix):
    """The per-shard half of ``_build_shards`` as it was, exported."""
    ptrees, slabs = [], []
    for index, group in enumerate(groups):
        ptree = PackedTree.from_tree(
            bulk_load(list(group), max_entries=max_entries)
        )
        ptree.epoch = epoch
        ptrees.append(ptree)
        slabs.append(
            export_slab(ptree, index, mbrs[index], f"{prefix}-s{index}")
        )
    return ptrees, slabs


def assert_same_plan(plan, method, groups, mbrs):
    assert plan.method == method
    assert type(plan.groups) is tuple and type(plan.mbrs) is tuple
    assert len(plan.groups) == len(groups) == len(plan.mbrs)
    for group, expected in zip(plan.groups, groups):
        assert type(group) is tuple and len(group) == len(expected)
        assert all(a is b for a, b in zip(group, expected))
    assert [bits(m) for m in plan.mbrs] == [bits(m) for m in mbrs]
    assert all(type(m) is Rect for m in plan.mbrs)


SLABS = (
    "dimension", "size", "epoch", "kinds", "starts", "page_ids", "coords",
    "refs", "payloads",
)


def _segment_bytes(slab):
    with open(f"/dev/shm/{slab.name.lstrip('/')}", "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("max_entries", [8, 113])
@pytest.mark.parametrize("shards", [1, 2, 3, 7])
@pytest.mark.parametrize("shape", ["point-rect", "box"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_the_build_is_identical_to_the_forms_it_replaced(
    kind, dim, shape, shards, max_entries
):
    """Same plan, ``==`` slabs, same segment bytes — through the engine's
    own ``_build_shards``, fed a one-shot iterator as a ``tree=`` boot is."""
    items = _items(kind, 797, dim, shape)
    method, groups, mbrs = reference_plan_shards(items, shards, "auto")
    assert method == "str"
    assert_same_plan(plan_shards(iter(items), shards), method, groups, mbrs)
    with ShardedQueryEngine(
        items=iter(items), shards=shards, processes=False,
        max_entries=max_entries,
    ) as engine:
        # Inline boot: the plan and slabs it serves.  Then the same build
        # with the export on, which forks nothing.
        assert_same_plan(engine._plan, method, groups, mbrs)
        served = [handle.ptree for handle in engine._handles]
        engine.processes = True
        plan, ptrees, slabs = engine._build_shards(iter(items), shards, 1)
        expected, expected_slabs = reference_build(
            groups, mbrs, max_entries, 1, engine.name_prefix + "-ref"
        )
        try:
            assert_same_plan(plan, method, groups, mbrs)
            for built in (served, ptrees):
                for ptree, reference in zip(built, expected):
                    for name in SLABS:
                        assert getattr(ptree, name) == getattr(reference, name), name
                    assert all(
                        a is b for a, b in zip(ptree.rects, reference.rects)
                    )
            for slab, reference in zip(slabs, expected_slabs):
                ours, theirs = asdict(slab.manifest), asdict(reference.manifest)
                assert ours.pop("name") != theirs.pop("name")
                assert ours == theirs
                assert bits(slab.manifest.mbr()) == bits(reference.manifest.mbr())
                if os.path.isdir("/dev/shm"):
                    assert _segment_bytes(slab) == _segment_bytes(reference)
        finally:
            for slab in slabs + expected_slabs:
                slab.unlink()


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
@pytest.mark.parametrize("shape", ["point-rect", "box"])
@pytest.mark.parametrize("kind", KINDS)
def test_hash_and_the_zero_extent_fallback_are_unchanged(kind, shape, shards):
    items = _items(kind, 797, 2, shape)
    assert_same_plan(
        plan_shards(items, shards, "hash"),
        *reference_plan_shards(items, shards, "hash"),
    )
    stacked = [(items[0][0], payload) for _, payload in items]
    method, groups, mbrs = reference_plan_shards(stacked, shards, "auto")
    assert method == "hash"
    assert_same_plan(plan_shards(stacked, shards), method, groups, mbrs)
    # Forcing STR onto the stack: every cut is a tie, order is the input's.
    assert_same_plan(
        plan_shards(stacked, shards, "str"),
        *reference_plan_shards(stacked, shards, "str"),
    )


def test_point_rects_that_do_not_share_their_tuple_take_the_general_form():
    """``Rect(p, p)``, an unpickled rect, a ``-0.0`` / ``0.0`` pair: equal
    bounds, two tuples — and one box or stray dimension among points."""
    points = [(float(i % 7) - 3.0, -0.0 if i % 2 else 0.0) for i in range(60)]
    two_tuples = [(Rect(p, p), i) for i, p in enumerate(points)]
    signed = [(Rect((x, -0.0), (x, 0.0)), i) for i, (x, _) in enumerate(points)]
    shared = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    one_box = shared[:59] + [(Rect((0.0, 0.0), (9.0, 9.0)), 59)]
    for items in (two_tuples, signed, shared, one_box):
        for shards in (1, 2, 5):
            assert_same_plan(
                plan_shards(items, shards),
                *reference_plan_shards(items, shards, "auto"),
            )
    stray = shared[:59] + [(Rect.from_point((1.0, 2.0, 3.0)), 59)]
    with pytest.raises(DimensionMismatchError) as expected:
        reference_plan_shards(stray, 2, "auto")
    with pytest.raises(DimensionMismatchError) as got:
        plan_shards(stray, 2)
    assert str(got.value) == str(expected.value)
