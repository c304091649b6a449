"""Public-API integrity: __all__ must be importable, complete and stable."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.rtree",
    "repro.storage",
    "repro.baselines",
    "repro.datasets",
    "repro.bench",
    "repro.geometry",
    "repro.service",
    "repro.packed",
    "repro.obs",
]


# The package root is the paper's surface plus the engines; everything
# else is imported from its subpackage.
ROOT_ALL = {
    "RTree", "bulk_load", "Rect", "Point", "Segment",
    "mindist", "mindist_squared", "minmaxdist", "minmaxdist_squared",
    "PruningConfig", "QueryConfig", "Budget",
    "nearest", "nearest_dfs", "nearest_best_first", "nearest_incremental",
    "nearest_batch", "NearestNeighborQuery",
    "NNResult", "Neighbor", "SearchStats",
    "linear_scan", "DiskRTree", "write_tree", "PackedTree",
    "Engine", "EngineOptions", "QueryEngine", "ResilientEngine",
    "ShardedQueryEngine", "NNServer", "ServerConfig",
    "ReproError", "InvalidParameterError", "__version__",
}


# Names that left the root and where they are imported from now.
OFF_THE_ROOT = {
    "repro.core": (
        "NeighborBuffer", "PruningStats", "aggregate_nearest",
        "count_within_distance", "farthest_best_first", "maxdist",
        "maxdist_squared", "within_distance",
    ),
    "repro.rtree": (
        "ScrubReport", "TreeQuality", "TreeSnapshot", "measure_quality",
        "scrub", "validate_tree", "verify_checksums",
    ),
    "repro.storage": (
        "AccessTracker", "CircuitBreaker", "CountingTracker",
        "DiskCostModel", "FaultInjectingPageFile", "FaultPlan",
        "FifoBufferPool", "LruBufferPool", "NullTracker", "PageFile",
        "PageModel", "RetryPolicy", "ShardedTracker",
    ),
    "repro.baselines": ("GridIndex", "KdTree", "QuadTree", "linear_scan_items"),
    "repro.obs": (
        "CaptureLog", "MetricsRegistry", "QueryRecorder", "SlowQueryLog",
        "SlowQueryRecord", "SpanContext", "SpanLog", "SpanSampler", "Trace",
        "render_spans", "render_trace", "replay",
    ),
    "repro.service": (
        "BrownoutController", "BrownoutLevel", "EngineSnapshot",
        "EngineStats", "ResultCache", "TokenBucket",
    ),
    "repro.packed": ("packed_nearest_best_first", "packed_nearest_dfs"),
    "repro.shard": ("ShardedStats",),
    "repro.errors": (
        "AdmissionRejected", "ChecksumError", "CorruptionWarning",
        "DeadlineExceeded", "DimensionMismatchError", "EmptyIndexError",
        "GeometryError", "InvalidRectError", "PageFileError",
        "QuotaExceeded", "ShardLostError", "TornWriteError",
        "TransientIOError", "TreeInvariantError",
    ),
}


class TestTopLevelAll:
    def test_root_all_is_pinned(self):
        assert set(repro.__all__) == ROOT_ALL

    @pytest.mark.parametrize("module_name", sorted(OFF_THE_ROOT))
    def test_names_off_the_root_live_in_their_subpackage(self, module_name):
        module = importlib.import_module(module_name)
        for name in OFF_THE_ROOT[module_name]:
            assert hasattr(module, name), f"{module_name}.{name} missing"
            assert name not in repro.__all__

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version_present(self):
        assert repro.__version__


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__) > 40


def test_key_workflows_importable_from_top_level():
    # The names the README and examples lean on must stay top-level.
    for name in (
        "RTree", "Rect", "Segment", "nearest", "nearest_batch",
        "bulk_load", "linear_scan", "DiskRTree", "write_tree",
        "PruningConfig", "mindist", "minmaxdist", "PackedTree",
    ):
        assert hasattr(repro, name), f"repro.{name} missing"


def test_public_functions_have_docstrings():
    import inspect

    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"missing docstrings: {undocumented}"


# ``config=QueryConfig(...)`` says what a query means and
# ``options=EngineOptions(...)`` how an engine runs; these loose
# spellings of their fields (and ``run_packed_batch``'s ``vectorize=``)
# are gone for good.  ``ResilientEngine(workers=)`` sizes its own
# admission pool and stays.
_QUERY_SPELLINGS = (
    "algorithm", "ordering", "pruning", "object_distance_sq", "epsilon",
)
_ENGINE_SPELLINGS = (
    "cache_size", "buffer_pages", "packed", "slow_query_ms", "slow_log",
)
RETIRED = {
    "nearest": _QUERY_SPELLINGS + ("budget",),
    "NearestNeighborQuery": _QUERY_SPELLINGS,
    "nearest_batch": (
        _QUERY_SPELLINGS + ("workers", "cache_size", "buffer_pages", "packed")
    ),
    "QueryEngine": ("workers",) + _ENGINE_SPELLINGS,
    "ResilientEngine": _ENGINE_SPELLINGS,
    "ShardedQueryEngine": ("workers",) + _ENGINE_SPELLINGS,
    "run_packed_batch": ("vectorize",),
}
RETIRED_CASES = [(name, p) for name, params in RETIRED.items() for p in params]


@pytest.mark.parametrize(
    "name,param", RETIRED_CASES, ids=[f"{n}-{p}" for n, p in RETIRED_CASES]
)
def test_the_retired_spellings_stay_retired(name, param):
    import inspect

    from repro.packed import run_packed_batch

    tree = repro.RTree()
    tree.insert((0.0, 0.0), payload=0)
    point = (0.0, 0.0)
    calls = {
        "nearest": lambda **kw: repro.nearest(tree, point, **kw),
        "NearestNeighborQuery": (
            lambda **kw: repro.NearestNeighborQuery(tree, **kw)
        ),
        "nearest_batch": lambda **kw: repro.nearest_batch(tree, [point], **kw),
        "QueryEngine": lambda **kw: repro.QueryEngine(tree, **kw),
        "ResilientEngine": lambda **kw: repro.ResilientEngine(tree, **kw),
        "ShardedQueryEngine": (
            lambda **kw: repro.ShardedQueryEngine(tree, processes=False, **kw)
        ),
        "run_packed_batch": lambda **kw: run_packed_batch(
            tree.packed(), [point], repro.QueryConfig(), **kw
        ),
    }
    target = run_packed_batch if name == "run_packed_batch" else getattr(
        repro, name
    )
    assert param not in inspect.signature(target).parameters
    with pytest.raises(TypeError, match=param):
        calls[name](**{param: 1})
