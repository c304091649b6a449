"""Packed struct-of-arrays query path.

:class:`PackedTree` compiles an :class:`~repro.rtree.RTree` or
:class:`~repro.rtree.DiskRTree` into flat coordinate/reference slabs; the
kernels in :mod:`repro.packed.kernels` traverse those slabs with integer
offsets and inline metrics — no per-entry allocation, no attribute loads,
no metric function calls — and reproduce the object kernels' results and
:class:`~repro.core.SearchStats` bit-for-bit.

Entry points:

- ``tree.packed()`` / ``tree.snapshot(packed=True)`` — compile (cached
  per mutation epoch).
- :func:`packed_nearest_dfs` / :func:`packed_nearest_best_first` — direct
  kernel calls, mirroring :func:`repro.core.nearest_dfs` and
  :func:`repro.core.nearest_best_first`.  Which of the five traversal
  loops a call runs follows from its dimension, ``trace`` and ``budget``
  (docs/INTERNALS.md, "Packed kernel dispatch").
- :func:`packed_nearest_batch` / :func:`run_packed_batch` — the
  multi-query batch kernel (:mod:`repro.packed.batch`): one traversal
  answers a whole same-config window, with the per-node MINDIST pass
  numpy-vectorized when the ``repro[fast]`` extra is installed.
- :class:`repro.service.QueryEngine` and :func:`repro.core.nearest_batch`
  with ``options=EngineOptions(packed=True)`` — the serving integrations.
"""

from repro.packed.batch import (
    NUMPY_AVAILABLE,
    packed_nearest_batch,
    run_packed_batch,
)
from repro.packed.kernels import (
    packed_nearest_best_first,
    packed_nearest_dfs,
    run_packed_query,
)
from repro.packed.layout import (
    NODE_INTERNAL,
    NODE_LEAF_POINTS,
    NODE_LEAF_RECT,
    PackedTree,
)

__all__ = [
    "PackedTree",
    "NODE_INTERNAL",
    "NODE_LEAF_RECT",
    "NODE_LEAF_POINTS",
    "packed_nearest_dfs",
    "packed_nearest_best_first",
    "packed_nearest_batch",
    "run_packed_query",
    "run_packed_batch",
    "NUMPY_AVAILABLE",
]
