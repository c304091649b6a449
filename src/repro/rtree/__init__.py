"""A dynamic R-tree built from scratch (Guttman 1984, plus R* refinements).

This is the index substrate the SIGMOD'95 nearest-neighbor algorithm runs on.
It provides:

- dynamic insertion with Guttman's ChooseLeaf and pluggable node splitting
  (:class:`LinearSplit`, :class:`QuadraticSplit`, :class:`RStarSplit`),
- optional R*-style forced reinsertion,
- deletion with CondenseTree,
- window (range) and containment queries,
- Sort-Tile-Recursive bulk loading (:func:`bulk_load`),
- a structural invariant validator used heavily by the test suite,
- a checksummed page-file format (:func:`write_tree`, :class:`DiskRTree`).
"""

from repro.rtree.entry import Entry
from repro.rtree.node import Node
from repro.rtree.tree import RTree, TreeSnapshot
from repro.rtree.bulk import bulk_load
from repro.rtree.disk import DiskRTree, build_disk_index, disk_fanout, write_tree
from repro.rtree.scrub import ScrubIssue, ScrubReport, scrub, verify_checksums
from repro.rtree.validate import validate_tree
from repro.rtree.quality import LevelQuality, TreeQuality, measure_quality
from repro.rtree.splits import (
    LinearSplit,
    QuadraticSplit,
    RStarSplit,
    SplitStrategy,
    resolve_split_strategy,
)

__all__ = [
    "DiskRTree",
    "build_disk_index",
    "disk_fanout",
    "write_tree",
    "Entry",
    "LevelQuality",
    "TreeQuality",
    "measure_quality",
    "LinearSplit",
    "Node",
    "QuadraticSplit",
    "RStarSplit",
    "RTree",
    "SplitStrategy",
    "ScrubIssue",
    "ScrubReport",
    "TreeSnapshot",
    "scrub",
    "verify_checksums",
    "bulk_load",
    "resolve_split_strategy",
    "validate_tree",
]
