"""Offline integrity audit for disk R-tree files.

:func:`scrub` walks every page of an ``RNN2`` file, verifies page
checksums and the tree's structural invariants (via the same
validator the test suite uses), and returns a :class:`ScrubReport` whose
:meth:`~ScrubReport.render` is a human-readable damage report.  It is the
tool to reach for after a crash, a suspicious query result, or a restore
from backup: it reads the whole file but never modifies it.

Also exposed as a CLI::

    python -m repro.bench scrub /path/to/index.rnn --page-size 4096

Exit status is 0 for a clean file, 1 for a damaged one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Union

from repro.errors import (
    ChecksumError,
    PageFileError,
    TreeInvariantError,
)
from repro.rtree import disk as _disk
from repro.rtree.validate import validate_tree
from repro.storage.pagefile import PageFile, RetryPolicy

__all__ = ["ScrubIssue", "ScrubReport", "scrub", "verify_checksums"]


@dataclass
class ScrubIssue:
    """One problem found by :func:`scrub`.

    ``page_id`` is -1 for file-level problems; ``kind`` is one of
    ``"header"``, ``"checksum"``, ``"structure"``, or ``"io"``.
    """

    page_id: int
    kind: str
    detail: str


@dataclass
class ScrubReport:
    """Everything :func:`scrub` learned about one file."""

    path: str
    format_version: int
    page_size: int
    page_count: int
    node_count: int = 0
    item_count: int = 0
    issues: List[ScrubIssue] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True if no damage of any kind was found."""
        return not self.issues

    @property
    def checksum_failures(self) -> List[int]:
        """Page ids whose CRC32 did not match their contents."""
        return [i.page_id for i in self.issues if i.kind == "checksum"]

    @property
    def structural_errors(self) -> List[str]:
        """Tree-invariant violations found while walking from the root."""
        return [i.detail for i in self.issues if i.kind == "structure"]

    def render(self) -> str:
        """Format the damage report for humans."""
        version = (
            f"RNN{self.format_version}" if self.format_version else "unknown"
        )
        lines = [
            f"Scrub report for {self.path!r}",
            f"  format    : {version}, page_size={self.page_size}, "
            f"{self.page_count} pages "
            f"({self.node_count} nodes, {self.item_count} items)",
        ]
        bad = self.checksum_failures
        lines.append(
            f"  checksums : {len(bad)} bad page(s)"
            + (f": {sorted(set(bad))}" if bad else "")
        )
        others = [i for i in self.issues if i.kind != "checksum"]
        if others:
            lines.append("  problems  :")
            for issue in others:
                where = f"page {issue.page_id}" if issue.page_id >= 0 else "file"
                lines.append(f"    - [{issue.kind}] {where}: {issue.detail}")
        lines.append(
            "  verdict   : " + ("CLEAN" if self.clean else "DAMAGED")
        )
        return "\n".join(lines)


def verify_checksums(
    path: Union[str, "object"], page_size: int = 4096
) -> List[int]:
    """Return the ids of all pages whose CRC32 trailer fails.

    The cheap half of :func:`scrub`: a single sequential sweep with no
    tree decoding, usable in a tight loop (the corruption-matrix tests
    call it for every possible byte flip).  The header page is checked
    like any other, so a damaged magic shows up as page 0.
    """
    bad: List[int] = []
    with PageFile(path, page_size=page_size, create=False) as pages:
        for page_id in range(pages.page_count):
            raw = pages.read_page(page_id)
            try:
                _disk._verify_page(raw, page_id, pages.path)
            except ChecksumError:
                bad.append(page_id)
    return bad


def _count_nodes(root) -> int:
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend(e.child for e in node.entries)
    return count


def scrub(path: Union[str, "object"], page_size: int = 4096) -> ScrubReport:
    """Audit a disk R-tree file; returns a :class:`ScrubReport`.

    Three passes, each independent so one kind of damage does not mask
    another:

    1. header — magic, page-size agreement, header checksum;
    2. checksum sweep — every page's CRC32 trailer;
    3. structure — full traversal from the root re-checking the R-tree
       invariants (:func:`repro.rtree.validate.validate_tree`): levels,
       fill factors, exact parent MBRs, payload/child discipline, sizes.

    Never modifies the file.  Raises :class:`PageFileError` only if the
    file cannot be opened at all (missing, misaligned size).
    """
    report: ScrubReport
    with PageFile(path, page_size=page_size, create=False) as pages:
        report = ScrubReport(
            path=pages.path,
            format_version=0,
            page_size=page_size,
            page_count=pages.page_count,
        )
        raw = pages.read_page(0)
        if raw[:4] == _disk._MAGIC:
            report.format_version = 2
        else:
            report.issues.append(
                ScrubIssue(-1, "header", "not a disk R-tree file (bad magic)")
            )
            return report
        try:
            (_, stored_page_size) = struct.unpack_from("<4sI", raw, 0)
        except struct.error:  # pragma: no cover - page >= 64 bytes
            stored_page_size = 0
        if stored_page_size != page_size:
            report.issues.append(
                ScrubIssue(
                    -1,
                    "header",
                    f"header says page_size={stored_page_size}, scrubbed "
                    f"with {page_size}; re-run with the stored size",
                )
            )
            return report
        for page_id in range(pages.page_count):
            page_raw = raw if page_id == 0 else pages.read_page(page_id)
            try:
                _disk._verify_page(page_raw, page_id, pages.path)
            except ChecksumError as exc:
                report.issues.append(
                    ScrubIssue(page_id, "checksum", str(exc))
                )

    # Structural pass: open through the normal reader so decoding rules
    # are identical to production, but never retry (the file is local)
    # and always raise so the traversal stops at the first breakage.
    try:
        with _disk.DiskRTree(
            path,
            page_size=page_size,
            on_corrupt="raise",
            retry=RetryPolicy(attempts=1),
        ) as tree:
            report.node_count = tree.node_count
            report.item_count = len(tree)
            validate_tree(tree)
            reachable = _count_nodes(tree.root)
            if reachable != tree.node_count:
                report.issues.append(
                    ScrubIssue(
                        -1,
                        "structure",
                        f"header claims {tree.node_count} nodes but "
                        f"{reachable} are reachable from the root",
                    )
                )
    except ChecksumError as exc:
        report.issues.append(
            ScrubIssue(exc.page_id, "structure", f"traversal stopped: {exc}")
        )
    except TreeInvariantError as exc:
        report.issues.append(ScrubIssue(-1, "structure", str(exc)))
    except PageFileError as exc:
        report.issues.append(ScrubIssue(-1, "io", str(exc)))
    return report
