"""Axis-aligned rectangles (minimum bounding rectangles, MBRs).

The R-tree stores an MBR with every entry; the paper's MINDIST and MINMAXDIST
metrics are defined on point/MBR pairs.  A :class:`Rect` is immutable and
hashable, represented internally as two coordinate tuples ``lo`` and ``hi``
with ``lo[i] <= hi[i]`` for every axis ``i``.  Degenerate rectangles (points,
line-segments' bounding boxes with zero extent on some axis) are valid.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import DimensionMismatchError, GeometryError, InvalidRectError
from repro.geometry.point import _COORD_LIMIT, Point

__all__ = ["Rect", "union_area"]


def union_area(lo_a: Point, hi_a: Point, lo_b: Point, hi_b: Point) -> float:
    """Area of the tightest box around boxes *a* and *b*, without building it.

    Bit-identical to ``Rect(lo_a, hi_a).union(Rect(lo_b, hi_b)).area()`` —
    the same bound wins each ``min``/``max`` and the extents are
    multiplied left to right — so insertion and split heuristics can
    score a candidate without allocating (and re-validating) a ``Rect``
    they would only read the area of.  The caller checks dimensions.
    """
    result = 1.0
    for a, b, c, d in zip(lo_a, lo_b, hi_a, hi_b):
        result *= (d if d > c else c) - (b if b < a else a)
    return result


class Rect:
    """An immutable axis-aligned rectangle in ``d >= 1`` dimensions.

    Construct directly from per-axis bounds, or via the class methods
    :meth:`from_point`, :meth:`from_points`, and :meth:`union_all`.
    """

    __slots__ = ("lo", "hi")

    lo: Point
    hi: Point

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        lo_t = tuple(map(float, lo))
        hi_t = tuple(map(float, hi))
        if not lo_t:
            raise GeometryError("a rectangle needs at least one dimension")
        if len(lo_t) != len(hi_t):
            raise DimensionMismatchError(len(lo_t), len(hi_t), "rect bounds")
        limit = _COORD_LIMIT
        for a, b in zip(lo_t, hi_t):
            if not (-limit <= a <= limit and -limit <= b <= limit):
                raise GeometryError(f"rect bound not within ±1e150 in {lo_t}, {hi_t}")
            if a > b:
                raise InvalidRectError(
                    f"lower bound {a} exceeds upper bound {b} in rect "
                    f"({lo_t}, {hi_t})"
                )
        _set_lo(self, lo_t)
        _set_hi(self, hi_t)

    # Rect is conceptually frozen; block accidental mutation.
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    # Slots + the frozen __setattr__ break the default pickle protocol
    # (it restores slot state via setattr).  Rebuild through the
    # constructor instead — bounds that came out of a valid Rect always
    # revalidate.  Needed by the sharded engine, whose worker processes
    # ship result rectangles back over a pipe.
    def __reduce__(self):
        return (Rect, (self.lo, self.hi))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """Degenerate rectangle covering exactly one point.

        Equal to ``Rect(point, point)``, but converted and validated once,
        and the one tuple is both bounds (``rect.lo is rect.hi``).
        """
        coords = tuple(map(float, point))
        if not coords:
            raise GeometryError("a rectangle needs at least one dimension")
        limit = _COORD_LIMIT
        for c in coords:
            if not -limit <= c <= limit:
                raise GeometryError(f"rect bound not within ±1e150 in {coords}")
        return _from_bounds(cls, coords, coords)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "Rect":
        """Tightest rectangle enclosing a non-empty set of points."""
        pts = [tuple(float(c) for c in p) for p in points]
        if not pts:
            raise GeometryError("cannot bound an empty point set")
        dim = len(pts[0])
        for p in pts:
            if len(p) != dim:
                raise DimensionMismatchError(dim, len(p), "from_points")
        lo = tuple(min(p[i] for p in pts) for i in range(dim))
        hi = tuple(max(p[i] for p in pts) for i in range(dim))
        return cls(lo, hi)

    @classmethod
    def union_all(cls, rects: Iterable["Rect"]) -> "Rect":
        """Tightest rectangle enclosing a non-empty collection of rectangles."""
        los, his = [], []
        for r in rects:
            los.append(r.lo)
            his.append(r.hi)
        if not los:
            raise GeometryError("cannot union an empty rect collection")
        dim = len(los[0])
        if len(set(map(len, los))) != 1:
            other = next(n for n in map(len, los) if n != dim)
            raise DimensionMismatchError(dim, other, "union_all")
        # One C-level min/max per axis; both keep the first of equal
        # elements, as a left-to-right ``<`` / ``>`` scan does (-0.0 vs 0.0).
        # Not ``zip(*los)``: one GC-tracked iterator per rect, and a shard
        # plan unions 10^5.  Bounds of valid rects need no re-validation.
        getters = [itemgetter(axis) for axis in range(dim)]
        lo = tuple([min(map(get, los)) for get in getters])
        return _from_bounds(cls, lo, tuple([max(map(get, his)) for get in getters]))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of axes."""
        return len(self.lo)

    @property
    def center(self) -> Point:
        """Geometric center of the rectangle."""
        if self.lo == self.hi:  # degenerate (point) rect: hot in serving
            return self.lo
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def side(self, axis: int) -> float:
        """Extent of the rectangle along *axis*."""
        return self.hi[axis] - self.lo[axis]

    def sides(self) -> Tuple[float, ...]:
        """Per-axis extents."""
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def area(self) -> float:
        """Hyper-volume (product of extents); 0 for degenerate rects."""
        result = 1.0
        for a, b in zip(self.lo, self.hi):
            result *= b - a
        return result

    def margin(self) -> float:
        """Sum of extents (half-perimeter in 2-D); the R* split criterion."""
        return sum(b - a for a, b in zip(self.lo, self.hi))

    def is_degenerate(self) -> bool:
        """True if the rectangle has zero extent on some axis."""
        return any(a == b for a, b in zip(self.lo, self.hi))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, point: Sequence[float]) -> bool:
        """True if *point* lies inside or on the boundary."""
        if len(point) != self.dimension:
            raise DimensionMismatchError(self.dimension, len(point), "contains_point")
        return all(a <= c <= b for a, c, b in zip(self.lo, point, self.hi))

    def contains_rect(self, other: "Rect") -> bool:
        """True if *other* lies entirely inside (or equals) this rectangle."""
        self._check_dim(other)
        return all(
            sa <= oa and ob <= sb
            for sa, sb, oa, ob in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersects(self, other: "Rect") -> bool:
        """True if the rectangles share at least a boundary point."""
        self._check_dim(other)
        return all(
            oa <= sb and sa <= ob
            for sa, sb, oa, ob in zip(self.lo, self.hi, other.lo, other.hi)
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Tightest rectangle enclosing both operands."""
        self._check_dim(other)
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Rect(lo, hi)

    def union_point(self, point: Sequence[float]) -> "Rect":
        """Tightest rectangle enclosing this rectangle and *point*."""
        if len(point) != self.dimension:
            raise DimensionMismatchError(self.dimension, len(point), "union_point")
        lo = tuple(min(a, float(c)) for a, c in zip(self.lo, point))
        hi = tuple(max(b, float(c)) for b, c in zip(self.hi, point))
        return Rect(lo, hi)

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Intersection rectangle, or ``None`` if disjoint."""
        self._check_dim(other)
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Rect(lo, hi)

    def overlap_area(self, other: "Rect") -> float:
        """Hyper-volume of the intersection (0 if disjoint)."""
        self._check_dim(other)
        result = 1.0
        for sa, sb, oa, ob in zip(self.lo, self.hi, other.lo, other.hi):
            extent = min(sb, ob) - max(sa, oa)
            if extent < 0.0:
                return 0.0
            result *= extent
        return result

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to absorb *other* (Guttman's ChooseLeaf cost)."""
        self._check_dim(other)
        return union_area(self.lo, self.hi, other.lo, other.hi) - self.area()

    def clamp_point(self, point: Sequence[float]) -> Point:
        """The point of this rectangle closest to *point* (the MINDIST witness)."""
        if len(point) != self.dimension:
            raise DimensionMismatchError(self.dimension, len(point), "clamp_point")
        return tuple(
            min(max(float(c), a), b) for a, c, b in zip(self.lo, point, self.hi)
        )

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def _check_dim(self, other: "Rect") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(self.dimension, other.dimension, "rects")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __iter__(self) -> Iterator[Point]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:
        return f"Rect(lo={self.lo}, hi={self.hi})"


# Cached slot setters: the fast way past the frozen ``__setattr__``.
_set_lo = Rect.lo.__set__
_set_hi = Rect.hi.__set__


def _from_bounds(cls: type, lo: Point, hi: Point) -> Rect:
    """Bind float tuples already known finite, non-empty and ``lo <= hi``."""
    rect = cls.__new__(cls)
    _set_lo(rect, lo)
    _set_hi(rect, hi)
    return rect
