"""Line segments, the spatial objects of the paper's TIGER experiments.

The SIGMOD'95 evaluation indexes street segments from TIGER/Line files.  An
R-tree leaf stores each segment's MBR; computing the *actual* distance from a
query point to the segment (rather than to its MBR) is exactly the pluggable
``object_distance`` hook exercised by the road-network experiments here.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import DimensionMismatchError
from repro.geometry.point import Point, as_point, euclidean_squared
from repro.geometry.rect import Rect

__all__ = ["Segment"]


class Segment:
    """An immutable line segment between two equal-dimension endpoints."""

    __slots__ = ("start", "end")

    start: Point
    end: Point

    def __init__(self, start: Sequence[float], end: Sequence[float]) -> None:
        start_t = as_point(start)  # the coordinate contract
        end_t = as_point(end)
        if len(start_t) != len(end_t):
            raise DimensionMismatchError(len(start_t), len(end_t), "segment")
        object.__setattr__(self, "start", start_t)
        object.__setattr__(self, "end", end_t)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Segment is immutable")

    @property
    def dimension(self) -> int:
        """Number of axes."""
        return len(self.start)

    def length_squared(self) -> float:
        """Squared Euclidean length."""
        return euclidean_squared(self.start, self.end)

    def length(self) -> float:
        """Euclidean length."""
        return math.sqrt(self.length_squared())

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the segment."""
        return Rect.from_points([self.start, self.end])

    def midpoint(self) -> Point:
        """Midpoint of the segment."""
        return tuple((a + b) / 2.0 for a, b in zip(self.start, self.end))

    def closest_point_to(self, point: Sequence[float]) -> Point:
        """The point on the segment closest to *point*."""
        if len(point) != self.dimension:
            raise DimensionMismatchError(self.dimension, len(point), "segment query")
        length_sq = self.length_squared()
        if length_sq == 0.0:
            return self.start
        # Project the query onto the supporting line and clamp to [0, 1].
        t = sum(
            (p - a) * (b - a) for p, a, b in zip(point, self.start, self.end)
        ) / length_sq
        t = min(max(t, 0.0), 1.0)
        return tuple(a + (b - a) * t for a, b in zip(self.start, self.end))

    def distance_squared_to(self, point: Sequence[float]) -> float:
        """Squared Euclidean distance from *point* to the segment."""
        return euclidean_squared(point, self.closest_point_to(point))

    def distance_to(self, point: Sequence[float]) -> float:
        """Euclidean distance from *point* to the segment."""
        return math.sqrt(self.distance_squared_to(point))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"Segment(start={self.start}, end={self.end})"
