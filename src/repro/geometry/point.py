"""Points and point-to-point distance helpers.

A point is represented as a plain tuple of floats.  Using the builtin tuple
(rather than a wrapper class) keeps hot loops allocation-light and lets
callers pass lists or tuples interchangeably through :func:`as_point`.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from repro.errors import DimensionMismatchError, GeometryError

__all__ = [
    "Point",
    "as_point",
    "point_dimension",
    "axis_columns",
    "euclidean_squared",
    "euclidean",
    "chebyshev",
    "manhattan",
    "lerp",
    "centroid",
]

Point = Tuple[float, ...]

#: Largest accepted |coordinate|: squared distances, at most d * (2e150)**2,
#: stay finite for d < 4e7 (docs/INTERNALS.md "Geometry").
_COORD_LIMIT = 1e150


def as_point(coords: Sequence[float]) -> Point:
    """Validate and normalize a coordinate sequence into a point tuple.

    Raises :class:`GeometryError` if the sequence is empty or contains a
    coordinate that is NaN, infinite or beyond ±1e150, since downstream
    distance comparisons silently misbehave on NaN and overflow beyond it.
    """
    point = tuple(float(c) for c in coords)
    if not point:
        raise GeometryError("a point needs at least one coordinate")
    for c in point:
        if not -_COORD_LIMIT <= c <= _COORD_LIMIT:  # also false for NaN
            raise GeometryError(f"coordinate {c!r} not within ±1e150 in {point!r}")
    return point


def point_dimension(point: Sequence[float]) -> int:
    """Return the dimensionality of *point*."""
    return len(point)


def axis_columns(points: Sequence[Sequence[float]]) -> List[List[float]]:
    """One list per axis.  (``zip(*points)`` allocates an iterator per point.)"""
    return [list(map(itemgetter(a), points)) for a in range(len(points[0]))]


def _check_same_dimension(a: Sequence[float], b: Sequence[float]) -> None:
    if len(a) != len(b):
        raise DimensionMismatchError(len(a), len(b), "points")


def euclidean_squared(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Euclidean distance between two points.

    The squared form is the workhorse of every search algorithm in this
    library: it preserves ordering and avoids a ``sqrt`` per comparison,
    exactly as the paper recommends for the MINDIST/MINMAXDIST computations.
    """
    _check_same_dimension(a, b)
    total = 0.0
    for x, y in zip(a, b):
        d = x - y
        total += d * d
    return total


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points."""
    return math.sqrt(euclidean_squared(a, b))


def chebyshev(a: Sequence[float], b: Sequence[float]) -> float:
    """L-infinity distance between two points."""
    _check_same_dimension(a, b)
    return max(abs(x - y) for x, y in zip(a, b))


def manhattan(a: Sequence[float], b: Sequence[float]) -> float:
    """L1 distance between two points."""
    _check_same_dimension(a, b)
    return sum(abs(x - y) for x, y in zip(a, b))


def lerp(a: Sequence[float], b: Sequence[float], t: float) -> Point:
    """Linear interpolation between points *a* and *b* at parameter *t*."""
    _check_same_dimension(a, b)
    return tuple(x + (y - x) * t for x, y in zip(a, b))


def centroid(points: Iterable[Sequence[float]]) -> Point:
    """Arithmetic mean of a non-empty collection of equal-dimension points."""
    materialized = [tuple(p) for p in points]
    if not materialized:
        raise GeometryError("centroid of an empty point set is undefined")
    dim = len(materialized[0])
    for p in materialized:
        if len(p) != dim:
            raise DimensionMismatchError(dim, len(p), "centroid input")
    n = float(len(materialized))
    return tuple(sum(p[i] for p in materialized) / n for i in range(dim))
