"""Points, circles and the point at infinity of the extended plane."""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .errors import DegenerateInputError
from .predicates import orientation_sign


class Point(NamedTuple):
    x: float
    y: float


class _PointAtInfinity:
    """Singleton marker for the point at infinity on the extended plane."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AT_INFINITY"


AT_INFINITY = _PointAtInfinity()

ExtendedPoint = Union[Point, _PointAtInfinity]


def is_infinite(p: ExtendedPoint) -> bool:
    return p is AT_INFINITY


def circumcircle(p, q, r) -> tuple:
    """(cx, cy, radius) of the circle through three non-collinear points."""
    if orientation_sign(p, q, r) == 0:
        raise DegenerateInputError("circumcircle requires non-collinear points")
    return _circumcenter(p, q, r)


def _circumcenter(p, q, r):
    """circumcircle of points known not to be collinear: no orientation test."""
    # Translate so p is the origin; solves the perpendicular-bisector system.
    bx = q[0] - p[0]
    by = q[1] - p[1]
    cx = r[0] - p[0]
    cy = r[1] - p[1]
    d = 2.0 * (bx * cy - by * cx)
    if d == 0.0:
        raise DegenerateInputError("circumcircle left the float range")
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    radius = math.hypot(ux, uy)
    if not (math.isfinite(radius) and radius > 0.0):
        raise DegenerateInputError("circle radius must be finite and positive")
    cx = p[0] + ux
    cy = p[1] + uy
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise DegenerateInputError("circle center must be finite")
    return cx, cy, radius
