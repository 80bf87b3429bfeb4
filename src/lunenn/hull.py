"""Convex hulls by monotone chain, with exact orientation tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DegenerateInputError
from .predicates import orientation_sign


@dataclass(frozen=True)
class HullPolygon:
    """Hull corners in CCW order starting at the lexicographically smallest
    point, plus the indices of input points lying on hull edges without
    being corners."""

    vertex_indices: tuple
    points: tuple = field(repr=False, compare=False)

    @cached_property
    def on_edge_indices(self) -> tuple:
        """Non-corner points on a hull edge; an O(n*h) scan run on first
        read."""
        pts, corners = self.points, self.vertex_indices
        edges = [(pts[a], pts[b]) for a, b in zip(corners, corners[1:] + corners[:1])]
        return tuple(
            i
            for i, p in enumerate(pts)
            if i not in corners and any(orientation_sign(a, b, p) == 0 for a, b in edges)
        )


def convex_hull(points) -> HullPolygon:
    """Strict convex hull of at least three non-collinear distinct points.

    Collinear points interior to a hull edge are excluded from the corner
    list; on_edge_indices reports them when read.
    """
    n = len(points)
    if n < 3:
        raise DegenerateInputError("convex hull needs at least three points")
    order = sorted(range(n), key=lambda i: (points[i][0], points[i][1]))

    def build(indices):
        chain = []
        for i in indices:
            while len(chain) >= 2 and orientation_sign(
                points[chain[-2]], points[chain[-1]], points[i]
            ) <= 0:
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    corners = lower[:-1] + upper[:-1]
    if len(corners) < 3:
        raise DegenerateInputError("points are collinear")
    return HullPolygon(tuple(corners), tuple(points))


def turning_angles(points, hull: HullPolygon):
    """Exterior direction-change angle at each hull corner, each in
    (0, pi); over any convex polygon they sum to 2*pi."""
    corners = hull.vertex_indices
    k = len(corners)
    angles = []
    for i in range(k):
        a = points[corners[i - 1]]
        b = points[corners[i]]
        c = points[corners[(i + 1) % k]]
        ux = b[0] - a[0]
        uy = b[1] - a[1]
        vx = c[0] - b[0]
        vy = c[1] - b[1]
        angles.append(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))
    return angles
