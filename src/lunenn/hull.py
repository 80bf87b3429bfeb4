"""Convex hulls by monotone chain, with exact orientation tests."""

from __future__ import annotations

import math

from .errors import DegenerateInputError
from .predicates import orientation_sign


def convex_hull(points) -> tuple:
    """Corner indices of the strict convex hull of at least three
    non-collinear distinct points, CCW from the lexicographically
    smallest point.  Points interior to a hull edge are not corners."""
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
    return tuple(corners)


def turning_angles(points, corners):
    """Exterior direction-change angle at each of the hull corners (as
    convex_hull returns them), each in (0, pi); over any convex polygon
    they sum to 2*pi."""
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
