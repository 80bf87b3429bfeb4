"""Scattered-data interpolation that is invariant under Moebius maps.

Given sample sites with elevations and a query point s, every site is
inverted in the unit circle centered on s.  The convex hull of the
inverted images picks out the neighbors of s, the hull's turning angles
are the lune angles of those neighbors, and normalized tan(theta/2)
weights blend the neighbor elevations.  Because the construction only
uses circles through s, the weights commute with any Moebius map applied
to sites and query alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import (
    CoincidentQueryError,
    DegenerateBoundaryError,
    DegenerateInputError,
    OutsideDomainError,
)
from .geometry import Point
from .hull import convex_hull, turning_angles
from .predicates import orientation_sign

#: Coincidence snap radius, as a fraction of the sample bounding-box diagonal.
DEFAULT_SNAP_TOLERANCE = 1e-12

#: Half-width of the window around pi in which a single divergent-weight
#: angle dominates all others.
_PI_WINDOW = 1e-12


def _finite(value, message) -> float:
    """float(value), raising DegenerateInputError(message) unless it is
    finite; an int too large for a float counts as infinite."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise DegenerateInputError(message)
    return x


def _finite_point(p, message) -> Point:
    return Point(_finite(p[0], message), _finite(p[1], message))


class SampleSet:
    """Immutable collection of pairwise-distinct sample sites, not all
    collinear, with one real or complex elevation per site."""

    def __init__(self, sites, elevations):
        pts = [_finite_point(site, "site coordinates must be finite") for site in sites]
        if len(pts) != len(elevations):
            raise DegenerateInputError(
                "%d sites but %d elevations" % (len(pts), len(elevations))
            )
        if len(pts) < 3:
            raise DegenerateInputError("need at least three sites")
        index = {}
        for i, p in enumerate(pts):
            if p in index:
                raise DegenerateInputError(
                    "sites %d and %d coincide at (%g, %g)" % (index[p], i, p.x, p.y)
                )
            index[p] = i
        message = "elevations must be finite"
        self._elevations = tuple(
            complex(_finite(z.real, message), _finite(z.imag, message)) if isinstance(z, complex)
            else _finite(z, message)
            for z in elevations
        )
        self._sites = tuple(pts)
        # Keyed by the stored Points; an (x, y) tuple finds the same entry.
        self._index = index
        # The site hull doubles as the collinearity check.
        self._hull = convex_hull(self._sites)
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        self._diagonal = math.hypot(max(xs) - min(xs), max(ys) - min(ys))

    @property
    def sites(self):
        return self._sites

    @property
    def elevations(self):
        return self._elevations

    @property
    def size(self) -> int:
        return len(self._sites)

    @property
    def hull(self) -> tuple:
        """Indices of the site hull corners, as convex_hull returns them."""
        return self._hull

    @property
    def diagonal(self) -> float:
        return self._diagonal


class WeightFunction(Enum):
    """Map from a lune angle in (0, pi] to an unnormalized weight.

    TAN_HALF is the invariant choice.  TAN_HALF_SQUARED keeps the Moebius
    symmetry but loses the small-angle proportionality to the angles
    themselves.  ANGLE uses the angle directly; it stays bounded as an
    angle approaches pi, so the interpolant is not continuous at the
    sites (diagnostic use only).
    """

    TAN_HALF = "tan-half"
    TAN_HALF_SQUARED = "tan-half-sq"
    ANGLE = "angle"

    def evaluate(self, theta: float) -> float:
        if self is WeightFunction.TAN_HALF:
            return math.tan(0.5 * theta)
        if self is WeightFunction.TAN_HALF_SQUARED:
            return math.tan(0.5 * theta) ** 2
        return theta

    @property
    def diverges_near_pi(self) -> bool:
        return self is not WeightFunction.ANGLE


class QueryKind(Enum):
    COINCIDENT = "coincident"
    INTERIOR = "interior"
    ON_BOUNDARY = "on-boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class QueryClass:
    kind: QueryKind
    site_index: Optional[int] = None


@dataclass(frozen=True)
class LuneAngleSet:
    """(site index, lune angle) pairs sorted by index; angles lie in
    (0, pi] and sum to 2*pi."""

    entries: tuple

    @property
    def indices(self):
        return tuple(i for i, _ in self.entries)

    @property
    def angles(self):
        return tuple(a for _, a in self.entries)

    def total(self) -> float:
        return math.fsum(a for _, a in self.entries)


@dataclass(frozen=True)
class WeightVector:
    """(site index, weight) pairs sorted by index; weights are
    non-negative and sum to one."""

    entries: tuple

    @property
    def indices(self):
        return tuple(i for i, _ in self.entries)

    @property
    def weights(self):
        return tuple(w for _, w in self.entries)


def _query_point(s) -> Point:
    """s as a Point of finite floats."""
    return _finite_point(s, "query coordinates must be finite")


def _snap(samples: SampleSet, sx: float, sy: float, candidates) -> Optional[int]:
    """The candidate site nearest to (sx, sy), ties to the lowest index, if
    it lies within DEFAULT_SNAP_TOLERANCE * diagonal; otherwise None."""
    sites = samples.sites
    best = best_d2 = None
    for i in candidates:
        dx = sites[i].x - sx
        dy = sites[i].y - sy
        d2 = dx * dx + dy * dy
        if best_d2 is None or d2 < best_d2 or (d2 == best_d2 and i < best):
            best, best_d2 = i, d2
    return best if math.sqrt(best_d2) <= DEFAULT_SNAP_TOLERANCE * samples.diagonal else None


def classify_query(samples: SampleSet, s) -> QueryClass:
    """Snap s to a site as _snap does over all sites, otherwise place s
    exactly relative to the site hull."""
    p = _query_point(s)
    best = _snap(samples, p.x, p.y, range(len(samples.sites)))
    if best is not None:
        return QueryClass(QueryKind.COINCIDENT, best)
    corners = samples.hull
    on_line = False
    for k in range(len(corners)):
        a = samples.sites[corners[k]]
        b = samples.sites[corners[(k + 1) % len(corners)]]
        side = orientation_sign(a, b, p)
        if side < 0:
            return QueryClass(QueryKind.EXTERIOR)
        if side == 0:
            on_line = True
    if on_line:
        return QueryClass(QueryKind.ON_BOUNDARY)
    return QueryClass(QueryKind.INTERIOR)


def _inverted_images(samples: SampleSet, s):
    sx, sy = _query_point(s)
    images = []
    for i, p in enumerate(samples.sites):
        dx = p.x - sx
        dy = p.y - sy
        d2 = dx * dx + dy * dy
        if d2 == 0.0:
            raise CoincidentQueryError("query coincides with site %d" % i, i)
        images.append(Point(dx / d2, dy / d2))
    return images


def lune_angles(samples: SampleSet, s) -> LuneAngleSet:
    """Lune angle of every neighbor of s: invert the sites in the unit
    circle about s, take the convex hull of the images, and read off its
    turning angles.  Sites whose image falls strictly inside the hull,
    or on a hull edge (angle zero), are omitted."""
    images = _inverted_images(samples, s)
    corners = convex_hull(images)
    return LuneAngleSet(tuple(sorted(zip(corners, turning_angles(images, corners)))))


def weights_from_angles(angles: LuneAngleSet, weight_fn: WeightFunction = WeightFunction.TAN_HALF) -> WeightVector:
    """Normalize weight_fn over the angles.  For divergent weight
    functions a single angle within 1e-12 of pi takes all the weight;
    two angles that close to pi mean the query sits on the segment
    between two sites, which has no single-valued answer."""
    near_pi = [i for i, (_, theta) in enumerate(angles.entries) if abs(theta - math.pi) <= _PI_WINDOW]
    if len(near_pi) >= 2:
        raise DegenerateBoundaryError("query lies on the segment between two sites")
    if near_pi and weight_fn.diverges_near_pi:
        entries = [
            (idx, 1.0 if k == near_pi[0] else 0.0)
            for k, (idx, _) in enumerate(angles.entries)
        ]
        return WeightVector(tuple(entries))
    raw = [weight_fn.evaluate(theta) for _, theta in angles.entries]
    total = math.fsum(raw)
    entries = [(idx, w / total) for (idx, _), w in zip(angles.entries, raw)]
    return WeightVector(tuple(entries))


def interpolate(
    samples: SampleSet,
    s,
    weight_fn: WeightFunction = WeightFunction.TAN_HALF,
    allow_exterior: bool = False,
):
    """Blend the neighbor elevations of s with normalized lune-angle
    weights.  Coincident queries return the site elevation exactly;
    boundary queries fail; exterior queries fail unless allow_exterior
    is set, in which case the same construction is evaluated."""
    cls = classify_query(samples, s)
    if cls.kind is QueryKind.COINCIDENT:
        return samples.elevations[cls.site_index]
    if cls.kind is QueryKind.ON_BOUNDARY:
        raise DegenerateBoundaryError("query lies on the sample hull boundary")
    if cls.kind is QueryKind.EXTERIOR and not allow_exterior:
        raise OutsideDomainError("query lies outside the sample hull")
    return _blend(weights_from_angles(lune_angles(samples, s), weight_fn), samples.elevations)


def _blend(weights: WeightVector, elevations):
    """Weighted sum of the neighbor elevations: correctly rounded by
    math.fsum for real values, plain sum once a neighbor is complex."""
    terms = [w * elevations[i] for i, w in weights.entries]
    return sum(terms) if any(isinstance(t, complex) for t in terms) else math.fsum(terms)
