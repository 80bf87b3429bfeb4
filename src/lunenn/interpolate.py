"""Scattered-data interpolation that is invariant under Moebius maps.

Given sample sites with elevations and a query point s, every site is
inverted in the unit circle centered on s.  The convex hull of the
inverted images picks out the neighbors of s, the hull's turning angles
are the lune angles of those neighbors, and normalized tan(theta/2)
weights blend the neighbor elevations.  Because the construction only
uses circles through s, the weights commute with any Moebius map applied
to sites and query alike.

A site at distance d has its image at radius 1/d, so the code inverts
only the sites within reach, ring by ring over a bucket grid built in
O(n) on first use, and gets the full construction's corners and angles
bit for bit.  A query on or near the site hull reaches about every site
that way.  interpolate hulls the sites to classify a query only where
its rings do not close, since closing proves it interior.  The second
query that three rings leave open builds a Delaunay triangulation of the
sites.  From then on one virtual insertion places each query, and the
exact mesh decides its neighbours: an interior query inverts only its
cavity cycle, unhulled unless rounding bent it; others add the hull corners.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import Optional

from .errors import CoincidentQueryError, DegenerateBoundaryError, DegenerateInputError, OutsideDomainError, PreconditionError
from .geometry import Point
from .hull import convex_hull, turning_angles
from .predicates import incircle_sign_unchecked, orientation_sign

#: Coincidence snap radius, as a fraction of the sample bounding-box diagonal.
DEFAULT_SNAP_TOLERANCE = 1e-12

#: Half-width of the window around pi in which a single divergent-weight
#: angle dominates all others.
_PI_WINDOW = 1e-12


#: Text unpacks into characters or small ints and float() parses it: never a point, coordinate or elevations.
_TEXT = (str, bytes, bytearray)


def _finite(value, message) -> float:
    """float(value), raising DegenerateInputError(message) unless it is
    finite; an int too large for a float counts as infinite, and text or a
    value float() rejects raises DegenerateInputError naming it."""
    # A finite float, the usual value, returns at once: x - x is NaN for an infinite or NaN x.
    if type(value) is float and value - value == 0.0:
        return value
    try:
        if isinstance(value, _TEXT):
            raise TypeError
        x = float(value)
    except OverflowError:
        x = math.inf
    except (TypeError, ValueError):
        raise DegenerateInputError("%s, not %r" % (message, value)) from None
    if not math.isfinite(x):
        raise DegenerateInputError(message)
    return x


def _finite_point(p, message) -> tuple:
    """p as an (x, y) pair of finite floats: x is checked before y converts.
    A plain tuple of two finite floats is p itself, so a SampleSet keeps the
    caller's pairs; any other point becomes a new plain tuple."""
    try:
        # A tuple, the usual point, skips the slower isinstance test for text.
        if type(p) is not tuple and isinstance(p, _TEXT):
            raise TypeError
        x, y = p
    except (TypeError, ValueError):
        raise DegenerateInputError("points must have two coordinates, not %r" % (p,)) from None
    # _finite returns a finite float itself; anything else comes back a new float.
    fx, fy = _finite(x, message), _finite(y, message)
    return p if fx is x and fy is y and type(p) is tuple else (fx, fy)


def _elevation(z):
    """z as a finite float or complex, else DegenerateInputError."""
    if isinstance(z, complex):
        return complex(_elevation(z.real), _elevation(z.imag))
    return _finite(z, "elevations must be finite")


class SampleSet:
    """Pairwise-distinct sample sites, not all collinear, with one real or
    complex elevation per site, fixed when made; the bucket grid, the hull
    and the mesh the set grows lazily, each on first use.  A site given as
    a plain tuple of two finite floats is kept as that tuple, not copied."""

    def __init__(self, sites, elevations):
        try:
            pts = [_finite_point(p, "site coordinates must be finite") for p in sites]
            count = len(elevations)
            if isinstance(elevations, _TEXT):
                raise TypeError
        except TypeError:
            raise DegenerateInputError("sites and elevations must be sequences") from None
        if len(pts) != count:
            raise DegenerateInputError("%d sites but %d elevations" % (len(pts), count))
        if len(pts) < 3:
            raise DegenerateInputError("need at least three sites")
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
        self._diagonal = math.hypot(x1 - x0, y1 - y0)
        # Every geometric step runs on the sites times 2**-e, e the least shift
        # that brings their largest magnitude within [2**-256, 2**256].
        m = math.frexp(max(-x0, -y0, x1, y1))[1]
        e = self._e = max(m - 256, 0) + min(m + 256, 0)
        self._sites = tuple(pts)
        self._unit = self._sites if e == 0 else tuple([(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in pts])
        # Each framed pair's first index; fewer keys than sites: scan for the repeat.
        index = dict(zip(reversed(self._unit), range(len(pts) - 1, -1, -1)))
        for i, p in enumerate(self._unit if len(index) < len(pts) else ()):
            j = index[p]
            if j != i:
                at = "(%g, %g)" % pts[i] if pts[i] == pts[j] else "the float range's precision"
                raise DegenerateInputError("sites %d and %d coincide at %s" % (j, i, at))
        self._elevations = tuple(_elevation(z) for z in elevations)
        self._index = index
        # The sites are distinct, so the first two span a line.
        if all(orientation_sign(self._unit[0], self._unit[1], p) == 0 for p in self._unit[2:]):
            raise DegenerateInputError("points are collinear")
        x0, y0, x1, y1 = (math.ldexp(t, -e) for t in (x0, y0, x1, y1))
        self._box = (x0, y0, x1 - x0, y1 - y0)
        self._snap_radius = DEFAULT_SNAP_TOLERANCE * math.hypot(*self._box[2:])
        # A Triangulation, which lune_angles builds on the second query that three ring blocks leave open.
        self._mesh, self._misses = None, 0

    @cached_property
    def sites(self):
        return tuple([Point(x, y) for x, y in self._sites])

    @property
    def elevations(self):
        return self._elevations

    @property
    def size(self) -> int:
        return len(self._sites)

    @cached_property
    def hull(self) -> tuple:
        """Indices of the site hull corners as convex_hull returns them, built on first read."""
        return convex_hull(self._unit)

    @property
    def diagonal(self) -> float:
        return self._diagonal

    def _frame(self, s) -> tuple:
        """s as an (x, y) pair of finite floats times 2**-e, where a coordinate stops at 2**1000, beyond every site."""
        x, y = p = _finite_point(s, "query coordinates must be finite")
        if self._e == 0 and abs(x) <= 2.0 ** 1000 and abs(y) <= 2.0 ** 1000:
            return p
        return tuple([math.copysign(min(abs(t) * 2.0 ** -self._e, 2.0 ** 1000), t) for t in p])

    @cached_property
    def _buckets(self):
        """(cell size, columns, rows, cells) of a grid over the framed
        bounding box with about two sites per cell: the set's one spatial
        index.  cells[row * columns + column] lists the site indices in that
        cell, or is None if it holds none; the size is at least sqrt(2wh/n)
        and max(w, h)/n, so there are at most 2.5n + 1 cells.  The lune rings
        read it, and so do the mesh's insertion order and walk starts:
        Sibson-only sets build it too."""
        x0, y0, w, h = self._box
        size = max(math.sqrt(2.0 * w * h / len(self._unit)), max(w, h) / len(self._unit))
        cols, rows = math.floor(w / size) + 1, math.floor(h / size) + 1
        cells = [None] * (cols * rows)
        for i, (x, y) in enumerate(self._unit):
            k = math.floor((y - y0) / size) * cols + math.floor((x - x0) / size)
            if cells[k] is None:
                cells[k] = [i]
            else:
                cells[k].append(i)
        return size, cols, rows, cells


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
    INTERIOR = "interior"
    ON_BOUNDARY = "on-boundary"
    EXTERIOR = "exterior"


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


def _snap(samples: SampleSet, sx: float, sy: float, candidates) -> Optional[int]:
    """The candidate site nearest to the framed point (sx, sy), ties to the
    lowest index, if within the snap radius, DEFAULT_SNAP_TOLERANCE * the framed diagonal; otherwise None."""
    sites = samples._unit
    best = best_d2 = None
    for i in candidates:
        dx = sites[i][0] - sx
        dy = sites[i][1] - sy
        d2 = dx * dx + dy * dy
        if best_d2 is None or d2 < best_d2 or (d2 == best_d2 and i < best):
            best, best_d2 = i, d2
    return best if best is not None and math.sqrt(best_d2) <= samples._snap_radius else None


def _rings(samples: SampleSet, p: tuple):
    """Yield the site indices first met in the blocks of 3x3, 5x5, 9x9, ...
    grid cells around the framed point p, each with a lower bound on the
    distance from p to every site not yet met (None once none is left)."""
    x0, y0, w, h = samples._box
    size, cols, rows, cells = samples._buckets
    u, v = p[0] - x0, p[1] - y0
    c, r = (math.floor(min(max(t / size, -1.0), samples.size + 1.0)) for t in (u, v))
    done, k, met = -1, 1, 0
    while True:
        new = [i for cc in range(max(c - k, 0), min(c + k, cols - 1) + 1)
               for rr in range(max(r - k, 0), min(r + k, rows - 1) + 1)
               if max(abs(cc - c), abs(rr - r)) > done for i in cells[rr * cols + cc] or ()]
        met += len(new)
        # The slack is far above the rounding in a site's cell or a gap.
        reach = min(u - (c - k) * size, (c + k + 1) * size - u, v - (r - k) * size, (r + k + 1) * size - v)
        yield new, None if met == samples.size else max(reach - 1e-9 * (w + h), 0.0)
        done, k = k, 2 * k


def _candidates(samples: SampleSet, p: tuple, allow_exterior: Optional[bool] = None):
    """Yield batches of (site indices, reach) of the framed point p:
    _rings up to its third block.  The set's first query that needs more
    goes on ring by ring; the second builds samples._mesh.  From then on
    a query's one batch, with reach None, is the cycle sites of its one
    virtual insertion, a tuple CCW about p if p is interior, else a set
    with the hull corners; _place raises if p is a site.  Unless
    allow_exterior is None, p snaps over its first ring block or, in
    _place, its cycle, and _refuse judges it by the mesh's kind (strict
    if allow_exterior is False: no cavity past the hull), or by its _side
    before a ring batch with reach None and before a fourth, which would
    count a miss.  _lune_angles pulls no more once every corner edge of
    the images' hull is _clear_of the 1/reach disk (NaN never is): the
    origin is then strictly inside that hull.  Inversion about p keeps
    each ray from p, so every open half-plane bounded by a line through p
    holds a site: p is interior."""
    refusing = snap = allow_exterior is not None
    if samples._mesh is None:
        rings = _rings(samples, p)
        for new, reach in itertools.islice(rings, 3):
            i = _snap(samples, *p, new) if snap else None
            if i is not None:
                raise CoincidentQueryError("query coincides with site %d" % i, i)
            if refusing and reach is None:
                _refuse(_side(samples, p), allow_exterior)
            snap = False
            yield new, reach
        if refusing:
            _refuse(_side(samples, p), allow_exterior)
        samples._misses += 1
        if samples._misses == 1:
            yield from rings
        from .delaunay import build_delaunay
        samples._mesh = build_delaunay(samples)
    kind, _, cycle = samples._mesh._place(p, snap, allow_exterior is False)
    if refusing:
        _refuse(kind, allow_exterior)
    # A lune neighbour q has a circle through p and q with every other site
    # outside, and q neighbours p in the mesh, or inside, and p lies on or
    # outside the hull.
    sites = [u for u, _, _, _ in cycle if u >= 0]
    yield tuple(sites) if kind is QueryKind.INTERIOR else set(sites).union(samples.hull), None


def classify_query(samples: SampleSet, s) -> QueryKind:
    """Snap s to a site as _snap does over the 3x3 block of grid cells
    around s, which holds every site within the snap radius, and raise
    CoincidentQueryError if it does, else place s exactly relative to the
    site hull, built on first use, which interpolate does only if it must."""
    p = samples._frame(s)
    i = _snap(samples, *p, next(_rings(samples, p))[0])
    if i is not None:
        raise CoincidentQueryError("query coincides with site %d" % i, i)
    return _side(samples, p)


def _side(samples: SampleSet, p: tuple) -> QueryKind:
    """Where the framed point p lies relative to the site hull, exactly."""
    hull = [samples._unit[i] for i in samples.hull]
    side = min(orientation_sign(hull[k - 1], hull[k], p) for k in range(len(hull)))
    return (QueryKind.EXTERIOR, QueryKind.ON_BOUNDARY, QueryKind.INTERIOR)[side + 1]


def _refuse(kind: QueryKind, allow_exterior: bool) -> None:
    """Raise as interpolate does for a query of this kind."""
    if kind is QueryKind.ON_BOUNDARY:
        raise DegenerateBoundaryError("query lies on the sample hull boundary")
    if kind is QueryKind.EXTERIOR and not allow_exterior:
        raise OutsideDomainError("query lies outside the sample hull")


def _inverted_images(samples: SampleSet, p: tuple, indices) -> dict:
    images, sites, (px, py) = {}, samples._unit, p
    for i in sorted(indices):
        dx, dy = sites[i][0] - px, sites[i][1] - py
        d2 = dx * dx + dy * dy
        if d2 == 0.0:
            raise CoincidentQueryError("query coincides with site %d" % i, i)
        images[i] = (dx / d2, dy / d2)
    return images


def _clear_of(a: tuple, b: tuple, reach: float) -> bool:
    """Whether the origin lies left of the line a->b, farther from it than
    1/reach, with a relative margin of 1e-9 on each side against rounding."""
    cross = a[0] * b[1] - a[1] * b[0] - 1e-9 * (abs(a[0] * b[1]) + abs(a[1] * b[0]))
    return cross * reach > (1.0 + 1e-9) * math.hypot(b[0] - a[0], b[1] - a[1])


def lune_angles(samples: SampleSet, s) -> LuneAngleSet:
    """Lune angle of every neighbor of s: invert the sites in the unit
    circle about s, take the convex hull of the images, and read off its
    turning angles.  Sites whose image falls strictly inside the hull,
    or on a hull edge (a site cocircular with s and the sites of the two
    corners beside it), are omitted.

    The sites are inverted ring by ring (_rings) until the images' hull
    holds the disk of radius 1/R, R the reach of the rings: the images
    left out lie in that disk, so none is a corner.  A point inside or on
    the hull of a subset is no corner, so only a ring's corners go on.
    For s on or outside the site hull every site is reached: the origin
    is then not strictly inside the images' hull.  With a mesh, the sites
    are the cavity cycle of s, and the hull corners if s is not interior."""
    p = samples._frame(s)
    return _lune_angles(samples, p, _candidates(samples, p))


def _lune_angles(samples: SampleSet, p: tuple, batches) -> LuneAngleSet:
    """lune_angles of the framed point p, from batches of (site indices,
    reach).  A tuple batch, a cavity cycle CCW about p, is hulled unless
    each three of its images in a row turn strictly left by convex_hull's
    orientation_sign and they wind once (turning angles below 3*pi): then
    they are the corners of a strictly convex polygon, in order, bit for bit.
    A corner that turns by a float 0 with its site cocircular with p and
    the sites of the corners beside it is an image on their hull edge,
    kept by rounding: it is dropped, and the rest turn again."""
    images = {}
    for new, reach in batches:
        images.update(_inverted_images(samples, p, new))
        if type(new) is tuple:
            order, points, corners = new, [images[i] for i in new], range(len(new))
            if all(orientation_sign(points[k - 2], points[k - 1], points[k]) > 0 for k in corners):
                angles = turning_angles(points, corners)
                if sum(angles) < 3 * math.pi:
                    break
        order = sorted(images)
        points = [images[i] for i in order]
        try:
            corners = convex_hull(points)
        except DegenerateInputError:
            if reach is not None:
                continue
            # Only sites on one circle through s have collinear images;
            # otherwise the images collapsed in the float range.
            if incircle_sign_unchecked(*(samples._unit[i] for i in samples.hull[:3]), p):
                raise DegenerateInputError("query lies too far from the sites for the float range") from None
            raise
        if reach is None or all(_clear_of(points[corners[k - 1]], points[corners[k]], reach) for k in range(len(corners))):
            angles = turning_angles(points, corners)
            break
        images = {order[c]: points[c] for c in corners}
    if not all(0.0 < theta <= math.pi for theta in angles):
        unit, k = samples._unit, len(corners)
        corners = [corners[j] for j in range(k) if angles[j] != 0.0 or incircle_sign_unchecked(
            *(unit[order[corners[(j + d) % k]]] for d in (-1, 0, 1)), p)]
        angles = turning_angles(points, corners)
        # Images hundreds of orders of magnitude apart can turn by a float 0.
        if not all(0.0 < theta <= math.pi for theta in angles):
            raise DegenerateInputError("lune angles left the float range")
    return LuneAngleSet(tuple(sorted(zip((order[c] for c in corners), angles))))


def weights_from_angles(angles: LuneAngleSet, weight_fn: WeightFunction = WeightFunction.TAN_HALF) -> WeightVector:
    """Normalize weight_fn over the angles.  For divergent weight
    functions a single angle within 1e-12 of pi takes all the weight;
    two angles that close to pi mean the query sits on the segment
    between two sites, which has no single-valued answer."""
    if not isinstance(weight_fn, WeightFunction):
        raise PreconditionError("weight_fn must be a WeightFunction, not %r" % (weight_fn,))
    near_pi = [i for i, (_, theta) in enumerate(angles.entries) if abs(theta - math.pi) <= _PI_WINDOW]
    if len(near_pi) >= 2:
        raise DegenerateBoundaryError("query lies on the segment between two sites")
    # tuple() of a list: tuple() of a generator resizes, which grew the heap query by query.
    if near_pi and weight_fn.diverges_near_pi:
        return WeightVector(tuple([(idx, 1.0 if k == near_pi[0] else 0.0) for k, (idx, _) in enumerate(angles.entries)]))
    raw = [weight_fn.evaluate(theta) for _, theta in angles.entries]
    total = math.fsum(raw)
    return WeightVector(tuple([(idx, w / total) for (idx, _), w in zip(angles.entries, raw)]))


def interpolate(samples: SampleSet, s, weight_fn: WeightFunction = WeightFunction.TAN_HALF, allow_exterior: bool = False):
    """Blend the neighbor elevations of s with normalized lune-angle
    weights.  Coincident queries return the site elevation exactly;
    boundary queries fail; exterior queries fail unless allow_exterior
    is set, in which case the same construction is evaluated.
    _candidates snaps and classifies s as it names its candidates."""
    if not isinstance(weight_fn, WeightFunction):
        raise PreconditionError("weight_fn must be a WeightFunction, not %r" % (weight_fn,))
    p = samples._frame(s)
    try:
        angles = _lune_angles(samples, p, _candidates(samples, p, bool(allow_exterior)))
    except CoincidentQueryError as exc:
        return samples.elevations[exc.site_index]
    # SampleSet checked its elevations when it was made.
    return _blend([(w, samples._elevations[i]) for i, w in weights_from_angles(angles, weight_fn).entries])


def sibson_interpolate(tri, elevations, s):
    """Blend elevations with Sibson weights; reproduces affine data
    exactly up to roundoff.  A query that snaps to a site returns that
    site's elevation, as interpolate does.  Only the elevations the query
    reads are checked: a non-finite one raises DegenerateInputError."""
    if isinstance(elevations, _TEXT) or not hasattr(elevations, "__len__") or len(elevations) != tri.samples.size:
        raise DegenerateInputError("elevations must be a sequence of one per site")
    try:
        value = _blend([(w, _elevation(elevations[i])) for i, w in tri.sibson_weights(s).entries])
    except CoincidentQueryError as exc:
        value = elevations[exc.site_index]
    return _elevation(value)


def _blend(pairs):
    """Sum of weight times elevation over (weight, elevation) pairs,
    correctly rounded by math.fsum; complex elevations blend their real and
    imaginary parts apart, each as a real one."""
    if any(isinstance(z, complex) for _, z in pairs):
        return complex(_mean([(w, z.real) for w, z in pairs]), _mean([(w, z.imag) for w, z in pairs]))
    return _mean(pairs)


def _mean(pairs) -> float:
    try:
        return math.fsum(w * z for w, z in pairs)
    except OverflowError:
        # The weights are nonnegative and sum to one up to a few ulps,
        # which can carry a blend of elevations near the top of the float
        # range past it.  Half of every partial sum stays in range, and the
        # blend, a weighted mean, lies within the range of the elevations.
        zs = [z for _, z in pairs]
        return min(max(2 * math.fsum(w * (0.5 * z) for w, z in pairs), min(zs)), max(zs))
