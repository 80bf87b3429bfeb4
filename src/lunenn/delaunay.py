"""Delaunay triangulation with exact predicates, and classical Sibson
(stolen-area) weights driven by virtual insertion.

The triangulation is built by Bowyer-Watson point insertion over a mesh
that carries one ghost triangle per hull edge, so hull growth needs no
oversized bounding triangle; the ghosts are the mesh's only record of its
hull.  Sites are inserted in a biased randomized order (Amenta, Choi &
Rote 2003): shuffled by a constant seed, cut into rounds of doubling
size, each round sorted along the snake (boustrophedon) order of the
cells of SampleSet._buckets, so that point location walks a few
triangles per insertion.  The order only steers the walks.  A query
jumps to a site in its cell of that grid, clamped onto it, and walks
from a triangle there (Muecke, Saias & Zhu 1996), a few triangles at any
n.  Queries write nothing, so after the build the mesh is read-only.
Each orientation and in-circle test calls the exact predicates on framed
(x, y) pairs.  Cocircular ties are broken by a symbolic perturbation that
treats lower-indexed sites as infinitesimally lifted, which makes the
result independent of insertion order.  One depth-first tour over edges
finds the cavity of every insertion and query and emits its boundary in
CCW order; it raises on a triangle reached twice, so a cavity is always a
disk with every vertex on its boundary.  A triangle's vertex order is
fixed when it is created; the fan of an insertion reuses the slots of the
cavity it replaces, each fan triangle written straight into its slots in
the one layout, and nothing renumbers the rest.  The build writes the mesh
compact, as the queries read it: a vertex tuple per triangle and one flat
list of neighbours, three slots a triangle, _nbrs[3 * t + e].  The public
view, triangles, is a sorted copy built once after the last insertion.

Virtual insertion computes the cavity and fan a query point would create
without mutating the mesh, and alone places a mesh query: the walk finds
it, and the sites on the cavity cycle hold the nearest one for the snap
and every lune neighbour that is no hull corner.  Its circles are solved
once, about the query, so an exact translation keeps their bits: the
fan's are a second route to the lune angles, and with the cavity's bound
Sibson's stolen areas, shoelaces along walks over their centers.  No
circumcenter runs an orientation test: a mesh triangle turns left when
made, a fan triangle (u, v, p) since the cavity is star-shaped from p.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from .errors import CoincidentQueryError, DegenerateInputError, OutsideDomainError, PreconditionError
from .geometry import Point, _circumcenter
from .interpolate import LuneAngleSet, QueryKind, SampleSet, WeightVector, _rings, _snap, sibson_interpolate  # re-exported
from .predicates import incircle_sign_unchecked, orientation_sign

GHOST = -1

#: Seed of the insertion-order shuffle: a constant, so builds repeat.
_BRIO_SEED = 20030101


def _brio_order(samples: SampleSet) -> list:
    """Biased randomized insertion order of the site indices: a seeded
    shuffle cut into rounds of doubling size, the last round the last
    half, each round sorted by the site's cell of samples._buckets in snake
    order, row by row, even rows left to right and odd rows right to left."""
    _, cols, _, cells = samples._buckets
    snake = []
    for lo in range(0, len(cells), 2 * cols):
        snake += cells[lo:lo + cols]
        snake += cells[lo + cols:lo + 2 * cols][::-1]
    keys = [0] * samples.size
    for k, sites in enumerate(snake):
        for i in sites or ():
            keys[i] = k
    order = list(range(len(keys)))
    random.Random(_BRIO_SEED).shuffle(order)
    # Round k from the end is order[n >> (k + 1) : n >> k].
    ends = [len(order) >> k for k in range(len(order).bit_length(), -1, -1)]
    return [i for lo, hi in zip(ends, ends[1:]) for i in sorted(order[lo:hi], key=keys.__getitem__)]


def _perturbed_in_disk(pa, pb, pc, pt, ia, ib, ic, it) -> bool:
    """True iff t lies inside the circumdisk of CCW triangle abc after the
    symbolic perturbation, for four points the exact in-circle sign finds
    cocircular: the lowest-indexed point decides.  Its term in the lifted
    determinant is the orientation of the other three points, with
    alternating sign by row."""
    terms = sorted(
        (
            (ia, -1, pb, pc, pt),
            (ib, 1, pa, pc, pt),
            (ic, -1, pa, pb, pt),
            (it, 1, pa, pb, pc),
        )
    )
    for _, coeff, u, v, w in terms:
        o = orientation_sign(u, v, w)
        if o != 0:
            return coeff * o > 0
    raise DegenerateInputError("degenerate perturbation: four collinear points")


def _strictly_between(a, b, p) -> bool:
    """For p collinear with a, b: strictly inside the open segment."""
    if a[0] != b[0]:
        lo, hi = (a[0], b[0]) if a[0] < b[0] else (b[0], a[0])
        return lo < p[0] < hi
    lo, hi = (a[1], b[1]) if a[1] < b[1] else (b[1], a[1])
    return lo < p[1] < hi


class VoronoiCell(NamedTuple):
    """Voronoi cell of a site: a bounded CCW polygon of circumcenters, or
    an unbounded marker carrying the directions of its two boundary rays."""

    site_index: int
    vertices: Optional[tuple]
    ray_directions: Optional[tuple]

    @property
    def bounded(self) -> bool:
        return self.vertices is not None


class Triangulation:
    """Delaunay triangulation of a SampleSet.  Build through
    build_delaunay; afterwards nothing writes to it, so queries in any
    order give the same results.

    Triangle t is _verts[t]: CCW site indices, GHOST in slot 2 or else the
    smallest in slot 0, written so by _build and _insert; _nbrs[3 * t + e]
    lies across edge e (vertex e to e + 1), in one flat list whose three
    slots of t are rewritten when t is.  Every slot holds a live triangle.
    The ghosts are the hull, kept nowhere else: ghost vs is hull edge
    vs[1] -> vs[0].  The public view triangles, built once, lists the
    finite ones sorted.
    _incident[i] is a finite triangle at site i, where walks start.  _pts
    is the set's framed (x, y) pairs, read in place."""

    def __init__(self, samples: SampleSet):
        self._samples = samples
        self._pts = samples._unit
        self._build(_brio_order(samples))
        self._finalize()

    # -- public views ------------------------------------------------

    @property
    def samples(self) -> SampleSet:
        return self._samples

    # -- construction ------------------------------------------------

    def _build(self, order):
        # SampleSet rejects collinear sites, so some k is off the line
        # through the first two sites of the order.
        pts = self._pts
        i, j = order[0], order[1]
        for k in order[2:]:
            o = orientation_sign(pts[i], pts[j], pts[k])
            if o != 0:
                break
        a, b, c = (i, j, k) if o > 0 else (i, k, j)
        # Triangle ids: 0 finite, 1..3 ghosts for edges ab, bc, ca; triangle
        # 0 and its neighbours rotate to put its smallest index first.
        r = (a, b, c).index(min(a, b, c))
        self._verts = [((a, b, c) * 2)[r:r + 3], (b, a, GHOST), (c, b, GHOST), (a, c, GHOST)]
        self._nbrs = [*((1, 2, 3) * 2)[r:r + 3], 0, 3, 2, 0, 1, 3, 0, 2, 1]
        # Each walk starts from the fan of the insertion before it.
        t = 0
        for idx in order[2:]:
            if idx != k:
                t = self._insert(idx, t)

    def _locate(self, p, t):
        """Walk toward p from the finite triangle t; on a Delaunay
        triangulation the walk terminates (Devillers, Pion & Teillaud 2002).
        Returns a finite triangle whose closed interior holds p, or a ghost
        once the walk leaves the hull.  orientation_sign decides each step,
        over edges 0, 1 and 2 in turn, skipping the edge the walk came in by."""
        verts, nbrs, pts = self._verts, self._nbrs, self._pts
        came_from = -1
        for _ in range(4 * len(verts) + 16):
            a, b, c = verts[t]
            if c == GHOST:
                return t
            o = 3 * t
            nb = nbrs[o]
            if nb == came_from or orientation_sign(pts[a], pts[b], p) >= 0:
                nb = nbrs[o + 1]
                if nb == came_from or orientation_sign(pts[b], pts[c], p) >= 0:
                    nb = nbrs[o + 2]
                    if nb == came_from or orientation_sign(pts[c], pts[a], p) >= 0:
                        return t
            came_from, t = t, nb
        raise DegenerateInputError("mesh invariant broken: point location did not terminate")

    def _cavity(self, seed, p, pidx):
        """(cavity, cycle): the triangles whose circumdisk holds p, and the
        boundary edges (u, v, triangle outside, triangle inside), u -> v an
        edge of the inside one, in CCW order with each v the next u.  A
        ghost's disk is the open outer halfplane of its hull edge plus the
        open edge; a finite triangle's is decided by incircle_sign_unchecked,
        and only an exact 0 by the symbolic perturbation.  The seed is
        tested first, then one depth-first tour over edges: the seed pushes
        its edges 2, 1, 0, and a cavity triangle entered across its edge b
        pushes b + 2, then b + 1, so the boundary edges pop in CCW order.  A
        cavity is a disk with every vertex on its boundary, its triangles a
        tree across shared edges: one reached twice, or a cycle vertex met
        twice, raises."""
        verts, nbrs, pts = self._verts, self._nbrs, self._pts
        # p is no vertex, so a finite seed holds p strictly inside its
        # circumdisk and a ghost seed strictly beyond its hull edge.
        a, b, c = verts[seed]
        if c == GHOST:
            side = orientation_sign(pts[b], pts[a], p)
            holds = side < 0 or side == 0 and _strictly_between(pts[b], pts[a], p)
        else:
            sign = incircle_sign_unchecked(pts[a], pts[b], pts[c], p)
            holds = sign > 0 if sign else _perturbed_in_disk(pts[a], pts[b], pts[c], p, a, b, c, pidx)
        if not holds:
            raise DegenerateInputError("mesh invariant broken: located triangle does not hold the point")
        cavity, cycle = {seed}, []
        o = 3 * seed
        # Entries (t, inner, u, v): t reached across edge u -> v of inner.
        stack = [(nbrs[o + 2], seed, c, a), (nbrs[o + 1], seed, b, c), (nbrs[o], seed, a, b)]
        while stack:
            t, inner, u, v = stack.pop()
            if t in cavity:
                raise DegenerateInputError("mesh invariant broken: cavity is not a disk")
            a, b, c = verts[t]
            if c == GHOST:
                side = orientation_sign(pts[b], pts[a], p)
                holds = side < 0 or side == 0 and _strictly_between(pts[b], pts[a], p)
            else:
                sign = incircle_sign_unchecked(pts[a], pts[b], pts[c], p)
                holds = sign > 0 if sign else _perturbed_in_disk(pts[a], pts[b], pts[c], p, a, b, c, pidx)
            if not holds:
                cycle.append((u, v, t, inner))
                continue
            cavity.add(t)
            # t shares edge v -> u with inner and pushes its other two edges.
            o = 3 * t
            if v == a:
                stack += ((nbrs[o + 2], t, c, a), (nbrs[o + 1], t, b, c))
            elif v == b:
                stack += ((nbrs[o], t, a, b), (nbrs[o + 2], t, c, a))
            else:
                stack += ((nbrs[o + 1], t, b, c), (nbrs[o], t, a, b))
        if len({u for u, _, _, _ in cycle}) != len(cycle):
            raise DegenerateInputError("mesh invariant broken: cavity boundary is not a simple cycle")
        return cavity, cycle

    def _insert(self, idx, start) -> int:
        """Insert site idx, walking from triangle start; returns the first
        finite triangle of the fan.  _cavity makes the cavity a disk with
        every vertex on its boundary, so the fan has two triangles more: it
        takes the cavity's slots and two new ones, which extend _verts by 2
        and _nbrs by 6.  Each fan triangle is written in place, already in
        the one layout."""
        verts, nbrs = self._verts, self._nbrs
        p = self._pts[idx]
        cavity, cycle = self._cavity(self._locate(p, start), p, idx)
        k, n = len(cycle), len(verts)
        fan = [*cavity, n, n + 1]
        verts += [None, None]
        nbrs += [None] * 6
        # Fan triangle j = (u_j, v_j, idx) meets the outside across u_j v_j,
        # fan triangle j+1 across v_j idx and fan triangle j-1 across idx u_j.
        prev = fan[-1]
        for j, (u, v, outside, _) in enumerate(cycle):
            t, nxt = fan[j], fan[j + 1 - k]
            o = 3 * t
            # The one layout, idx being no ghost: idx first after a ghost v
            # or when smallest, v first after a ghost u or when smallest.
            if v == GHOST or idx < u and idx < v:
                verts[t] = (idx, u, v)
                nbrs[o], nbrs[o + 1], nbrs[o + 2] = prev, outside, nxt
            elif u == GHOST or v < u:
                verts[t] = (v, idx, u)
                nbrs[o], nbrs[o + 1], nbrs[o + 2] = nxt, prev, outside
            else:
                verts[t] = (u, v, idx)
                nbrs[o], nbrs[o + 1], nbrs[o + 2] = outside, nxt, prev
            # The fan rewrites no outside triangle: its back-link slot is
            # that of its edge v -> u, which leaves v.
            nbrs[3 * outside + verts[outside].index(v)] = t
            prev = t
        # GHOST is on the cycle once at most, so the first finite edge is
        # edge 0, or edge 1 after (GHOST, v), or edge 2 after (u, GHOST).
        u, v, _, _ = cycle[0]
        return fan[2 if v == GHOST else 1 if u == GHOST else 0]

    def _finalize(self):
        # Eager on purpose: views built on first read made Sibson queries slower.
        verts = self._verts
        finite = sorted(
            (t for t, vs in enumerate(verts) if vs[2] != GHOST),
            key=verts.__getitem__,
        )
        self.triangles = tuple([verts[t] for t in finite])
        # Every site is a vertex of some finite triangle; each takes its first.
        incident = self._incident = [None] * len(self._pts)
        for t in reversed(finite):
            a, b, c = verts[t]
            incident[a] = incident[b] = incident[c] = t

    # -- virtual insertion -------------------------------------------

    def _place(self, p, snap: bool, strict: bool = False):
        """(kind, cavity, cycle, sites) of the framed point p, sites the
        cycle's sites in its CCW order, GHOST left out, as a tuple.  A site p
        is, or if snap the one _snap finds over the sites, raises
        CoincidentQueryError.  A ghost in the cavity puts p on the hull if
        its edge passes through p, else outside it: classify_query's outcome
        unless rounding ties or reorders the squared distances of sites
        almost equally far from p.  If strict, a walk that ends at a ghost,
        across a hull edge that p is strictly beyond, gives (EXTERIOR, None,
        None, None) with no cavity built; the snap then reads the first ring
        block, which holds every site within the snap radius.  The walk
        starts at a site in p's cell of SampleSet._buckets clamped onto the
        grid, else in those of its four edge neighbours inside the grid,
        else on the march to site 0's cell: 4 + max(cols, rows) reads at
        most."""
        i = self._samples._index.get(p)
        if i is None:
            x0, y0, _, _ = self._samples._box
            size, cols, rows, cells = self._samples._buckets
            # Clamped in float: floor() of a quotient near 2**1000 overflows.
            c = math.floor(min(max((p[0] - x0) / size, 0.0), cols - 1.0))
            r = math.floor(min(max((p[1] - y0) / size, 0.0), rows - 1.0))
            k = r * cols + c
            near = (cells[k] or c > 0 and cells[k - 1] or c + 1 < cols and cells[k + 1]
                    or r > 0 and cells[k - cols] or r + 1 < rows and cells[k + cols])
            if not near:
                # Site 0's cell holds a site, so the march ends at a site.
                x, y = self._pts[0]
                tc, tr = math.floor((x - x0) / size), math.floor((y - y0) / size)
                n = max(abs(tc - c), abs(tr - r))
                march = ((r + round(j * (tr - r) / n)) * cols + c + round(j * (tc - c) / n) for j in range(1, n + 1))
                near = next(filter(None, map(cells.__getitem__, march)))
            t = self._locate(p, self._incident[near[0]])
            if strict and self._verts[t][2] == GHOST:
                cavity = cycle = sites = None
                candidates = next(_rings(self._samples, p))[0]
            else:
                cavity, cycle = self._cavity(t, p, len(self._pts))
                # Every site nearest to p borders the cavity: the circle on
                # diameter p-q holds no other site.
                candidates = sites = tuple([u for u, _, _, _ in cycle if u != GHOST])
            if snap:
                i = _snap(self._samples, *p, candidates)
        if i is not None:
            raise CoincidentQueryError("query coincides with site %d" % i, i)
        if cavity is None:
            return QueryKind.EXTERIOR, None, None, None
        # GHOST is on the cycle exactly when a ghost is in the cavity, every
        # cavity vertex being on the cycle.
        if len(sites) == len(cycle):
            return QueryKind.INTERIOR, cavity, cycle, sites
        ghosts = [self._verts[t] for t in cavity if self._verts[t][2] == GHOST]
        on = any(orientation_sign(self._pts[v], self._pts[u], p) == 0 for u, v, _ in ghosts)
        return QueryKind.ON_BOUNDARY if on else QueryKind.EXTERIOR, cavity, cycle, sites

    def _virtual_cavity(self, s):
        """(cavity, cycle, sites, rel, fan) of the virtual insertion of s,
        about the framed query p: sites are the cycle's, as _place gives
        them, every cavity vertex among them; rel[u] is site u minus p; fan[j]
        is the circle (cx, cy, radius) of u_j, v_j and p anchored at p, as a
        site anchor cancels near the other site.  A query _place snaps to a
        site raises CoincidentQueryError, one on or outside the site hull
        OutsideDomainError, one past it before its cavity is built."""
        px, py = p = self._samples._frame(s)
        kind, cavity, cycle, sites = self._place(p, True, True)
        if kind is not QueryKind.INTERIOR:
            raise OutsideDomainError("query lies on or outside the site hull")
        pts, rel = self._pts, {}
        for u in sites:
            x, y = pts[u]
            rel[u] = (x - px, y - py)
        fan = [_circumcenter((0.0, 0.0), rel[u], rel[v]) for u, v, _, _ in cycle]
        return cavity, cycle, sites, rel, fan

    def lune_angles_oracle(self, s) -> LuneAngleSet:
        """Lune angles by virtual insertion: for each neighbor, the angle
        at s between the circumcircles of the two fan triangles flanking
        the new edge.  The mesh is left untouched."""
        _, _, sites, _, fan = self._virtual_cavity(s)
        # Site u_j's angle is between fan circles j - 1 and j, at p.
        entries = [(u, math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))
                   for u, (ux, uy, _), (vx, vy, _) in zip(sites, fan[-1:] + fan, fan)]
        if not all(math.isfinite(theta) for _, theta in entries):
            raise DegenerateInputError("lune angles left the float range")
        return LuneAngleSet(tuple(sorted(entries)))

    def sibson_weights(self, s) -> WeightVector:
        """Sibson's natural neighbor weights: the fraction of the virtual
        cell of s that each neighbor's Voronoi cell loses to it."""
        cavity, cycle, sites, rel, fan = self._virtual_cavity(s)
        verts, nbrs = self._verts, self._nbrs
        old = {}
        for t in cavity:
            a, b, c = verts[t]
            old[t] = _circumcenter(rel[a], rel[b], rel[c])
        areas, steps = [], len(cavity)
        # The shoelace of fan centers j - 1 and j, then the old ones
        # clockwise around u_j, from the inside of edge j to that of edge
        # j - 1, which ends at u_j: _cavity's disk holds the walk.
        (x0, y0, _), last = fan[-1], cycle[-1][3]
        for (u, _, _, t), (x1, y1, _) in zip(cycle, fan):
            inside, x, y = t, x1, y1
            total = x0 * y - x * y0
            for _ in range(steps):
                cx, cy, _ = old[t]
                total += x * cy - cx * y
                x, y = cx, cy
                if t == last:
                    break
                t = nbrs[3 * t + (verts[t].index(u) + 2) % 3]
            else:
                raise DegenerateInputError("mesh invariant broken: stolen-area walk did not close")
            total += x * y0 - x0 * y
            if not math.isfinite(total):
                raise DegenerateInputError("stolen areas left the float range")
            areas.append(max(0.0, 0.5 * total))
            x0, y0, last = x1, y1, inside
        try:
            total = math.fsum(areas)
            entries = [(u, area / total) for u, area in zip(sites, areas)]
        except (OverflowError, ZeroDivisionError):
            raise DegenerateInputError("stolen areas left the float range") from None
        entries.sort()
        return WeightVector(tuple(entries))

    def voronoi_cell_polygon(self, site_index: int) -> VoronoiCell:
        """Voronoi cell of a site: circumcenters of its incident triangles
        in CCW order when bounded, otherwise the outward directions of the
        two unbounded boundary rays.  A vertex past the float range raises
        DegenerateInputError.  A bool is no site index."""
        if not isinstance(site_index, int) or isinstance(site_index, bool) or not 0 <= site_index < len(self._pts):
            raise PreconditionError("site index must be an int in range(%d)" % len(self._pts))
        t = start = self._incident[site_index]
        ring, rays = [], {}
        while True:
            vs = self._verts[t]
            slot = vs.index(site_index)
            if vs[2] == GHOST:
                # Edge vs[1] -> vs[0] enters the site in slot 0.
                a, b = self._pts[vs[1]], self._pts[vs[0]]
                ex, ey = b[0] - a[0], b[1] - a[1]
                norm = math.hypot(ex, ey)
                rays[slot] = Point(ey / norm, -ex / norm)
            else:
                ring.append(vs)
            t = self._nbrs[3 * t + (slot + 2) % 3]
            if t == start:
                break
        if rays:
            return VoronoiCell(site_index, None, (rays[0], rays[1]))
        centers = [_circumcenter(*(self._pts[v] for v in vs)) for vs in ring]
        scale = 2.0 ** self._samples._e
        vertices = tuple([Point(cx * scale, cy * scale) for cx, cy, _ in centers])
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in vertices):
            raise DegenerateInputError("Voronoi vertex left the float range")
        return VoronoiCell(site_index, vertices, None)


def build_delaunay(samples: SampleSet) -> Triangulation:
    """Delaunay triangulation of the sample sites.  The mesh depends on
    the sites and their indices only, cocircular ties included; the
    insertion order, a seeded biased randomized one, does not change it."""
    return Triangulation(samples)


# The function spelling f(tri, ...) of the query methods.
lune_angles_oracle = Triangulation.lune_angles_oracle
sibson_weights = Triangulation.sibson_weights
voronoi_cell_polygon = Triangulation.voronoi_cell_polygon

