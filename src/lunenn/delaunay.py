"""Delaunay triangulation with exact predicates, and classical Sibson
(stolen-area) interpolation driven by virtual insertion.

The triangulation is built by Bowyer-Watson point insertion over a mesh
that carries one ghost triangle per hull edge, so hull growth needs no
oversized bounding triangle.  Cocircular ties are broken by a symbolic
perturbation that treats lower-indexed sites as infinitesimally lifted,
which makes the result independent of insertion order.

Virtual insertion computes the cavity and fan a query point would create
without mutating the mesh, and alone places a query: the walk finds it, and
the sites on the cavity cycle hold the nearest one for the snap.  The
circumcircles along each fan edge give an independent route to the lune
angles, and the circumcenter polygons of the fan give Sibson's stolen-area
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import CoincidentQueryError, DegenerateInputError, OutsideDomainError
from .geometry import Point, circle_angle_at_common_point, circumcircle
from .interpolate import LuneAngleSet, QueryClass, QueryKind
from .interpolate import SampleSet, WeightVector, _blend, _query_point, _snap
from .predicates import incircle_sign_unchecked, orientation_sign

GHOST = -1


def _perturbed_in_disk(pa, pb, pc, pt, ia, ib, ic, it) -> bool:
    """True iff t lies inside the circumdisk of CCW triangle abc after the
    symbolic perturbation.  On a cocircular tie the lowest-indexed point
    decides: its term in the lifted determinant is the orientation of the
    other three points, with alternating sign by row."""
    raw = incircle_sign_unchecked(pa, pb, pc, pt)
    if raw != 0:
        return raw > 0
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


@dataclass(frozen=True)
class VoronoiCell:
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
    build_delaunay; afterwards the structure is read-only and all queries
    (virtual insertion included) leave it untouched."""

    def __init__(self, samples: SampleSet):
        self._samples = samples
        self._pts = list(samples.sites)
        self._verts = []
        self._nbrs = []
        self._hint = 0
        self._build()
        self._finalize()

    # -- public views ------------------------------------------------

    @property
    def samples(self) -> SampleSet:
        return self._samples

    @property
    def triangles(self):
        """Finite triangles as CCW vertex triples, smallest vertex first,
        sorted."""
        return self._public_triangles

    @property
    def neighbors(self):
        """For each finite triangle, the triangle index across each edge
        (edge e runs from vertex e to vertex e+1), or None on the hull."""
        return self._public_neighbors

    # -- construction ------------------------------------------------

    def _build(self):
        pts = self._pts
        n = len(pts)
        start = None
        for k in range(2, n):
            o = orientation_sign(pts[0], pts[1], pts[k])
            if o != 0:
                start = (0, 1, k) if o > 0 else (0, k, 1)
                break
        if start is None:
            raise DegenerateInputError("all sites are collinear")
        a, b, c = start
        # Triangle ids: 0 finite, 1..3 ghosts for edges ab, bc, ca.
        self._new_triangle(a, b, c, [1, 2, 3])
        self._new_triangle(b, a, GHOST, [0, 3, 2])
        self._new_triangle(c, b, GHOST, [0, 1, 3])
        self._new_triangle(a, c, GHOST, [0, 2, 1])
        for idx in range(2, n):
            if idx != start[1] and idx != start[2]:
                self._insert(idx)

    def _new_triangle(self, u, v, w, nbrs):
        # Keep any ghost vertex in slot 2; nbrs[e] lies across edge e and
        # rotates with the vertices.
        if u == GHOST:
            u, v, w = v, w, u
            nbrs = [nbrs[1], nbrs[2], nbrs[0]]
        elif v == GHOST:
            u, v, w = w, u, v
            nbrs = [nbrs[2], nbrs[0], nbrs[1]]
        self._verts.append([u, v, w])
        self._nbrs.append(nbrs)

    def _in_disk(self, t, p, pidx) -> bool:
        vs = self._verts[t]
        if vs[2] == GHOST:
            # Ghost for hull edge vs[1] -> vs[0]: its disk is the open
            # outer halfplane plus the open hull edge itself.
            a = self._pts[vs[1]]
            b = self._pts[vs[0]]
            side = orientation_sign(a, b, p)
            if side < 0:
                return True
            if side == 0:
                return _strictly_between(a, b, p)
            return False
        ia, ib, ic = vs
        return _perturbed_in_disk(
            self._pts[ia], self._pts[ib], self._pts[ic], p, ia, ib, ic, pidx
        )

    def _locate(self, p):
        """Walk toward p from the last-visited finite triangle; on a Delaunay
        triangulation the walk terminates (Devillers, Pion & Teillaud 2002).
        Returns a finite triangle whose closed interior holds p, or a ghost
        once the walk leaves the hull."""
        t = self._hint
        came_from = -1
        for _ in range(4 * len(self._verts) + 16):
            vs = self._verts[t]
            if vs[2] == GHOST:
                self._hint = self._nbrs[t][0]
                return t
            for e in range(3):
                nb = self._nbrs[t][e]
                if nb == came_from:
                    continue
                if orientation_sign(self._pts[vs[e]], self._pts[vs[(e + 1) % 3]], p) < 0:
                    came_from = t
                    t = nb
                    break
            else:
                self._hint = t
                return t
        raise AssertionError("point location did not terminate")

    def _cavity(self, seed, p, pidx):
        # p is no vertex, so a finite seed holds it strictly inside its
        # circumdisk and a ghost seed strictly beyond its hull edge.
        if not self._in_disk(seed, p, pidx):
            raise AssertionError("located triangle does not hold the point")
        visited = {seed}
        cavity = {seed}
        stack = [seed]
        while stack:
            t = stack.pop()
            for nb in self._nbrs[t]:
                if nb in visited:
                    continue
                visited.add(nb)
                if self._in_disk(nb, p, pidx):
                    cavity.add(nb)
                    stack.append(nb)
        return cavity

    def _cavity_boundary(self, cavity):
        """Directed boundary edges (u, v, triangle outside, triangle
        inside) chained into the CCW cycle around the cavity."""
        edges = []
        for t in cavity:
            vs = self._verts[t]
            for e in range(3):
                nb = self._nbrs[t][e]
                if nb not in cavity:
                    edges.append((vs[e], vs[(e + 1) % 3], nb, t))
        nxt = {u: (v, outside, inside) for u, v, outside, inside in edges}
        if len(nxt) != len(edges):
            raise AssertionError("cavity boundary is not a simple cycle")
        cycle = []
        u = edges[0][0]
        for _ in range(len(edges)):
            v, outside, inside = nxt[u]
            cycle.append((u, v, outside, inside))
            u = v
        if u != edges[0][0] or len(cycle) != len(edges):
            raise AssertionError("cavity boundary is not a single cycle")
        return cycle

    def _insert(self, idx):
        p = self._pts[idx]
        seed = self._locate(p)
        cavity = self._cavity(seed, p, idx)
        cycle = self._cavity_boundary(cavity)
        for t in cavity:
            self._verts[t] = self._nbrs[t] = None
        # Fan triangle j = (u_j, v_j, idx) meets the outside across u_j v_j,
        # fan triangle j+1 across v_j idx and fan triangle j-1 across idx u_j.
        k = len(cycle)
        fan = list(range(len(self._verts), len(self._verts) + k))
        for j, (u, v, outside, _) in enumerate(cycle):
            self._new_triangle(u, v, idx, [outside, fan[(j + 1) % k], fan[j - 1]])
            ovs = self._verts[outside]
            for e in range(3):
                if ovs[e] == v and ovs[(e + 1) % 3] == u:
                    self._nbrs[outside][e] = fan[j]
                    break
            else:
                raise AssertionError("boundary neighbor back-link not found")
        self._hint = next(f for f, (u, v, _, _) in zip(fan, cycle) if GHOST not in (u, v))

    def _finalize(self):
        keep = [t for t, vs in enumerate(self._verts) if vs is not None]
        rotated = {}
        for t in keep:
            vs = self._verts[t]
            if vs[2] == GHOST:
                rotated[t] = (vs, self._nbrs[t])
                continue
            r = min(range(3), key=lambda e: vs[e])
            rotated[t] = (
                [vs[r], vs[(r + 1) % 3], vs[(r + 2) % 3]],
                [self._nbrs[t][r], self._nbrs[t][(r + 1) % 3], self._nbrs[t][(r + 2) % 3]],
            )
        keep.sort(key=lambda t: (rotated[t][0][2] == GHOST, rotated[t][0]))
        remap = {t: i for i, t in enumerate(keep)}
        self._verts = [rotated[t][0] for t in keep]
        self._nbrs = [[remap[nb] for nb in rotated[t][1]] for t in keep]
        self._finite_count = sum(1 for vs in self._verts if vs[2] != GHOST)
        self._hint = 0
        self._incident = {}
        for t in range(self._finite_count):
            for v in self._verts[t]:
                self._incident.setdefault(v, t)
        self._hull_prev = {}
        self._hull_next = {}
        for t in range(self._finite_count, len(self._verts)):
            head, tail, _ = self._verts[t]
            self._hull_next[tail] = head
            self._hull_prev[head] = tail
        self._public_triangles = tuple(
            tuple(self._verts[t]) for t in range(self._finite_count)
        )
        self._public_neighbors = tuple(
            tuple(nb if nb < self._finite_count else None for nb in self._nbrs[t])
            for t in range(self._finite_count)
        )

    # -- virtual insertion -------------------------------------------

    def _place(self, s):
        """(QueryClass, point, cavity, cycle) of s from the walk and the
        cavity of its virtual insertion; cavity and cycle are None for a
        query exactly on a site.  The class is classify_query's unless
        rounding ties or reorders the squared distances of sites almost
        equally far from s."""
        p = _query_point(s)
        i = self._samples._index.get(p)
        if i is not None:
            return QueryClass(QueryKind.COINCIDENT, i), p, None, None
        t = self._locate(p)
        cavity = self._cavity(t, p, len(self._pts))
        cycle = self._cavity_boundary(cavity)
        # Every site nearest to p borders the cavity: the circle on
        # diameter p-q holds no other site.
        sites = (u for u, _, _, _ in cycle if u != GHOST)
        best = _snap(self._samples, p.x, p.y, sites)
        if best is not None:
            cls = QueryClass(QueryKind.COINCIDENT, best)
        elif self._verts[t][2] == GHOST:
            cls = QueryClass(QueryKind.EXTERIOR)
        elif any(self._verts[c][2] == GHOST for c in cavity):
            cls = QueryClass(QueryKind.ON_BOUNDARY)
        else:
            cls = QueryClass(QueryKind.INTERIOR)
        return cls, p, cavity, cycle

    def _virtual_cavity(self, s):
        cls, p, cavity, cycle = self._place(s)
        if cls.kind is QueryKind.COINCIDENT:
            raise CoincidentQueryError("query coincides with site %d" % cls.site_index, cls.site_index)
        if cls.kind is not QueryKind.INTERIOR:
            where = "outside" if cls.kind is QueryKind.EXTERIOR else "on or outside"
            raise OutsideDomainError("query lies %s the site hull" % where)
        return p, cavity, cycle

    def lune_angles_oracle(self, s) -> LuneAngleSet:
        """Lune angles by virtual insertion: for each neighbor, the angle
        at s between the circumcircles of the two fan triangles flanking
        the new edge.  The mesh is left untouched."""
        p, _, cycle = self._virtual_cavity(s)
        circles = [
            circumcircle(self._pts[u], self._pts[v], p) for u, v, _, _ in cycle
        ]
        entries = []
        for j, (u, _, _, _) in enumerate(cycle):
            theta = circle_angle_at_common_point(circles[j - 1], circles[j], p)
            entries.append((u, theta))
        return LuneAngleSet(tuple(sorted(entries)))

    def sibson_weights(self, s) -> WeightVector:
        """Sibson's natural neighbor weights: the fraction of the virtual
        cell of s that each neighbor's Voronoi cell loses to it."""
        p, cavity, cycle = self._virtual_cavity(s)
        k = len(cycle)
        fan_centers = [
            circumcircle(self._pts[u], self._pts[v], p).center for u, v, _, _ in cycle
        ]
        old_centers = {
            t: circumcircle(
                self._pts[self._verts[t][0]],
                self._pts[self._verts[t][1]],
                self._pts[self._verts[t][2]],
            ).center
            for t in cavity
        }
        areas = []
        for j in range(k):
            vj = cycle[j][0]
            prev_vertex = cycle[j - 1][0]
            poly = [fan_centers[j - 1], fan_centers[j]]
            t = cycle[j][3]
            for _ in range(len(cavity)):
                poly.append(old_centers[t])
                slot = self._verts[t].index(vj)
                if self._verts[t][(slot + 2) % 3] == prev_vertex:
                    break
                t = self._nbrs[t][(slot + 2) % 3]
                if t not in cavity:
                    raise AssertionError("stolen-area walk left the cavity")
            else:
                raise AssertionError("stolen-area walk did not close")
            areas.append(max(0.0, _shoelace(poly)))
        total = math.fsum(areas)
        entries = sorted((cycle[j][0], areas[j] / total) for j in range(k))
        return WeightVector(tuple(entries))

    def voronoi_cell_polygon(self, site_index: int) -> VoronoiCell:
        """Voronoi cell of a site: circumcenters of its incident triangles
        in CCW order when bounded, otherwise the outward directions of the
        two unbounded boundary rays."""
        if not (0 <= site_index < len(self._pts)):
            raise IndexError("site index out of range")
        if site_index in self._hull_next:
            out_dirs = []
            for a, b in (
                (self._hull_prev[site_index], site_index),
                (site_index, self._hull_next[site_index]),
            ):
                ex = self._pts[b].x - self._pts[a].x
                ey = self._pts[b].y - self._pts[a].y
                norm = math.hypot(ex, ey)
                out_dirs.append(Point(ey / norm, -ex / norm))
            return VoronoiCell(site_index, None, tuple(out_dirs))
        t = self._incident[site_index]
        start = t
        centers = []
        while True:
            vs = self._verts[t]
            centers.append(
                circumcircle(self._pts[vs[0]], self._pts[vs[1]], self._pts[vs[2]]).center
            )
            slot = vs.index(site_index)
            t = self._nbrs[t][(slot + 2) % 3]
            if t == start:
                break
        return VoronoiCell(site_index, tuple(centers), None)


def _shoelace(poly) -> float:
    total = 0.0
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def build_delaunay(samples: SampleSet) -> Triangulation:
    """Delaunay triangulation of the sample sites; deterministic for a
    given site order, cocircular ties included."""
    return Triangulation(samples)


# The function spelling f(tri, ...) of the query methods.
lune_angles_oracle = Triangulation.lune_angles_oracle
sibson_weights = Triangulation.sibson_weights
voronoi_cell_polygon = Triangulation.voronoi_cell_polygon


def sibson_interpolate(tri: Triangulation, elevations, s):
    """Blend elevations with Sibson weights; reproduces affine data
    exactly up to roundoff.  A query that snaps to a site returns that
    site's elevation, as interpolate does."""
    if len(elevations) != len(tri.samples.sites):
        raise DegenerateInputError("one elevation per site required")
    try:
        weights = tri.sibson_weights(s)
    except CoincidentQueryError as exc:
        return elevations[exc.site_index]
    return _blend(weights, elevations)
