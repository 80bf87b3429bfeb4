"""Delaunay triangulation structure, the circumcircle lune-angle oracle,
Sibson stolen-area weights, and Vorono-cell extraction.

Structural checks go through brute force: every triangle's circumcircle
is tested against every site, and triangle counts are compared with the
Euler relation T = 2n - 2 - h.
"""

import copy
import hashlib
import math
import random
import sys
import tracemalloc

import pytest

from lunenn import (
    CoincidentQueryError,
    DegenerateInputError,
    OutsideDomainError,
    PreconditionError,
    SampleSet,
    VoronoiCell,
    build_delaunay,
    interpolate,
    lune_angles,
    lune_angles_oracle,
    orientation_sign,
    sibson_interpolate,
    sibson_weights,
    voronoi_cell_polygon,
)
from lunenn import delaunay, errors, predicates
from lunenn.delaunay import _BRIO_SEED, GHOST, _brio_order
from lunenn.fileio import GridSpec, evaluate_grid
from lunenn.geometry import Point
from lunenn.hull import convex_hull
from lunenn.interpolate import QueryKind, classify_query
from lunenn.predicates import incircle_sign_unchecked

SQUARE_SITES = [(-1, -1), (1, -1), (1, 1), (-1, 1)]


def _square():
    return SampleSet(SQUARE_SITES, [10.0, 20.0, 30.0, 40.0])


def _hexagon():
    pts = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    return SampleSet(pts, [float(k) for k in range(6)])


def _random_samples(rng, n=20):
    while True:
        sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        try:
            return SampleSet(sites, [rng.uniform(-1, 1) for _ in range(n)])
        except ValueError:
            continue


def _random_interior_query(rng, samples):
    while True:
        s = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if classify_query(samples, s) is QueryKind.INTERIOR:
            return s


def _neighbors(triangles):
    """neighbors[i][e]: the index of the triangle across edge e (vertex e to
    e + 1) of triangles[i], or None on the hull."""
    across = {(vs[e], vs[e - 2]): i for i, vs in enumerate(triangles) for e in range(3)}
    return tuple(tuple(across.get((vs[e - 2], vs[e])) for e in range(3)) for vs in triangles)


def _check_structure(samples, tri):
    sites = samples.sites
    triangles = tri.triangles
    neighbors = _neighbors(triangles)
    # CCW orientation and the empty-circumcircle property by brute force.
    for (a, b, c) in triangles:
        assert orientation_sign(sites[a], sites[b], sites[c]) == 1
        for t in range(len(sites)):
            if t in (a, b, c):
                continue
            assert incircle_sign_unchecked(sites[a], sites[b], sites[c], sites[t]) <= 0
    # Involutive adjacency; slot e faces the edge from vertex e to e+1.
    for ti, nbrs in enumerate(neighbors):
        for e, other in enumerate(nbrs):
            if other is None:
                continue
            edge = {triangles[ti][e], triangles[ti][(e + 1) % 3]}
            assert ti in neighbors[other]
            back = neighbors[other].index(ti)
            assert edge == {
                triangles[other][back],
                triangles[other][(back + 1) % 3],
            }
    # The one layout, ghosts included: GHOST only in slot 2, otherwise the
    # smallest index in slot 0.  Every neighbour slot holds a live id.
    for vs in tri._verts:
        assert GHOST not in vs[:2]
        assert vs[2] == GHOST or vs[0] == min(vs)
    assert len(tri._nbrs) == 3 * len(tri._verts)
    assert all(type(nb) is int and 0 <= nb < len(tri._verts) for nb in tri._nbrs)
    # The kernel's own adjacency says the same; across a hull edge lies a ghost.
    position = {vs: i for i, vs in enumerate(triangles)}
    for t, vs in enumerate(tri._verts):
        if vs[2] != GHOST:
            assert tuple(position.get(tri._verts[nb]) for nb in tri._nbrs[3 * t:3 * t + 3]) == neighbors[position[vs]]
    # Euler relation with h = points on the hull boundary: corners, and
    # points on the line of a hull edge, which lie on that edge.
    hull = convex_hull(sites)
    edges = [(sites[a], sites[b]) for a, b in zip(hull, hull[1:] + hull[:1])]
    h = sum(1 for p in sites if any(orientation_sign(a, b, p) == 0 for a, b in edges))
    assert len(triangles) == 2 * len(sites) - 2 - h
    # Triangles tile the hull: the areas add up.
    area = math.fsum(
        0.5
        * abs(
            (sites[b].x - sites[a].x) * (sites[c].y - sites[a].y)
            - (sites[b].y - sites[a].y) * (sites[c].x - sites[a].x)
        )
        for a, b, c in triangles
    )
    corners = [sites[i] for i in hull]
    hull_area = 0.5 * abs(
        math.fsum(
            corners[k].x * corners[(k + 1) % len(corners)].y
            - corners[(k + 1) % len(corners)].x * corners[k].y
            for k in range(len(corners))
        )
    )
    assert abs(area - hull_area) <= 1e-9 * max(1.0, hull_area)
    # Every site appears as a vertex.
    used = {v for t in triangles for v in t}
    assert used == set(range(len(sites)))


def test_single_triangle():
    samples = SampleSet([(0, 0), (1, 0), (0, 1)], [0.0, 0.0, 0.0])
    tri = build_delaunay(samples)
    assert len(tri.triangles) == 1
    _check_structure(samples, tri)


def test_square_diagonal_deterministic():
    # Cocircular corners: either diagonal is valid, the tie-break fixes one.
    first = build_delaunay(_square())
    assert len(first.triangles) == 2
    for _ in range(3):
        again = build_delaunay(_square())
        assert again.triangles == first.triangles
        assert again._nbrs == first._nbrs
    _check_structure(_square(), first)


def test_random_sites_structure():
    rng = random.Random(211)
    for trial in range(15):
        samples = _random_samples(rng, n=rng.randint(4, 40))
        tri = build_delaunay(samples)
        _check_structure(samples, tri)


def test_cocircular_grid_structure():
    # Integer grids are saturated with cocircular quadruples.
    for k in (3, 4, 5):
        sites = [(float(x), float(y)) for x in range(k) for y in range(k)]
        samples = SampleSet(sites, [0.0] * len(sites))
        tri = build_delaunay(samples)
        _check_structure(samples, tri)
        assert len(tri.triangles) == 2 * k * k - 2 - 4 * (k - 1)


def test_collinear_interior_runs():
    # Points on a hull edge and on an interior segment.
    sites = [(0, 0), (1, 0), (2, 0), (3, 0), (1.5, 2), (1.5, 1)]
    samples = SampleSet(sites, [0.0] * 6)
    tri = build_delaunay(samples)
    _check_structure(samples, tri)


def test_build_deterministic():
    rng = random.Random(223)
    samples = _random_samples(rng, n=30)
    a = build_delaunay(samples)
    b = build_delaunay(samples)
    assert a.triangles == b.triangles
    assert a._nbrs == b._nbrs


def test_brio_order_is_a_fixed_permutation():
    rng = random.Random(229)
    samples = _random_samples(rng, n=500)
    order = _brio_order(samples)
    assert sorted(order) == list(range(500))
    assert order != sorted(order)
    assert _brio_order(samples) == order
    # The rounds are those of the seeded shuffle, 1, 2, 4, 8, ... 250
    # sites, and each runs along the snake of the grid cells: row by row,
    # even rows left to right and odd ones back.
    shuffled = list(range(500))
    random.Random(_BRIO_SEED).shuffle(shuffled)
    _, cols, _, cells = samples._buckets
    snake = {i: r * cols + (c if r % 2 == 0 else cols - 1 - c)
             for k, sites in enumerate(cells) for r, c in [divmod(k, cols)] for i in sites or ()}
    ends = [500 >> k for k in range(9, -1, -1)]
    for lo, hi in zip(ends, ends[1:]):
        assert set(order[lo:hi]) == set(shuffled[lo:hi])
        keys = [snake[i] for i in order[lo:hi]]
        assert keys == sorted(keys)


def test_build_walks_a_few_triangles_per_site(monkeypatch):
    # In input order the walk crosses O(sqrt n) triangles per insertion
    # (about 50 orientation tests a site at n = 2000); BRIO rounds along
    # the snake of the grid cells take about 9.  Every walk step calls
    # orientation_sign, so the count sees them all.
    calls = []

    def counting(p, q, r):
        calls.append(None)
        return orientation_sign(p, q, r)

    monkeypatch.setattr(delaunay, "orientation_sign", counting)
    rng = random.Random(233)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2000)]
    build_delaunay(SampleSet(sites, [0.0] * len(sites)))
    assert len(sites) <= len(calls) < 15 * len(sites)


def test_sibson_queries_walk_a_few_triangles(monkeypatch):
    # From the triangle where the last query ended a random query walks
    # O(sqrt n) triangles (about 65 orientation tests at n = 2000); from
    # a site in the query's grid cell it takes about 6.
    rng = random.Random(239)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2000)]
    samples = SampleSet(sites, [x + 2 * y for x, y in sites])
    tri = build_delaunay(samples)
    calls = []

    def counting(p, q, r):
        calls.append(None)
        return orientation_sign(p, q, r)

    monkeypatch.setattr(delaunay, "orientation_sign", counting)
    queries = 200
    for _ in range(queries):
        sibson_interpolate(tri, samples.elevations, (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)))
    assert queries <= len(calls) < 15 * queries


def _filter_corpus():
    # (name, sites, box of the queries): random sites, a cocircular
    # lattice, the lattice moved by a few ulps, and that moved far from the
    # origin and scaled by 2**900 (in-circle products overflow) and by
    # 2**-900 (they fall below the filter's floor, where dropping it shows).
    rng = random.Random(251)
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    yield "random", corners + [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(300)], (-0.9, 0.9)
    lattice = [(float(x), float(y)) for x in range(40) for y in range(40)]
    yield "lattice", lattice, (1.0, 38.0)

    def jitter(c):
        return c + rng.randint(-3, 3) * math.ulp(c)

    jittered = [(jitter(x), jitter(y)) for x, y in lattice]
    yield "jittered", jittered, (1.0, 38.0)
    for e in (900, -900):
        sites = [(math.ldexp(x + 10000, e), math.ldexp(y + 10000, e)) for x, y in jittered]
        yield "2**%d" % e, sites, (math.ldexp(10001, e), math.ldexp(10038, e))


def test_inline_filters_change_no_decision(monkeypatch):
    # The cavity search calls the in-circle predicate.  With an infinite
    # filter bound every test takes the exact route, which must fire on
    # every set; the mesh and the Sibson weights must not change.  The
    # lattice's close calls must reach predicates._incircle_exact, where
    # the exact counts are read.
    incircle_exact = predicates._incircle_exact
    exact = []

    def counting(*args):
        exact.append(None)
        return incircle_exact(*args)

    monkeypatch.setattr(predicates, "_incircle_exact", counting)
    rng = random.Random(257)
    for name, sites, (lo, hi) in _filter_corpus():
        samples = SampleSet(sites, [0.0] * len(sites))
        queries = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(50)]
        exact.clear()
        tri = build_delaunay(samples)
        if name == "lattice":
            assert exact
        shipped = (tri.triangles, _neighbors(tri.triangles), [sibson_weights(tri, q) for q in queries])
        with monkeypatch.context() as patch:
            patch.setattr(predicates, "_INCIRCLE_BOUND", math.inf)
            exact.clear()
            tri = build_delaunay(samples)
            assert exact, name
            assert (tri.triangles, _neighbors(tri.triangles), [sibson_weights(tri, q) for q in queries]) == shipped


def _cavity_passes(monkeypatch, check):
    """Run check(tri, cavity, cycle, tests) on every _cavity pass of the
    builds and of Sibson and lune mesh queries over _mesh_views_corpus
    (random sites, lattices, collinear runs), tests being the pass's
    in-circle calls, and return the number of passes.  The lune queries
    may leave the hull, so their cavities take ghosts too."""
    cavity_of, passes, tests = delaunay.Triangulation._cavity, [], []

    def counting(*args):
        tests.append(None)
        return incircle_sign_unchecked(*args)

    def checked(self, *args):
        tests.clear()
        cavity, cycle = cavity_of(self, *args)
        check(self, cavity, cycle, len(tests))
        passes.append(None)
        return cavity, cycle

    monkeypatch.setattr(delaunay, "incircle_sign_unchecked", counting)
    monkeypatch.setattr(delaunay.Triangulation, "_cavity", checked)
    rng = random.Random(269)
    for sites in _mesh_views_corpus():
        samples = SampleSet(sites, [float(k) for k in range(len(sites))])
        tri = samples._mesh = build_delaunay(samples)
        xs, ys = [x for x, _ in sites], [y for _, y in sites]
        lo, hi = min(min(xs), min(ys)) - 0.5, max(max(xs), max(ys)) + 0.5
        # Half-integer queries lie on lattice edges and circles.
        for q in [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(60)] + [
            (0.5 * rng.randint(math.floor(2 * lo), math.ceil(2 * hi)), 0.5 * rng.randint(math.floor(2 * lo), math.ceil(2 * hi)))
            for _ in range(20)
        ]:
            for query in (lambda: sibson_weights(tri, q), lambda: interpolate(samples, q, allow_exterior=True)):
                try:
                    query()
                except _LIBRARY_ERRORS as exc:
                    assert "mesh invariant" not in str(exc)
    return len(passes)


def _check_cavity_contract(tri, cavity, cycle, tests):
    # Each entry (u, v, outside, inside): u -> v is edge e of the cavity
    # triangle inside, and outside, across it, is no cavity triangle.  The
    # entries chain into one cycle through distinct vertices, two more
    # than the cavity's triangles, as for a disk with no interior vertex.
    verts, nbrs, k = tri._verts, tri._nbrs, len(cycle)
    assert k == len(cavity) + 2
    assert len({u for u, _, _, _ in cycle}) == k
    for j, (u, v, outside, inside) in enumerate(cycle):
        assert v == cycle[(j + 1) % k][0]
        assert inside in cavity and outside not in cavity
        vs = verts[inside]
        e = vs.index(u)
        assert vs[e - 2] == v and nbrs[3 * inside + e] == outside
        assert inside in nbrs[3 * outside:3 * outside + 3]


def test_every_cavity_is_a_disk_bounded_by_its_ccw_cycle(monkeypatch):
    assert _cavity_passes(monkeypatch, _check_cavity_contract) > 1000


def test_the_cavity_tour_tests_each_reached_triangle_once(monkeypatch):
    # One in-circle test for each finite cavity triangle and one for each
    # boundary edge with a finite triangle outside (a ghost is decided by
    # its hull edge): a revisit or a dropped test shows as a count.
    def check(tri, cavity, cycle, tests):
        finite = [tri._verts[t][2] != GHOST for t in cavity] + [tri._verts[t][2] != GHOST for _, _, t, _ in cycle]
        assert tests == sum(finite)

    assert _cavity_passes(monkeypatch, check) > 1000


def test_walks_from_past_a_corner_start_in_the_clamped_corner_cell():
    # A disk leaves the corners of its box empty.  Queries past one corner
    # clamp onto the same corner cell, however far they lie, so their walk
    # starts read the same grid cells: the corner, its edge neighbours, then
    # a march across the grid, not ring blocks.  On a disk of radius 2**-30,
    # 2**1000 is more cells away than the float range holds.
    rng = random.Random(241)
    sites = []
    while len(sites) < 2000:
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if x * x + y * y < 1:
            sites.append((math.ldexp(x, -30), math.ldexp(y, -30)))
    samples = SampleSet(sites, [0.0] * len(sites))
    tri = build_delaunay(samples)
    size, cols, rows, cells = samples._buckets
    assert cells[(rows - 1) * cols + cols - 1] is None
    reads = []

    class Counting(list):
        def __getitem__(self, key):
            reads[-1] += 1
            return super().__getitem__(key)

    samples._buckets = size, cols, rows, Counting(cells)
    for q in ((1.5, 1.5), (1e6, 1e6), (2.0**1000, 2.0**1000)):
        reads.append(0)
        with pytest.raises(OutsideDomainError):
            sibson_weights(tri, q)
    assert 5 < reads[0] <= 5 + max(cols, rows)
    assert reads == [reads[0]] * 3


def test_a_query_past_the_hull_is_refused_before_its_cavity(monkeypatch):
    # The walk ends at a ghost only strictly past a hull edge, so Sibson, the
    # oracle and a lune query that may not leave the hull refuse there with
    # no cavity built, however far the query lies.  The snap reads the first
    # ring block instead, so a query past a corner within the snap radius
    # still gets the corner's elevation.  Lune queries that may leave the hull
    # build the cavity for its cycle.
    rng = random.Random(263)
    sites = []
    while len(sites) < 500:
        x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if x * x + y * y < 1:
            sites.append((x, y))
    sites += [(1.0, 1.0), (-1.0, -1.0)]
    elevations = [rng.uniform(-1, 1) for _ in sites]
    samples = SampleSet(sites, elevations)
    tri = samples._mesh = build_delaunay(samples)
    cavities = []
    monkeypatch.setattr(tri, "_cavity", lambda *args, cavity=tri._cavity: cavities.append(1) or cavity(*args))
    past = [(1.5, 1.5), (-1.2, 0.1), (0.3, -1.01), (1e6, 1e6), (2.0**1000, -(2.0**1000))]
    for q in past:
        for query in (lambda: sibson_interpolate(tri, elevations, q), lambda: lune_angles_oracle(tri, q),
                      lambda: interpolate(samples, q)):
            with pytest.raises(OutsideDomainError):
                query()
    assert cavities == []
    radius = samples._snap_radius
    for q, site in (((1.0 + 0.5 * radius, 1.0), 500), ((-1.0, -1.0 - 0.7 * radius), 501)):
        assert sibson_interpolate(tri, elevations, q) == elevations[site]
        assert interpolate(samples, q) == elevations[site]
        with pytest.raises(CoincidentQueryError):
            lune_angles_oracle(tri, q)
    assert cavities == []
    with pytest.raises(OutsideDomainError):
        sibson_interpolate(tri, elevations, (1.0 + 2 * radius, 1.0))
    for q in past[:3]:
        assert math.isfinite(interpolate(samples, q, allow_exterior=True))
        assert lune_angles(samples, q).indices
    assert len(cavities) == 6


def test_build_across_the_double_range():
    # The insertion order quantizes the sites on their bounding box: it
    # must neither overflow on a box as wide as the doubles nor divide by
    # a width that halving rounds to zero.  The mesh must equal that of
    # the set scaled by an exact power of two into a range where the
    # structure check's own float sums hold.
    big = 1e308
    tiny = 5e-324
    for sites, k in (
        ([(-big, -big), (big, -big), (big, big), (-big, big), (0.5, 0.25), (-3e307, 1e300)], -1000),
        ([(0.0, 0.0), (tiny, 0.0), (0.0, 1.0), (tiny, 2.0), (0.0, 3.0)], 1000),
    ):
        tri = build_delaunay(SampleSet(sites, [0.0] * len(sites)))
        scaled = SampleSet([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in sites], [0.0] * len(sites))
        ref = build_delaunay(scaled)
        _check_structure(scaled, ref)
        assert (tri.triangles, _neighbors(tri.triangles)) == (ref.triangles, _neighbors(ref.triangles))


def test_sibson_work_never_hulls_the_sites(monkeypatch):
    # Only classify_query reads the site hull, so Sibson work never builds it.
    module = sys.modules["lunenn.interpolate"]
    hulled = []
    monkeypatch.setattr(module, "convex_hull", lambda points: hulled.append(len(points)) or convex_hull(points))
    rng = random.Random(229)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2000)]
    samples = SampleSet(sites, [x - y for x, y in sites])
    tri = build_delaunay(samples)
    for _ in range(20):
        sibson_interpolate(tri, samples.elevations, (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
    evaluate_grid(samples, GridSpec(-1, 1, -1, 1, 8, 8), method="sibson")
    assert hulled == []
    assert samples.hull == convex_hull(samples.sites)
    assert hulled == [2000]
    classify_query(samples, (0.1, 0.2))
    assert hulled == [2000]


def test_mesh_circumcenters_run_no_orientation_test(monkeypatch):
    # The exact predicates fixed the orientation of every mesh and fan
    # triangle, so the query methods solve their circles without
    # circumcircle's orientation test.
    rng = random.Random(241)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)] + SQUARE_SITES
    tri = build_delaunay(SampleSet(sites, [0.0] * len(sites)))
    calls = []

    def counting(p, q, r):
        calls.append(None)
        return orientation_sign(p, q, r)

    monkeypatch.setattr(sys.modules["lunenn.geometry"], "orientation_sign", counting)
    for _ in range(50):
        q = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        sibson_weights(tri, q)
        lune_angles_oracle(tri, q)
    cells = [voronoi_cell_polygon(tri, i) for i in range(len(sites))]
    assert sum(cell.bounded for cell in cells) > 150
    assert calls == []


def test_queries_do_not_mutate():
    rng = random.Random(227)
    samples = _random_samples(rng, n=25)
    tri = build_delaunay(samples)
    before = (tri.triangles, copy.deepcopy(tri._nbrs))
    for _ in range(10):
        s = _random_interior_query(rng, samples)
        lune_angles_oracle(tri, s)
        sibson_weights(tri, s)
    for i in range(samples.size):
        voronoi_cell_polygon(tri, i)
    assert (tri.triangles, tri._nbrs) == before


def test_a_set_and_its_mesh_are_stored_compact():
    # Three neighbour slots a triangle in one flat list, the caller's site
    # pairs kept and a bucket grid in one list: on 5000 uniform sites
    # tracemalloc counts 480 B a site for the set and its mesh (Python
    # 3.11), where a 3-list per triangle, copied pairs and a grid keyed by
    # (column, row) tuples took 689 B.  The bound lies midway.
    rng = random.Random(251)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5000)]
    elevations = [0.0] * len(sites)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        samples = SampleSet(sites, elevations)
        tri = build_delaunay(samples)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tri._nbrs) == 3 * len(tri._verts)
    assert all(type(t) is int for t in tri._nbrs)
    assert used / len(sites) < 585


def _outcome(call):
    """repr of call()'s value, which pins every float bit, or its error."""
    try:
        return "value", repr(call())
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def test_query_results_do_not_depend_on_the_query_order():
    rng = random.Random(251)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(500)]
    samples = SampleSet(sites, [math.sin(3 * x) + y for x, y in sites])
    tri = build_delaunay(samples)
    mesh = copy.deepcopy({k: v for k, v in vars(tri).items() if k != "_samples"})
    far = [(1e308, 0.5), (-1.5e301, -1e308), (0.25, 2.0 ** 1020), (-1e305, 1e300)]
    queries = [(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) for _ in range(100)]
    queries += [(rng.uniform(-3, 3), rng.choice((-1, 1)) * rng.uniform(1.01, 3)) for _ in range(80)]
    for _ in range(80):
        x, y = sites[rng.randrange(len(sites))]
        queries.append((x + rng.uniform(-1e-13, 1e-13), y) if rng.random() < 0.75 else (x, y))
    queries += [rng.choice(far) for _ in range(40)]
    calls = (sibson_weights, lune_angles_oracle, lambda t, q: sibson_interpolate(t, samples.elevations, q))

    def run(order):
        return {j: [_outcome(lambda: f(tri, queries[j])) for f in calls] for j in order}

    forward = run(range(len(queries)))
    shuffled = list(range(len(queries)))
    rng.shuffle(shuffled)
    assert run(shuffled) == forward
    assert copy.deepcopy({k: v for k, v in vars(tri).items() if k != "_samples"}) == mesh
    for j in range(len(queries) - 40, len(queries)):
        assert [kind for kind, _ in forward[j]] == ["OutsideDomainError"] * 3
    kinds = {kind for outcomes in forward.values() for kind, _ in outcomes}
    assert kinds == {"value", "CoincidentQueryError", "OutsideDomainError"}


# ------------------------------------------------------- lune angle oracle


def test_oracle_square():
    tri = build_delaunay(_square())
    angles = lune_angles_oracle(tri, (0, 0))
    assert angles.indices == (0, 1, 2, 3)
    for theta in angles.angles:
        assert abs(theta - math.pi / 2) <= 1e-12


def test_oracle_hexagon():
    tri = build_delaunay(_hexagon())
    angles = lune_angles_oracle(tri, (0, 0))
    assert angles.indices == tuple(range(6))
    for theta in angles.angles:
        assert abs(theta - math.pi / 3) <= 1e-12


def test_oracle_rejects_bad_queries():
    tri = build_delaunay(_square())
    with pytest.raises(OutsideDomainError):
        lune_angles_oracle(tri, (5, 5))
    with pytest.raises(OutsideDomainError):
        lune_angles_oracle(tri, (1, 0))
    with pytest.raises(CoincidentQueryError):
        lune_angles_oracle(tri, (1, 1))
    for query in (lune_angles_oracle, sibson_weights):
        with pytest.raises(CoincidentQueryError, match="site 2$") as err:
            query(tri, (1.0, 1.0))
        assert err.value.site_index == 2
    # A site inside the hull, index 4.
    samples = SampleSet(SQUARE_SITES + [(0.0, 0.25)], [1.0, 2.0, 3.0, 4.0, 0.1])
    inner = build_delaunay(samples)
    # The exact site, -0.0 against its 0.0, and one ulp above it (snapped,
    # not a degenerate fan): the weights raise, the interpolants agree on
    # the site's value.
    for q in ((0.0, 0.25), (-0.0, 0.25), (0.0, 0.25000000000000006)):
        for query in (lune_angles_oracle, sibson_weights):
            with pytest.raises(CoincidentQueryError, match="site 4$") as err:
                query(inner, q)
            assert err.value.site_index == 4
        value = sibson_interpolate(inner, samples.elevations, q)
        assert value.hex() == (0.1).hex() == interpolate(samples, q).hex()
    for query in (lune_angles_oracle, sibson_weights):
        assert 4 in query(inner, (0.0, 0.251)).indices
    assert abs(math.fsum(sibson_weights(inner, (0.0, 0.251)).weights) - 1.0) <= 1e-12
    assert abs(lune_angles_oracle(inner, (0.0, 0.251)).total() - 2 * math.pi) <= 1e-9


def _classify_corpus():
    rng = random.Random(241)
    yield _random_samples(rng, n=25)
    # An integer lattice (collinear hull sides), a half-integer lattice
    # and a skinny set.
    yield SampleSet([(float(x), float(y)) for x in range(4) for y in range(3)], [0.0] * 12)
    yield SampleSet([(0.5 * x, 0.5 * y) for x in range(3) for y in range(4)], [0.0] * 12)
    skinny = [(rng.uniform(0, 100), rng.uniform(0, 1e-3)) for _ in range(10)]
    yield SampleSet(skinny, [0.0] * 10)
    # A cluster of sites a few ulps apart, all within the default snap of
    # one another; at unit scale their squared distances round exactly.
    ulp = 2.0 ** -53
    cluster = [(0.5 + a * ulp, 0.5 + b * ulp) for a, b in ((0, 0), (3, 1), (-2, 4), (1, -5), (7, 7))]
    yield SampleSet(SQUARE_SITES + cluster, [0.0] * 9)


def _d2(a, b):
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def test_classify_matches_classify_query(monkeypatch):
    # The virtual cavity places a query as classify_query does: it raises
    # CoincidentQueryError with the same site, OutsideDomainError on or
    # outside the hull, and returns weights inside.
    rng = random.Random(251)
    for samples in _classify_corpus():
        tri = build_delaunay(samples)
        cycles = []

        def recorded(*args, cavity=tri._cavity):
            found = cavity(*args)
            cycles.append(found[1])
            return found

        monkeypatch.setattr(tri, "_cavity", recorded)
        sites = samples.sites
        xs = [p.x for p in sites]
        ys = [p.y for p in sites]
        w, h = max(xs) - min(xs), max(ys) - min(ys)
        queries = [
            (rng.uniform(min(xs) - w, max(xs) + w), rng.uniform(min(ys) - h, max(ys) + h))
            for _ in range(60)
        ]
        corners = samples.hull
        for k, i in enumerate(corners):
            a, b = sites[i], sites[corners[(k + 1) % len(corners)]]
            # Midpoint, and extensions past either end of the hull edge.
            for t in (0.5, -0.5, 1.5):
                queries.append((a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
        for p in sites:
            for off in (0.0, 1e-16, 1e-12, 3e-12):
                q = (p.x + off, p.y - off)
                queries.append(q)
                queries.extend((q[0] + a * 1.1e-16, q[1] + b * 1.1e-16) for a, b in ((1, 2), (-3, 1)))
        for q in queries:
            try:
                kind, site = classify_query(samples, q), None
            except CoincidentQueryError as exc:
                kind, site = None, exc.site_index
            cycles.clear()
            try:
                sibson_weights(tri, q)
            except CoincidentQueryError as exc:
                assert kind is None and exc.site_index == site
            except OutsideDomainError:
                assert kind in (QueryKind.ON_BOUNDARY, QueryKind.EXTERIOR)
            else:
                assert kind is QueryKind.INTERIOR
            # The snap looks only at the sites on the cavity cycle; the
            # nearest of them is as near as the nearest of all sites.
            for cycle in cycles:
                ring = [u for u, _, _, _ in cycle if u != GHOST]
                assert min(_d2(sites[i], Point(*q)) for i in ring) == min(_d2(site, Point(*q)) for site in sites)


def test_oracle_agrees_with_inverted_hull():
    rng = random.Random(229)
    for trial in range(30):
        samples = _random_samples(rng, n=rng.randint(5, 30))
        tri = build_delaunay(samples)
        for _ in range(3):
            s = _random_interior_query(rng, samples)
            direct = lune_angles(samples, s)
            oracle = lune_angles_oracle(tri, s)
            assert direct.indices == oracle.indices
            for a, b in zip(direct.angles, oracle.angles):
                assert abs(a - b) <= 1e-9


def test_oracle_answers_a_query_on_a_thin_fan_circle():
    # The query lies 1e-8 from the site (-4, -3), so the fan circles through
    # both are thin, and a relative residual test of 1e-9 refused it.
    sites = [(float(x), float(y)) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
    samples = SampleSet(sites, [0.0] * len(sites))
    s = (-3.99999999, -3.0)
    direct = lune_angles(samples, s)
    oracle = lune_angles_oracle(build_delaunay(samples), s)
    assert direct.indices == oracle.indices and len(direct.indices) == 12
    for a, b in zip(direct.angles, oracle.angles):
        assert abs(a - b) <= 1e-9


def test_oracle_angle_sum():
    rng = random.Random(233)
    samples = _random_samples(rng, n=20)
    tri = build_delaunay(samples)
    for _ in range(20):
        s = _random_interior_query(rng, samples)
        angles = lune_angles_oracle(tri, s)
        assert abs(angles.total() - 2 * math.pi) <= 1e-9


# ----------------------------------------------------------- Sibson weights


def test_sibson_square_center():
    tri = build_delaunay(_square())
    w = sibson_weights(tri, (0, 0))
    assert w.indices == (0, 1, 2, 3)
    for weight in w.weights:
        assert abs(weight - 0.25) <= 1e-12
    assert abs(sibson_interpolate(tri, _square().elevations, (0, 0)) - 25.0) <= 1e-12


def test_sibson_weights_normalized():
    rng = random.Random(239)
    samples = _random_samples(rng, n=20)
    tri = build_delaunay(samples)
    for _ in range(30):
        s = _random_interior_query(rng, samples)
        w = sibson_weights(tri, s)
        assert abs(math.fsum(w.weights) - 1.0) <= 1e-10
        assert all(weight >= 0 for weight in w.weights)


def test_sibson_local_coordinates():
    rng = random.Random(241)
    for trial in range(10):
        samples = _random_samples(rng, n=15)
        tri = build_delaunay(samples)
        for _ in range(5):
            s = _random_interior_query(rng, samples)
            w = sibson_weights(tri, s)
            x = math.fsum(weight * samples.sites[i].x for i, weight in w.entries)
            y = math.fsum(weight * samples.sites[i].y for i, weight in w.entries)
            assert abs(x - s[0]) <= 1e-10
            assert abs(y - s[1]) <= 1e-10


def test_sibson_affine_reconstruction():
    rng = random.Random(251)
    for trial in range(10):
        sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(15)]
        z = [2 * x + 3 * y + 1 for x, y in sites]
        samples = SampleSet(sites, z)
        tri = build_delaunay(samples)
        for _ in range(5):
            s = _random_interior_query(rng, samples)
            value = sibson_interpolate(tri, samples.elevations, s)
            assert abs(value - (2 * s[0] + 3 * s[1] + 1)) <= 1e-10


def test_sibson_continuity_at_site():
    sites = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    z = [0.0, 0.0, 0.0, 0.0, 7.0]
    tri = build_delaunay(SampleSet(sites, z))
    previous = None
    for eps in (1e-2, 1e-4, 1e-6):
        value = sibson_interpolate(tri, z, (1 + eps, 1 + eps))
        error = abs(value - 7.0)
        if previous is not None:
            assert error < previous
        previous = error
    assert previous <= 1e-4


def test_sibson_rejects_bad_queries():
    tri = build_delaunay(_square())
    with pytest.raises(OutsideDomainError):
        sibson_weights(tri, (3, 3))
    with pytest.raises(OutsideDomainError):
        sibson_weights(tri, (0, 1))
    with pytest.raises(CoincidentQueryError):
        sibson_weights(tri, (-1, -1))
    with pytest.raises(ValueError):
        sibson_interpolate(tri, [1.0, 2.0], (0, 0))


def test_sibson_interpolate_rejects_non_finite_elevations():
    tri = build_delaunay(SampleSet(SQUARE_SITES + [(0, 0)], [0.0] * 5))
    nan, inf = math.nan, math.inf
    for z, q in (
        ([nan] * 5, (0.1, 0.2)),
        ([inf, 1.0, 1.0, 1.0, 1.0], (-0.5, -0.4)),
        ([1.0, 1.0, 1.0, 1.0, -inf], (0, 0)),
        ([1.0, 1.0, complex(1.0, nan), 1.0, 1.0], (1, 1)),
        # An int too large for a float, read by the blend or by the snap.
        ([1.0, 1.0, 1.0, 1.0, 10**400], (0.1, 0.2)),
        ([1.0, 1.0, 1.0, 1.0, 10**400], (0, 0)),
    ):
        with pytest.raises(DegenerateInputError, match="elevations must be finite"):
            sibson_interpolate(tri, z, q)
    # Only what the query reads is checked: (0.5, 0.1) has neighbours 1, 2, 4.
    assert sibson_interpolate(tri, [nan, 1.0, 1.0, inf, 1.0], (0.5, 0.1)) == 1.0
    assert sibson_interpolate(tri, [1, 1, 1, 10**400, 1], (0.5, 0.1)) == 1.0


def test_blend_of_the_largest_elevations_stays_finite():
    # The weights sum to one plus a few ulps, so a plain fsum of these
    # terms overflows although every convex combination is finite.
    big = 1.7976931348623157e308
    samples = SampleSet(SQUARE_SITES + [(0.1, 0.3)], [big] * 5)
    tri = build_delaunay(samples)
    rng = random.Random(239)
    for _ in range(300):
        q = (rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99))
        for value in (interpolate(samples, q), sibson_interpolate(tri, samples.elevations, q)):
            assert math.isfinite(value) and value >= big * (1 - 1e-15)
    # A complex blend takes its real and imaginary parts apart, each by
    # the real rule, so it stays finite too.
    z = [complex(big, -big)] * 5
    for _ in range(300):
        q = (rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99))
        for value in (interpolate(SampleSet(samples.sites, z), q), sibson_interpolate(tri, z, q)):
            assert math.isfinite(value.real) and value.real >= big * (1 - 1e-15)
            assert math.isfinite(value.imag) and value.imag <= -big * (1 - 1e-15)


def test_sibson_monte_carlo_light():
    import numpy as np

    rng = random.Random(257)
    samples = _random_samples(rng, n=10)
    tri = build_delaunay(samples)
    s = _random_interior_query(rng, samples)
    w = dict(sibson_weights(tri, s).entries)

    xs = np.array([p.x for p in samples.sites])
    ys = np.array([p.y for p in samples.sites])
    generator = np.random.default_rng(1)
    # Guaranteed bounding box for the virtual cell, then tighten once.
    box = _virtual_cell_box(samples.sites, s)
    for _ in range(2):
        px = generator.uniform(box[0], box[1], 120_000)
        py = generator.uniform(box[2], box[3], 120_000)
        d_sites = (px[:, None] - xs) ** 2 + (py[:, None] - ys) ** 2
        d_query = (px - s[0]) ** 2 + (py - s[1]) ** 2
        inside = d_query < d_sites.min(axis=1)
        if inside.sum() > 5000:
            break
        pad_x = 0.25 * (px[inside].max() - px[inside].min())
        pad_y = 0.25 * (py[inside].max() - py[inside].min())
        box = (
            px[inside].min() - pad_x,
            px[inside].max() + pad_x,
            py[inside].min() - pad_y,
            py[inside].max() + pad_y,
        )
    stolen = d_sites[inside].argmin(axis=1)
    total = inside.sum()
    for i in range(samples.size):
        estimate = (stolen == i).sum() / total
        assert abs(estimate - w.get(i, 0.0)) <= 2e-2


def _virtual_cell_box(sites, s):
    # The cell of s in the augmented diagram fits in the ball of radius
    # max_j |s_j - s| / (2 cos(g / 2)) where g is the widest angular gap
    # between site directions seen from s.
    angles = sorted(math.atan2(p.y - s[1], p.x - s[0]) for p in sites)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    g = max(gaps)
    assert g < math.pi
    dmax = max(math.hypot(p.x - s[0], p.y - s[1]) for p in sites)
    radius = dmax / (2 * math.cos(g / 2))
    return (s[0] - radius, s[0] + radius, s[1] - radius, s[1] + radius)


# ------------------------------------------------------------ Vorono cells


def test_voronoi_center_cell():
    sites = SQUARE_SITES + [(0, 0)]
    tri = build_delaunay(SampleSet(sites, [0.0] * 5))
    cell = voronoi_cell_polygon(tri, 4)
    assert cell.bounded
    want = {(0.0, -1.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)}
    got = {(round(p.x, 12), round(p.y, 12)) for p in cell.vertices}
    assert got == want
    # CCW order.
    vs = cell.vertices
    for k in range(len(vs)):
        a, b, c = vs[k], vs[(k + 1) % len(vs)], vs[(k + 2) % len(vs)]
        assert orientation_sign(a, b, c) == 1


def test_voronoi_hull_site_unbounded():
    tri = build_delaunay(_square())
    for i in range(4):
        cell = voronoi_cell_polygon(tri, i)
        assert not cell.bounded
        assert cell.vertices is None
        assert len(cell.ray_directions) == 2
        for d in cell.ray_directions:
            assert abs(math.hypot(d.x, d.y) - 1.0) <= 1e-12


def test_voronoi_cell_contains_site():
    rng = random.Random(263)
    for trial in range(10):
        samples = _random_samples(rng, n=20)
        tri = build_delaunay(samples)
        corners = set(convex_hull(samples.sites))
        for i in range(samples.size):
            cell = voronoi_cell_polygon(tri, i)
            if i in corners:
                assert not cell.bounded
                continue
            if cell.vertices is None:
                continue
            vs = cell.vertices
            site = samples.sites[i]
            for k in range(len(vs)):
                assert orientation_sign(vs[k], vs[(k + 1) % len(vs)], site) >= 0


def test_voronoi_cell_matches_nearest_site():
    rng = random.Random(269)
    samples = _random_samples(rng, n=15)
    tri = build_delaunay(samples)
    cells = {}
    for i in range(samples.size):
        cell = voronoi_cell_polygon(tri, i)
        if cell.bounded:
            cells[i] = cell.vertices
    for _ in range(2000):
        p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        dists = [
            (math.hypot(q.x - p[0], q.y - p[1]), i)
            for i, q in enumerate(samples.sites)
        ]
        dists.sort()
        # Skip near-ties; boundary attribution is legitimately fuzzy there.
        if dists[1][0] - dists[0][0] <= 1e-9:
            continue
        nearest = dists[0][1]
        for i, vs in cells.items():
            inside = all(
                orientation_sign(vs[k], vs[(k + 1) % len(vs)], p) > 0
                for k in range(len(vs))
            )
            if inside:
                assert i == nearest


def test_voronoi_cells_at_tiny_scale_return_finite_points_or_raise():
    # At scale 1e-200 the circumcircle determinant underflows to zero for
    # 22 of these 30 cells; the 8 hull sites return rays.
    rng = random.Random(0)
    sites = [(rng.uniform(-1, 1) * 1e-200, rng.uniform(-1, 1) * 1e-200) for _ in range(30)]
    tri = build_delaunay(SampleSet(sites, [0.0] * 30))
    for i in range(30):
        try:
            cell = voronoi_cell_polygon(tri, i)
        except DegenerateInputError:
            continue
        points = cell.vertices if cell.bounded else cell.ray_directions
        assert all(math.isfinite(t) for p in points for t in p)


def test_voronoi_cells_near_the_top_of_the_float_range_scale_or_raise():
    # Scaled by 2**1020, a cell equals the unit cell scaled alike, and
    # raises only where a scaled vertex leaves the float range.
    rng = random.Random(0)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(30)] + SQUARE_SITES
    unit = build_delaunay(SampleSet(sites, [0.0] * 34))
    tri = build_delaunay(SampleSet([(math.ldexp(x, 1020), math.ldexp(y, 1020)) for x, y in sites], [0.0] * 34))
    bounded = 0
    for i in range(34):
        cell = voronoi_cell_polygon(unit, i)
        scaled = [Point(x * 2.0 ** 1020, y * 2.0 ** 1020) for x, y in cell.vertices or ()]
        if not all(math.isfinite(t) for p in scaled for t in p):
            with pytest.raises(DegenerateInputError, match="Voronoi vertex left the float range"):
                voronoi_cell_polygon(tri, i)
            continue
        bounded += cell.bounded
        assert voronoi_cell_polygon(tri, i) == (VoronoiCell(i, tuple(scaled), None) if cell.bounded else cell)
    assert bounded > 20


def test_voronoi_rays_of_hull_edges_longer_than_the_float_range():
    # Each hull edge of this square is 2e308 long: its difference overflows.
    big = [(-1e308, -1e308), (1e308, -1e308), (1e308, 1e308), (-1e308, 1e308), (0.5, 0.25)]
    tri = build_delaunay(SampleSet(big, [0.0] * 5))
    unit = build_delaunay(SampleSet(SQUARE_SITES + [(0.5, 0.25)], [0.0] * 5))
    for i in range(4):
        assert voronoi_cell_polygon(tri, i) == voronoi_cell_polygon(unit, i)


def test_voronoi_rejects_bad_site_index():
    tri = build_delaunay(_square())
    for bad in (1.5, "4", -1, 4, None, True, False):
        with pytest.raises(PreconditionError, match="site index"):
            voronoi_cell_polygon(tri, bad)


def test_voronoi_rays_outward_normals():
    rng = random.Random(271)
    samples = _random_samples(rng, n=12)
    tri = build_delaunay(samples)
    corners = convex_hull(samples.sites)
    centroid_x = math.fsum(p.x for p in samples.sites) / samples.size
    centroid_y = math.fsum(p.y for p in samples.sites) / samples.size
    for k, i in enumerate(corners):
        cell = voronoi_cell_polygon(tri, i)
        assert not cell.bounded
        prev = samples.sites[corners[k - 1]]
        here = samples.sites[i]
        nxt = samples.sites[corners[(k + 1) % len(corners)]]
        for ray, (a, b) in zip(cell.ray_directions, ((prev, here), (here, nxt))):
            ex, ey = b.x - a.x, b.y - a.y
            # Perpendicular to the hull edge, pointing away from the sites.
            assert abs(ray.x * ex + ray.y * ey) <= 1e-9 * math.hypot(ex, ey)
            mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
            outward = (mid.x - centroid_x) * ray.x + (mid.y - centroid_y) * ray.y
            assert outward > 0


_LIBRARY_ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)


@pytest.mark.parametrize("lie", ["negative", "positive", "zero", "flipped", "random"])
def test_broken_orientation_raises_a_library_error(monkeypatch, lie):
    # A mesh invariant broken by a lying predicate surfaces as an error
    # from lunenn.errors, never as AssertionError, IndexError or KeyError.
    # The walk asks orientation_sign at every step, and an infinite filter
    # bound sends every cavity decision to the exact route, so the liar
    # decides each orientation the mesh asks for.
    monkeypatch.setattr(predicates, "_INCIRCLE_BOUND", math.inf)
    rng = random.Random(241)
    liar = {
        "negative": lambda p, q, r: -1,
        "positive": lambda p, q, r: 1,
        "zero": lambda p, q, r: 0,
        "flipped": lambda p, q, r: -orientation_sign(p, q, r),
        "random": lambda p, q, r: rng.choice((-1, 0, 1)),
    }[lie]
    for _ in range(8):
        samples = _random_samples(rng, n=rng.randint(5, 40))
        with monkeypatch.context() as patch:
            patch.setattr(delaunay, "orientation_sign", liar)
            try:
                build_delaunay(samples)
            except _LIBRARY_ERRORS:
                pass
        tri = build_delaunay(samples)
        with monkeypatch.context() as patch:
            patch.setattr(delaunay, "orientation_sign", liar)
            for _ in range(5):
                q = (rng.uniform(-1, 1), rng.uniform(-1, 1))
                for query in (
                    lambda: sibson_interpolate(tri, samples.elevations, q),
                    lambda: lune_angles_oracle(tri, q),
                ):
                    try:
                        query()
                    except _LIBRARY_ERRORS:
                        pass


@pytest.mark.parametrize("lie", ["negative", "positive", "zero", "flipped", "random"])
def test_broken_incircle_raises_a_library_error(monkeypatch, lie):
    # A lying in-circle test can grow a cavity round a vertex or pinch its
    # boundary; the cavity tour then meets a triangle or a vertex twice and
    # raises, so Sibson never reads an interior cavity vertex.  Builds and
    # queries (Sibson, the oracle, a lune query on the mesh) answer or raise
    # an error from lunenn.errors.  "positive" puts every finite triangle
    # in the cavity, round every interior site, so no query on a set with
    # one is answered.
    rng = random.Random(241)
    liar = {
        "negative": lambda p, q, r, t: -1,
        "positive": lambda p, q, r, t: 1,
        "zero": lambda p, q, r, t: 0,
        "flipped": lambda p, q, r, t: -incircle_sign_unchecked(p, q, r, t),
        "random": lambda p, q, r, t: rng.choice((-1, 0, 1)),
    }[lie]
    for _ in range(20):
        samples = _random_samples(rng, n=rng.randint(5, 60))
        with monkeypatch.context() as patch:
            patch.setattr(delaunay, "incircle_sign_unchecked", liar)
            try:
                build_delaunay(samples)
            except _LIBRARY_ERRORS:
                pass
        tri = samples._mesh = build_delaunay(samples)
        interior_site = len(convex_hull(samples.sites)) < samples.size
        with monkeypatch.context() as patch:
            patch.setattr(delaunay, "incircle_sign_unchecked", liar)
            for _ in range(5):
                q = (rng.uniform(-1, 1), rng.uniform(-1, 1))
                for query in (
                    lambda: sibson_interpolate(tri, samples.elevations, q),
                    lambda: lune_angles_oracle(tri, q),
                    lambda: interpolate(samples, q),
                ):
                    try:
                        query()
                    except _LIBRARY_ERRORS:
                        continue
                    assert lie != "positive" or not interior_site


def test_each_mesh_check_still_fires(monkeypatch):
    # Each invariant check of the walk and the cavity tour is reached by a
    # fixed liar, on the build, on Sibson queries and on lune queries on a
    # set that holds its mesh: a check that a rewrite of the kernel made
    # unreachable, or that raises another error, shows here.  Every query
    # raises a library error or answers, and each set reaches the message
    # at least once with each kind of query.
    cases = [
        ("orientation_sign", lambda p, q, r: 1, "located triangle does not hold the point", True),
        ("incircle_sign_unchecked", lambda p, q, r, t: -1, "located triangle does not hold the point", True),
        ("incircle_sign_unchecked", lambda p, q, r, t: 1, "cavity is not a disk", True),
        ("orientation_sign", lambda p, q, r: -1, "point location did not terminate", False),
    ]
    rng = random.Random(331)
    for _ in range(4):
        samples = _random_samples(rng, n=30)
        tri = samples._mesh = build_delaunay(samples)
        queries = [_random_interior_query(rng, samples) for _ in range(6)]
        for name, liar, message, on_build in cases:
            with monkeypatch.context() as patch:
                patch.setattr(delaunay, name, liar)
                if on_build:
                    with pytest.raises(DegenerateInputError, match=message):
                        build_delaunay(samples)
                for kind, query in (
                    ("sibson", lambda q: sibson_interpolate(tri, samples.elevations, q)),
                    ("lune", lambda q: interpolate(samples, q)),
                ):
                    reached = 0
                    for q in queries:
                        try:
                            query(q)
                        except _LIBRARY_ERRORS as exc:
                            reached += message in str(exc)
                    assert reached, (kind, name, message)


# ------------------------------------------------------ pinned mesh views


#: SHA-256 of the views below: any change to the triangle layout, the view
#: order or the Voronoi cells shows here.
MESH_VIEWS_DIGEST = "af6df1ffb26bcc9a207c3e58269404942ff0bff9e96db91fa8ab45eca2a1d509"


def _mesh_views_corpus():
    rng = random.Random(281)
    for n in (8, 25, 60, 150):
        yield _random_samples(rng, n=n).sites
    yield [(x, y) for x in range(6) for y in range(5)]
    yield [(x + 0.5, 0.5 * y) for x in range(5) for y in range(7)]
    # Collinear hull runs on all four sides, an interior run and a stray.
    yield (
        [(x, 0) for x in range(5)] + [(4, y) for y in range(1, 4)]
        + [(x, 3) for x in range(3, -1, -1)] + [(0, y) for y in (2, 1)]
        + [(1, 1.5), (2, 1.5), (3, 1.5), (2.5, 0.75)]
    )


def test_mesh_views_digest():
    # triangles, neighbors and every Voronoi cell, as float hex, pinned
    # bit for bit: the output fingerprint covers only query results.
    digest = hashlib.sha256()
    for sites in _mesh_views_corpus():
        tri = build_delaunay(SampleSet(sites, [0.0] * len(sites)))
        digest.update(repr((tri.triangles, _neighbors(tri.triangles))).encode())
        for i in range(len(sites)):
            cell = voronoi_cell_polygon(tri, i)
            points = cell.vertices if cell.bounded else cell.ray_directions
            text = " ".join("%s,%s" % (p.x.hex(), p.y.hex()) for p in points)
            digest.update(("%d %d %s;" % (i, cell.bounded, text)).encode())
    assert digest.hexdigest() == MESH_VIEWS_DIGEST
