"""Delaunay triangulation structure, the circumcircle lune-angle oracle,
Sibson stolen-area weights, and Vorono-cell extraction.

Structural checks go through brute force: every triangle's circumcircle
is tested against every site, and triangle counts are compared with the
Euler relation T = 2n - 2 - h.
"""

import math
import random

import pytest

from lunenn import (
    CoincidentQueryError,
    OutsideDomainError,
    Point,
    QueryKind,
    SampleSet,
    build_delaunay,
    classify_query,
    convex_hull,
    interpolate,
    lune_angles,
    lune_angles_oracle,
    orientation_sign,
    sibson_interpolate,
    sibson_weights,
    voronoi_cell_polygon,
)
from lunenn.delaunay import GHOST
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
        if classify_query(samples, s).kind is QueryKind.INTERIOR:
            return s


def _check_structure(samples, tri):
    sites = samples.sites
    triangles = tri.triangles
    neighbors = tri.neighbors
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
        assert again.neighbors == first.neighbors
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
    assert a.neighbors == b.neighbors


def test_queries_do_not_mutate():
    rng = random.Random(227)
    samples = _random_samples(rng, n=25)
    tri = build_delaunay(samples)
    before = (tri.triangles, tri.neighbors)
    for _ in range(10):
        s = _random_interior_query(rng, samples)
        lune_angles_oracle(tri, s)
        sibson_weights(tri, s)
    for i in range(samples.size):
        voronoi_cell_polygon(tri, i)
    assert (tri.triangles, tri.neighbors) == before


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


def test_classify_matches_classify_query():
    rng = random.Random(251)
    for samples in _classify_corpus():
        tri = build_delaunay(samples)
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
            cls, p, _, cycle = tri._place(q)
            assert cls == classify_query(samples, q)
            if cycle is None:
                continue
            # The snap looks only at the sites on the cavity cycle; the
            # nearest of them is as near as the nearest of all sites.
            ring = [u for u, _, _, _ in cycle if u != GHOST]
            assert min(_d2(sites[i], p) for i in ring) == min(_d2(site, p) for site in sites)


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
