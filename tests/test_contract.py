"""The public contract on hard inputs: every call returns a finite value
or raises an exception from lunenn.errors.

Near-coincident, cocircular, all-but-one-collinear and huge-range site
sets, queried inside, near a site, on an edge, past the hull and far
away, through interpolate(allow_exterior=True), lune_angles,
sibson_interpolate, lune_angles_oracle and voronoi_cell_polygon.  The
lune calls run on each set twice: ring by ring, and with the mesh that
names their candidates.  With the mesh, and ring by ring on a fresh
set, interpolate must also classify each query as classify_query does,
and a fresh set must count no ring miss for a query it refuses.  Every
answer of lune_angles, and every one that interpolate weighs, must keep
the promises of LuneAngleSet and WeightVector.  A library error that
reports a broken mesh invariant is a bug, never a permitted outcome,
whether the build or a call raises it.
"""

import math
import random
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lunenn import (
    SampleSet,
    build_delaunay,
    errors,
    interpolate,
    lune_angles,
    lune_angles_oracle,
    sibson_interpolate,
    voronoi_cell_polygon,
    weights_from_angles,
)
from lunenn.interpolate import QueryKind, classify_query

LIBRARY_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))
# lunenn.interpolate names the function; interpolate reads weights_from_angles from the module.
INTERPOLATE = sys.modules["lunenn.interpolate"]


def _sites(kind, rng):
    if kind == "near-coincident":
        base = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.choice((4, 12, 30)))]
        near = []
        for x, y in base[: rng.randint(1, len(base))]:
            steps = rng.choice((1, 2, 1e3, 1e6))
            near.append((x + steps * math.ulp(x) * rng.choice((-1, 1)), y + steps * math.ulp(y) * rng.choice((-1, 0, 1))))
        return base + near
    if kind == "cocircular":
        # Integer points on x^2 + y^2 = r^2, exactly cocircular, with the
        # centre or an integer lattice inside some of the time.
        r = rng.choice((5, 25, 65))
        sites = [(float(x), float(y)) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y == r * r]
        if rng.random() < 0.5:
            sites.append((0.0, 0.0))
        if rng.random() < 0.3:
            sites += [(float(x), float(y)) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
        return sites
    if kind == "collinear-but-one":
        slope = rng.choice((0.0, 1.0, 0.125, rng.uniform(-3, 3)))
        sites = [(float(x), slope * x) for x in range(rng.choice((3, 10, 40)))]
        x = rng.uniform(0, len(sites))
        gap = rng.choice((1.0, 1e-6, 1e-12, 1e-100))
        return sites + [(x, slope * x + rng.choice((-1, 1)) * gap)]
    # Huge range: magnitudes from near the bottom to near the top of the
    # float range, in one set or across a set scaled as a whole.
    if rng.random() < 0.5:
        scale = 10.0 ** rng.choice((-300, -150, 150, 300, 307))
        return [(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale) for _ in range(rng.choice((5, 20)))]
    return [
        (rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300), rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300))
        for _ in range(rng.choice((5, 20)))
    ]


def _queries(rng, sites):
    xs = [x for x, _ in sites]
    ys = [y for _, y in sites]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    for _ in range(2):
        yield rng.uniform(x0, x1), rng.uniform(y0, y1)
    a, b = rng.choice(sites), rng.choice(sites)
    yield a
    yield a[0] + rng.choice((1e-13, 1e-9)) * (x1 - x0), a[1]
    yield 0.5 * a[0] + 0.5 * b[0], 0.5 * a[1] + 0.5 * b[1]
    yield x1 + rng.uniform(0, 2) * (x1 - x0), rng.uniform(y0, y1)
    yield rng.choice((-1e300, 1e300)), rng.choice((-1.0, 1e300))


def _finite(value):
    if isinstance(value, complex):
        return math.isfinite(value.real) and math.isfinite(value.imag)
    return math.isfinite(value)


def _permitted(exc):
    """Whether exc, a library error, is one a hard input may raise: any
    but a broken mesh invariant."""
    return not str(exc).startswith("mesh invariant broken")


def _holds(call):
    """Whether call() returns finite numbers or raises a permitted library error."""
    try:
        result = call()
    except LIBRARY_ERRORS as exc:
        return _permitted(exc)
    if hasattr(result, "entries"):
        return all(_finite(a) for _, a in result.entries)
    if hasattr(result, "bounded"):
        points = result.vertices if result.bounded else result.ray_directions
        return all(_finite(t) for p in points for t in p)
    return _finite(result)


def _answer(call):
    """call()'s result, or None where it raises a permitted library error."""
    try:
        return call()
    except LIBRARY_ERRORS as exc:
        assert _permitted(exc), exc
        return None


def _broken_promises(angles, weights):
    """What angles, a LuneAngleSet, and weights, the WeightVector made of
    it (None where two angles near pi leave none), break of their
    promises: angles in (0, pi] whose fsum lies within one ulp of 2*pi
    per angle, weights >= 0 whose fsum lies within one ulp of 1 per weight."""
    broken = []
    thetas = angles.angles
    if not all(0.0 < theta <= math.pi for theta in thetas):
        broken.append("angle outside (0, pi]")
    if abs(math.fsum(thetas) - 2 * math.pi) > len(thetas) * math.ulp(2 * math.pi):
        broken.append("angles do not sum to 2*pi")
    ws = () if weights is None else weights.weights
    if not all(w >= 0.0 for w in ws):
        broken.append("negative weight")
    if weights is not None and abs(math.fsum(ws) - 1.0) > len(ws) * math.ulp(1.0):
        broken.append("weights do not sum to 1")
    return broken


@settings(max_examples=60, deadline=None, derandomize=True)
@example(kind="cocircular", seed=0)
@example(kind="huge-range", seed=1)
# Sibson's stolen areas overflow: they once raised ZeroDivisionError.
@example(kind="huge-range", seed=15)
@given(
    kind=st.sampled_from(("near-coincident", "cocircular", "collinear-but-one", "huge-range")),
    seed=st.integers(0, 2**32),
)
def test_every_public_call_returns_a_finite_value_or_a_library_error(kind, seed):
    rng = random.Random(seed)
    sites = _sites(kind, rng)
    queries = list(_queries(rng, sites))
    z = [rng.choice((rng.uniform(-1, 1), 1.7e308, complex(-1e308, rng.uniform(-1, 1)))) for _ in sites]
    try:
        samples = SampleSet(sites, z)
        tri = build_delaunay(samples)
    except LIBRARY_ERRORS as exc:
        assert _permitted(exc), exc
        return
    for q in queries:
        assert _holds(lambda: sibson_interpolate(tri, z, q)), q
        assert _holds(lambda: lune_angles_oracle(tri, q)), q
    for i in range(samples.size):
        assert _holds(lambda: voronoi_cell_polygon(tri, i)), i
    # Every LuneAngleSet that lune_angles returns, and every one that
    # interpolate weighs, with the WeightVector made of it.
    answers = []

    def weigh(angles, weight_fn):
        answers.append((angles, weights_from_angles(angles, weight_fn)))
        return answers[-1][1]

    INTERPOLATE.weights_from_angles = weigh
    try:
        # Ring by ring first, then from the mesh.
        for mesh in (None, tri):
            samples._mesh = mesh
            for q in queries:
                assert _holds(lambda: interpolate(samples, q, allow_exterior=True)), (mesh, q)
                angles = _answer(lambda: lune_angles(samples, q))
                assert angles is None or _holds(lambda: angles), (mesh, q)
                if angles is not None:
                    answers.append((angles, _answer(lambda: weights_from_angles(angles))))
        # The mesh, and the rings of a fresh set without one, classify as
        # classify_query does.  Which site a coincident query snaps to is left
        # open: on huge-range sets two sites can have bit-equal squared
        # distances within the snap radius.  The rings refuse a query before
        # they count a miss; an error after them (a query on the segment
        # between two sites) may count one.
        for q in queries:
            try:
                kind = classify_query(samples, q)
            except errors.CoincidentQueryError:
                kind = None
            for subject in (samples, SampleSet(sites, z)):
                try:
                    value, error = interpolate(subject, q), None
                except LIBRARY_ERRORS as exc:
                    assert _permitted(exc), exc
                    error = exc
                assert (kind is QueryKind.EXTERIOR) == isinstance(error, errors.OutsideDomainError), (kind, q, error)
                on_boundary = isinstance(error, errors.DegenerateBoundaryError) and str(error).endswith("hull boundary")
                assert (kind is QueryKind.ON_BOUNDARY) == on_boundary, (kind, q, error)
                if kind is None:
                    assert error is None and value in samples.elevations, (q, error)
                if subject is not samples and (on_boundary or isinstance(error, errors.OutsideDomainError)):
                    assert subject._misses == 0 and subject._mesh is None, (q, error)
    finally:
        INTERPOLATE.weights_from_angles = weights_from_angles
    for angles, weights in answers:
        assert not _broken_promises(angles, weights), (angles, weights, _broken_promises(angles, weights))


def _outcome(call):
    """call()'s result, or the type, text and site index of the library error it raises."""
    try:
        return call()
    except LIBRARY_ERRORS as exc:
        return type(exc).__name__, str(exc), getattr(exc, "site_index", None)


def test_interior_mesh_queries_match_hulling_their_cavity_cycle(monkeypatch):
    # An interior mesh query takes its cycle images, in cycle order, as the
    # corners where every three in a row turn strictly left and they wind
    # once, and hulls them otherwise.  Either way lune_angles answers as
    # hulling the cycle sites does, bit for bit, errors included; the slice
    # takes both ways.
    hull = INTERPOLATE.convex_hull
    hulled = []
    monkeypatch.setattr(INTERPOLATE, "convex_hull", lambda points: hulled.append(len(points)) or hull(points))
    ways = []
    for kind in ("near-coincident", "cocircular", "collinear-but-one", "huge-range"):
        for seed in range(60):
            rng = random.Random(seed)
            sites = _sites(kind, rng)
            try:
                samples = SampleSet(sites, [0.0] * len(sites))
                samples._mesh = build_delaunay(samples)
            except LIBRARY_ERRORS as exc:
                assert _permitted(exc), exc
                continue
            for q in _queries(rng, sites):
                p = samples._frame(q)
                try:
                    where, _, cycle, _ = samples._mesh._place(p, False)
                except errors.CoincidentQueryError:
                    continue
                if where is not QueryKind.INTERIOR:
                    continue
                hulled.clear()
                answer = _outcome(lambda: lune_angles(samples, q))
                ways.append(bool(hulled))
                cycle_sites = {u for u, _, _, _ in cycle}
                assert answer == _outcome(lambda: INTERPOLATE._lune_angles(samples, p, [(cycle_sites, None)])), (kind, seed, q)
    assert ways.count(False) > ways.count(True) > 0, (ways.count(False), ways.count(True))
