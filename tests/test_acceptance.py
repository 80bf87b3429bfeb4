"""End-to-end acceptance checks for the released interpolator.

Each test covers one acceptance criterion and prints exactly one
verdict line (run pytest with -s to see them all).  Tolerances and
runtime budgets are part of the criteria, not implementation hints.
"""
import math
import random
import time

import numpy as np

from lunenn.delaunay import build_delaunay, lune_angles_oracle, sibson_weights
from lunenn.experiments import (
    HARMONIC_FUNCTIONS,
    experiment_harmonic,
    experiment_invariance,
)
from lunenn.geometry import Point
from lunenn.hull import convex_hull, turning_angles
from lunenn.interpolate import (
    QueryKind,
    SampleSet,
    WeightFunction,
    classify_query,
    interpolate,
    lune_angles,
    weights_from_angles,
)
from lunenn.predicates import incircle_sign_unchecked, orientation_sign


def _verdict(number, label, ok, detail):
    print("criterion %d (%s): %s  [%s]" % (number, label, "PASS" if ok else "FAIL", detail))
    return ok


def _random_samples(rng, n):
    """n distinct sites in [-1,1]^2 with random elevations."""
    while True:
        sites = []
        seen = set()
        while len(sites) < n:
            p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if p not in seen:
                seen.add(p)
                sites.append(p)
        try:
            return SampleSet(sites, [rng.uniform(0.0, 10.0) for _ in sites])
        except Exception:
            continue


def _interior_query(rng, samples):
    while True:
        q = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if classify_query(samples, q) is QueryKind.INTERIOR:
            return q


def test_angle_sum():
    # 100 random instances: the lune angles around an interior query
    # always add up to one full turn.
    start = time.perf_counter()
    rng = random.Random(1)
    worst = 0.0
    for _ in range(100):
        samples = _random_samples(rng, 20)
        q = _interior_query(rng, samples)
        total = math.fsum(theta for _, theta in lune_angles(samples, q).entries)
        worst = max(worst, abs(total - 2.0 * math.pi))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _verdict(1, "angle sum", ok, "worst %.3g, %.2fs" % (worst, elapsed))


def test_moebius_invariance():
    # Interpolate-then-map equals map-then-interpolate, and the lune
    # angles themselves survive the map, across 50 random conformal and
    # anticonformal transformations.
    start = time.perf_counter()
    report = experiment_invariance(seed=7, trials=50)
    elapsed = time.perf_counter() - start
    deviation = max(row[1] for row in report.rows)
    mismatch = max(row[2] for row in report.rows)
    ok = (
        report.passed
        and deviation <= 1e-8
        and mismatch <= 1e-8
        and elapsed < 5.0
    )
    assert _verdict(
        2,
        "map invariance",
        ok,
        "deviation %.3g, angle mismatch %.3g, %.2fs" % (deviation, mismatch, elapsed),
    )


def test_oracle_equivalence():
    # The inverted-hull angles and the virtual-insertion circumcircle
    # angles are two routes to the same quantity: identical neighbor
    # sets, angles within 1e-9, on 100 random instances.
    start = time.perf_counter()
    rng = random.Random(3)
    worst = 0.0
    index_mismatches = 0
    for _ in range(100):
        samples = _random_samples(rng, rng.randint(5, 25))
        q = _interior_query(rng, samples)
        direct = dict(lune_angles(samples, q).entries)
        oracle = dict(lune_angles_oracle(build_delaunay(samples), q).entries)
        if set(direct) != set(oracle):
            index_mismatches += 1
            continue
        worst = max(worst, max(abs(direct[i] - oracle[i]) for i in direct))
    elapsed = time.perf_counter() - start
    ok = index_mismatches == 0 and worst <= 1e-9 and elapsed < 5.0
    assert _verdict(
        3,
        "oracle equivalence",
        ok,
        "index mismatches %d, worst %.3g, %.2fs" % (index_mismatches, worst, elapsed),
    )


def test_harmonic_reconstruction():
    # Denser and denser circles of samples drive both the interpolant
    # and the normalized angle-weighted average toward the true
    # harmonic value, ending at 1e-3 or better.
    assert abs(HARMONIC_FUNCTIONS["re_z2"](0.3, 0.2) - 0.05) <= 1e-15
    assert abs(HARMONIC_FUNCTIONS["im_z3"](0.3, 0.2) - 0.046) <= 1e-15
    assert abs(HARMONIC_FUNCTIONS["log_shift"](0.5, 0.0) - math.log(1.5)) <= 1e-15
    start = time.perf_counter()
    finals = []
    all_ok = True
    for function_id in ("re_z2", "im_z3", "log_shift"):
        report = experiment_harmonic(0, function_id=function_id)
        all_ok = all_ok and report.passed
        finals.append("%s %.2g/%.2g" % (function_id, report.rows[-1][1], report.rows[-1][2]))
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 5.0
    assert _verdict(
        4,
        "harmonic reconstruction",
        ok,
        "final errors %s, %.2fs" % ("; ".join(finals), elapsed),
    )


def test_interpolation_and_continuity():
    # Hitting a site exactly returns its elevation bit for bit, and a
    # query one part in 1e9 of the diagonal away moves the value by at
    # most 1e-6 of the elevation range.  Snapping is disabled so the
    # nearby queries really interpolate.
    rng = random.Random(5)
    exact_misses = 0
    worst = 0.0
    for _ in range(100):
        samples = _random_samples(rng, rng.randint(5, 20))
        i = rng.randrange(len(samples.sites))
        site = samples.sites[i]
        if interpolate(samples, site) != samples.elevations[i]:
            exact_misses += 1
        cx = math.fsum(p.x for p in samples.sites) / len(samples.sites)
        cy = math.fsum(p.y for p in samples.sites) / len(samples.sites)
        nx, ny = cx - site.x, cy - site.y
        norm = math.hypot(nx, ny)
        if norm < 1e-12:
            nx, ny, norm = 1.0, 0.0, 1.0
        d = 1e-9 * samples.diagonal
        q = Point(site.x + d * nx / norm, site.y + d * ny / norm)
        if classify_query(samples, q) is not QueryKind.INTERIOR:
            continue
        value = interpolate(samples, q)
        spread = max(samples.elevations) - min(samples.elevations)
        worst = max(worst, abs(value - samples.elevations[i]) / spread)
    ok = exact_misses == 0 and worst <= 1e-6
    assert _verdict(
        5,
        "interpolation and continuity",
        ok,
        "exact misses %d, near deviation %.3g" % (exact_misses, worst),
    )


def _virtual_cell_radius(sites, q):
    """Radius of a disk certain to contain the cell the query would
    carve out of the diagram: every cell point x satisfies
    |x - q| <= |s_j - q| / (2 cos(g / 2)) for the best-aligned site,
    where g is the widest angular gap between site directions."""
    dirs = sorted(math.atan2(p[1] - q.y, p[0] - q.x) for p in sites)
    gaps = [b - a for a, b in zip(dirs, dirs[1:])]
    gaps.append(dirs[0] + 2.0 * math.pi - dirs[-1])
    g = max(gaps)
    if g >= math.pi:
        return None
    dmax = max(math.hypot(p[0] - q.x, p[1] - q.y) for p in sites)
    return dmax / (2.0 * math.cos(g / 2.0))


def _monte_carlo_weights(sites, q, rng_np, draws=1_000_000):
    """Stolen-area fractions by rejection sampling: draw points, keep
    those nearer to q than to every site, bin them by old owner."""
    pts = np.array(sites)
    qv = np.array([q.x, q.y])
    radius = _virtual_cell_radius(sites, q)
    if radius is None:
        return None
    lo, hi = qv - radius, qv + radius
    # Locator round: shrink the box to the cell's bounding box.
    probe = rng_np.uniform(lo, hi, size=(draws // 5, 2))
    d2q = ((probe - qv) ** 2).sum(axis=1)
    d2s = ((probe[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    inside = probe[d2q < d2s]
    if len(inside) == 0:
        return None
    pad = 0.05 * (inside.max(axis=0) - inside.min(axis=0))
    lo, hi = inside.min(axis=0) - pad, inside.max(axis=0) + pad
    sample = rng_np.uniform(lo, hi, size=(draws, 2))
    d2q = ((sample - qv) ** 2).sum(axis=1)
    all_d2 = ((sample[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    keep = d2q < all_d2.min(axis=1)
    if not keep.any():
        return None
    owners = all_d2.argmin(axis=1)[keep]
    counts = np.bincount(owners, minlength=len(sites))
    return counts / counts.sum()


def test_sibson_fidelity():
    # Stolen-area weights reproduce affine data exactly, average the
    # sites back to the query, and agree with a million-point
    # Monte-Carlo estimate of the stolen areas.
    start = time.perf_counter()
    rng = random.Random(6)
    worst_affine = 0.0
    worst_local = 0.0
    checked = 0
    while checked < 100:
        samples = _random_samples(rng, rng.randint(6, 18))
        tri = build_delaunay(samples)
        affine = [2.0 * p.x + 3.0 * p.y + 1.0 for p in samples.sites]
        for _ in range(10):
            q = _interior_query(rng, samples)
            try:
                w = sibson_weights(tri, q)
            except Exception:
                continue
            value = math.fsum(weight * affine[i] for i, weight in w.entries)
            worst_affine = max(worst_affine, abs(value - (2.0 * q.x + 3.0 * q.y + 1.0)))
            sx = math.fsum(weight * samples.sites[i].x for i, weight in w.entries)
            sy = math.fsum(weight * samples.sites[i].y for i, weight in w.entries)
            worst_local = max(worst_local, math.hypot(sx - q.x, sy - q.y))
            checked += 1
            if checked == 100:
                break
    rng = random.Random(66)
    rng_np = np.random.default_rng(66)
    worst_mc = 0.0
    for _ in range(10):
        samples = _random_samples(rng, rng.randint(6, 14))
        sites = [(p.x, p.y) for p in samples.sites]
        tri = build_delaunay(samples)
        while True:
            q = _interior_query(rng, samples)
            try:
                w = sibson_weights(tri, q)
            except Exception:
                continue
            estimate = _monte_carlo_weights(sites, q, rng_np)
            if estimate is not None:
                break
        full = [0.0] * len(sites)
        for i, weight in w.entries:
            full[i] = weight
        worst_mc = max(worst_mc, max(abs(full[i] - estimate[i]) for i in range(len(sites))))
    elapsed = time.perf_counter() - start
    ok = (
        worst_affine <= 1e-10
        and worst_local <= 1e-10
        and worst_mc <= 2e-2
        and elapsed < 30.0
    )
    assert _verdict(
        6,
        "stolen-area weights",
        ok,
        "affine %.3g, local %.3g, monte-carlo %.3g, %.2fs"
        % (worst_affine, worst_local, worst_mc, elapsed),
    )


def test_symmetric_cases():
    # Square corners and a regular hexagon seen from the center: equal
    # angles (quarter and sixth turns), uniform weights, and the square
    # elevations (10, 20, 30, 40) average to 25.
    square = SampleSet(
        [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)],
        [10.0, 20.0, 30.0, 40.0],
    )
    hexagon = SampleSet(
        [
            (math.cos(k * math.pi / 3.0), math.sin(k * math.pi / 3.0))
            for k in range(6)
        ],
        [1.0] * 6,
    )
    center = Point(0.0, 0.0)
    worst = 0.0
    for samples, expected in ((square, math.pi / 2.0), (hexagon, math.pi / 3.0)):
        angles = lune_angles(samples, center)
        worst = max(worst, max(abs(theta - expected) for _, theta in angles.entries))
        weights = weights_from_angles(angles, WeightFunction.TAN_HALF)
        uniform = 1.0 / len(samples.sites)
        worst = max(worst, max(abs(w - uniform) for _, w in weights.entries))
    value = interpolate(square, center)
    ok = worst <= 1e-12 and value == 25.0
    assert _verdict(
        7,
        "symmetric cases",
        ok,
        "worst deviation %.3g, square value %r" % (worst, value),
    )


def _structural_violations(points):
    """Count broken invariants: non-ccw triangles, sites strictly inside
    some circumcircle, and hull corner triples that fail to turn left."""
    samples = SampleSet(points, [0.0] * len(points))
    tri = build_delaunay(samples)
    bad = 0
    for t in tri.triangles:
        a, b, c = (points[i] for i in t)
        if orientation_sign(a, b, c) != 1:
            bad += 1
        for j, p in enumerate(points):
            if j not in t and incircle_sign_unchecked(a, b, c, p) > 0:
                bad += 1
    hull = convex_hull(points)
    m = len(hull)
    for i in range(m):
        a = points[hull[i]]
        b = points[hull[(i + 1) % m]]
        c = points[hull[(i + 2) % m]]
        if orientation_sign(a, b, c) != 1:
            bad += 1
    return bad


def test_predicate_robustness():
    # Grids are maximally degenerate: every cell is cocircular and every
    # row collinear.  Exact arithmetic plus tie-breaking must keep the
    # structures valid for perturbations from zero down to 1e-14.
    start = time.perf_counter()
    rng = random.Random(8)
    violations = 0
    for k in (3, 4, 5):
        for eps in (0.0, 1e-14, 1e-12, 1e-10):
            points = [
                (x + rng.uniform(-eps, eps), y + rng.uniform(-eps, eps))
                for x in range(k)
                for y in range(k)
            ]
            violations += _structural_violations(points)
    for eps in (1e-14, 1e-12):
        points = [(float(x), rng.uniform(-eps, eps)) for x in range(12)]
        points += [(5.5, 3.0), (6.5, -2.0)]
        violations += _structural_violations(points)
    elapsed = time.perf_counter() - start
    ok = violations == 0
    assert _verdict(
        8,
        "predicate robustness",
        ok,
        "violations %d, %.2fs" % (violations, elapsed),
    )
