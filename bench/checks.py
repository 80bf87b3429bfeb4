"""Independent checks of a benchmark run's outputs.

    python3 bench/checks.py --workload W --seed N --dir RUN_DIR --trace 0|1

Runs after the measured processes have exited, in a process of its own,
because it imports numpy and scipy.  Expected values come from scipy's
Delaunay triangulation, closed-form elevations and the benchmark's own
formulas; lunenn is called here only to produce outputs that the timed
run does not (the lune angles of checked queries, and values on inverted
inputs).  Prints one JSON line: {"correct": bool, "problems": [...]}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

import numpy as np
from scipy.spatial import ConvexHull, Delaunay

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ANGLE_TOL = 1e-9
VALUE_TOL = 1e-9
INVARIANCE_TOL = 1e-8


def _values(run_dir, name="values.f64"):
    return np.fromfile(os.path.join(run_dir, name), dtype=np.float64)


def _circumcenter(a, b, c):
    ax, ay = a
    bx, by = b[0] - ax, b[1] - ay
    cx, cy = c[0] - ax, c[1] - ay
    d = 2.0 * (bx * cy - by * cx)
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    return (ax + (cy * b2 - by * c2) / d, ay + (bx * c2 - cx * b2) / d)


def natural_neighbour_angles(sites, q):
    """Natural neighbours of q from scipy's Delaunay triangulation of the
    sites plus q, each with its lune angle: the angle at q between the
    circumcircles of the two fan triangles on either side of the edge to
    that neighbour."""
    pts = np.vstack([np.asarray(sites, dtype=float), [q]])
    tri = Delaunay(pts)
    indptr, indices = tri.vertex_neighbor_vertices
    qi = len(sites)
    nbrs = sorted(int(i) for i in indices[indptr[qi]:indptr[qi + 1]])
    ccw = sorted(nbrs, key=lambda i: math.atan2(sites[i][1] - q[1], sites[i][0] - q[0]))
    k = len(ccw)
    # centers[j]: circumcenter of the fan triangle (q, ccw[j], ccw[j+1]).
    centers = [_circumcenter(q, sites[ccw[j]], sites[ccw[(j + 1) % k]]) for j in range(k)]
    angles = {}
    for j in range(k):
        c1, c2 = centers[j - 1], centers[j]
        ux, uy = q[0] - c1[0], q[1] - c1[1]
        vx, vy = q[0] - c2[0], q[1] - c2[1]
        angles[ccw[j]] = math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
    return angles


def tan_half_blend(angles, elevations):
    weights = {i: math.tan(0.5 * a) for i, a in angles.items()}
    total = math.fsum(weights.values())
    return math.fsum(w * elevations[i] for i, w in weights.items()) / total


def invert(center, radius, p):
    dx, dy = p[0] - center[0], p[1] - center[1]
    s = radius * radius / (dx * dx + dy * dy)
    return (center[0] + s * dx, center[1] + s * dy)


def check_lune(seed, values, smoke, problems):
    import lunenn

    sz = workloads.sizes(smoke)
    inp = workloads.uniform_input("lune-uniform", seed, smoke)
    queries = workloads.QueryStream("lune-uniform", seed).take(len(values))
    z = inp.elevations
    lo, hi = min(z), max(z)
    scale = max(abs(lo), abs(hi), 1.0)
    bad = [k for k, v in enumerate(values) if not (lo - VALUE_TOL * scale <= v <= hi + VALUE_TOL * scale)]
    if bad:
        problems.append("%d lune values outside the elevation range, first query %d" % (len(bad), bad[0]))

    rng = random.Random("lune-uniform/%d/checks" % seed)
    count = min(sz.lune_checked, len(values))
    checked = [0] + sorted(rng.sample(range(1, len(values)), count - 1)) if count > 1 else [0]
    samples = lunenn.SampleSet(inp.sites, z)
    for k in checked:
        q = queries[k]
        expected = natural_neighbour_angles(inp.sites, q)
        got = lunenn.lune_angles(samples, q)
        if set(got.indices) != set(expected):
            problems.append("query %d: lune neighbours %s != natural neighbours %s" % (k, sorted(got.indices), sorted(expected)))
            continue
        worst = max(abs(a - expected[i]) for i, a in got.entries)
        if worst > ANGLE_TOL:
            problems.append("query %d: lune angle off by %.3g" % (k, worst))
        if abs(got.total() - 2.0 * math.pi) > ANGLE_TOL:
            problems.append("query %d: angles sum to %.17g" % (k, got.total()))
        blend = tan_half_blend(expected, z)
        if abs(values[k] - blend) > VALUE_TOL * scale:
            problems.append("query %d: value %.17g != tan-half blend %.17g" % (k, values[k], blend))

    # Invariance: invert sites and queries in a circle centred outside the
    # sites' square; the interpolant must not change.
    phi = rng.uniform(0.0, 2.0 * math.pi)
    center = (3.0 * math.cos(phi), 3.0 * math.sin(phi))
    radius = 2.0
    inverted = lunenn.SampleSet([invert(center, radius, p) for p in inp.sites], z)
    for k in checked[: sz.lune_inverted]:
        v = lunenn.interpolate(inverted, invert(center, radius, queries[k]), allow_exterior=True)
        if abs(v - values[k]) > INVARIANCE_TOL * scale:
            problems.append("query %d: value %.17g changes to %.17g under inversion" % (k, values[k], v))


def _ccw_min_first(tri):
    a, b, c = (int(v) for v in tri)
    return min((a, b, c), (b, c, a), (c, a, b))


def check_sibson(seed, run_dir, values, smoke, problems):
    inp = workloads.uniform_input("sibson-uniform", seed, smoke)
    pts = np.asarray(inp.sites, dtype=float)
    n = len(pts)
    got = np.fromfile(os.path.join(run_dir, "triangles.i32"), dtype=np.int32).reshape(-1, 3)
    expected = set()
    for simplex in Delaunay(pts).simplices:
        a, b, c = pts[simplex]
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        s = simplex if orient > 0 else simplex[::-1]
        expected.add(_ccw_min_first(s))
    got_set = {_ccw_min_first(t) for t in got}
    if got_set != expected or len(got_set) != len(got):
        problems.append(
            "triangulation differs from scipy: %d missing, %d extra"
            % (len(expected - got_set), len(got_set - expected))
        )
    h = len(ConvexHull(pts).vertices)
    if len(got) != 2 * n - 2 - h:
        problems.append("%d triangles, expected 2n - 2 - h = %d" % (len(got), 2 * n - 2 - h))

    queries = np.asarray(workloads.QueryStream("sibson-uniform", seed).take(len(values)))
    a, b, c = inp.coeffs
    field = a * queries[:, 0] + b * queries[:, 1] + c
    scale = max(float(np.max(np.abs(inp.elevations))), 1.0)
    err = np.abs(values - field)
    bad = np.flatnonzero(~(err <= VALUE_TOL * scale))
    if bad.size:
        problems.append(
            "%d Sibson values miss the linear field, first query %d (error %.3g)"
            % (bad.size, bad[0], err[bad[0]])
        )


def check_pgm(path, seed, nodes, smoke, problems):
    """Every pixel within one grey level of the linear field scaled by its
    extremes over the grid nodes."""
    inp = workloads.lattice_input(seed, smoke)
    with open(path, encoding="utf-8") as handle:
        tokens = handle.read().split()
    if tokens[:4] != ["P2", str(nodes), str(nodes), "255"] or len(tokens) != 4 + nodes * nodes:
        problems.append("%s: not a %dx%d P2 image" % (os.path.basename(path), nodes, nodes))
        return
    pixels = np.asarray(tokens[4:], dtype=float).reshape(nodes, nodes)
    x0, x1, y0, y1 = inp.bounds
    xs = np.asarray(workloads.grid_axis(x0, x1, nodes))
    ys = np.asarray(workloads.grid_axis(y0, y1, nodes))[::-1]
    a, b, c = inp.coeffs
    field = a * xs[None, :] + b * ys[:, None] + c
    lo, hi = field.min(), field.max()
    expected = 255.0 * (field - lo) / (hi - lo)
    worst = float(np.max(np.abs(pixels - expected)))
    if worst > 1.0:
        problems.append("%s: a pixel is %.3g grey levels off the linear field" % (os.path.basename(path), worst))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    problems = []
    if args.workload == "grid-lattice-cli":
        nodes = workloads.sizes(args.smoke).grid_nodes
        names = sorted(f for f in os.listdir(args.dir) if f.endswith(".pgm"))
        if not names:
            problems.append("no PGM written")
        for name in names:
            size = 2 if name.startswith("setup") else nodes
            check_pgm(os.path.join(args.dir, name), args.seed, size, args.smoke, problems)
    else:
        values = _values(args.dir)
        if args.trace:
            traced = _values(args.dir, "traced_values.f64")
            if traced.tobytes() != values.tobytes():
                problems.append("traced and untraced runs gave different values")
        else:
            with open(os.path.join(args.dir, "first_values.json")) as handle:
                first = json.load(handle)
            if any(v != values[0] for v in first):
                problems.append("set-up processes disagree on the first query's value")
        if args.workload == "lune-uniform":
            check_lune(args.seed, values, args.smoke, problems)
        else:
            check_sibson(args.seed, args.dir, values, args.smoke, problems)
    print(json.dumps({"correct": not problems, "problems": problems}))


if __name__ == "__main__":
    main()
