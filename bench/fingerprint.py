"""Seeded output fingerprint of lunenn.

    python3 bench/fingerprint.py

Hashes (SHA-256 over exact float hex) the neighbour indices, lune angles,
tan-half weights and values of `interpolate`, and the Sibson weights and
values, on a fixed corpus: 200 uniform sites and an 8x8 integer lattice
(which takes the exact predicates), 50 interior queries each.  A refactor
that keeps every output bit prints the same lines.  It is printed for
comparison, not gated.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "lunenn", "__init__.py")):
    raise SystemExit("error: no lunenn package under %s" % SRC)
sys.path.insert(0, SRC)

import lunenn  # noqa: E402


def corpus():
    rng = random.Random("fingerprint")
    uniform = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    uniform += [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(196)]
    lattice = [(float(i), float(j)) for j in range(8) for i in range(8)]
    yield "uniform", uniform, [(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)) for _ in range(50)]
    yield "lattice", lattice, [(rng.uniform(0.2, 6.8), rng.uniform(0.2, 6.8)) for _ in range(50)]


def main():
    for name, sites, queries in corpus():
        z = [x * x - 0.5 * y + x * y for x, y in sites]
        samples = lunenn.SampleSet(sites, z)
        tri = lunenn.build_delaunay(samples)
        lune = hashlib.sha256()
        sibson = hashlib.sha256()
        for q in queries:
            angles = lunenn.lune_angles(samples, q)
            weights = lunenn.weights_from_angles(angles)
            value = lunenn.interpolate(samples, q)
            for (i, a), (_, w) in zip(angles.entries, weights.entries):
                lune.update(("%d %s %s;" % (i, a.hex(), w.hex())).encode())
            lune.update(value.hex().encode())
            for i, w in lunenn.sibson_weights(tri, q).entries:
                sibson.update(("%d %s;" % (i, w.hex())).encode())
            sibson.update(lunenn.sibson_interpolate(tri, z, q).hex().encode())
        print("%s lune %s" % (name, lune.hexdigest()))
        print("%s sibson %s" % (name, sibson.hexdigest()))


if __name__ == "__main__":
    main()
