"""Seeded inputs for the three benchmark workloads.

Standard library only: the measured worker imports this module, and a
process that gives peak_rss_mb must not have imported numpy.  Everything
here is a pure function of (workload, seed, sizes), so the worker, the
orchestrator and the checks regenerate the same sites, elevations and
query stream without passing them around.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("lune-uniform", "sibson-uniform", "grid-lattice-cli")


@dataclass(frozen=True)
class Sizes:
    lune_sites: int
    sibson_sites: int
    lattice_side: int
    grid_nodes: int
    #: Set-up processes per untraced run (CLI: 2x2 grid processes).
    setups: dict
    #: Fresh set-ups in each set-up process; setup_s is the median of all.
    setup_repeats: dict
    #: Set-ups per traced run (in-process, traced).
    traced_setups: dict
    #: Queries per block in the traced run's alternating on/off blocks
    #: (the CLI's block is one grid command).
    trace_block: dict
    #: lune-uniform queries checked against scipy, and of those the ones
    #: also checked for invariance under inversion.
    lune_checked: int
    lune_inverted: int
    #: Processes that only import lunenn.cli, for cli.import_s.
    import_probes: int


FULL = Sizes(
    lune_sites=2000,
    sibson_sites=10000,
    lattice_side=40,
    grid_nodes=64,
    setups={"lune-uniform": 21, "sibson-uniform": 7, "grid-lattice-cli": 9},
    setup_repeats={"lune-uniform": 3, "sibson-uniform": 1},
    traced_setups={"lune-uniform": 5, "sibson-uniform": 2, "grid-lattice-cli": 3},
    trace_block={"lune-uniform": 20, "sibson-uniform": 200},
    lune_checked=40,
    lune_inverted=10,
    import_probes=5,
)

SMOKE = Sizes(
    lune_sites=60,
    sibson_sites=300,
    lattice_side=6,
    grid_nodes=8,
    setups={"lune-uniform": 2, "sibson-uniform": 2, "grid-lattice-cli": 2},
    setup_repeats={"lune-uniform": 2, "sibson-uniform": 1},
    traced_setups={"lune-uniform": 1, "sibson-uniform": 1, "grid-lattice-cli": 1},
    trace_block={"lune-uniform": 5, "sibson-uniform": 5},
    lune_checked=5,
    lune_inverted=3,
    import_probes=2,
)


def sizes(smoke: bool) -> Sizes:
    return SMOKE if smoke else FULL


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # A str seed goes through SHA-512, so it does not depend on PYTHONHASHSEED.
    return random.Random("%s/%d/%s" % (workload, seed, stream))


# -- the two uniform workloads --------------------------------------------

#: Queries stay this far inside the square [-1, 1]^2, whose four corners
#: are always sites, so every query is strictly interior.
QUERY_HALF_WIDTH = 0.98


@dataclass(frozen=True)
class UniformInput:
    sites: list
    elevations: list
    #: Coefficients of the elevation, for the checks' closed forms.
    coeffs: tuple


def _uniform_sites(rng, n):
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    return corners + [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n - 4)]


def smooth_field(coeffs, x, y):
    a, b, c, d = coeffs
    return a * math.sin(b * x + c) * math.cos(y) + d * y * y


def linear_field(coeffs, x, y):
    a, b, c = coeffs
    return a * x + b * y + c


def uniform_input(workload: str, seed: int, smoke: bool = False) -> UniformInput:
    """Sites uniform in [-1, 1]^2 plus its corners.  lune-uniform gets a
    smooth elevation, sibson-uniform a linear one."""
    rng = _rng(workload, seed, "sites")
    sz = sizes(smoke)
    if workload == "lune-uniform":
        sites = _uniform_sites(rng, sz.lune_sites)
        coeffs = (rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0), rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
        z = [smooth_field(coeffs, x, y) for x, y in sites]
    elif workload == "sibson-uniform":
        sites = _uniform_sites(rng, sz.sibson_sites)
        coeffs = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0))
        z = [linear_field(coeffs, x, y) for x, y in sites]
    else:
        raise ValueError("no uniform input for workload %r" % workload)
    return UniformInput(sites, z, coeffs)


class QueryStream:
    """Never-repeating stream of interior query points.  Query k is the
    same for every process that reads the stream of one (workload, seed)."""

    def __init__(self, workload: str, seed: int):
        self._rng = _rng(workload, seed, "queries")

    def next(self):
        h = QUERY_HALF_WIDTH
        return (self._rng.uniform(-h, h), self._rng.uniform(-h, h))

    def take(self, count: int):
        return [self.next() for _ in range(count)]


# -- the lattice CLI workload ---------------------------------------------


@dataclass(frozen=True)
class LatticeInput:
    sites: list
    elevations: list
    coeffs: tuple
    #: XMIN, XMAX, YMIN, YMAX of the grid; node counts are Sizes.grid_nodes.
    bounds: tuple


def grid_axis(lo: float, hi: float, count: int):
    """Grid node coordinates, by the same float steps as the CLI's GridSpec."""
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def lattice_input(seed: int, smoke: bool = False) -> LatticeInput:
    """An integer lattice, shifted by a seeded integer offset, with a linear
    elevation whose coefficients are exact in decimal.  The grid window
    sits strictly inside the lattice with every node off the lattice lines,
    so each node is strictly interior and coincides with no site."""
    rng = _rng("grid-lattice-cli", seed, "lattice")
    sz = sizes(smoke)
    side = sz.lattice_side
    ox = rng.randint(-500, 500)
    oy = rng.randint(-500, 500)
    coeffs = (rng.randint(-400, 400) / 100.0, rng.randint(-400, 400) / 100.0, rng.randint(-900, 900) / 10.0)
    if coeffs[0] == 0.0 and coeffs[1] == 0.0:
        coeffs = (1.0, coeffs[1], coeffs[2])
    sites = [(float(ox + i), float(oy + j)) for j in range(side) for i in range(side)]
    z = [linear_field(coeffs, x, y) for x, y in sites]
    while True:
        x0 = ox + 0.5 + rng.uniform(0.0, 0.3)
        x1 = ox + side - 1.5 - rng.uniform(0.0, 0.3)
        y0 = oy + 0.5 + rng.uniform(0.0, 0.3)
        y1 = oy + side - 1.5 - rng.uniform(0.0, 0.3)
        nodes = grid_axis(x0, x1, sz.grid_nodes) + grid_axis(y0, y1, sz.grid_nodes)
        if all(v != math.floor(v) for v in nodes):
            return LatticeInput(sites, z, coeffs, (x0, x1, y0, y1))


def write_lattice_csv(inp: LatticeInput, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("x,y,z\n")
        for (x, y), z in zip(inp.sites, inp.elevations):
            handle.write("%r,%r,%r\n" % (x, y, z))


def grid_args(inp: LatticeInput, csv_path, pgm_path, nodes: int):
    """Arguments of the `lunenn grid` command the workload runs."""
    x0, x1, y0, y1 = inp.bounds
    return [
        "grid",
        "--samples", str(csv_path),
        "--grid=%r,%r,%r,%r,%d,%d" % (x0, x1, y0, y1, nodes, nodes),
        "--out", str(pgm_path),
        "--method", "sibson",
    ]
