"""Sample CSV loading, grid evaluation, and PGM raster output."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .delaunay import build_delaunay
from .errors import CsvFormatError, DegenerateBoundaryError, DegenerateInputError, OutsideDomainError
from .interpolate import SampleSet, WeightFunction, _finite, interpolate, sibson_interpolate

_REAL_HEADER = ("x", "y", "z")
_COMPLEX_HEADER = ("x", "y", "z_re", "z_im")

#: Errors that make a grid cell None: a node outside or on the site hull,
#: on the segment between two sites, or whose value leaves the float range.
#: The sites, the grid and a Sibson mesh are checked before the node loop,
#: so a DegenerateInputError inside it concerns one node.
_CELL_ERRORS = (OutsideDomainError, DegenerateBoundaryError, DegenerateInputError)


def load_samples_csv(path) -> SampleSet:
    """Read sites and elevations from a CSV with header ``x,y,z`` or
    ``x,y,z_re,z_im``, with or without a UTF-8 byte-order mark.  Lines
    starting with ``#`` and blank lines are skipped; malformed rows and
    duplicate sites are reported with their line number."""
    sites = []
    elevations = []
    header = None
    seen = {}
    with open(path, "r", encoding="utf-8-sig") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            fields = [f.strip() for f in text.split(",")]
            if header is None:
                header = tuple(f.lower() for f in fields)
                if header not in (_REAL_HEADER, _COMPLEX_HEADER):
                    raise CsvFormatError(
                        "header must be 'x,y,z' or 'x,y,z_re,z_im', got %r" % text,
                        line_number,
                    )
                continue
            if len(fields) != len(header):
                raise CsvFormatError(
                    "expected %d fields, got %d" % (len(header), len(fields)),
                    line_number,
                )
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise CsvFormatError("non-numeric field in %r" % text, line_number) from None
            if not all(math.isfinite(v) for v in values):
                raise CsvFormatError("non-finite value in %r" % text, line_number)
            key = (values[0], values[1])
            if key in seen:
                raise CsvFormatError(
                    "duplicate site (%g, %g) first seen on line %d"
                    % (values[0], values[1], seen[key]),
                    line_number,
                )
            seen[key] = line_number
            sites.append(key)
            if header == _REAL_HEADER:
                elevations.append(values[2])
            else:
                elevations.append(complex(values[2], values[3]))
    if header is None:
        raise CsvFormatError("empty file: header row required")
    if len(sites) < 3:
        raise CsvFormatError("need at least three sites, got %d" % len(sites))
    return SampleSet(sites, elevations)


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        for v in (self.x_min, self.x_max, self.y_min, self.y_max):
            _finite(v, "grid extents must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DegenerateInputError("grid extents must be non-empty")
        if not all(isinstance(n, int) and n >= 2 for n in (self.nx, self.ny)):
            raise DegenerateInputError("grid node counts must be ints of at least 2")

    def xs(self):
        return _nodes(self.x_min, self.x_max, self.nx)

    def ys(self):
        return _nodes(self.y_min, self.y_max, self.ny)


def _nodes(lo, hi, n):
    """n evenly spaced nodes from lo to hi."""
    step = (hi - lo) / (n - 1)
    if math.isfinite(lo + (n - 1) * step):
        return [lo + i * step for i in range(n)]
    # The span or its last step left the float range: blend the two ends,
    # each term finite, and keep the sum within them.
    return [min(max(lo * ((n - 1 - i) / (n - 1)) + hi * (i / (n - 1)), lo), hi) for i in range(n)]


def evaluate_grid(
    samples: SampleSet,
    grid: GridSpec,
    method: str = "moebius",
    weight_fn: WeightFunction = WeightFunction.TAN_HALF,
):
    """Evaluate the interpolant on the grid nodes, rows from y_max down to
    y_min (raster order).  A cell holds interpolate(samples, q, weight_fn)
    for "moebius", or sibson_interpolate for "sibson" (weight_fn has no
    effect there), so a node that snaps to a site takes its elevation; it
    holds None where that call raises OutsideDomainError,
    DegenerateBoundaryError or DegenerateInputError.  SampleSet, GridSpec
    and the Sibson mesh are checked before the node loop, so there the
    last concerns one node, such as one whose value leaves the float range."""
    if method not in ("moebius", "sibson"):
        raise DegenerateInputError("method must be 'moebius' or 'sibson'")
    tri = build_delaunay(samples) if method == "sibson" else None
    rows = []
    for y in reversed(grid.ys()):
        row = []
        for x in grid.xs():
            try:
                if tri is None:
                    row.append(interpolate(samples, (x, y), weight_fn))
                else:
                    row.append(sibson_interpolate(tri, samples.elevations, (x, y)))
            except _CELL_ERRORS:
                row.append(None)
        rows.append(row)
    return rows


def write_pgm(rows, path):
    """Write grid values as an ASCII PGM (P2, maxval 255).  Values are
    scaled linearly from [min, max] onto [0, 255]; a constant field maps
    to 128 and error cells to 0."""
    height = len(rows)
    width = len(rows[0]) if height else 0
    if height == 0 or width == 0 or any(len(r) != width for r in rows):
        raise DegenerateInputError("grid rows must be non-empty and rectangular")
    if any(isinstance(v, complex) for row in rows for v in row):
        raise DegenerateInputError("complex values cannot be rasterized")
    message = "grid values must be finite"
    finite = [_finite(v, message) for row in rows for v in row if v is not None]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
    # Past the float range, offsets and span shrink by an exact 2**-9.
    k = 1.0 if math.isfinite(255.0 * (hi - lo)) else 2.0 ** -9
    span = hi * k - lo * k
    lines = ["P2", "%d %d" % (width, height), "255"]
    for row in rows:
        pixels = []
        for v in row:
            if v is None:
                pixels.append(0)
            elif span == 0.0:
                pixels.append(128)
            else:
                pixels.append(int(round(255.0 * (v * k - lo * k) / span)))
        lines.append(" ".join(str(p) for p in pixels))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
