"""Moebius-invariant natural neighbor interpolation via lune angles,
with classical Sibson interpolation and a Delaunay oracle for
cross-validation."""

from .delaunay import (
    Triangulation,
    VoronoiCell,
    build_delaunay,
    lune_angles_oracle,
    sibson_interpolate,
    sibson_weights,
    voronoi_cell_polygon,
)
from .errors import (
    CoincidentQueryError,
    CsvFormatError,
    DegenerateBoundaryError,
    DegenerateInputError,
    GeneratorExhaustedError,
    OutsideDomainError,
    PreconditionError,
)
from .interpolate import (
    LuneAngleSet,
    SampleSet,
    WeightFunction,
    WeightVector,
    interpolate,
    lune_angles,
    weights_from_angles,
)
from .predicates import incircle_sign, orientation_sign

__version__ = "0.1.0"

__all__ = [
    "CoincidentQueryError",
    "CsvFormatError",
    "DegenerateBoundaryError",
    "DegenerateInputError",
    "GeneratorExhaustedError",
    "LuneAngleSet",
    "OutsideDomainError",
    "PreconditionError",
    "SampleSet",
    "Triangulation",
    "VoronoiCell",
    "WeightFunction",
    "WeightVector",
    "build_delaunay",
    "incircle_sign",
    "interpolate",
    "lune_angles",
    "lune_angles_oracle",
    "orientation_sign",
    "sibson_interpolate",
    "sibson_weights",
    "voronoi_cell_polygon",
    "weights_from_angles",
]
