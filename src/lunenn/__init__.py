"""Moebius-invariant natural neighbor interpolation via lune angles,
with classical Sibson interpolation and a Delaunay oracle for
cross-validation.

The mesh module, lunenn.delaunay, runs (and, without bytecode, compiles)
only in a process that reads from it: lune queries whose rings close never
do, so a one-shot lune query process compiles only the lune modules.
`import lunenn` registers it with importlib.util.LazyLoader, in
sys.modules but not run; the first read of any attribute of it runs it.
The module __getattr__ (PEP 562) forwards the six mesh names
(_MESH_NAMES) to it, so a read through the package always gives the
module's current object; sibson_interpolate is bound at import.
"""

import importlib.util
import sys

_MESH_NAMES = (
    "Triangulation",
    "VoronoiCell",
    "build_delaunay",
    "lune_angles_oracle",
    "sibson_weights",
    "voronoi_cell_polygon",
)


def _register_mesh_module():
    spec = importlib.util.find_spec(__name__ + ".delaunay")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A submodule's import binds it in its package; this registration does too.
# It comes before every other submodule, so code that walks lunenn's modules
# in sys.modules order rebinding a name in each (a tracer, a mock) runs this
# one before it rebinds a name that this one imports, and can put back all
# it rebinds.
delaunay = _register_mesh_module()

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
    sibson_interpolate,
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


def __getattr__(name):
    if name in _MESH_NAMES:
        return getattr(delaunay, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *_MESH_NAMES})
