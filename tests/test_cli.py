"""End-to-end command-line behavior: output formats, exit codes, and
byte-level determinism."""

import argparse
import ast
import importlib
import math
import os
import re
import subprocess
import sys

import pytest

import lunenn
from lunenn.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SQUARE_CSV = "x,y,z\n-1,-1,10\n1,-1,20\n1,1,30\n-1,1,40\n"


@pytest.fixture
def square(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(SQUARE_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture
def hexagon(tmp_path):
    lines = ["x,y,z"]
    for k in range(6):
        t = k * math.pi / 3
        lines.append("%.17g,%.17g,%g" % (math.cos(t), math.sin(t), k))
    path = tmp_path / "hexagon.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_eval_square_center(square, capsys):
    assert main(["eval", "--samples", square, "--at", "0,0"]) == 0
    assert capsys.readouterr().out == "25\n"


def test_eval_at_site(square, capsys):
    assert main(["eval", "--samples", square, "--at", "-1,1"]) == 0
    assert capsys.readouterr().out == "40\n"


def test_eval_exterior_strict(square, capsys):
    assert main(["eval", "--samples", square, "--at", "5,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_eval_exterior_allowed(square, capsys):
    code = main(["eval", "--samples", square, "--at", "5,5", "--allow-exterior"])
    assert code == 0
    value = float(capsys.readouterr().out)
    assert math.isfinite(value)


def test_eval_boundary_query(square, capsys):
    assert main(["eval", "--samples", square, "--at", "1,0"]) == 2


def test_eval_weight_fn_choices(square, capsys):
    for fn in ("tan-half", "tan-half-sq", "angle"):
        assert main(["eval", "--samples", square, "--at", "0,0", "--weight-fn", fn]) == 0
        assert capsys.readouterr().out == "25\n"


def test_eval_complex_elevations(tmp_path, capsys):
    path = tmp_path / "z.csv"
    path.write_text(
        "x,y,z_re,z_im\n-1,-1,10,1\n1,-1,20,2\n1,1,30,3\n-1,1,40,4\n",
        encoding="utf-8",
    )
    assert main(["eval", "--samples", str(path), "--at", "0,0"]) == 0
    assert capsys.readouterr().out == "25,2.5\n"


def test_weights_hexagon(hexagon, capsys):
    assert main(["weights", "--samples", hexagon, "--at", "0,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,theta,weight"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4, 5]
    thetas = [float(r[1]) for r in rows]
    weights = [float(r[2]) for r in rows]
    for theta in thetas:
        assert abs(theta - math.pi / 3) <= 1e-12
    for w in weights:
        assert abs(w - 1 / 6) <= 1e-12
    assert abs(math.fsum(thetas) - 2 * math.pi) <= 1e-6
    assert abs(math.fsum(weights) - 1.0) <= 1e-9


def test_usage_errors(square, capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["eval", "--samples", square]) == 1
    assert main(["eval", "--samples", square, "--at", "zzz"]) == 1
    assert main(["eval", "--samples", square, "--at", "a,1"]) == 1
    assert main(["eval", "--samples", square, "--at", "0,0", "--weight-fn", "nope"]) == 1
    assert main(["grid", "--samples", square, "--grid", "1,2,3", "--out", "x.pgm"]) == 1
    assert main(["grid", "--samples", square, "--grid", "0,1,0,1,x,4", "--out", "x.pgm"]) == 1
    # An empty list is one empty field, which int() rejects.
    assert main(["experiment", "harmonic", "--seed", "1", "--out", "h.csv", "--sizes", ""]) == 1


def test_eval_huge_sites_matches_unit_scale(tmp_path, capsys):
    # Squared distances at this scale overflow; the sites' power-of-two
    # frame keeps them in range, so the value is that of the unit set.
    path = tmp_path / "big.csv"
    path.write_text("x,y,z\n1e200,0,1\n0,1e200,2\n-1e200,-1e200,3\n", encoding="utf-8")
    assert main(["eval", "--samples", str(path), "--at", "1,1"]) == 0
    assert capsys.readouterr().out == "2.0729490168751576\n"
    path.write_text("x,y,z\n1,0,1\n0,1,2\n-1,-1,3\n", encoding="utf-8")
    assert main(["eval", "--samples", str(path), "--at", "1e-200,1e-200"]) == 0
    assert capsys.readouterr().out == "2.0729490168751576\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "eval" in capsys.readouterr().out


def test_missing_samples_file(tmp_path, capsys):
    assert main(["eval", "--samples", str(tmp_path / "no.csv"), "--at", "0,0"]) == 2


def test_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n0,0\n", encoding="utf-8")
    assert main(["eval", "--samples", str(path), "--at", "0,0"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_grid_output(square, tmp_path, capsys):
    out = tmp_path / "field.pgm"
    code = main(
        ["grid", "--samples", square, "--grid", "-1,1,-1,1,5,5", "--out", str(out)]
    )
    assert code == 0
    tokens = out.read_text().split()
    assert tokens[0] == "P2"
    assert tokens[1:4] == ["5", "5", "255"]
    assert len(tokens) == 4 + 25


def test_grid_values_spanning_the_float_range(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("x,y,z\n0,0,-1.7e308\n1,0,1.7e308\n1,1,-1.7e308\n0,1,1.7e308\n", encoding="utf-8")
    out = tmp_path / "huge.pgm"
    args = ["grid", "--samples", str(path), "--grid", "0,1,0,1,5,5", "--method", "sibson", "--out", str(out)]
    assert main(args) == 0
    assert out.read_text().split()[0] == "P2"


def test_grid_methods_share_center_pixel(square, tmp_path, capsys):
    pixels = {}
    for method in ("moebius", "sibson"):
        out = tmp_path / (method + ".pgm")
        code = main(
            [
                "grid",
                "--samples",
                square,
                "--grid",
                "-1,1,-1,1,5,5",
                "--out",
                str(out),
                "--method",
                method,
            ]
        )
        assert code == 0
        values = [int(t) for t in out.read_text().split()[4:]]
        pixels[method] = values
    # Shared scaling bounds (the exact corner elevations), so the center
    # pixel agrees: both interpolants give 25 there.
    assert pixels["moebius"][12] == pixels["sibson"][12] == 128
    # Corner pixels hit the sites exactly.
    for values in pixels.values():
        assert values[20] == 0 and values[0] == 255


def test_grid_deterministic(square, tmp_path, capsys):
    outputs = []
    for name in ("one.pgm", "two.pgm"):
        out = tmp_path / name
        main(["grid", "--samples", square, "--grid", "-1.5,1.5,-1.5,1.5,8,8", "--out", str(out)])
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_experiment_invariance_cli(square, tmp_path, capsys):
    out = tmp_path / "inv.csv"
    code = main(["experiment", "invariance", "--seed", "5", "--out", str(out), "--trials", "4"])
    assert code == 0
    assert capsys.readouterr().out == "invariance: pass\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,deviation,angle_mismatch"
    assert len(lines) == 6
    assert lines[-1] == "# pass=true"


def test_experiment_harmonic_cli(tmp_path, capsys):
    out = tmp_path / "harm.csv"
    code = main(
        [
            "experiment",
            "harmonic",
            "--seed",
            "3",
            "--out",
            str(out),
            "--function",
            "log_shift",
            "--sizes",
            "16,64,256",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("harmonic_log_shift:")
    lines = out.read_text().splitlines()
    assert lines[0] == "n,interpolant_error,estimator_error"
    assert len(lines) == 5


def test_experiment_harmonic_one_size_is_a_domain_error(tmp_path, capsys):
    out = tmp_path / "harm.csv"
    argv = ["experiment", "harmonic", "--seed", "3", "--out", str(out), "--sizes", "64"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: need at least two sizes, got 1\n"
    assert not out.exists()


def test_experiment_outputs_deterministic(tmp_path, capsys):
    contents = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(["experiment", "invariance", "--seed", "9", "--out", str(out), "--trials", "3"])
        contents.append(out.read_bytes())
    assert contents[0] == contents[1]


def test_eval_output_roundtrips_exactly(square, capsys):
    main(["eval", "--samples", square, "--at", "0.125,0.25"])
    first = capsys.readouterr().out
    main(["eval", "--samples", square, "--at", "0.125,0.25"])
    assert capsys.readouterr().out == first
    # 17 significant digits reproduce the double exactly.
    from lunenn import interpolate
    from lunenn.fileio import load_samples_csv

    samples = load_samples_csv(square)
    assert float(first) == interpolate(samples, (0.125, 0.25))


def _run_fresh(code):
    """Standard output of code run in a fresh interpreter that imports
    lunenn from this checkout."""
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    return child.stdout


def _modules_added_by(statement, ran=False):
    """The modules that running statement adds to sys.modules in a fresh
    interpreter that imports lunenn from this checkout; with ran, only those
    whose code has run.  A module registered to load on first use
    (importlib.util.LazyLoader) is of a ModuleType subclass until then."""
    kept = "type(sys.modules[name]) is types.ModuleType" if ran else "True"
    code = (
        "import sys, types\n"
        "before = set(sys.modules)\n"
        "%s\n"
        "print(' '.join(name for name in sorted(set(sys.modules) - before) if %s))\n" % (statement, kept)
    )
    return _run_fresh(code).split()


def _lunenn_modules(names):
    return [name for name in names if name.partition(".")[0] == "lunenn"]


#: Every module of the package, from its files.
_MODULES = sorted(
    "lunenn." + name[: -len(".py")]
    for name in os.listdir(os.path.join(ROOT, "src", "lunenn"))
    if name.endswith(".py") and name != "__init__.py"
)

_MESH_NAMES = (
    "Triangulation",
    "VoronoiCell",
    "build_delaunay",
    "lune_angles_oracle",
    "sibson_weights",
    "voronoi_cell_polygon",
)


def test_runtime_imports_only_the_standard_library():
    # Site hooks can load third-party modules before any code runs, so only
    # the top-level modules that lunenn adds are checked.  Importing the
    # package runs only some of its modules, so each is imported by name, and
    # vars() runs one that is registered to load on first use.
    statement = "import lunenn, %s\nfor name in %r: vars(sys.modules[name])" % (", ".join(_MODULES), _MODULES)
    ran = _modules_added_by(statement, ran=True)
    assert set(_MODULES) <= set(ran)
    added = {name.partition(".")[0] for name in ran}
    assert sorted(added - {"lunenn"} - set(sys.stdlib_module_names)) == []
    assert {"lunenn.cli", "lunenn.delaunay", "lunenn.experiments", "lunenn.fileio", "lunenn.moebius"} <= set(_MODULES)


def test_function_choices_are_the_harmonic_functions():
    # The parser spells the names out, so that it imports no experiment.
    from lunenn import experiments
    from lunenn.cli import _build_parser

    (commands,) = [action for action in _build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    (function,) = [action for action in commands.choices["experiment"]._actions if action.dest == "function"]
    assert list(function.choices) == sorted(experiments.HARMONIC_FUNCTIONS)
    assert function.default in experiments.HARMONIC_FUNCTIONS


def test_package_namespace_is_the_documented_api():
    # import lunenn runs neither the mesh module nor the experiments: it
    # registers lunenn.delaunay to run on first use.
    assert _lunenn_modules(_modules_added_by("import lunenn", ran=True)) == [
        "lunenn",
        "lunenn.errors",
        "lunenn.geometry",
        "lunenn.hull",
        "lunenn.interpolate",
        "lunenn.predicates",
    ]
    assert _lunenn_modules(_modules_added_by("import lunenn")) == [
        "lunenn",
        "lunenn.delaunay",
        "lunenn.errors",
        "lunenn.geometry",
        "lunenn.hull",
        "lunenn.interpolate",
        "lunenn.predicates",
    ]
    # sibson_interpolate lives in lunenn.interpolate: the package binds it
    # at import, and the mesh module re-exports the same object.
    code = (
        "import sys, types\n"
        "import lunenn\n"
        "bound = 'sibson_interpolate' in vars(lunenn)\n"
        "assert type(sys.modules['lunenn.delaunay']) is not types.ModuleType\n"
        "print(bound, lunenn.sibson_interpolate is lunenn.delaunay.sibson_interpolate)\n"
    )
    assert _run_fresh(code) == "True True\n"
    # Reading any one mesh name runs lunenn.delaunay; the package forwards
    # all six to the module's own objects and binds none of them; dir()
    # and the star import give every name of __all__ before that.
    for name in _MESH_NAMES:
        code = (
            "import sys, types\n"
            "import lunenn\n"
            "assert set(lunenn.__all__) <= set(dir(lunenn))\n"
            "lunenn.%s\n"
            "mesh = sys.modules['lunenn.delaunay']\n"
            "assert type(mesh) is types.ModuleType\n"
            "print(all(getattr(lunenn, n) is getattr(mesh, n) and n not in vars(lunenn) for n in %r))\n"
            % (name, _MESH_NAMES)
        )
        assert _run_fresh(code) == "True\n", name
    code = "import lunenn\nnames = {}\nexec('from lunenn import *', names)\nprint(sorted(set(names) - {'__builtins__'}))"
    assert _run_fresh(code) == "%r\n" % sorted(lunenn.__all__)
    assert sorted(lunenn.__all__) == [
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
    for name in lunenn.__all__:
        assert hasattr(lunenn, name), name
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as readme:
        (block,) = re.findall(r"```python\n(.*?)```", readme.read(), re.S)
    documented = {
        alias.name
        for stmt in ast.parse(block).body
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "lunenn"
        for alias in stmt.names
    }
    assert documented and documented <= set(lunenn.__all__)


def test_the_package_namespace_does_not_change_when_the_mesh_module_runs():
    # A lune set's second ring miss builds its mesh, which runs the mesh
    # module from inside interpolate; the package's own bindings stay as
    # import lunenn left them.
    code = (
        "import lunenn\n"
        "before = set(vars(lunenn))\n"
        "import random, sys, types\n"
        "rng = random.Random(5)\n"
        "samples = lunenn.SampleSet([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)], [rng.random() for _ in range(200)])\n"
        "lunenn.interpolate(samples, (1.5, 0.1), allow_exterior=True)\n"
        "assert samples._mesh is None and type(sys.modules['lunenn.delaunay']) is not types.ModuleType\n"
        "lunenn.interpolate(samples, (-0.2, -1.5), allow_exterior=True)\n"
        "assert samples._mesh is not None and type(sys.modules['lunenn.delaunay']) is types.ModuleType\n"
        "print(sorted(set(vars(lunenn)) ^ before))\n"
    )
    assert _run_fresh(code) == "[]\n"


def test_a_lune_process_runs_no_mesh_experiment_or_moebius_code():
    # A set's first interior queries close their rings, so the lune path
    # never builds the mesh, and the process never runs the mesh module.
    statement = (
        "import random\n"
        "import lunenn\n"
        "rng = random.Random(5)\n"
        "samples = lunenn.SampleSet([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(200)], [rng.random() for _ in range(200)])\n"
        "lunenn.interpolate(samples, (0.1, -0.2))\n"
        "lunenn.weights_from_angles(lunenn.lune_angles(samples, (-0.3, 0.25)))\n"
        "assert samples._mesh is None"
    )
    ran = _modules_added_by(statement, ran=True)
    assert "lunenn.interpolate" in ran
    assert not {"lunenn.delaunay", "lunenn.experiments", "lunenn.moebius"} & set(ran)
    # The command line imports the experiments only for its experiment command.
    added = _modules_added_by("import lunenn.cli")
    assert "lunenn.cli" in added and not {"lunenn.experiments", "lunenn.moebius"} & set(added)


def test_a_rebinding_walk_over_the_modules_puts_every_name_back():
    # Code that wraps a function wherever lunenn binds it, as a tracer or a
    # mock does, walks the modules in sys.modules order; vars() runs the mesh
    # module on the way.  It comes first, so the names it imports are still
    # the originals then, and putting back what the walk rebound leaves no
    # wrapper behind.
    code = """
import sys
import lunenn
modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "lunenn"]
patches = []
for module_name, attr in (("lunenn.predicates", "orientation_sign"), ("lunenn.delaunay", "sibson_interpolate")):
    original = getattr(sys.modules[module_name], attr)
    def wrapper(*args, _original=original):
        return _original(*args)
    for module in modules:
        for binding, value in list(vars(module).items()):
            if value is original:
                patches.append((module, binding, original))
                setattr(module, binding, wrapper)
assert lunenn.sibson_interpolate.__name__ == lunenn.delaunay.orientation_sign.__name__ == "wrapper"
for module, binding, original in reversed(patches):
    setattr(module, binding, original)
print(sorted(n + "." + k for n, m in sys.modules.items() if n.startswith("lunenn") for k, v in vars(m).items()
             if getattr(v, "__name__", None) == "wrapper"))
"""
    assert _run_fresh(code) == "[]\n"


def test_every_name_the_layer_tracer_wraps_exists():
    # bench/layertrace.py looks its targets up by name when it installs, so a
    # deleted or renamed one fails only a traced benchmark run.  Its two
    # tables are read here without importing or running it.
    with open(os.path.join(ROOT, "bench", "layertrace.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    tables = {
        stmt.targets[0].id: ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) in ("_TARGETS", "_METHODS")
    }
    assert tables["_TARGETS"] and tables["_METHODS"]
    # import_module gives lunenn.delaunay registered to run on first use;
    # hasattr runs it.
    missing = [(module, attr) for module, attr, _, _ in tables["_TARGETS"] if not hasattr(importlib.import_module(module), attr)]
    missing += [
        (module, cls + "." + attr)
        for module, cls, attr, _ in tables["_METHODS"]
        if not hasattr(getattr(importlib.import_module(module), cls, None), attr)
    ]
    assert missing == []
