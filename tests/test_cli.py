"""End-to-end command-line behavior: output formats, exit codes, and
byte-level determinism."""

import math

import pytest

from lunenn.cli import main

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
    assert main(["eval", "--samples", square, "--at", "0,0", "--weight-fn", "nope"]) == 1
    assert main(["grid", "--samples", square, "--grid", "1,2,3", "--out", "x.pgm"]) == 1
    # An empty list is one empty field, which int() rejects.
    assert main(["experiment", "harmonic", "--seed", "1", "--out", "h.csv", "--sizes", ""]) == 1


def test_eval_huge_sites_is_a_domain_error(tmp_path, capsys):
    # Squared distances overflow to inf here; no OverflowError escapes.
    path = tmp_path / "big.csv"
    path.write_text("x,y,z\n1e200,0,1\n0,1e200,2\n-1e200,-1e200,3\n", encoding="utf-8")
    assert main(["eval", "--samples", str(path), "--at", "1,1"]) == 2
    assert "collinear" in capsys.readouterr().err


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
    from lunenn import interpolate, load_samples_csv

    samples = load_samples_csv(square)
    assert float(first) == interpolate(samples, (0.125, 0.25))
