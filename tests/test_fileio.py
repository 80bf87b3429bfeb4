"""CSV ingestion, grid evaluation, and PGM output."""

import math
import sys

import pytest

from lunenn import (
    CsvFormatError,
    DegenerateInputError,
    GridSpec,
    QueryKind,
    SampleSet,
    Triangulation,
    build_delaunay,
    classify_query,
    evaluate_grid,
    interpolate,
    load_samples_csv,
    sibson_interpolate,
    write_pgm,
)

SQUARE_CSV = "x,y,z\n-1,-1,10\n1,-1,20\n1,1,30\n-1,1,40\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_square(tmp_path):
    samples = load_samples_csv(_write(tmp_path, "sq.csv", SQUARE_CSV))
    assert samples.size == 4
    assert samples.elevations == (10.0, 20.0, 30.0, 40.0)
    assert all(type(z) is float for z in samples.elevations)


def test_load_comments_and_blanks(tmp_path):
    text = "# corner data\n\nx,y,z\n0,0,1\n# middle note\n2,0,2\n\n1,2,3\n"
    samples = load_samples_csv(_write(tmp_path, "c.csv", text))
    assert samples.size == 3


def test_load_complex(tmp_path):
    text = "x,y,z_re,z_im\n0,0,1,2\n1,0,3,0\n0,1,4,-1\n"
    samples = load_samples_csv(_write(tmp_path, "z.csv", text))
    assert all(type(z) is complex for z in samples.elevations)
    assert samples.elevations[0] == 1 + 2j


def test_load_bad_header(tmp_path):
    with pytest.raises(CsvFormatError, match="line 1"):
        load_samples_csv(_write(tmp_path, "h.csv", "a,b,c\n0,0,1\n"))


def test_load_wrong_field_count(tmp_path):
    with pytest.raises(CsvFormatError, match="line 3"):
        load_samples_csv(_write(tmp_path, "f.csv", "x,y,z\n0,0,1\n1,0\n"))


def test_load_non_numeric(tmp_path):
    with pytest.raises(CsvFormatError, match="line 4"):
        load_samples_csv(_write(tmp_path, "n.csv", "x,y,z\n0,0,1\n1,0,2\n1,zzz,3\n"))


def test_load_non_finite(tmp_path):
    with pytest.raises(CsvFormatError, match="line 2"):
        load_samples_csv(_write(tmp_path, "i.csv", "x,y,z\n0,inf,1\n"))


def test_load_duplicate_site(tmp_path):
    text = "x,y,z\n0,0,1\n1,0,2\n0,0,3\n"
    with pytest.raises(CsvFormatError, match="line 4") as err:
        load_samples_csv(_write(tmp_path, "d.csv", text))
    assert "line 2" in str(err.value)


def test_load_too_few_sites(tmp_path):
    with pytest.raises(CsvFormatError):
        load_samples_csv(_write(tmp_path, "few.csv", "x,y,z\n0,0,1\n1,0,2\n"))


def test_load_empty_file(tmp_path):
    with pytest.raises(CsvFormatError):
        load_samples_csv(_write(tmp_path, "e.csv", ""))


def test_load_collinear_sites(tmp_path):
    text = "x,y,z\n0,0,1\n1,1,2\n2,2,3\n"
    with pytest.raises(DegenerateInputError):
        load_samples_csv(_write(tmp_path, "l.csv", text))


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_samples_csv(tmp_path / "absent.csv")


def test_load_crlf(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(SQUARE_CSV.replace("\n", "\r\n").encode())
    assert load_samples_csv(path).size == 4


def test_grid_spec_validation():
    with pytest.raises(DegenerateInputError):
        GridSpec(0, 0, 0, 1, 2, 2)
    with pytest.raises(DegenerateInputError):
        GridSpec(0, 1, 1, 0, 2, 2)
    with pytest.raises(DegenerateInputError):
        GridSpec(0, 1, 0, 1, 1, 2)
    spec = GridSpec(0, 1, 0, 2, 3, 5)
    assert spec.xs() == [0.0, 0.5, 1.0]
    assert len(spec.ys()) == 5
    assert spec.ys()[-1] == 2.0


def _square_samples():
    return SampleSet([(-1, -1), (1, -1), (1, 1), (-1, 1)], [10.0, 20.0, 30.0, 40.0])


def test_evaluate_grid_raster_order():
    rows = evaluate_grid(_square_samples(), GridSpec(-1, 1, -1, 1, 3, 3))
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    # Top row first: corners are coincident hits, edges are None.
    assert rows[0][0] == 40.0 and rows[0][2] == 30.0
    assert rows[2][0] == 10.0 and rows[2][2] == 20.0
    assert rows[0][1] is None and rows[1][0] is None
    assert rows[1][1] == 25.0


def test_evaluate_grid_methods_agree_at_center():
    spec = GridSpec(-1, 1, -1, 1, 5, 5)
    a = evaluate_grid(_square_samples(), spec, method="moebius")
    b = evaluate_grid(_square_samples(), spec, method="sibson")
    assert abs(a[2][2] - 25.0) <= 1e-12
    assert abs(b[2][2] - 25.0) <= 1e-12


@pytest.mark.parametrize("method", ["moebius", "sibson"])
def test_evaluate_grid_exterior_cells_match_hull_test(method):
    # The centre site sits on a grid node.
    samples = SampleSet(
        [(-1, -1), (1, -1), (1, 1), (-1, 1), (0.0, 0.0)], [10.0, 20.0, 30.0, 40.0, 7.0]
    )
    spec = GridSpec(-2, 2, -2, 2, 9, 9)
    rows = evaluate_grid(samples, spec, method=method)
    tri = build_delaunay(samples)
    xs = spec.xs()
    ys = list(reversed(spec.ys()))
    for r, y in enumerate(ys):
        for c, x in enumerate(xs):
            kind = classify_query(samples, (x, y)).kind
            if kind in (QueryKind.EXTERIOR, QueryKind.ON_BOUNDARY):
                assert rows[r][c] is None
            elif kind is QueryKind.COINCIDENT:
                assert rows[r][c] == samples.elevations[classify_query(samples, (x, y)).site_index]
            elif method == "moebius":
                assert rows[r][c].hex() == interpolate(samples, (x, y)).hex()
            else:
                expected = sibson_interpolate(tri, samples.elevations, (x, y))
                assert rows[r][c].hex() == expected.hex()
    assert rows[4][4] == 7.0


def test_evaluate_grid_sibson_places_cells_with_the_triangulation(monkeypatch):
    samples = SampleSet(
        [(-1, -1), (1, -1), (1, 1), (-1, 1), (0.0, 0.0)], [10.0, 20.0, 30.0, 40.0, 7.0]
    )
    spec = GridSpec(-2, 2, -2, 2, 9, 9)
    expected = evaluate_grid(samples, spec, method="sibson")

    def no_scan(*args, **kwargs):
        raise AssertionError("classify_query called")

    # lunenn.interpolate names the function; patch the module's binding.
    monkeypatch.setattr(sys.modules["lunenn.interpolate"], "classify_query", no_scan)
    assert evaluate_grid(samples, spec, method="sibson") == expected


def test_evaluate_grid_sibson_places_each_cell_once(monkeypatch):
    samples = SampleSet(
        [(-1, -1), (1, -1), (1, 1), (-1, 1), (0.0, 0.0)], [10.0, 20.0, 30.0, 40.0, 7.0]
    )
    spec = GridSpec(-2, 2, -2, 2, 9, 9)
    calls = []
    place = Triangulation._place

    def counted(self, *args):
        calls.append(args)
        return place(self, *args)

    monkeypatch.setattr(Triangulation, "_place", counted)
    evaluate_grid(samples, spec, method="sibson")
    assert len(calls) == spec.nx * spec.ny


def test_evaluate_grid_bad_method():
    with pytest.raises(DegenerateInputError):
        evaluate_grid(_square_samples(), GridSpec(-1, 1, -1, 1, 2, 2), method="bogus")


def _read_pgm(path):
    tokens = path.read_text().split()
    assert tokens[0] == "P2"
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    pixels = [int(t) for t in tokens[4:]]
    assert len(pixels) == width * height
    return width, height, maxval, pixels


def test_write_pgm_linear_scale(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm([[0.0, 1.0], [2.0, 3.0]], path)
    width, height, maxval, pixels = _read_pgm(path)
    assert (width, height, maxval) == (2, 2, 255)
    assert pixels == [0, 85, 170, 255]


def test_write_pgm_constant(tmp_path):
    path = tmp_path / "b.pgm"
    write_pgm([[4.0, 4.0], [4.0, 4.0]], path)
    assert _read_pgm(path)[3] == [128, 128, 128, 128]


def test_write_pgm_error_cells(tmp_path):
    path = tmp_path / "c.pgm"
    write_pgm([[None, 5.0], [10.0, None]], path)
    assert _read_pgm(path)[3] == [0, 0, 255, 0]


def test_write_pgm_rejects_ragged(tmp_path):
    with pytest.raises(DegenerateInputError):
        write_pgm([[1.0, 2.0], [3.0]], tmp_path / "d.pgm")
    with pytest.raises(DegenerateInputError):
        write_pgm([], tmp_path / "e.pgm")


def test_write_pgm_rejects_complex(tmp_path):
    with pytest.raises(DegenerateInputError):
        write_pgm([[1 + 1j, 0.0]], tmp_path / "f.pgm")
