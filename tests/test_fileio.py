"""CSV ingestion, grid evaluation, and PGM output."""

import math
import sys

import pytest

from lunenn import (
    CoincidentQueryError,
    CsvFormatError,
    DegenerateInputError,
    SampleSet,
    Triangulation,
    build_delaunay,
    interpolate,
    sibson_interpolate,
)
from lunenn.fileio import GridSpec, evaluate_grid, load_samples_csv, write_pgm
from lunenn.interpolate import QueryKind, classify_query

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


def test_load_byte_order_mark(tmp_path):
    # Spreadsheet programs often save UTF-8 CSVs with a leading BOM.
    plain = load_samples_csv(_write(tmp_path, "sq.csv", SQUARE_CSV))
    path = tmp_path / "bom.csv"
    path.write_bytes(SQUARE_CSV.encode("utf-8-sig"))
    marked = load_samples_csv(path)
    assert marked.sites == plain.sites
    assert marked.elevations == plain.elevations


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


def test_grids_over_a_span_beyond_the_float_range():
    # x_max - x_min overflows, or the last node does; the nodes still run
    # from x_min to x_max.
    b = 1.5e308
    spec = GridSpec(-b, b, -b, b, 5, 5)
    assert spec.xs() == spec.ys() == [-b, -0.5 * b, 0.0, 0.5 * b, b]
    top = sys.float_info.max
    for lo, hi, n in ((-top, top, 7), (-top / 2, top / 2, 4), (1.0, top, 9)):
        xs = GridSpec(lo, hi, 0, 1, n, 2).xs()
        assert xs[0] == lo and xs[-1] == hi
        assert all(u < v for u, v in zip(xs, xs[1:]))
    samples = SampleSet([(-b, -b), (b, -b), (b, b), (-b, b), (1e307, -2e307)], [1.0, 2.0, 3.0, 4.0, 5.0])
    for method in ("moebius", "sibson"):
        rows = evaluate_grid(samples, spec, method=method)
        assert all(v is None or math.isfinite(v) for row in rows for v in row)
        assert all(v is not None for row in rows[1:4] for v in row[1:4])


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
            try:
                kind = classify_query(samples, (x, y))
            except CoincidentQueryError as exc:
                assert rows[r][c] == samples.elevations[exc.site_index]
                continue
            if kind in (QueryKind.EXTERIOR, QueryKind.ON_BOUNDARY):
                assert rows[r][c] is None
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
    place = Triangulation._virtual_cavity

    def counted(self, *args):
        calls.append(args)
        return place(self, *args)

    monkeypatch.setattr(Triangulation, "_virtual_cavity", counted)
    evaluate_grid(samples, spec, method="sibson")
    assert len(calls) == spec.nx * spec.ny


@pytest.mark.parametrize("method", ["moebius", "sibson"])
def test_a_node_whose_value_leaves_the_float_range_is_a_blank_cell(method):
    # The sites and query of test_lune_angles_that_collapse_to_zero_raise:
    # at q the lune angles, and the stolen areas, leave the float range.
    sites = [
        (4.263379776465315e-265, -6.839745504705037e-57),
        (-9.662386915840475e-151, 7.146847649630497e75),
        (-5.205696356724228e45, -6.734043794580802e62),
        (-4.388366283137255e-32, -3.11320122650121e-90),
        (7.490652107472413e19, -5.532175853008259e222),
    ]
    qx, qy = -8.293864431881807e44, -2.8235043238202905e222
    samples = SampleSet(sites, [1.0, 2.0, 3.0, 4.0, 5.0])
    rows = evaluate_grid(samples, GridSpec(qx, qx / 2, qy, qy / 2, 2, 2), method=method)
    # Rows run from y_max down, so q = (x_min, y_min) is the last row's first node.
    assert len(rows) == 2 and all(len(row) == 2 for row in rows)
    assert rows[1][0] is None


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


def test_write_pgm_span_beyond_the_float_range(tmp_path):
    # hi - lo, or 255 times it, overflows; the scale stays linear.
    path = tmp_path / "h.pgm"
    write_pgm([[-1.7e308, 1.7e308]], path)
    assert path.read_text().splitlines()[3] == "0 255"
    write_pgm([[-1.7e308, 0.0, -0.85e308]], path)
    assert _read_pgm(path)[3] == [0, 255, 128]


def test_write_pgm_rejects_ragged(tmp_path):
    with pytest.raises(DegenerateInputError):
        write_pgm([[1.0, 2.0], [3.0]], tmp_path / "d.pgm")
    with pytest.raises(DegenerateInputError):
        write_pgm([], tmp_path / "e.pgm")


def test_write_pgm_rejects_complex(tmp_path):
    with pytest.raises(DegenerateInputError):
        write_pgm([[1 + 1j, 0.0]], tmp_path / "f.pgm")


def test_write_pgm_rejects_non_finite(tmp_path):
    for bad in (math.nan, math.inf):
        with pytest.raises(DegenerateInputError, match="grid values must be finite"):
            write_pgm([[bad, 1.0]], tmp_path / "g.pgm")


def test_grid_spec_rejects_bad_extents_and_counts():
    with pytest.raises(DegenerateInputError, match="grid extents must be finite"):
        evaluate_grid(_square_samples(), GridSpec(0, 10**400, 0, 1, 4, 4))
    with pytest.raises(DegenerateInputError, match="grid extents must be finite"):
        GridSpec(0, math.inf, 0, 1, 4, 4)
    for nx, ny in ((4.5, 4), (4, "4"), (4, 4.0)):
        with pytest.raises(DegenerateInputError, match="node counts"):
            GridSpec(0, 1, 0, 1, nx, ny)
