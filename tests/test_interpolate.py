"""The inversion-hull interpolant: query classification, lune angles,
weight normalization, and the headline invariance under Moebius maps.

The neighbor tests check the hull construction against a slow
rational-arithmetic oracle that sweeps the whole pencil of circles
through the query and one site.
"""

import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lunenn import (
    CoincidentQueryError,
    DegenerateBoundaryError,
    DegenerateInputError,
    LuneAngleSet,
    OutsideDomainError,
    PreconditionError,
    SampleSet,
    WeightFunction,
    build_delaunay,
    interpolate,
    lune_angles,
    lune_angles_oracle,
    sibson_interpolate,
    sibson_weights,
    weights_from_angles,
)
from lunenn.cli import main
from lunenn.fileio import GridSpec, evaluate_grid
from lunenn.geometry import Point
from lunenn.hull import convex_hull, turning_angles
from lunenn.interpolate import QueryKind, classify_query
from lunenn.moebius import moebius_apply, moebius_from_inversion, random_moebius

SQUARE_SITES = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
SQUARE_Z = [10.0, 20.0, 30.0, 40.0]


def _square():
    return SampleSet(SQUARE_SITES, SQUARE_Z)


def _hexagon():
    pts = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    return SampleSet(pts, [float(k) for k in range(6)])


def _random_samples(rng, n=20, span=1.0):
    while True:
        sites = [(rng.uniform(-span, span), rng.uniform(-span, span)) for _ in range(n)]
        z = [rng.uniform(-1, 1) for _ in range(n)]
        try:
            return SampleSet(sites, z)
        except DegenerateInputError:
            continue


def _random_interior_query(rng, samples):
    while True:
        s = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        if classify_query(samples, s) is QueryKind.INTERIOR:
            return s


# ---------------------------------------------------------------- SampleSet


def test_sample_set_validation():
    with pytest.raises(DegenerateInputError):
        SampleSet([(0, 0), (1, 0)], [1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        SampleSet([(0, 0), (1, 0), (0, 1)], [1.0, 2.0])
    with pytest.raises(DegenerateInputError):
        SampleSet([(0, 0), (1, 0), (0, 0)], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInputError):
        SampleSet([(0, 0), (1, 1), (2, 2), (3, 3)], [0.0] * 4)
    with pytest.raises(DegenerateInputError):
        SampleSet([(0, 0), (1, 0), (0, math.inf)], [0.0] * 3)
    with pytest.raises(DegenerateInputError):
        SampleSet([(0, 0), (1, 0), (0, 1)], [0.0, math.nan, 0.0])


def test_sample_set_complex_elevations():
    samples = SampleSet([(0, 0), (1, 0), (0, 1)], [1 + 2j, 3, 4.0])
    assert samples.elevations == (1 + 2j, 3.0, 4.0)
    assert [type(z) for z in samples.elevations] == [complex, float, float]
    assert isinstance(interpolate(samples, (0.25, 0.25)), complex)
    assert isinstance(interpolate(_square(), (0, 0)), float)


def test_sample_set_diagonal():
    assert abs(_square().diagonal - math.hypot(2, 2)) <= 1e-15


# ------------------------------------------------------------ classification


def test_classify_square_center():
    assert classify_query(_square(), (0, 0)) is QueryKind.INTERIOR


def test_classify_exact_site():
    with pytest.raises(CoincidentQueryError, match="query coincides with site 2") as raised:
        classify_query(_square(), (1, 1))
    assert raised.value.site_index == 2


def test_classify_edge_midpoint():
    assert classify_query(_square(), (1, 0)) is QueryKind.ON_BOUNDARY


def test_classify_exterior():
    assert classify_query(_square(), (5, 5)) is QueryKind.EXTERIOR


def test_classify_snap_radius():
    samples = _square()
    eps = 0.5 * samples.diagonal * 1e-12
    with pytest.raises(CoincidentQueryError) as raised:
        classify_query(samples, (1 + eps, 1))
    assert raised.value.site_index == 2
    assert classify_query(samples, (1 - 1e-6, 1 - 1e-6)) is QueryKind.INTERIOR


def test_classify_tie_goes_to_lowest_index():
    # Sites 2**-49 apart, well inside the snap radius of each other; the
    # midpoint is exactly as far from both.
    samples = SampleSet([(0, 0), (2.0 ** -49, 0), (1, 5), (1, -5)], [0.0] * 4)
    with pytest.raises(CoincidentQueryError) as raised:
        classify_query(samples, (2.0 ** -50, 0))
    assert raised.value.site_index == 0


# ------------------------------------------------------------- lune angles


def test_square_lune_angles():
    angles = lune_angles(_square(), (0, 0))
    assert angles.indices == (0, 1, 2, 3)
    for theta in angles.angles:
        assert abs(theta - math.pi / 2) <= 1e-12
    assert abs(angles.total() - 2 * math.pi) <= 1e-12


def test_regular_polygon_lune_angles():
    rng = random.Random(2)
    for n in (3, 5, 8, 12):
        phase = rng.uniform(0, 2 * math.pi)
        pts = [
            (math.cos(phase + 2 * math.pi * k / n), math.sin(phase + 2 * math.pi * k / n))
            for k in range(n)
        ]
        samples = SampleSet(pts, [0.0] * n)
        angles = lune_angles(samples, (0, 0))
        assert angles.indices == tuple(range(n))
        for theta in angles.angles:
            assert abs(theta - 2 * math.pi / n) <= 1e-12


def test_lune_angle_sum_random():
    rng = random.Random(101)
    for _ in range(100):
        samples = _random_samples(rng)
        s = _random_interior_query(rng, samples)
        angles = lune_angles(samples, s)
        assert abs(angles.total() - 2 * math.pi) <= 1e-9
        for theta in angles.angles:
            assert 0.0 < theta <= math.pi
        assert len(set(angles.indices)) == len(angles.indices)


def test_lune_angles_coincident_query():
    with pytest.raises(CoincidentQueryError) as err:
        lune_angles(_square(), (1.0, 1.0))
    assert err.value.site_index == 2


# ----------------------------------------------------------------- weights


def test_weights_square():
    w = weights_from_angles(lune_angles(_square(), (0, 0)))
    for weight in w.weights:
        assert abs(weight - 0.25) <= 1e-12


def test_weights_hexagon():
    w = weights_from_angles(lune_angles(_hexagon(), (0, 0)))
    assert len(w.entries) == 6
    for weight in w.weights:
        assert abs(weight - 1 / 6) <= 1e-12


def test_weights_all_functions_normalize():
    rng = random.Random(103)
    for _ in range(50):
        samples = _random_samples(rng, n=12)
        s = _random_interior_query(rng, samples)
        angles = lune_angles(samples, s)
        for wf in WeightFunction:
            w = weights_from_angles(angles, wf)
            assert abs(math.fsum(w.weights) - 1.0) <= 1e-12
            assert all(weight >= 0 for weight in w.weights)
            assert w.indices == angles.indices


def test_single_angle_near_pi_dominates():
    entries = (
        (0, math.pi - 1e-15),
        (1, math.pi / 2),
        (2, math.pi / 2 + 2e-15),
    )
    w = weights_from_angles(LuneAngleSet(entries))
    assert w.weights == (1.0, 0.0, 0.0)
    w = weights_from_angles(LuneAngleSet(entries), WeightFunction.TAN_HALF_SQUARED)
    assert w.weights == (1.0, 0.0, 0.0)
    # The bounded diagnostic function keeps its finite ratio.
    w = weights_from_angles(LuneAngleSet(entries), WeightFunction.ANGLE)
    assert abs(w.weights[0] - 0.5) <= 1e-12


def test_two_angles_near_pi_fail():
    entries = ((0, math.pi - 1e-14), (1, math.pi - 1e-14), (2, 2e-14))
    with pytest.raises(DegenerateBoundaryError):
        weights_from_angles(LuneAngleSet(entries))


# ------------------------------------------------------------- interpolate


def test_square_center_value():
    assert interpolate(_square(), (0, 0)) == 25.0


def test_exact_coincidence_returns_elevation():
    samples = SampleSet([(0, 0), (1, 0), (0, 1), (0.3, 0.4)], [5.0, 6.0, 7.0, 8.25])
    assert interpolate(samples, (0.3, 0.4)) == 8.25


def test_boundary_query_fails():
    with pytest.raises(DegenerateBoundaryError):
        interpolate(_square(), (1, 0))


def test_exterior_policy():
    with pytest.raises(OutsideDomainError):
        interpolate(_square(), (5, 5))
    value = interpolate(_square(), (5, 5), allow_exterior=True)
    assert math.isfinite(value)


_NAN, _INF = math.nan, math.inf

#: Each entry point fed a query with a non-finite coordinate.
_NON_FINITE_CALLS = {
    "interpolate": lambda sq: interpolate(sq, (_NAN, 0.0)),
    "interpolate-exterior": lambda sq: interpolate(sq, (_INF, 0.0), allow_exterior=True),
    "classify_query": lambda sq: classify_query(sq, (0.0, _INF)),
    "lune_angles": lambda sq: lune_angles(sq, (-_INF, 0.0)),
    "sibson_interpolate": lambda sq: sibson_interpolate(build_delaunay(sq), sq.elevations, (_NAN, 0.0)),
    "sibson_weights": lambda sq: sibson_weights(build_delaunay(sq), (0.0, -_INF)),
    "lune_angles_oracle": lambda sq: lune_angles_oracle(build_delaunay(sq), (_INF, _INF)),
    "Triangulation._virtual_cavity": lambda sq: build_delaunay(sq)._virtual_cavity((_NAN, _NAN)),
    "evaluate_grid": lambda sq: evaluate_grid(sq, GridSpec(-_INF, _INF, -1, 1, 4, 4)),
}


@pytest.mark.parametrize(
    "entry", sorted(_NON_FINITE_CALLS) + ["cli-eval", "cli-weights", "cli-grid"]
)
def test_non_finite_query_is_a_domain_error(entry, tmp_path, capsys):
    # GridSpec rejects a non-finite extent before any node becomes a query.
    what = "grid extents" if "grid" in entry else "query coordinates"
    if entry in _NON_FINITE_CALLS:
        with pytest.raises(DegenerateInputError, match="%s must be finite" % what):
            _NON_FINITE_CALLS[entry](_square())
        return
    path = tmp_path / "square.csv"
    path.write_text("x,y,z\n-1,-1,10\n1,-1,20\n1,1,30\n-1,1,40\n", encoding="utf-8")
    argv = {
        "cli-eval": ["eval", "--at=nan,0"],
        "cli-weights": ["weights", "--at=0,inf"],
        "cli-grid": ["grid", "--grid=-inf,inf,-1,1,4,4", "--out", str(tmp_path / "g.pgm")],
    }[entry]
    assert main(argv + ["--samples", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s must be finite\n" % what


def test_int_too_large_for_a_float_is_a_domain_error():
    huge = 10**400
    with pytest.raises(DegenerateInputError, match="query coordinates must be finite"):
        interpolate(_square(), (huge, 0))
    with pytest.raises(DegenerateInputError, match="query coordinates must be finite"):
        sibson_interpolate(build_delaunay(_square()), SQUARE_Z, (0, -huge))
    with pytest.raises(DegenerateInputError, match="site coordinates must be finite"):
        SampleSet([(0, 0), (1, 0), (0, huge)], [0.0] * 3)
    with pytest.raises(DegenerateInputError, match="elevations must be finite"):
        SampleSet([(0, 0), (1, 0), (0, 1)], [0.0, -huge, 0.0])


def test_a_set_keeps_the_callers_float_pairs_and_converts_the_rest():
    sites = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (0.25, 0.5)]
    samples = SampleSet(sites, SQUARE_Z + [25.0])
    assert all(samples._sites[i] is sites[i] for i in range(len(sites)))
    assert samples._unit is samples._sites

    class Real(float):
        pass

    for given in (Point(0.25, 0.5), [0.25, 0.5], (0, 1), (Real(0.25), Real(0.5))):
        kept = SampleSet(sites[:4] + [given], SQUARE_Z + [25.0])._sites[4]
        assert type(kept) is tuple and [type(t) for t in kept] == [float, float]
        assert kept == (float(given[0]), float(given[1]))
    with pytest.raises(DegenerateInputError, match="site coordinates must be finite"):
        SampleSet(sites[:4] + [(math.nan, 0.5)], SQUARE_Z + [25.0])


#: Each entry point fed a point that is text or does not unpack into two coordinates,
#: or a coordinate, an elevation or a grid extent that is text or that float() rejects.
_MALFORMED_CALLS = {
    "SampleSet": lambda bad: SampleSet(SQUARE_SITES[:3] + [bad], SQUARE_Z),
    "interpolate": lambda bad: interpolate(_square(), bad),
    "lune_angles": lambda bad: lune_angles(_square(), bad),
    "sibson_interpolate": lambda bad: sibson_interpolate(build_delaunay(_square()), SQUARE_Z, bad),
    "SampleSet-elevation": lambda bad: SampleSet(SQUARE_SITES, [10.0, bad, 30.0, 40.0]),
    "sibson_interpolate-elevation": lambda bad: sibson_interpolate(build_delaunay(_square()), [10.0, bad, 30.0, 40.0], (0.1, 0.2)),
    "GridSpec": lambda bad: evaluate_grid(_square(), GridSpec(-0.5, bad, -0.5, 0.5, 2, 2)),
}
_MALFORMED = [
    (entry, bad)
    for entry in _MALFORMED_CALLS
    for bad in (
        [None, "x", [1.0], "20"] if entry.endswith("elevation")
        else ["0.5", b"0.5", None] if entry == "GridSpec"
        else [(0.3,), (0.3, 0.4, 123), 5, None, "ab", "00", b"\x00\x00", (None, 0.4), (0.3, "x"), (0.3, 1j), (0.3, "0.4"), ("0.3", 0.4)]
    )
]


@pytest.mark.parametrize("entry, bad", _MALFORMED, ids=["%s-%r" % case for case in _MALFORMED])
def test_malformed_input_is_a_domain_error(entry, bad):
    with pytest.raises(DegenerateInputError, match="two coordinates|must be finite, not"):
        _MALFORMED_CALLS[entry](bad)


#: Each entry point fed a site list, an elevation list or a weight function
#: of the wrong type, with the error it must raise.
_WRONG_TYPE_CALLS = {
    "SampleSet-sites-None": (DegenerateInputError, lambda: SampleSet(None, [1, 2, 3])),
    "SampleSet-sites-int": (DegenerateInputError, lambda: SampleSet(5, [1, 2, 3])),
    "SampleSet-elevations-None": (DegenerateInputError, lambda: SampleSet(SQUARE_SITES, None)),
    "SampleSet-elevations-int": (DegenerateInputError, lambda: SampleSet(SQUARE_SITES, 5)),
    "sibson_interpolate-elevations-None": (
        DegenerateInputError,
        lambda: sibson_interpolate(build_delaunay(_square()), None, (0.1, 0.2)),
    ),
    "SampleSet-elevations-str": (DegenerateInputError, lambda: SampleSet(SQUARE_SITES, "1234")),
    "SampleSet-elevations-bytes": (DegenerateInputError, lambda: SampleSet(SQUARE_SITES, b"\x01\x02\x03\x04")),
    "sibson_interpolate-elevations-str": (
        DegenerateInputError,
        lambda: sibson_interpolate(build_delaunay(_square()), "1234", (0.1, 0.2)),
    ),
    "sibson_interpolate-elevations-bytes": (
        DegenerateInputError,
        lambda: sibson_interpolate(build_delaunay(_square()), b"\x01\x02\x03\x04", (0.1, 0.2)),
    ),
    "interpolate-weight_fn-str": (PreconditionError, lambda: interpolate(_square(), (0.1, 0.2), weight_fn="tan")),
    "interpolate-weight_fn-coincident": (PreconditionError, lambda: interpolate(_square(), (1, 1), weight_fn=None)),
    "weights_from_angles-weight_fn-None": (
        PreconditionError,
        lambda: weights_from_angles(lune_angles(_square(), (0.1, 0.2)), None),
    ),
}


@pytest.mark.parametrize("entry", list(_WRONG_TYPE_CALLS))
def test_wrong_argument_types_are_library_errors(entry):
    error, call = _WRONG_TYPE_CALLS[entry]
    with pytest.raises(error, match="must be (a |sequences)"):
        call()


def test_repro_values_do_not_depend_on_the_scale():
    # Unframed, the squares underflow at 1e-300 and 1e-200 (every query
    # would snap to a site), the turning angles overflow at 1e-160 and the
    # images collapse from 1e155 up.
    rng = random.Random(0)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(30)]
    z = [x + 2 * y for x, y in sites]

    def values(c):
        samples = SampleSet([(x * c, y * c) for x, y in sites], z)
        q = (0.1 * c, -0.05 * c)
        return interpolate(samples, q), sibson_interpolate(build_delaunay(samples), z, q)

    unit = values(1.0)
    assert abs(unit[0] + 0.00266) <= 1e-5 and abs(unit[1]) <= 1e-12
    for c in (1e-300, 1e-200, 1e-160, 1e155, 1e300):
        for got, want in zip(values(c), unit):
            assert math.isfinite(got) and abs(got - want) <= 1e-12
    for k in (-1000, 1000):
        assert [v.hex() for v in values(2.0 ** k)] == [v.hex() for v in unit]


def test_square_at_the_top_of_the_float_range_matches_its_scaled_copy():
    # The diagonal overflows: a snap radius of 1e-12 * diagonal in input
    # units would make every query take a corner's value.
    big = [(-1e308, -1e308), (1e308, -1e308), (1e308, 1e308), (-1e308, 1e308), (0.5, 0.25)]
    z = [1.0, 2.0, 3.0, 4.0, 5.0]
    samples = SampleSet(big, z)
    small = SampleSet([(math.ldexp(x, -1000), math.ldexp(y, -1000)) for x, y in big], z)
    assert samples.diagonal == math.inf
    tri, small_tri = build_delaunay(samples), build_delaunay(small)
    for q in ((5e307, 0.0), (1e307, -3e307), (-2e307, 6e307)):
        sq = (math.ldexp(q[0], -1000), math.ldexp(q[1], -1000))
        got = (interpolate(samples, q), sibson_interpolate(tri, z, q))
        assert got == (interpolate(small, sq), sibson_interpolate(small_tri, z, sq))
        assert not set(got) & set(z)


def test_sites_that_coincide_in_the_frame_raise_at_construction():
    # Framed by 2**-768, the subnormal x of site 1 rounds to 0.
    with pytest.raises(DegenerateInputError, match="sites 0 and 1 coincide at the float range's precision") as info:
        SampleSet([(0.0, 0.0), (5e-324, 0.0), (0.0, 1e308)], [0.0] * 3)
    assert "e-324" not in str(info.value)
    with pytest.raises(DegenerateInputError, match=r"sites 0 and 2 coincide at \(1e\+300, 0\)"):
        SampleSet([(1e300, 0.0), (0.0, 1e300), (1e300, 0.0)], [0.0] * 3)


def test_far_exterior_lune_query_says_why_it_fails():
    # The images collapse onto a line, though the sites are not collinear.
    samples = SampleSet(SQUARE_SITES + [(0.3, 0.1)], SQUARE_Z + [0.0])
    for q in ((1e150, 0.0), (1e300, 0.0)):
        assert classify_query(samples, q) is QueryKind.EXTERIOR
        with pytest.raises(DegenerateInputError, match="query lies too far from the sites for the float range"):
            interpolate(samples, q, allow_exterior=True)
    # A query whose framed coordinates overflow stays outside the hull.
    rng = random.Random(0)
    tiny = [(rng.uniform(-1, 1) * 1e-300, rng.uniform(-1, 1) * 1e-300) for _ in range(30)]
    samples = SampleSet(tiny, [0.0] * 30)
    q = (1e100, -1e300)
    assert classify_query(samples, q) is QueryKind.EXTERIOR
    with pytest.raises(OutsideDomainError):
        interpolate(samples, q)
    with pytest.raises(DegenerateInputError, match="query lies too far"):
        lune_angles(samples, q)
    with pytest.raises(OutsideDomainError):
        sibson_interpolate(build_delaunay(samples), samples.elevations, q)
    # Sites on one circle through the query do invert to collinear images.
    with pytest.raises(DegenerateInputError, match="points are collinear"):
        lune_angles(SampleSet([(1, 0), (0, 1), (-1, 0)], [0.0] * 3), (0, -1))


def test_lune_angles_that_collapse_to_zero_raise():
    # Images spread over hundreds of orders of magnitude turn by a float
    # angle of 0 at site 0, outside the (0, pi] that LuneAngleSet promises;
    # the other two angles of pi would read as a query on a segment.
    sites = [
        (4.263379776465315e-265, -6.839745504705037e-57),
        (-9.662386915840475e-151, 7.146847649630497e75),
        (-5.205696356724228e45, -6.734043794580802e62),
        (-4.388366283137255e-32, -3.11320122650121e-90),
        (7.490652107472413e19, -5.532175853008259e222),
    ]
    q = (-8.293864431881807e44, -2.8235043238202905e222)
    ring = SampleSet(sites, [1.0, 2.0, 3.0, 4.0, 5.0])
    meshed = SampleSet(sites, [1.0, 2.0, 3.0, 4.0, 5.0])
    meshed._mesh = build_delaunay(meshed)
    for samples in (ring, meshed):
        for call in (lune_angles, interpolate):
            with pytest.raises(DegenerateInputError, match="lune angles left the float range"):
                call(samples, q)
    assert ring._mesh is None


def test_a_site_on_an_image_hull_edge_is_omitted():
    # Each query lies on the circle through the four corners of the 6x5
    # lattice, so the images of the far two lie on the image-hull edge
    # between those of the near two, and turn by a float 0 as hull corners.
    sites = [(float(x), float(y)) for x in range(6) for y in range(5)]
    z = [3 * x - 2 * y + 7 for x, y in sites]
    ring = SampleSet(sites, z)
    meshed = SampleSet(sites, z)
    meshed._mesh = build_delaunay(meshed)
    for q in ((4.5, -0.5), (0.5, -0.5), (4.5, 4.5), (0.5, 4.5)):
        angles = lune_angles(ring, q)
        assert lune_angles(meshed, q) == angles
        value = interpolate(ring, q, allow_exterior=True)
        assert interpolate(meshed, q, allow_exterior=True) == value and math.isfinite(value)
        row = 0.0 if q[1] < 0 else 4.0
        assert [sites[i] for i, _ in angles.entries] == [(float(x), row) for x in range(6)]
        assert all(theta > 0.0 for _, theta in angles.entries)
        assert abs(math.fsum(theta for _, theta in angles.entries) - 2 * math.pi) <= 4 * math.ulp(2 * math.pi)
    assert ring._mesh is None


def _sweep_sites(kind, rng):
    if kind == "random":
        return [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.choice((12, 40)))]
    if kind == "lattice":
        side = rng.choice((3, 6))
        return [(float(i), float(j)) for i in range(side) for j in range(side)]
    sites = [(rng.gauss(0.3, 1e-3), rng.gauss(0.2, 1e-3)) for _ in range(40)]
    return sites + [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]


def _bits(fn):
    """fn()'s result as hex strings, or its library error's type and site."""
    try:
        result = fn()
    except (CoincidentQueryError, DegenerateBoundaryError, DegenerateInputError, OutsideDomainError) as exc:
        return type(exc).__name__, getattr(exc, "site_index", None)
    if isinstance(result, float):
        assert math.isfinite(result)
        return result.hex()
    return tuple((i, v.hex()) for i, v in result.entries)


def _sweep_outputs(sites, z, queries):
    samples = SampleSet(sites, z)
    tri = build_delaunay(samples)
    calls = (
        lambda q: lune_angles(samples, q),
        lambda q: weights_from_angles(lune_angles(samples, q)),
        lambda q: interpolate(samples, q, allow_exterior=True),
        lambda q: lune_angles_oracle(tri, q),
        lambda q: sibson_weights(tri, q),
        lambda q: sibson_interpolate(tri, z, q),
    )
    return [_bits(lambda: call(q)) for q in queries for call in calls]


@settings(max_examples=100, deadline=None, derandomize=True)
@example(kind="random", seed=0, k=-1000)
@example(kind="clustered", seed=1, k=1000)
@example(kind="lattice", seed=2, k=-1000)
@given(
    kind=st.sampled_from(("random", "lattice", "clustered")),
    seed=st.integers(0, 2**32),
    k=st.integers(-1000, 1000),
)
def test_power_of_two_scaling_keeps_every_output_bit(kind, seed, k):
    rng = random.Random(seed)
    sites = _sweep_sites(kind, rng)
    z = [x - 2 * y + x * y for x, y in sites]
    xs, ys = [x for x, _ in sites], [y for _, y in sites]
    queries = [(rng.uniform(min(xs), max(xs)), rng.uniform(min(ys), max(ys))) for _ in range(4)] + [sites[1]]

    def scaled(points):
        return [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in points]

    assume(all(math.ldexp(t, -k) == u for p, q in zip(scaled(sites + queries), sites + queries) for t, u in zip(p, q)))
    assert _sweep_outputs(scaled(sites), z, scaled(queries)) == _sweep_outputs(sites, z, queries)


def test_convex_combination_bounds():
    rng = random.Random(107)
    for _ in range(100):
        samples = _random_samples(rng)
        s = _random_interior_query(rng, samples)
        value = interpolate(samples, s)
        angles = lune_angles(samples, s)
        zs = [samples.elevations[i] for i in angles.indices]
        assert min(zs) - 1e-12 <= value <= max(zs) + 1e-12


def test_complex_elevations_componentwise():
    rng = random.Random(109)
    sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(15)]
    re = [rng.uniform(-1, 1) for _ in range(15)]
    im = [rng.uniform(-1, 1) for _ in range(15)]
    both = SampleSet(sites, [complex(a, b) for a, b in zip(re, im)])
    s = _random_interior_query(rng, both)
    value = interpolate(both, s)
    assert isinstance(value, complex)
    assert value.real.hex() == interpolate(SampleSet(sites, re), s).hex()
    assert value.imag.hex() == interpolate(SampleSet(sites, im), s).hex()


def test_harmonic_value_on_dense_circle():
    n = 256
    pts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    samples = SampleSet(pts, [x * x - y * y for x, y in pts])
    assert abs(interpolate(samples, (0.3, 0.2)) - 0.05) <= 2e-3


def test_continuity_at_samples():
    rng = random.Random(113)
    for _ in range(30):
        samples = _random_samples(rng, n=15)
        zs = samples.elevations
        spread = max(zs) - min(zs)
        i = rng.randrange(samples.size)
        site = samples.sites[i]
        t = rng.uniform(0, 2 * math.pi)
        eps = 1e-9 * samples.diagonal
        s = (site.x + eps * math.cos(t), site.y + eps * math.sin(t))
        if classify_query(samples, s) is not QueryKind.INTERIOR:
            continue
        value = interpolate(samples, s)
        assert abs(value - zs[i]) <= 1e-6 * spread


def test_small_angle_weights_track_angles():
    # Dense jittered circle samples: tan(theta/2) stays within O(theta^2)
    # of theta/2, so weights track theta / 2 pi.
    rng = random.Random(127)
    n = 256
    ts = sorted(2 * math.pi * (k + rng.uniform(0.1, 0.9)) / n for k in range(n))
    pts = [(math.cos(t), math.sin(t)) for t in ts]
    samples = SampleSet(pts, [0.0] * n)
    angles = lune_angles(samples, (0, 0))
    weights = weights_from_angles(angles)
    worst = max(
        abs(w - theta / (2 * math.pi))
        for (_, theta), (_, w) in zip(angles.entries, weights.entries)
    )
    assert worst <= 1e-6


def test_weights_ignore_buried_site():
    # A site whose inverted image lands strictly inside the inverted hull
    # changes nothing.
    base = SampleSet(SQUARE_SITES, SQUARE_Z)
    grown = SampleSet(SQUARE_SITES + [(10, 0)], SQUARE_Z + [999.0])
    s = (0.0, 0.0)
    w_base = weights_from_angles(lune_angles(base, s))
    w_grown = weights_from_angles(lune_angles(grown, s))
    assert w_base.indices == w_grown.indices
    for a, b in zip(w_base.weights, w_grown.weights):
        assert abs(a - b) <= 1e-12
    assert interpolate(base, s) == interpolate(grown, s)


# ---------------------------------------------------------------- neighbors


def _neighbor_oracle(sites, s, j, strict=False):
    """Slow exact test: is there a circle or line through s and site j
    with every other site on or outside it, or on or inside it?  Circles
    through the two points have centers m + t*u on the bisector; each
    site contributes an affine constraint in t.  With strict set, the
    other sites must stay strictly off the circle."""
    sx, sy = Fraction(s[0]), Fraction(s[1])
    jx, jy = Fraction(sites[j][0]), Fraction(sites[j][1])
    mx, my = (sx + jx) / 2, (sy + jy) / 2
    ux, uy = -(jy - sy), jx - sx
    lower, upper = None, None          # feasible t range for "all outside"
    lower2, upper2 = None, None        # and for "all inside"
    feasible_out = True
    feasible_in = True
    for k, site in enumerate(sites):
        if k == j:
            continue
        kx, ky = Fraction(site[0]), Fraction(site[1])
        # Positive on the outside of the circle centered at m + t*u.
        a = (kx * kx + ky * ky - sx * sx - sy * sy) - 2 * ((kx - sx) * mx + (ky - sy) * my)
        b = -2 * ((kx - sx) * ux + (ky - sy) * uy)
        if b == 0:
            if a < 0 or (strict and a == 0):
                feasible_out = False
            if a > 0 or (strict and a == 0):
                feasible_in = False
            continue
        bound = -a / b
        if b > 0:
            lower = bound if lower is None else max(lower, bound)
            upper2 = bound if upper2 is None else min(upper2, bound)
        else:
            upper = bound if upper is None else min(upper, bound)
            lower2 = bound if lower2 is None else max(lower2, bound)
    if feasible_out and lower is not None and upper is not None:
        feasible_out = lower < upper if strict else lower <= upper
    if feasible_in and lower2 is not None and upper2 is not None:
        feasible_in = lower2 < upper2 if strict else lower2 <= upper2
    return feasible_out or feasible_in


def test_far_site_not_a_neighbor():
    samples = SampleSet(SQUARE_SITES + [(10, 0)], [0.0] * 5)
    assert lune_angles(samples, (0, 0)).indices == (0, 1, 2, 3)
    assert not _neighbor_oracle(samples.sites, (0, 0), 4)


def test_on_edge_image_is_extended_but_carries_no_angle():
    # Sites on a circle through the query invert to collinear images; the
    # middle image sits on a hull edge, so sites 0 and 5 touch an empty
    # circle through the query but carry zero turning angle.
    sites = [(2, 0), (1, 1), (1, -1), (-1, 1), (-1, -1), (-2, 0)]
    samples = SampleSet(sites, [0.0] * 6)
    s = (0.0, 0.0)
    angles = lune_angles(samples, s)
    assert angles.indices == (1, 2, 3, 4)
    for theta in angles.angles:
        assert abs(theta - math.pi / 2) <= 1e-12
    for j in range(6):
        assert _neighbor_oracle(sites, s, j)


def test_extended_neighbors_match_circle_pencil_oracle():
    rng = random.Random(131)
    for trial in range(20):
        # Half-integer coordinates keep the oracle exact and produce
        # plenty of cocircular and collinear degeneracies.
        samples = None
        while samples is None:
            sites = list(
                {
                    (rng.randrange(-4, 5) / 2, rng.randrange(-4, 5) / 2)
                    for _ in range(12)
                }
            )
            if len(sites) < 5:
                continue
            try:
                samples = SampleSet(sites, [0.0] * len(sites))
            except DegenerateInputError:
                continue
        s = None
        while s is None:
            cand = (rng.randrange(-15, 16) / 8, rng.randrange(-15, 16) / 8)
            if cand in [(p.x, p.y) for p in samples.sites]:
                continue
            if classify_query(samples, cand) is QueryKind.INTERIOR:
                s = cand
        got = set(lune_angles(samples, s).indices)
        for j in range(samples.size):
            closed = _neighbor_oracle(samples.sites, s, j)
            strict = _neighbor_oracle(samples.sites, s, j, strict=True)
            # Borderline sites (a circle exists but only with another site
            # on it) may fall either way once the images are rounded.
            if strict:
                assert j in got
            elif not closed:
                assert j not in got


# --------------------------------------------------------------- invariance


def test_invariance_under_inversion():
    rng = random.Random(137)
    for _ in range(20):
        samples = _random_samples(rng, n=15)
        s = _random_interior_query(rng, samples)
        base = interpolate(samples, s)
        angles = dict(lune_angles(samples, s).entries)
        m = moebius_from_inversion((rng.uniform(2, 3), rng.uniform(2, 3)), rng.uniform(0.5, 1.5))
        mapped_sites = [moebius_apply(m, p) for p in samples.sites]
        mapped = SampleSet(mapped_sites, samples.elevations)
        ms = moebius_apply(m, Point(*s))
        mapped_angles = dict(lune_angles(mapped, ms).entries)
        assert sorted(mapped_angles) == sorted(angles)
        for i, theta in angles.items():
            assert abs(mapped_angles[i] - theta) <= 1e-8
        value = interpolate(mapped, ms, allow_exterior=True)
        assert abs(value - base) <= 1e-8 * max(1.0, abs(base))


def test_invariance_under_random_maps():
    rng = random.Random(139)
    for trial in range(20):
        samples = _random_samples(rng, n=12)
        s = _random_interior_query(rng, samples)
        m = random_moebius(
            rng.randrange(2**32),
            forbidden=list(samples.sites) + [s],
            clearance=0.15,
        )
        base = interpolate(samples, s)
        mapped_sites = [moebius_apply(m, p) for p in samples.sites]
        mapped = SampleSet(mapped_sites, samples.elevations)
        ms = moebius_apply(m, Point(*s))
        value = interpolate(mapped, ms, allow_exterior=True)
        assert abs(value - base) <= 1e-8 * max(1.0, abs(base))


#: Maps of the plane that take every difference site - query to its image
#: exactly; a translation does so only for sites and queries with few bits.
_SYMMETRIES = {
    "quarter turn": lambda x, y: (-y, x),
    "reflection": lambda x, y: (-x, y),
    "x-y swap": lambda x, y: (y, x),
    "translation": lambda x, y: (x + 5.75, y - 3.5),
}


def _symmetry_corpus(rng):
    # (name, sites, query box): uniform sites, a cocircular lattice, and
    # sites on a dyadic grid of step 2**-20.
    yield "uniform", [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(300)], (-2, 2)
    yield "lattice", [(float(x), float(y)) for x in range(13) for y in range(13)], (-3, 15)
    dyadic = [(rng.randint(-2**20, 2**20) / 2**20, rng.randint(-2**20, 2**20) / 2**20) for _ in range(300)]
    yield "dyadic", list(dict.fromkeys(dyadic)), (-2, 2)


def _interpolated_bits(sites, z, queries, meshed):
    samples = SampleSet(sites, z)
    if meshed:
        samples._mesh = build_delaunay(samples)
    out = []
    for q in queries:
        # Unless meshed, each query is answered by its rings, as a fresh set's first miss is.
        samples._misses = 0
        out.append(_bits(lambda: interpolate(samples, q, allow_exterior=True)))
    return out


@pytest.mark.parametrize("meshed", [False, True], ids=["fresh", "meshed"])
def test_interpolate_keeps_the_plane_symmetries_bit_for_bit(meshed):
    # Permuting the sites, and each map of _SYMMETRIES applied to sites and
    # queries alike, give the same bits: by the rings of a set without a
    # mesh and by the mesh.  The queries lie on a dyadic grid of step
    # 2**-12, over a box a quarter or more wider than the sites' on each side.
    rng = random.Random(433)
    for name, sites, (lo, hi) in _symmetry_corpus(rng):
        z = [rng.uniform(-1, 1) for _ in sites]
        queries = [(rng.randint(lo * 4096, hi * 4096) / 4096, rng.randint(lo * 4096, hi * 4096) / 4096) for _ in range(150)]
        order = list(range(len(sites)))
        rng.shuffle(order)
        variants = {"permutation": ([sites[i] for i in order], [z[i] for i in order], queries)}
        for symmetry, f in _SYMMETRIES.items():
            if symmetry != "translation" or name != "uniform":
                variants[symmetry] = ([f(*p) for p in sites], z, [f(*q) for q in queries])
        expected = _interpolated_bits(sites, z, queries, meshed)
        for symmetry, variant in variants.items():
            assert _interpolated_bits(*variant, meshed) == expected, (name, symmetry)


def _shifted_set(offset, rng):
    # 300 sites in [0, 1]**2 moved by offset, and 40 interior queries; p - offset is exact.
    sites = [(rng.random() + offset, rng.random() + offset) for _ in range(300)]
    sites += [(offset, offset), (offset + 1, offset), (offset + 1, offset + 1), (offset, offset + 1)]
    queries = [(rng.uniform(0.05, 0.95) + offset, rng.uniform(0.05, 0.95) + offset) for _ in range(40)]
    return sites, queries


@pytest.mark.parametrize("offset", [2.0**10, 2.0**20, 2.0**30])
def test_sibson_reproduces_an_affine_field_far_from_the_origin(offset):
    # Sibson weights are solved relative to the query, so a set far from
    # the origin loses no digits that its coordinates hold.
    rng = random.Random(int(offset))
    sites, queries = _shifted_set(offset, rng)

    def f(x, y):
        return 2.0 * (x - offset) - 3.0 * (y - offset) + 0.5

    tri = build_delaunay(SampleSet(sites, [f(*p) for p in sites]))
    for q in queries:
        assert abs(sibson_interpolate(tri, tri.samples.elevations, q) - f(*q)) <= 1e-12


def test_oracle_agrees_with_lune_angles_far_from_the_origin():
    sites, queries = _shifted_set(2.0**20, random.Random(20))
    samples = SampleSet(sites, [0.0] * len(sites))
    tri = build_delaunay(samples)
    for q in queries:
        oracle, lune = lune_angles_oracle(tri, q), lune_angles(samples, q)
        assert oracle.indices == lune.indices
        assert max(abs(a - b) for a, b in zip(oracle.angles, lune.angles)) <= 1e-9


@pytest.mark.parametrize("symmetry", ["translation", "quarter turn"])
def test_sibson_and_the_oracle_keep_exact_maps_bit_for_bit(symmetry):
    # Both solve their circles relative to the query, from differences
    # site - query that an exact translation or a quarter turn keeps.
    f = _SYMMETRIES[symmetry]
    rng = random.Random(439)
    for name, sites, (lo, hi) in _symmetry_corpus(rng):
        if name == "uniform":
            continue
        queries = [(rng.randint(lo * 4096, hi * 4096) / 4096, rng.randint(lo * 4096, hi * 4096) / 4096) for _ in range(150)]
        tri = build_delaunay(SampleSet(sites, [0.0] * len(sites)))
        mapped = build_delaunay(SampleSet([f(*p) for p in sites], [0.0] * len(sites)))
        answered = 0
        for q in queries:
            for call in (sibson_weights, lune_angles_oracle):
                bits = _bits(lambda: call(tri, q))
                assert _bits(lambda: call(mapped, f(*q))) == bits, (name, q, call.__name__)
                answered += isinstance(bits[0], tuple)
        assert answered > 40, name


# ------------------------------------------------------------ output digest


LUNE_OUTPUTS_DIGEST = "42d2637ed93abf82dbb01115c72d1c65c8d67c23f388781b836f5065a0c77b2f"


def _lune_digest_corpus():
    rng = random.Random(409)
    yield _random_samples(rng, n=150)
    lattice = [(float(x), float(y)) for x in range(9) for y in range(9)]
    yield SampleSet(lattice, [x * y - y for x, y in lattice])
    cluster = [(rng.gauss(0.3, 1e-3), rng.gauss(0.2, 1e-3)) for _ in range(90)]
    cluster += [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(10)]
    yield SampleSet(cluster, [rng.uniform(-1, 1) for _ in cluster])
    skinny = [(rng.uniform(0, 1000), rng.uniform(0, 1)) for _ in range(120)]
    yield SampleSet(skinny, [x / 1000 - y for x, y in skinny])


def _lune_digest_queries(rng, samples):
    xs = [p.x for p in samples.sites]
    ys = [p.y for p in samples.sites]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    w, h = x1 - x0, y1 - y0
    for _ in range(25):
        yield (rng.uniform(x0, x1), rng.uniform(y0, y1))
    # Past the hull: a band up to 25% outside the bounding box.
    for _ in range(8):
        yield (x0 - rng.uniform(0, 0.25) * w, rng.uniform(y0 - 0.25 * h, y1 + 0.25 * h))
    # Within 10x the snap radius of a site: some snap, some do not.
    radius = 1e-12 * samples.diagonal
    for factor in (0.5, 0.99, 1.01, 2.0, 5.0, 9.5):
        p = samples.sites[rng.randrange(samples.size)]
        angle = rng.uniform(0, 2 * math.pi)
        yield (p.x + factor * radius * math.cos(angle), p.y + factor * radius * math.sin(angle))
    yield (x0 - 0.25 * w, y0 - 0.25 * h), (x1 + 0.25 * w, y1 + 0.25 * h)


def _digest_call(digest, fn):
    try:
        result = fn()
    except (CoincidentQueryError, DegenerateBoundaryError, DegenerateInputError, OutsideDomainError) as exc:
        digest.update(("!%s;" % type(exc).__name__).encode())
        return None
    if isinstance(result, float):
        digest.update(("%s;" % result.hex()).encode())
    else:
        digest.update(" ".join("%d %s" % (i, v.hex()) for i, v in result.entries).encode() + b";")
    return result


def test_lune_outputs_digest():
    # lune_angles, weights_from_angles and interpolate, as float hex,
    # pinned bit for bit on uniform, lattice, clustered and skinny sets:
    # interior queries, queries past the hull, queries near a site and a
    # moebius grid reaching 25% past the hull.
    digest = hashlib.sha256()
    rng = random.Random(419)
    for samples in _lune_digest_corpus():
        queries = list(_lune_digest_queries(rng, samples))
        for q in queries[:-1]:
            angles = _digest_call(digest, lambda: lune_angles(samples, q))
            if angles is not None:
                _digest_call(digest, lambda: weights_from_angles(angles))
            _digest_call(digest, lambda: interpolate(samples, q, allow_exterior=True))
        (x0, y0), (x1, y1) = queries[-1]
        for row in evaluate_grid(samples, GridSpec(x0, x1, y0, y1, 9, 9), method="moebius"):
            digest.update(" ".join("-" if v is None else v.hex() for v in row).encode() + b";")
    assert digest.hexdigest() == LUNE_OUTPUTS_DIGEST


SIBSON_OUTPUTS_DIGEST = "aa1eca0b7827498087e39bec807566579aa886eb2d1aeffbab72389ff6a9fb16"


def test_sibson_outputs_digest():
    # sibson_weights, sibson_interpolate and lune_angles_oracle, as float
    # hex, pinned bit for bit on the lune digest's sets and queries:
    # interior queries, queries past the hull (refused), queries near a
    # site (some snap) and a sibson grid reaching 25% past the hull.
    digest = hashlib.sha256()
    rng = random.Random(419)
    for samples in _lune_digest_corpus():
        tri = build_delaunay(samples)
        queries = list(_lune_digest_queries(rng, samples))
        for q in queries[:-1]:
            _digest_call(digest, lambda: sibson_weights(tri, q))
            _digest_call(digest, lambda: sibson_interpolate(tri, samples.elevations, q))
            _digest_call(digest, lambda: lune_angles_oracle(tri, q))
        (x0, y0), (x1, y1) = queries[-1]
        for row in evaluate_grid(samples, GridSpec(x0, x1, y0, y1, 9, 9), method="sibson"):
            digest.update(" ".join("-" if v is None else v.hex() for v in row).encode() + b";")
    assert digest.hexdigest() == SIBSON_OUTPUTS_DIGEST


# ------------------------------------------------- the pruned neighbour search


def _lune_angles_literal(samples, s):
    """The paper's construction as written: invert every site about s,
    hull all the images and read off the turning angles."""
    images = []
    for i, p in enumerate(samples.sites):
        dx, dy = p.x - s[0], p.y - s[1]
        d2 = dx * dx + dy * dy
        if d2 == 0.0:
            raise CoincidentQueryError("query coincides with site %d" % i, i)
        images.append(Point(dx / d2, dy / d2))
    corners = convex_hull(images)
    return LuneAngleSet(tuple(sorted(zip(corners, turning_angles(images, corners)))))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CoincidentQueryError, DegenerateInputError) as exc:
        return type(exc).__name__, getattr(exc, "site_index", None)


def _pruning_sites(kind, rng, scale):
    if kind == "random":
        sites = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.choice((12, 80, 400)))]
    elif kind == "lattice":
        side = rng.choice((3, 8, 20))
        sites = [(float(i), float(j)) for i in range(side) for j in range(side)]
    elif kind == "clustered":
        sites = [(rng.gauss(0.3, 1e-3), rng.gauss(0.2, 1e-3)) for _ in range(150)]
        sites += [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(15)]
    else:
        sites = [(rng.uniform(0, 1000), rng.uniform(0, 1)) for _ in range(200)]
    return SampleSet([(x * scale, y * scale) for x, y in sites], [0.0] * len(sites))


def _pruning_query(kind, rng, samples, eps):
    if kind == "near-edge":
        k = rng.randrange(len(samples.hull))
        a, b = samples.sites[samples.hull[k - 1]], samples.sites[samples.hull[k]]
        t = rng.random()
        return (a.x + t * (b.x - a.x) + eps * (a.y - b.y), a.y + t * (b.y - a.y) + eps * (b.x - a.x))
    if kind == "near-site":
        p = samples.sites[rng.randrange(samples.size)]
        return (p.x + eps * samples.diagonal, p.y - 0.5 * eps * samples.diagonal)
    xs = [p.x for p in samples.sites]
    ys = [p.y for p in samples.sites]
    grow = 0.0 if kind == "interior" else 0.5 * (max(xs) - min(xs))
    return (rng.uniform(min(xs) - grow, max(xs) + grow), rng.uniform(min(ys), max(ys)))


@settings(max_examples=120, deadline=None, derandomize=True)
@example(sites="lattice", query="near-site", seed=0, eps=0.0, k=0)
@example(sites="random", query="interior", seed=1, eps=0.0, k=-1000)
@given(
    sites=st.sampled_from(("random", "lattice", "clustered", "skinny")),
    query=st.sampled_from(("interior", "near-edge", "near-site", "outside")),
    seed=st.integers(0, 2**32),
    eps=st.sampled_from((0.0, 1e-13, -1e-13, 1e-11, 1e-9, -1e-9, 1e-6)),
    k=st.one_of(st.just(0), st.integers(-600, 600), st.integers(-1000, 1000)),
)
def test_lune_angles_match_the_literal_construction(sites, query, seed, eps, k):
    # Bit for bit, errors included: the search only leaves out images that
    # cannot be corners, and the snap block holds every site that can snap.
    # Both run on the sites and the query times 2**-e, the least power of
    # two that brings the largest coordinate magnitude within 2**+-256.
    rng = random.Random(seed)
    samples = _pruning_sites(sites, rng, 2.0 ** k)
    m = math.frexp(max(abs(t) for p in samples.sites for t in p))[1]
    e = max(m - 256, 0) + min(m + 256, 0)
    framed = SampleSet([(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in samples.sites], [0.0] * samples.size)
    for _ in range(8):
        s = _pruning_query(query, rng, samples, eps)
        fs = (math.ldexp(s[0], -e), math.ldexp(s[1], -e))
        assert _outcome(lune_angles, samples, s) == _outcome(_lune_angles_literal, framed, fs)
        nearest = sys.modules["lunenn.interpolate"]._snap(samples, fs[0], fs[1], range(samples.size))
        outcome = _outcome(classify_query, samples, s)
        assert outcome == ("CoincidentQueryError", nearest) if nearest is not None else isinstance(outcome, QueryKind)


def test_interior_query_hulls_a_small_share_of_the_sites(monkeypatch):
    rng = random.Random(443)
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    sites = corners + [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1996)]
    samples = SampleSet(sites, [x - y for x, y in sites])
    module = sys.modules["lunenn.interpolate"]
    hulled = []
    monkeypatch.setattr(module, "convex_hull", lambda points: hulled.append(len(points)) or convex_hull(points))
    for _ in range(20):
        s = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        hulled.clear()
        angles = lune_angles(samples, s)
        assert 0 < sum(hulled) < 0.1 * samples.size
        assert angles == _lune_angles_literal(samples, s)


@pytest.mark.parametrize("kind", ["interior", "near-hull", "exterior"])
def test_every_query_hulls_about_n_points(monkeypatch, kind):
    # A ring hands on only its hull's corners, so a query that reaches
    # every site (near the hull or past it) hulls about n points in all.
    # Once near-hull queries have built the mesh, a query inside the
    # square reads its corners off its cavity cycle and hulls nothing.
    rng = random.Random(449)
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    sites = corners + [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1996)]
    samples = SampleSet(sites, [x - y for x, y in sites])
    module = sys.modules["lunenn.interpolate"]
    hulled = []
    monkeypatch.setattr(module, "convex_hull", lambda points: hulled.append(len(points)) or convex_hull(points))
    for _ in range(10):
        side = rng.choice((-1.0, 1.0))
        s = {
            "interior": (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            "near-hull": (rng.uniform(-1, 1), side * rng.uniform(0.995, 0.9999)),
            "exterior": (rng.uniform(-3, 3), side * rng.uniform(1.01, 3)),
        }[kind]
        on_mesh_inside = samples._mesh is not None and max(map(abs, s)) < 1.0
        hulled.clear()
        angles = lune_angles(samples, s)
        assert (sum(hulled) > 0) is not on_mesh_inside
        assert sum(hulled) <= 1.1 * samples.size
        assert angles == _lune_angles_literal(samples, s)


# ------------------------------------------------ lune candidates from the mesh


@settings(max_examples=120, deadline=None, derandomize=True)
@example(sites="lattice", query="near-site", seed=0, eps=0.0, k=0)
@example(sites="random", query="interior", seed=1, eps=0.0, k=-1000)
@given(
    sites=st.sampled_from(("random", "lattice", "clustered", "skinny")),
    query=st.sampled_from(("interior", "near-edge", "near-site", "outside")),
    seed=st.integers(0, 2**32),
    eps=st.sampled_from((0.0, 1e-13, -1e-13, 1e-11, 1e-9, -1e-9, 1e-6)),
    k=st.one_of(st.just(0), st.integers(-600, 600), st.integers(-1000, 1000)),
)
def test_lune_angles_from_the_mesh_match_the_literal_construction(sites, query, seed, eps, k):
    # As above, with the mesh in place: every query then inverts and hulls
    # only its Delaunay neighbours and the site hull corners.
    rng = random.Random(seed)
    samples = _pruning_sites(sites, rng, 2.0 ** k)
    samples._mesh = build_delaunay(samples)
    m = math.frexp(max(abs(t) for p in samples.sites for t in p))[1]
    e = max(m - 256, 0) + min(m + 256, 0)
    framed = SampleSet([(math.ldexp(x, -e), math.ldexp(y, -e)) for x, y in samples.sites], [0.0] * samples.size)
    for _ in range(8):
        s = _pruning_query(query, rng, samples, eps)
        fs = (math.ldexp(s[0], -e), math.ldexp(s[1], -e))
        assert _outcome(lune_angles, samples, s) == _outcome(_lune_angles_literal, framed, fs)


def _square_with_uniform_sites(seed):
    rng = random.Random(seed)
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    sites = corners + [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1996)]
    return rng, SampleSet(sites, [x - y for x, y in sites])


def _near_hull_query(rng):
    return rng.uniform(-1, 1), rng.choice((-1.0, 1.0)) * rng.uniform(0.995, 0.9999)


@pytest.mark.parametrize("kind", ["near-hull", "exterior"])
def test_queries_at_the_hull_hull_few_points_once_the_mesh_exists(monkeypatch, kind):
    # Two queries that the rings leave open build the mesh; after that a
    # query past the hull hulls its neighbours and the 4 corners, and one
    # near it, inside, reads its corners off its cavity cycle unhulled.
    rng, samples = _square_with_uniform_sites(457)
    lune_angles(samples, (0.3, 2.0))
    lune_angles(samples, (-0.3, -2.0))
    assert samples._mesh is not None
    module = sys.modules["lunenn.interpolate"]
    hulled = []
    monkeypatch.setattr(module, "convex_hull", lambda points: hulled.append(len(points)) or convex_hull(points))
    for _ in range(10):
        side = rng.choice((-1.0, 1.0))
        s = _near_hull_query(rng) if kind == "near-hull" else (rng.uniform(-3, 3), side * rng.uniform(1.01, 3))
        hulled.clear()
        angles = lune_angles(samples, s)
        assert (sum(hulled) > 0) is (kind == "exterior")
        assert sum(hulled) < 200
        assert angles == _lune_angles_literal(samples, s)


def test_interior_mesh_queries_hull_nothing(monkeypatch):
    # Inside the square, near its edges too, a mesh query's cavity cycle
    # images are already its hull corners in order: convex_hull never runs.
    rng, samples = _square_with_uniform_sites(463)
    samples._mesh = build_delaunay(samples)
    module = sys.modules["lunenn.interpolate"]
    hulled = []
    monkeypatch.setattr(module, "convex_hull", lambda points: hulled.append(len(points)) or convex_hull(points))
    for _ in range(20):
        for s in ((rng.uniform(-1, 1), rng.uniform(-1, 1)), _near_hull_query(rng)):
            angles = lune_angles(samples, s)
            assert hulled == []
            assert angles == _lune_angles_literal(samples, s)


def test_a_cycle_image_on_a_hull_edge_is_hulled_away(monkeypatch):
    # (0, 0) lies on the empty circle through sites 0, 1 and 2, and the
    # mesh keeps site 0 on its cavity cycle.  Its image (0, 0.2) lies on
    # the segment between the images (+-0.4, 0.2) of sites 1 and 2: that
    # turn is not strictly left, so the cycle images are hulled, once.
    sites = [(0, 5), (2, 1), (-2, 1), (0, -3), (3, -2), (-3, -2)]
    samples = SampleSet(sites, [0.0] * len(sites))
    samples._mesh = build_delaunay(samples)
    _, _, cycle, _ = samples._mesh._place((0.0, 0.0), False)
    assert 0 in {u for u, _, _, _ in cycle}
    module = sys.modules["lunenn.interpolate"]
    hulled = []
    monkeypatch.setattr(module, "convex_hull", lambda points: hulled.append(len(points)) or convex_hull(points))
    angles = lune_angles(samples, (0, 0))
    assert hulled == [len(cycle)]
    assert angles.indices == (1, 2, 3, 4, 5)
    assert angles == lune_angles(SampleSet(sites, [0.0] * len(sites)), (0, 0)) == _lune_angles_literal(samples, (0, 0))


def test_only_the_second_query_the_rings_leave_open_builds_the_mesh(monkeypatch):
    delaunay = sys.modules["lunenn.delaunay"]
    built = []
    init = delaunay.Triangulation.__init__
    monkeypatch.setattr(delaunay.Triangulation, "__init__", lambda self, samples: built.append(samples) or init(self, samples))
    rng, samples = _square_with_uniform_sites(461)
    lune_angles(samples, _near_hull_query(rng))
    lune_angles(samples, (0.1, 0.2))
    assert built == [] and samples._mesh is None
    lune_angles(samples, _near_hull_query(rng))
    assert built == [samples] and samples._mesh is not None
    for _ in range(3):
        lune_angles(samples, _near_hull_query(rng))
        lune_angles(samples, (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
    assert built == [samples]
    # A set whose only query is left open by the rings builds nothing.
    built.clear()
    rng, samples = _square_with_uniform_sites(463)
    interpolate(samples, (5.0, 0.5), allow_exterior=True)
    assert built == [] and samples._mesh is None


# ------------------------------------------- classification from the rings


def _interpolated_literal(samples, s):
    weights = weights_from_angles(_lune_angles_literal(samples, s))
    return math.fsum(w * samples.elevations[i] for i, w in weights.entries)


def test_interior_interpolate_queries_on_a_fresh_set_never_hull_the_sites(monkeypatch):
    # The rings that close around an interior query prove it interior, so
    # interpolate hulls only images and never builds samples.hull.
    rng, samples = _square_with_uniform_sites(479)
    module = sys.modules["lunenn.interpolate"]
    hulled = []
    monkeypatch.setattr(module, "convex_hull", lambda points: hulled.append(len(points)) or convex_hull(points))
    for _ in range(20):
        s = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        hulled.clear()
        assert interpolate(samples, s) == _interpolated_literal(samples, s)
        assert 0 < sum(hulled) < 0.1 * samples.size
    assert "hull" not in samples.__dict__ and samples._mesh is None and samples._misses == 0


def test_a_refused_query_on_a_fresh_set_counts_no_miss():
    # The rings leave a query past or on the hull open after three blocks;
    # interpolate must refuse it before pulling a fourth, which would count
    # a miss, so that two refusals do not build the mesh.
    _, samples = _square_with_uniform_sites(487)
    with pytest.raises(OutsideDomainError, match="outside the sample hull"):
        interpolate(samples, (5.0, 0.5))
    with pytest.raises(DegenerateBoundaryError, match="on the sample hull boundary"):
        interpolate(samples, (0.3, 1.0))
    assert samples._misses == 0 and samples._mesh is None
    assert interpolate(samples, (5.0, 0.5), allow_exterior=True) == _interpolated_literal(samples, (5.0, 0.5))
    assert samples._misses == 1 and samples._mesh is None


# ------------------------------------------------- one placement on the mesh

# A quadrilateral hull, two sites 2e-13 apart (within twice the snap radius,
# about 5.7e-12 here) and a few interior ones.
PLACEMENT_SITES = [(0.0, 0.0), (3.0, 1.0), (2.0, 4.0), (-1.0, 3.0), (1.5, 1.5), (1.5 + 2e-13, 1.5), (0.5, 2.0), (2.0, 2.5)]
PLACEMENT_Z = [1.0, -2.0, 3.5, 0.25, 7.0, -7.0, 0.5, 2.0]
PLACEMENT_QUERIES = [
    # A few ulps off the hull edge (0, 0) -> (3, 1), inside and outside.
    (1.5, 0.5 + 3 * math.ulp(0.5)),
    (1.5, 0.5 - 3 * math.ulp(0.5)),
    (1.5, math.nextafter(0.5, 1.0)),
    (1.5, math.nextafter(0.5, 0.0)),
    # On that edge, and on its line past either end.
    (1.5, 0.5),
    (6.0, 2.0),
    (-3.0, -1.0),
    # Within the snap radius of an interior site and of a hull corner.
    (0.5 + 1e-13, 2.0),
    (3.0 + 1e-13, 1.0),
    # Near-ties between the two close sites.
    (1.5 + 1e-13, 1.5),
    (1.5 + 1e-13, 1.5 + 1e-13),
    (math.nextafter(1.5 + 1e-13, 2.0), 1.5 - 1e-13),
    (0.9, 1.9),
]


def _interpolated(samples, s, allow_exterior):
    try:
        return interpolate(samples, s, allow_exterior=allow_exterior)
    except (CoincidentQueryError, DegenerateBoundaryError, DegenerateInputError, OutsideDomainError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("allow_exterior", [False, True])
def test_a_meshed_set_classifies_and_interpolates_as_a_fresh_one(allow_exterior):
    # The mesh's one placement serves interpolate and sibson_interpolate
    # alike: it raises on a site, exact or snapped, and names the kind of
    # any other query.
    meshed = SampleSet(PLACEMENT_SITES, PLACEMENT_Z)
    tri = meshed._mesh = build_delaunay(meshed)
    kinds, exact = set(), set()
    for s in [*PLACEMENT_QUERIES, PLACEMENT_SITES[4]]:
        fresh = SampleSet(PLACEMENT_SITES, PLACEMENT_Z)
        try:
            kind, site = classify_query(fresh, s), None
        except CoincidentQueryError as exc:
            kind, site = None, exc.site_index
        kinds.add(kind)
        p = meshed._frame(s)
        if kind is None:
            exact.add(p in meshed._index)
            with pytest.raises(CoincidentQueryError) as raised:
                tri._place(p, True)
            assert raised.value.site_index == site, s
        else:
            assert tri._place(p, True)[0] is kind, s
        assert _interpolated(meshed, s, allow_exterior) == _interpolated(fresh, s, allow_exterior), s
        assert fresh._mesh is None
        if kind is None:
            assert sibson_interpolate(tri, PLACEMENT_Z, s) == PLACEMENT_Z[site], s
        elif kind is QueryKind.INTERIOR:
            assert math.isfinite(sibson_interpolate(tri, PLACEMENT_Z, s)), s
        else:
            with pytest.raises(OutsideDomainError):
                sibson_interpolate(tri, PLACEMENT_Z, s)
    assert kinds == {None, *QueryKind}
    assert exact == {False, True}


def test_a_meshed_set_places_each_interpolate_query_once(monkeypatch):
    # Once the mesh exists, interpolate reads the class and the candidates
    # off one virtual insertion, and an interior query inverts its cavity
    # cycle alone: no hull corner that is not its neighbour.
    module = sys.modules["lunenn.interpolate"]
    rng, samples = _square_with_uniform_sites(467)
    samples._mesh = build_delaunay(samples)
    monkeypatch.setattr(module, "classify_query", lambda *args: pytest.fail("classify_query called"))
    cavity = samples._mesh._cavity
    cycles = []

    def recorded(*args):
        found = cavity(*args)
        cycles.append(found[1])
        return found

    monkeypatch.setattr(samples._mesh, "_cavity", recorded)
    inverted = []
    invert = module._inverted_images
    monkeypatch.setattr(module, "_inverted_images", lambda samples, p, indices: inverted.append(set(indices)) or invert(samples, p, indices))
    queries = [(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(20)]
    queries += [_near_hull_query(rng) for _ in range(5)] + [(rng.uniform(-3, 3), 1.5), samples.sites[7]]
    for k, s in enumerate(queries):
        cycles.clear()
        inverted.clear()
        interpolate(samples, s, allow_exterior=True)
        assert len(cycles) == (0 if k == len(queries) - 1 else 1)
        if k < 20:
            assert inverted == [{u for u, _, _, _ in cycles[0]}]
            assert not inverted[0] & set(samples.hull)
