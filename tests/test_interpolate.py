"""The inversion-hull interpolant: query classification, lune angles,
weight normalization, and the headline invariance under Moebius maps.

The neighbor tests check the hull construction against a slow
rational-arithmetic oracle that sweeps the whole pencil of circles
through the query and one site.
"""

import math
import random
from fractions import Fraction

import pytest

from lunenn import (
    Circle,
    CoincidentQueryError,
    DegenerateBoundaryError,
    DegenerateInputError,
    GridSpec,
    LuneAngleSet,
    OutsideDomainError,
    Point,
    QueryKind,
    SampleSet,
    WeightFunction,
    build_delaunay,
    classify_query,
    evaluate_grid,
    interpolate,
    lune_angles,
    lune_angles_oracle,
    moebius_apply,
    moebius_from_inversion,
    random_moebius,
    sibson_interpolate,
    sibson_weights,
    weights_from_angles,
)
from lunenn.cli import main

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
        if classify_query(samples, s).kind is QueryKind.INTERIOR:
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
    assert classify_query(_square(), (0, 0)).kind is QueryKind.INTERIOR


def test_classify_exact_site():
    cls = classify_query(_square(), (1, 1))
    assert cls.kind is QueryKind.COINCIDENT
    assert cls.site_index == 2


def test_classify_edge_midpoint():
    assert classify_query(_square(), (1, 0)).kind is QueryKind.ON_BOUNDARY


def test_classify_exterior():
    assert classify_query(_square(), (5, 5)).kind is QueryKind.EXTERIOR


def test_classify_snap_radius():
    samples = _square()
    eps = 0.5 * samples.diagonal * 1e-12
    cls = classify_query(samples, (1 + eps, 1))
    assert cls.kind is QueryKind.COINCIDENT and cls.site_index == 2
    cls = classify_query(samples, (1 - 1e-6, 1 - 1e-6))
    assert cls.kind is QueryKind.INTERIOR


def test_classify_tie_goes_to_lowest_index():
    # Sites 2**-49 apart, well inside the snap radius of each other; the
    # midpoint is exactly as far from both.
    samples = SampleSet([(0, 0), (2.0 ** -49, 0), (1, 5), (1, -5)], [0.0] * 4)
    cls = classify_query(samples, (2.0 ** -50, 0))
    assert cls.kind is QueryKind.COINCIDENT
    assert cls.site_index == 0


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
    "Triangulation._place": lambda sq: build_delaunay(sq)._place((_NAN, _NAN)),
    "evaluate_grid": lambda sq: evaluate_grid(sq, GridSpec(-_INF, _INF, -1, 1, 4, 4)),
}


@pytest.mark.parametrize(
    "entry", sorted(_NON_FINITE_CALLS) + ["cli-eval", "cli-weights", "cli-grid"]
)
def test_non_finite_query_is_a_domain_error(entry, tmp_path, capsys):
    if entry in _NON_FINITE_CALLS:
        with pytest.raises(DegenerateInputError, match="query coordinates must be finite"):
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
    assert capsys.readouterr().err == "error: query coordinates must be finite\n"


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
    assert abs(value.real - interpolate(SampleSet(sites, re), s)) <= 1e-14
    assert abs(value.imag - interpolate(SampleSet(sites, im), s)) <= 1e-14


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
        cls = classify_query(samples, s)
        if cls.kind is not QueryKind.INTERIOR:
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
            if classify_query(samples, cand).kind is QueryKind.INTERIOR:
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
        circle = Circle(Point(rng.uniform(2, 3), rng.uniform(2, 3)), rng.uniform(0.5, 1.5))
        m = moebius_from_inversion(circle)
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
