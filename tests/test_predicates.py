"""Exact-sign predicate tests: known configurations, antisymmetry, and
agreement with a rational-arithmetic reference on adversarial inputs."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lunenn import DegenerateInputError, incircle_sign, orientation_sign
from lunenn.predicates import incircle_sign_unchecked


def _orient_reference(p, q, r):
    ax, ay = Fraction(p[0]), Fraction(p[1])
    bx, by = Fraction(q[0]), Fraction(q[1])
    cx, cy = Fraction(r[0]), Fraction(r[1])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _incircle_reference(p, q, r, t):
    rows = []
    for v in (p, q, r):
        dx = Fraction(v[0]) - Fraction(t[0])
        dy = Fraction(v[1]) - Fraction(t[1])
        rows.append((dx, dy, dx * dx + dy * dy))
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[2][1] * rows[1][2])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[2][0] * rows[1][2])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[2][0] * rows[1][1])
    )
    return (det > 0) - (det < 0)


def test_orientation_known_cases():
    assert orientation_sign((0, 0), (1, 0), (0, 1)) == 1
    assert orientation_sign((0, 0), (1, 1), (2, 2)) == 0
    assert orientation_sign((0, 0), (0, 1), (1, 0)) == -1


def test_orientation_antisymmetry():
    rng = random.Random(11)
    for _ in range(300):
        p = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        q = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        r = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        s = orientation_sign(p, q, r)
        assert orientation_sign(q, p, r) == -s
        assert orientation_sign(p, r, q) == -s
        assert orientation_sign(q, r, p) == s
        assert orientation_sign(r, p, q) == s


def test_orientation_matches_rational_reference_on_grid():
    # Coarse grid coordinates produce many exactly collinear triples.
    rng = random.Random(23)
    for _ in range(2000):
        p, q, r = [
            (rng.randrange(-4, 5) * 0.25, rng.randrange(-4, 5) * 0.25)
            for _ in range(3)
        ]
        assert orientation_sign(p, q, r) == _orient_reference(p, q, r)


def test_orientation_near_collinear_perturbations():
    # Points on y = x nudged by one or two ulps must still get exact signs.
    base = [(-1.0, -1.0), (0.3, 0.3), (1.7, 1.7)]
    for steps in range(-3, 4):
        y = 0.3
        for _ in range(abs(steps)):
            y = math.nextafter(y, math.copysign(math.inf, steps))
        p, q, r = base[0], (0.3, y), base[2]
        assert orientation_sign(p, q, r) == _orient_reference(p, q, r)


def test_incircle_known_cases():
    tri = ((0, 0), (1, 0), (0, 1))
    assert incircle_sign(*tri, (0.5, 0.5)) == 1
    assert incircle_sign(*tri, (1, 1)) == 0
    assert incircle_sign(*tri, (2, 2)) == -1


def test_incircle_vertex_is_cocircular():
    tri = ((0, 0), (1, 0), (0, 1))
    for v in tri:
        assert incircle_sign(*tri, v) == 0


def test_incircle_rejects_collinear_triangle():
    with pytest.raises(DegenerateInputError):
        incircle_sign((0, 0), (1, 1), (2, 2), (0, 1))


def test_incircle_antisymmetry():
    rng = random.Random(37)
    count = 0
    while count < 200:
        pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
        if orientation_sign(*pts[:3]) == 0:
            continue
        count += 1
        s = incircle_sign_unchecked(*pts)
        p, q, r, t = pts
        assert incircle_sign_unchecked(q, p, r, t) == -s
        assert incircle_sign_unchecked(p, r, q, t) == -s
        assert incircle_sign_unchecked(p, q, t, r) == -s
        assert incircle_sign_unchecked(q, r, p, t) == s


def test_incircle_matches_rational_reference_on_grid():
    # Integer grids are dense in cocircular quadruples.
    rng = random.Random(41)
    checked = 0
    while checked < 1500:
        pts = [(float(rng.randrange(-5, 6)), float(rng.randrange(-5, 6))) for _ in range(4)]
        if orientation_sign(*pts[:3]) == 0:
            continue
        checked += 1
        assert incircle_sign_unchecked(*pts) == _incircle_reference(*pts)


def test_incircle_near_cocircular_perturbations():
    # Fourth unit-circle point slid off the circle by a few ulps.
    p, q, r = (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)
    x = 0.0
    for _ in range(4):
        t = (x, -1.0)
        assert incircle_sign_unchecked(p, q, r, t) == _incircle_reference(p, q, r, t)
        x = math.nextafter(x, 1.0)
    y = -1.0
    for _ in range(4):
        t = (0.0, y)
        assert incircle_sign_unchecked(p, q, r, t) == _incircle_reference(p, q, r, t)
        y = math.nextafter(y, 0.0)


def test_incircle_orientation_flip_negates():
    # Reversing the triangle orientation flips inside and outside.
    rng = random.Random(53)
    for _ in range(200):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        if orientation_sign(p, q, r) == 0:
            continue
        assert incircle_sign_unchecked(p, q, r, t) == -incircle_sign_unchecked(p, r, q, t)


def test_incircle_underflow_repro():
    # At this scale the lifted products are subnormal and the float
    # determinant has the wrong sign; the filter must not trust it.
    pts = (
        (8.000000000000009e-80, 2e-80),
        (4e-80, 4e-80),
        (2.9999999999999997e-80, 2.9999999999999997e-80),
        (5.000000000000005e-80, -1e-80),
    )
    assert _incircle_reference(*pts) == 1
    assert incircle_sign_unchecked(*pts) == 1


#: Scale exponents: where the in-circle products (about 2**(4k)) and the
#: orientation products (about 2**(2k)) turn subnormal, and anywhere else.
_SCALES = st.one_of(
    st.integers(-271, -256), st.integers(-545, -505), st.integers(-1070, 250)
)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(k=-269, jitter=[(-1, -1), (3, 3), (1, 0), (-3, 1), (4, 2), (0, -3), (4, 0), (-1, 0), (-3, 1)])
@given(k=_SCALES, jitter=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=9, max_size=9))
def test_predicates_exact_at_every_scale(k, jitter):
    # A 3x3 lattice, each point moved by a few ulps, scaled by 2**k: every
    # triple is near collinear or every quadruple near cocircular.
    scale = 2.0 ** k
    pts = [
        ((x + a * 2.0 ** -50) * scale, (y + b * 2.0 ** -50) * scale)
        for (x, y), (a, b) in zip(itertools.product(range(3), repeat=2), jitter)
    ]
    for p, q, r, t in itertools.combinations(pts, 4):
        orient = _orient_reference(p, q, r)
        assert orientation_sign(p, q, r) == orient
        if orient != 0:
            assert incircle_sign_unchecked(p, q, r, t) == _incircle_reference(p, q, r, t)
