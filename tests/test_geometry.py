"""Circle inversion and circumcircles."""

import math
import random

import pytest

from lunenn.errors import DegenerateInputError
from lunenn.geometry import (
    AT_INFINITY,
    Point,
    _circumcenter,
    circumcircle,
    is_infinite,
)
from lunenn.moebius import moebius_apply, moebius_from_inversion
from lunenn.predicates import orientation_sign


def test_invert_unit_circle_cases():
    unit = moebius_from_inversion(Point(0, 0), 1.0)
    assert moebius_apply(unit, Point(2, 0)) == Point(0.5, 0)
    assert moebius_apply(unit, Point(0, 1)) == Point(0, 1)
    assert is_infinite(moebius_apply(unit, Point(0, 0)))
    assert repr(AT_INFINITY) == "AT_INFINITY"


def test_invert_off_center_circle():
    c = moebius_from_inversion(Point(1, 0), 2.0)
    assert moebius_apply(c, Point(3, 0)) == Point(3, 0)
    assert moebius_apply(c, Point(2, 0)) == Point(5, 0)


def test_invert_infinity_to_center():
    c = moebius_from_inversion(Point(1, -2), 3.0)
    assert moebius_apply(c, AT_INFINITY) == Point(1, -2)


def test_inversion_involution():
    rng = random.Random(5)
    for _ in range(200):
        center = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = rng.uniform(0.3, 3.0)
        p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if p == center:
            continue
        m = moebius_from_inversion(center, r)
        q = moebius_apply(m, moebius_apply(m, p))
        scale = max(1.0, abs(p.x), abs(p.y))
        assert abs(q.x - p.x) <= 1e-12 * scale
        assert abs(q.y - p.y) <= 1e-12 * scale


def test_inversion_fixes_circle_points():
    rng = random.Random(9)
    for _ in range(200):
        center = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = rng.uniform(0.3, 3.0)
        t = rng.uniform(0, 2 * math.pi)
        p = Point(center.x + r * math.cos(t), center.y + r * math.sin(t))
        q = moebius_apply(moebius_from_inversion(center, r), p)
        assert math.hypot(q.x - p.x, q.y - p.y) <= 1e-12 * max(1.0, r)


def test_inversion_product_of_distances():
    rng = random.Random(13)
    for _ in range(200):
        center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r = rng.uniform(0.5, 2.0)
        p = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if p == center:
            continue
        q = moebius_apply(moebius_from_inversion(center, r), p)
        d1 = math.hypot(p.x - center.x, p.y - center.y)
        d2 = math.hypot(q.x - center.x, q.y - center.y)
        assert abs(d1 * d2 - r * r) <= 1e-10 * r * r
        # Same ray from the center.
        cross = (p.x - center.x) * (q.y - center.y) - (p.y - center.y) * (q.x - center.x)
        dot = (p.x - center.x) * (q.x - center.x) + (p.y - center.y) * (q.y - center.y)
        assert abs(cross) <= 1e-10 * max(1.0, d1 * d2)
        assert dot > 0


def test_moebius_from_inversion_validation():
    for radius in (0.0, -1.0, math.inf):
        with pytest.raises(DegenerateInputError, match="circle radius must be finite and positive"):
            moebius_from_inversion(Point(0, 0), radius)
    with pytest.raises(DegenerateInputError, match="circle center must be finite"):
        moebius_from_inversion(Point(math.nan, 0), 1.0)
    # Text unpacks into characters and a third coordinate has no place.
    for center in ("ab", (0, 0, 1)):
        with pytest.raises(DegenerateInputError, match="points must have two coordinates"):
            moebius_from_inversion(center, 1.0)


def test_circumcircle_known_cases():
    cx, cy, radius = circumcircle(Point(0, 0), Point(1, 0), Point(0, 1))
    assert abs(cx - 0.5) <= 1e-15
    assert abs(cy - 0.5) <= 1e-15
    assert abs(radius - math.sqrt(2) / 2) <= 1e-15

    cx, cy, radius = circumcircle(Point(0, 0), Point(1, 1), Point(1, -1))
    assert abs(cx - 1.0) <= 1e-15
    assert abs(cy) <= 1e-15
    assert abs(radius - 1.0) <= 1e-15

    cx, cy, radius = circumcircle(Point(1, 0), Point(-1, 0), Point(0, 1))
    assert abs(cx) <= 1e-15
    assert abs(cy) <= 1e-15
    assert abs(radius - 1.0) <= 1e-15


def test_circumcircle_rejects_collinear():
    with pytest.raises(DegenerateInputError):
        circumcircle(Point(0, 0), Point(1, 1), Point(2, 2))


def test_circumcircle_whose_determinant_underflows_raises():
    # The exact orientation test passes, but 2 * (bx * cy - by * cx)
    # underflows to zero; no ZeroDivisionError may escape.
    with pytest.raises(DegenerateInputError, match="circumcircle left the float range"):
        circumcircle(Point(0, 0), Point(1e-200, 0), Point(0, 1e-200))


def test_circumcircle_residual():
    rng = random.Random(17)
    for _ in range(300):
        pts = [Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        try:
            cx, cy, radius = circumcircle(*pts)
        except DegenerateInputError:
            continue
        for p in pts:
            d = math.hypot(p.x - cx, p.y - cy)
            assert abs(d - radius) <= 1e-12 * max(1.0, radius)


def test_circumcenter_is_circumcircle_without_the_orientation_test():
    # The mesh's circumcenters skip the exact orientation test; they must
    # still give circumcircle's centre and radius bit for bit, on random
    # triples and on cocircular lattice triples.
    rng = random.Random(29)
    triples = [[Point(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)] for _ in range(300)]
    lattice = [Point(float(x), float(y)) for x in range(-3, 4) for y in range(-3, 4)]
    triples += [rng.sample(lattice, 3) for _ in range(300)]
    # Far from the origin the centre minus a vertex rounds away the radius.
    triples.append([Point(1e20, 0.0), Point(1e20, 2.0), Point(1e20 + 16384.0, 0.0)])
    checked = 0
    for p, q, r in triples:
        if orientation_sign(p, q, r) == 0:
            continue
        if orientation_sign(p, q, r) < 0:
            q, r = r, q
        assert _circumcenter(p, q, r) == circumcircle(p, q, r)
        checked += 1
    assert checked > 500
    assert circumcircle(*triples[-1])[2] == math.hypot(8192.0, 1.0)

