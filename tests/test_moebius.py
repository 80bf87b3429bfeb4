"""Moebius maps: the closed-form action, composition, inversion as a map,
and the geometric invariants (angles preserved, circles to circles)."""

import math
import random

import pytest

from lunenn.errors import DegenerateInputError, GeneratorExhaustedError, PreconditionError
from lunenn.geometry import (
    AT_INFINITY,
    Point,
    circumcircle,
    is_infinite,
)
from lunenn.moebius import (
    IDENTITY,
    MoebiusMap,
    moebius_apply,
    moebius_compose,
    moebius_from_inversion,
    moebius_pole,
    random_moebius,
)
from lunenn.predicates import incircle_sign


def _random_map(rng):
    return random_moebius(rng.randrange(2**32))


def test_identity_action():
    assert moebius_apply(IDENTITY, Point(3, 4)) == Point(3, 4)


def test_reciprocal_map():
    m = MoebiusMap(0, 1, 1, 0)
    q = moebius_apply(m, Point(0, 2))
    assert abs(q.x) <= 1e-15
    assert abs(q.y + 0.5) <= 1e-15


def test_inversion_map_matches_invert_point():
    rng = random.Random(3)
    for _ in range(200):
        cx, cy = center = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = rng.uniform(0.3, 2.5)
        m = moebius_from_inversion(center, r)
        assert m.conjugating
        p = Point(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if p == center:
            continue
        # The inverse of p lies on the ray from c with |cp| * |cp'| = r^2.
        dx, dy = p.x - cx, p.y - cy
        scale = r * r / (dx * dx + dy * dy)
        expect = Point(cx + scale * dx, cy + scale * dy)
        got = moebius_apply(m, p)
        assert math.hypot(got.x - expect.x, got.y - expect.y) <= 1e-11 * max(
            1.0, abs(expect.x), abs(expect.y)
        )


def test_inversion_map_center_and_infinity():
    m = moebius_from_inversion(Point(1, 0), 2.0)
    assert is_infinite(moebius_apply(m, Point(1, 0)))
    back = moebius_apply(m, AT_INFINITY)
    assert math.hypot(back.x - 1.0, back.y - 0.0) <= 1e-15
    assert moebius_apply(m, Point(3, 0)) == Point(3, 0)
    assert moebius_apply(m, Point(2, 0)) == Point(5, 0)


def test_compose_inversion_with_itself_is_identity_action():
    m = moebius_from_inversion(Point(0, 0), 1.0)
    mm = moebius_compose(m, m)
    assert not mm.conjugating
    p = moebius_apply(mm, Point(2, 0))
    assert math.hypot(p.x - 2.0, p.y) <= 1e-14


def test_compose_with_identity():
    rng = random.Random(7)
    for _ in range(50):
        m = _random_map(rng)
        left = moebius_compose(IDENTITY, m)
        right = moebius_compose(m, IDENTITY)
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for composed in (left, right):
            a = moebius_apply(m, p)
            b = moebius_apply(composed, p)
            if is_infinite(a) or is_infinite(b):
                continue
            assert math.hypot(a.x - b.x, a.y - b.y) <= 1e-9 * max(1.0, abs(a.x), abs(a.y))


def test_reciprocal_twice_is_identity_action():
    m = MoebiusMap(0, 1, 1, 0)
    mm = moebius_compose(m, m)
    p = moebius_apply(mm, Point(3, 4))
    assert math.hypot(p.x - 3.0, p.y - 4.0) <= 1e-14


def test_compose_pointwise_postcondition():
    # apply(compose(o, i), p) == apply(o, apply(i, p)) away from poles,
    # covering all four conjugation flag combinations.
    rng = random.Random(19)
    checked = 0
    while checked < 300:
        outer = _random_map(rng)
        inner = _random_map(rng)
        composed = moebius_compose(outer, inner)
        assert composed.conjugating == (outer.conjugating ^ inner.conjugating)
        p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
        mid = moebius_apply(inner, p)
        if is_infinite(mid):
            continue
        pole = moebius_pole(outer)
        if not is_infinite(pole):
            if math.hypot(mid.x - pole.x, mid.y - pole.y) < 1e-3:
                continue
        want = moebius_apply(outer, mid)
        got = moebius_apply(composed, p)
        if is_infinite(want) or is_infinite(got):
            continue
        scale = max(1.0, abs(want.x), abs(want.y))
        assert math.hypot(got.x - want.x, got.y - want.y) <= 1e-8 * scale
        checked += 1


def test_pole_maps_to_infinity():
    # Exactly representable coefficients hit the pole exactly.
    m = MoebiusMap(0, 1, 1, 0)
    assert moebius_pole(m) == Point(0, 0)
    assert is_infinite(moebius_apply(m, Point(0, 0)))
    # For float coefficients the image merely blows up.
    rng = random.Random(31)
    for _ in range(100):
        m = _random_map(rng)
        pole = moebius_pole(m)
        if is_infinite(pole):
            continue
        q = moebius_apply(m, pole)
        assert is_infinite(q) or math.hypot(q.x, q.y) > 1e8


def test_infinity_maps_to_a_over_c():
    m = MoebiusMap(2, 1, 1, 3)
    q = moebius_apply(m, AT_INFINITY)
    assert math.hypot(q.x - 2.0, q.y) <= 1e-15
    similarity = MoebiusMap(2, 1, 0, 1)
    assert is_infinite(moebius_apply(similarity, AT_INFINITY))


def test_degenerate_coefficients_rejected():
    with pytest.raises(DegenerateInputError):
        MoebiusMap(1, 2, 2, 4)
    with pytest.raises(DegenerateInputError):
        MoebiusMap(0, 0, 0, 0)
    with pytest.raises(DegenerateInputError, match="finite"):
        MoebiusMap(1, float("nan"), 0, 1)


_HUGE = MoebiusMap(1e300, 0, 0, 1e-300)


_BAD_MOEBIUS_CALLS = {
    # Points that are no finite pair, and images or poles past the float range.
    "third-coordinate": (DegenerateInputError, lambda: moebius_apply(IDENTITY, (1, 2, 3))),
    "nan-point": (DegenerateInputError, lambda: moebius_apply(IDENTITY, (math.nan, 0))),
    "image-overflow": (DegenerateInputError, lambda: moebius_apply(_HUGE, (1e300, 0))),
    "infinity-image-overflow": (DegenerateInputError, lambda: moebius_apply(MoebiusMap(1e300, 0, 1e-300, 1), AT_INFINITY)),
    "pole-overflow": (DegenerateInputError, lambda: moebius_pole(MoebiusMap(1, 0, 1e-300, 1e300))),
    # The denominator overflows while the image, about 1/2, would not.
    "denominator-overflow": (DegenerateInputError, lambda: moebius_apply(MoebiusMap(1, 0, 2, 1), (1e308, 0))),
    "infinite-forbidden": (DegenerateInputError, lambda: random_moebius(0, forbidden=[(0, math.inf)])),
    # Arguments that are not numbers, points or maps.
    "text-point": (DegenerateInputError, lambda: moebius_apply(IDENTITY, "ab")),
    "none-coefficient": (DegenerateInputError, lambda: MoebiusMap(None, 0, 0, 1)),
    "text-coefficient": (DegenerateInputError, lambda: MoebiusMap("a", 0, 0, 1)),
    "huge-int-coefficient": (DegenerateInputError, lambda: MoebiusMap(10**400, 0, 0, 1)),
    # Singular, though a * d - b * c rounds to inf - inf, a NaN.
    "nan-determinant": (DegenerateInputError, lambda: MoebiusMap(1e200, 1e200, 1e200, 1e200)),
    "compose-none": (PreconditionError, lambda: moebius_compose(IDENTITY, None)),
    "apply-none": (PreconditionError, lambda: moebius_apply(None, (0, 0))),
}


@pytest.mark.parametrize("case", sorted(_BAD_MOEBIUS_CALLS))
def test_moebius_entry_points_raise_library_errors(case):
    error, call = _BAD_MOEBIUS_CALLS[case]
    with pytest.raises(error):
        call()


def _map_circle(m, circle):
    # Image of a circle (cx, cy, radius) from three mapped points.
    cx, cy, r = circle
    pts = []
    for t in (0.25, 1.75, 3.5):
        p = Point(cx + r * math.cos(t), cy + r * math.sin(t))
        q = moebius_apply(m, p)
        assert not is_infinite(q)
        pts.append(q)
    return circumcircle(*pts)


def _angle_at(first, second, p):
    """Angle in [0, pi] at p between the radius vectors of two circles
    through p, as lune_angles_oracle measures it; p must lie on both."""
    for cx, cy, r in (first, second):
        assert abs(math.hypot(p.x - cx, p.y - cy) - r) <= 1e-9 * r
    ux, uy = p.x - first[0], p.y - first[1]
    vx, vy = p.x - second[0], p.y - second[1]
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def test_angles_between_circles_preserved():
    rng = random.Random(43)
    checked = 0
    while checked < 100:
        p = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        circles = []
        for _ in range(2):
            t = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0.3, 1.5)
            circles.append((p.x + r * math.cos(t), p.y + r * math.sin(t), r))
        m = _random_map(rng)
        pole = moebius_pole(m)
        if not is_infinite(pole):
            # Keep the pole off both circles so images stay circles.
            clear = 0.3
            if math.hypot(p.x - pole.x, p.y - pole.y) < clear:
                continue
            if any(
                abs(math.hypot(cx - pole.x, cy - pole.y) - r) < clear
                for cx, cy, r in circles
            ):
                continue
        q = moebius_apply(m, p)
        if is_infinite(q):
            continue
        before = _angle_at(circles[0], circles[1], p)
        images = [_map_circle(m, c) for c in circles]
        after = _angle_at(images[0], images[1], q)
        # The angle is measured between outward normals.  A pole inside
        # exactly one circle turns that circle inside out, so the image
        # angle is the supplement; otherwise it is preserved as is.
        if is_infinite(pole):
            flipped = 0
        else:
            flipped = sum(
                math.hypot(cx - pole.x, cy - pole.y) < r
                for cx, cy, r in circles
            )
        expected = math.pi - before if flipped == 1 else before
        assert abs(after - expected) <= 1e-9
        checked += 1


def test_cocircular_points_stay_cocircular_exact():
    # The images of these cocircular integer points are exactly
    # representable, so the exact predicate must report cocircular.
    m = moebius_from_inversion(Point(0, 0), 1.0)
    images = [
        moebius_apply(m, Point(*p))
        for p in ((2, 0), (0, 2), (-2, 0), (0, -2))
    ]
    assert images[0] == Point(0.5, 0)
    assert incircle_sign(images[0], images[1], images[2], images[3]) == 0


def test_cocircular_points_stay_cocircular_floating():
    rng = random.Random(47)
    checked = 0
    while checked < 100:
        center = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r = rng.uniform(0.5, 2.0)
        pts = []
        for _ in range(4):
            t = rng.uniform(0, 2 * math.pi)
            pts.append(Point(center.x + r * math.cos(t), center.y + r * math.sin(t)))
        m = _random_map(rng)
        pole = moebius_pole(m)
        if not is_infinite(pole):
            if abs(math.hypot(center.x - pole.x, center.y - pole.y) - r) < 0.3:
                continue
        images = [moebius_apply(m, p) for p in pts]
        if any(is_infinite(q) for q in images):
            continue
        try:
            cx, cy, radius = circumcircle(*images[:3])
        except DegenerateInputError:
            continue
        d = math.hypot(images[3].x - cx, images[3].y - cy)
        assert abs(d - radius) <= 1e-9 * max(1.0, radius)
        checked += 1


def test_random_moebius_deterministic():
    a = random_moebius(1234)
    b = random_moebius(1234)
    assert (a.a, a.b, a.c, a.d, a.conjugating) == (b.a, b.b, b.c, b.d, b.conjugating)
    det = a.a * a.d - a.b * a.c
    assert abs(det) > 0


def test_random_moebius_seed_sensitivity():
    maps = {random_moebius(seed).a for seed in range(20)}
    assert len(maps) > 1


def test_random_moebius_pole_clearance():
    forbidden = [Point(0, 0), Point(0.5, 0.5), Point(-0.7, 0.2)]
    for seed in range(50):
        m = random_moebius(seed, forbidden=forbidden, clearance=0.1)
        pole = moebius_pole(m)
        if is_infinite(pole):
            continue
        for p in forbidden:
            assert math.hypot(pole.x - p.x, pole.y - p.y) > 0.1


def test_random_moebius_exhaustion():
    # Similarities have no finite pole and satisfy any clearance, so the
    # seed is chosen to draw only inversion products; their finite poles
    # can never clear 1e9 from the origin.
    with pytest.raises(GeneratorExhaustedError):
        random_moebius(400, forbidden=[Point(0.0, 0.0)], clearance=1e9, max_attempts=16)


def test_conjugating_flag_reverses_orientation():
    rng = random.Random(59)
    tri = [Point(0, 0), Point(1, 0), Point(0, 1)]
    for _ in range(50):
        m = _random_map(rng)
        images = [moebius_apply(m, p) for p in tri]
        if any(is_infinite(q) for q in images):
            continue
        # A conjugating map flips the cyclic orientation of small triangles
        # mapped well away from the pole; checked via the signed area of a
        # tiny mapped triangle around a base point.
        base = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pole = moebius_pole(m)
        if not is_infinite(pole):
            if math.hypot(base.x - pole.x, base.y - pole.y) < 0.3:
                continue
        h = 1e-5
        small = [base, Point(base.x + h, base.y), Point(base.x, base.y + h)]
        imgs = [moebius_apply(m, p) for p in small]
        if any(is_infinite(q) for q in imgs):
            continue
        area = (imgs[1].x - imgs[0].x) * (imgs[2].y - imgs[0].y) - (
            imgs[1].y - imgs[0].y
        ) * (imgs[2].x - imgs[0].x)
        if m.conjugating:
            assert area < 0
        else:
            assert area > 0
