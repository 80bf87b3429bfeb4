"""Convex hull corners, points on hull edges, and turning angles."""

import math
import random

import pytest

from lunenn import (
    DegenerateInputError,
    Point,
    convex_hull,
    orientation_sign,
    turning_angles,
)

SQUARE = [Point(-1, -1), Point(1, -1), Point(1, 1), Point(-1, 1)]


def _corner_points(points, hull):
    return [points[i] for i in hull]


def test_square_hull():
    hull = convex_hull(SQUARE)
    assert len(hull) == 4
    corners = _corner_points(SQUARE, hull)
    # CCW and starting at the lexicographically smallest point.
    assert corners[0] == Point(-1, -1)
    for k in range(4):
        a, b, c = corners[k], corners[(k + 1) % 4], corners[(k + 2) % 4]
        assert orientation_sign(a, b, c) == 1


def test_interior_point_dropped():
    pts = SQUARE + [Point(0, 0)]
    hull = convex_hull(pts)
    assert sorted(hull) == [0, 1, 2, 3]


def test_on_edge_point_reported_separately():
    pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 1)]
    hull = convex_hull(pts)
    # Point 1 lies on the edge from corner 0 to corner 2 and is no corner.
    assert sorted(hull) == [0, 2, 3]
    assert orientation_sign(pts[0], pts[2], pts[1]) == 0


def test_too_few_points():
    with pytest.raises(DegenerateInputError):
        convex_hull([Point(0, 0), Point(1, 1)])


def test_collinear_points_rejected():
    with pytest.raises(DegenerateInputError):
        convex_hull([Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3)])


def test_square_turning_angles():
    hull = convex_hull(SQUARE)
    angles = turning_angles(SQUARE, hull)
    assert len(angles) == 4
    for a in angles:
        assert abs(a - math.pi / 2) <= 1e-12


def test_hexagon_turning_angles():
    pts = [
        Point(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)
    ]
    hull = convex_hull(pts)
    angles = turning_angles(pts, hull)
    assert len(angles) == 6
    for a in angles:
        assert abs(a - math.pi / 3) <= 1e-12


def test_right_triangle_turning_angle():
    pts = [Point(0, 0), Point(4, 0), Point(0, 3)]
    hull = convex_hull(pts)
    angles = turning_angles(pts, hull)
    assert abs(math.fsum(angles) - 2 * math.pi) <= 1e-12
    at = dict(zip(hull, angles))
    # Exterior angle at the right-angle corner.
    assert abs(at[0] - math.pi / 2) <= 1e-12


def _random_points(rng, n):
    return [Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]


def test_turning_angles_sum_to_two_pi():
    rng = random.Random(71)
    for _ in range(100):
        pts = _random_points(rng, rng.randint(3, 40))
        try:
            hull = convex_hull(pts)
        except DegenerateInputError:
            continue
        angles = turning_angles(pts, hull)
        assert abs(math.fsum(angles) - 2 * math.pi) <= 1e-10
        for a in angles:
            assert 0.0 < a < math.pi


def test_non_corner_points_inside_or_on_edge():
    rng = random.Random(73)
    for _ in range(50):
        pts = _random_points(rng, 30)
        corners = convex_hull(pts)
        for i, p in enumerate(pts):
            if i in corners:
                continue
            sides = [
                orientation_sign(pts[corners[k]], pts[corners[(k + 1) % len(corners)]], p)
                for k in range(len(corners))
            ]
            assert min(sides) >= 0


def test_hull_idempotent():
    rng = random.Random(79)
    for _ in range(50):
        pts = _random_points(rng, 25)
        hull = convex_hull(pts)
        corners = _corner_points(pts, hull)
        again = convex_hull(corners)
        assert _corner_points(corners, again) == corners


def test_permutation_invariance():
    rng = random.Random(83)
    for _ in range(50):
        pts = _random_points(rng, 20)
        hull = convex_hull(pts)
        order = list(range(len(pts)))
        rng.shuffle(order)
        shuffled = [pts[i] for i in order]
        hull2 = convex_hull(shuffled)
        # Map shuffled indices back to the original labels.
        back = sorted(order[i] for i in hull2)
        assert back == sorted(hull)
        assert _corner_points(shuffled, hull2) == _corner_points(pts, hull)


def test_rigid_motion_invariance():
    rng = random.Random(89)
    for _ in range(50):
        pts = _random_points(rng, 20)
        hull = convex_hull(pts)
        angles = dict(zip(hull, turning_angles(pts, hull)))
        t = rng.uniform(0, 2 * math.pi)
        dx, dy = rng.uniform(-5, 5), rng.uniform(-5, 5)
        moved = [
            Point(
                math.cos(t) * p.x - math.sin(t) * p.y + dx,
                math.sin(t) * p.x + math.cos(t) * p.y + dy,
            )
            for p in pts
        ]
        hull2 = convex_hull(moved)
        assert sorted(hull2) == sorted(hull)
        angles2 = dict(zip(hull2, turning_angles(moved, hull2)))
        for i, a in angles.items():
            assert abs(angles2[i] - a) <= 1e-12


def test_collinear_run_on_hull_edge():
    # Several points along one edge: only the endpoints are corners.
    pts = [Point(x, 0.0) for x in range(5)] + [Point(2, 3)]
    hull = convex_hull(pts)
    assert sorted(hull) == [0, 4, 5]
    for i in (1, 2, 3):
        assert orientation_sign(pts[0], pts[4], pts[i]) == 0
    angles = turning_angles(pts, hull)
    assert abs(math.fsum(angles) - 2 * math.pi) <= 1e-12


def test_on_edge_scan_runs_only_when_read(monkeypatch):
    import lunenn.hull

    rng = random.Random(97)
    ring = [
        Point(math.cos(2 * math.pi * k / 20), math.sin(2 * math.pi * k / 20))
        for k in range(20)
    ]
    inner = [
        Point(0.5 * math.cos(t), 0.5 * math.sin(t))
        for t in (rng.uniform(0, 2 * math.pi) for _ in range(500))
    ]
    pts = ring + inner
    calls = [0]

    def counting(a, b, c):
        calls[0] += 1
        return orientation_sign(a, b, c)

    monkeypatch.setattr(lunenn.hull, "orientation_sign", counting)
    hull = convex_hull(pts)
    # The monotone chain pops each point at most once per chain, and no
    # scan of the points against the hull edges follows.
    assert calls[0] <= 4 * len(pts)
    assert sorted(hull) == list(range(20))
