"""Exact-sign orientation and in-circle tests for points in the plane.

Each predicate first evaluates a floating-point determinant together with a
conservative bound on its rounding error.  Only when the magnitude falls
inside the bound does it re-evaluate in exact rational arithmetic, so the
returned sign is always the true sign while typical inputs stay on the
fast path.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateInputError

# Half-ulp of an IEEE double; the filter constants absorb every rounding
# step of the corresponding determinant evaluation.
_EPS = 2.0 ** -53
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS
# The bounds assume that no product underflows.  Below this permanent the
# in-circle products may be subnormal, so the exact path decides.
_INCIRCLE_FLOOR = 2.0 ** -900


def _sign(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


def orientation_sign(p, q, r) -> int:
    """Sign of twice the signed area of pqr: +1 CCW, -1 CW, 0 collinear."""
    detleft = (q[0] - p[0]) * (r[1] - p[1])
    detright = (q[1] - p[1]) * (r[0] - p[0])
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if abs(det) > _ORIENT_BOUND * detsum:
        return 1 if det > 0 else -1
    return _orientation_exact(p, q, r)


def _orientation_exact(p, q, r) -> int:
    px, py = Fraction(p[0]), Fraction(p[1])
    qx, qy = Fraction(q[0]), Fraction(q[1])
    rx, ry = Fraction(r[0]), Fraction(r[1])
    det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return _sign(det)


def incircle_sign(p, q, r, t) -> int:
    """+1 iff t is strictly inside the circumcircle of CCW pqr, -1 iff
    strictly outside, 0 iff cocircular.  Swapping any two arguments flips
    the sign.  Raises if p, q, r are collinear (no circumcircle).
    """
    if orientation_sign(p, q, r) == 0:
        raise DegenerateInputError("incircle_sign requires non-collinear p, q, r")
    return incircle_sign_unchecked(p, q, r, t)


def incircle_sign_unchecked(p, q, r, t) -> int:
    """incircle_sign without the collinearity guard (callers that already
    hold a valid triangle)."""
    adx = p[0] - t[0]
    ady = p[1] - t[1]
    bdx = q[0] - t[0]
    bdy = q[1] - t[1]
    cdx = r[0] - t[0]
    cdy = r[1] - t[1]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        alift * (abs(bdxcdy) + abs(cdxbdy))
        + blift * (abs(cdxady) + abs(adxcdy))
        + clift * (abs(adxbdy) + abs(bdxady))
    )
    if abs(det) > _INCIRCLE_BOUND * permanent and permanent >= _INCIRCLE_FLOOR:
        return 1 if det > 0 else -1
    return _incircle_exact(p, q, r, t)


def _incircle_exact(p, q, r, t) -> int:
    tx, ty = Fraction(t[0]), Fraction(t[1])
    adx = Fraction(p[0]) - tx
    ady = Fraction(p[1]) - ty
    bdx = Fraction(q[0]) - tx
    bdy = Fraction(q[1]) - ty
    cdx = Fraction(r[0]) - tx
    cdy = Fraction(r[1]) - ty
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )
    return _sign(det)
