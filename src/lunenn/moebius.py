"""Moebius transformations of the extended plane.

A map is stored as 2x2 complex coefficients plus a flag: with the flag set
the map conjugates its argument first and then applies (a*w + b)/(c*w + d).
Products of circle inversions land in this family, inversions themselves
being the conjugating members.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from .errors import DegenerateInputError, GeneratorExhaustedError, PreconditionError
from .geometry import AT_INFINITY, ExtendedPoint, Point, is_infinite
from .interpolate import _TEXT, _finite, _finite_point


@dataclass(frozen=True)
class MoebiusMap:
    a: complex
    b: complex
    c: complex
    d: complex
    conjugating: bool = False

    def __post_init__(self):
        for name in "abcd":
            value = getattr(self, name)
            try:
                if isinstance(value, _TEXT):
                    raise TypeError
                value = complex(value)
            except OverflowError:
                value = complex(math.inf)
            except (TypeError, ValueError):
                raise DegenerateInputError("coefficients must be numbers, not %r" % (value,)) from None
            object.__setattr__(self, name, value)
            if not cmath.isfinite(value):
                raise DegenerateInputError("coefficients must be finite")
        # inf - inf is NaN: a determinant past the float range can hide a singular matrix.
        det = self.a * self.d - self.b * self.c
        if not abs(det) > 0.0:
            raise DegenerateInputError("singular coefficient matrix, or its determinant left the float range")


IDENTITY = MoebiusMap(1.0, 0.0, 0.0, 1.0)


def _check_maps(*maps) -> None:
    for m in maps:
        if not isinstance(m, MoebiusMap):
            raise PreconditionError("expected a MoebiusMap, not %r" % (m,))


def _image(z: complex, *parts: complex) -> Point:
    """z as a Point, unless it or a value it was computed from is not finite."""
    if not all(map(cmath.isfinite, (z, *parts))):
        raise DegenerateInputError("Moebius image left the float range")
    return Point(z.real, z.imag)


def moebius_from_inversion(center, radius) -> MoebiusMap:
    """The inversion in the circle of this center and radius as a conjugating map."""
    radius = _finite(radius, "circle radius must be finite and positive")
    if not radius > 0.0:
        raise DegenerateInputError("circle radius must be finite and positive")
    center = complex(*_finite_point(center, "circle center must be finite"))
    return MoebiusMap(center, radius * radius - abs(center) ** 2, 1.0, -center.conjugate(), True)


def moebius_apply(m: MoebiusMap, p: ExtendedPoint) -> ExtendedPoint:
    """Apply the map; poles go to AT_INFINITY and AT_INFINITY to a/c.  A
    point or an image past the float range raises DegenerateInputError."""
    _check_maps(m)
    if is_infinite(p):
        return AT_INFINITY if m.c == 0 else _image(m.a / m.c)
    w = complex(*_finite_point(p, "point coordinates must be finite"))
    if m.conjugating:
        w = w.conjugate()
    den = m.c * w + m.d
    if den == 0:
        return AT_INFINITY
    num = m.a * w + m.b
    return _image(num / den, num, den)


def moebius_compose(outer: MoebiusMap, inner: MoebiusMap) -> MoebiusMap:
    """The map applying inner first, then outer.  When the outer map
    conjugates, the inner coefficients are conjugated as the conjugation
    moves past them; the flags combine by exclusive or."""
    _check_maps(outer, inner)
    if outer.conjugating:
        ia, ib, ic, id_ = (
            inner.a.conjugate(),
            inner.b.conjugate(),
            inner.c.conjugate(),
            inner.d.conjugate(),
        )
    else:
        ia, ib, ic, id_ = inner.a, inner.b, inner.c, inner.d
    return MoebiusMap(
        outer.a * ia + outer.b * ic,
        outer.a * ib + outer.b * id_,
        outer.c * ia + outer.d * ic,
        outer.c * ib + outer.d * id_,
        outer.conjugating != inner.conjugating,
    )


def moebius_pole(m: MoebiusMap) -> ExtendedPoint:
    """The point sent to AT_INFINITY (AT_INFINITY itself when c == 0)."""
    _check_maps(m)
    if m.c == 0:
        return AT_INFINITY
    w = -m.d / m.c
    return _image(w.conjugate() if m.conjugating else w)


def random_moebius(seed, forbidden=(), clearance=0.0, max_attempts=256) -> MoebiusMap:
    """Seeded random map: either a product of 1-3 circle inversions or an
    orientation-preserving similarity.  The pole is kept at more than
    clearance from every forbidden point; runs out of attempts otherwise.
    """
    rng = random.Random(seed)
    forbidden = [_finite_point(p, "forbidden points must be finite") for p in forbidden]
    for _ in range(max_attempts):
        if rng.random() < 0.25:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            scale = rng.uniform(0.5, 2.0)
            a = cmath.rect(scale, angle)
            b = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            candidate = MoebiusMap(a, b, 0.0, 1.0)
        else:
            candidate = None
            for _ in range(rng.randint(1, 3)):
                center = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
                inversion = moebius_from_inversion(center, rng.uniform(0.8, 2.0))
                candidate = inversion if candidate is None else moebius_compose(inversion, candidate)
        pole = moebius_pole(candidate)
        if is_infinite(pole):
            return candidate
        if all(math.hypot(x - pole.x, y - pole.y) > clearance for x, y in forbidden):
            return candidate
    raise GeneratorExhaustedError(
        "no admissible map after %d attempts (clearance %g)" % (max_attempts, clearance)
    )
