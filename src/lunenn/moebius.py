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

from .errors import DegenerateInputError, GeneratorExhaustedError
from .geometry import AT_INFINITY, Circle, ExtendedPoint, Point, is_infinite


@dataclass(frozen=True)
class MoebiusMap:
    a: complex
    b: complex
    c: complex
    d: complex
    conjugating: bool = False

    def __post_init__(self):
        for name in "abcd":
            value = complex(getattr(self, name))
            object.__setattr__(self, name, value)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise DegenerateInputError("coefficients must be finite")
        det = self.a * self.d - self.b * self.c
        if abs(det) == 0.0:
            raise DegenerateInputError("singular coefficient matrix")


IDENTITY = MoebiusMap(1.0, 0.0, 0.0, 1.0)


def moebius_from_inversion(circle: Circle) -> MoebiusMap:
    """The inversion in a circle as a conjugating map."""
    center = complex(circle.center.x, circle.center.y)
    r2 = circle.radius * circle.radius
    return MoebiusMap(center, r2 - abs(center) ** 2, 1.0, -center.conjugate(), True)


def moebius_apply(m: MoebiusMap, p: ExtendedPoint) -> ExtendedPoint:
    """Apply the map; poles go to AT_INFINITY and AT_INFINITY to a/c."""
    if is_infinite(p):
        if m.c == 0:
            return AT_INFINITY
        z = m.a / m.c
        return Point(z.real, z.imag)
    w = complex(p[0], p[1])
    if m.conjugating:
        w = w.conjugate()
    den = m.c * w + m.d
    if den == 0:
        return AT_INFINITY
    z = (m.a * w + m.b) / den
    return Point(z.real, z.imag)


def moebius_compose(outer: MoebiusMap, inner: MoebiusMap) -> MoebiusMap:
    """The map applying inner first, then outer.  When the outer map
    conjugates, the inner coefficients are conjugated as the conjugation
    moves past them; the flags combine by exclusive or."""
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
    if m.c == 0:
        return AT_INFINITY
    w = -m.d / m.c
    if m.conjugating:
        w = w.conjugate()
    return Point(w.real, w.imag)


def random_moebius(seed, forbidden=(), clearance=0.0, max_attempts=256) -> MoebiusMap:
    """Seeded random map: either a product of 1-3 circle inversions or an
    orientation-preserving similarity.  The pole is kept at more than
    clearance from every forbidden point; runs out of attempts otherwise.
    """
    rng = random.Random(seed)
    forbidden = [Point(p[0], p[1]) for p in forbidden]
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
                center = Point(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
                inversion = moebius_from_inversion(Circle(center, rng.uniform(0.8, 2.0)))
                candidate = inversion if candidate is None else moebius_compose(inversion, candidate)
        pole = moebius_pole(candidate)
        if is_infinite(pole):
            return candidate
        if all(math.hypot(p.x - pole.x, p.y - pole.y) > clearance for p in forbidden):
            return candidate
    raise GeneratorExhaustedError(
        "no admissible map after %d attempts (clearance %g)" % (max_attempts, clearance)
    )
