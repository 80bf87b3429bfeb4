"""Seeded experiments: invariance under random Moebius maps, and
convergence on harmonic test functions sampled on the unit circle."""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass

from .errors import CoincidentQueryError, OutsideDomainError, PreconditionError
from .geometry import Point, is_infinite
from .interpolate import (
    QueryKind,
    SampleSet,
    WeightFunction,
    classify_query,
    interpolate,
    lune_angles,
)
from .moebius import MoebiusMap, moebius_apply, random_moebius

#: Harmonic test functions, each the real or imaginary part of a map
#: analytic on a neighborhood of the closed unit disk.
HARMONIC_FUNCTIONS = {
    "re_z2": lambda x, y: x * x - y * y,
    "im_z3": lambda x, y: 3.0 * x * x * y - y * y * y,
    "log_shift": lambda x, y: 0.5 * math.log((x - 2.0) ** 2 + y * y),
}

_DEFAULT_QUERIES = {
    "re_z2": Point(0.3, 0.2),
    "im_z3": Point(0.3, 0.2),
    "log_shift": Point(0.5, 0.0),
}

INVARIANCE_TOLERANCE = 1e-8
HARMONIC_FINAL_TOLERANCE = 1e-3


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    columns: tuple
    rows: tuple
    passed: bool

    def write_csv(self, path):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_number(v) for v in row))
        lines.append("# pass=%s" % ("true" if self.passed else "false"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


def _format_number(v):
    if isinstance(v, int):
        return str(v)
    return "%.17g" % v


def invariance_trial(samples: SampleSet, s, moebius: MoebiusMap, weight_fn=WeightFunction.TAN_HALF):
    """Deviation of the interpolant and worst per-neighbor lune-angle
    mismatch between the original configuration and its image under the
    map.  The deviation is |f' - f| / max(1, |f|); the mismatch is inf
    when the neighbor index sets disagree."""
    base_angles = lune_angles(samples, s)
    base_value = interpolate(samples, s, weight_fn, allow_exterior=True)
    mapped_sites = []
    for p in samples.sites:
        q = moebius_apply(moebius, p)
        if is_infinite(q):
            raise PreconditionError("map sends a site to infinity")
        mapped_sites.append(q)
    mapped_query = moebius_apply(moebius, Point(float(s[0]), float(s[1])))
    if is_infinite(mapped_query):
        raise PreconditionError("map sends the query to infinity")
    mapped_samples = SampleSet(mapped_sites, samples.elevations)
    mapped_angles = lune_angles(mapped_samples, mapped_query)
    mapped_value = interpolate(mapped_samples, mapped_query, weight_fn, allow_exterior=True)
    if base_angles.indices != mapped_angles.indices:
        mismatch = math.inf
    else:
        mismatch = max(
            abs(a - b) for a, b in zip(base_angles.angles, mapped_angles.angles)
        )
    deviation = abs(mapped_value - base_value) / max(1.0, abs(base_value))
    return deviation, mismatch


def _random_instance(rng, n=20):
    while True:
        sites = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
        elevations = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        try:
            samples = SampleSet(sites, elevations)
        except ValueError:
            continue
        for _ in range(256):
            s = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            with contextlib.suppress(CoincidentQueryError):
                if classify_query(samples, s) is QueryKind.INTERIOR:
                    return samples, s
        # Pathological hull; draw a fresh site set.


def experiment_invariance(seed: int, trials: int = 50) -> ExperimentReport:
    """Per trial: a random 20-site set in [-1, 1]^2, a random interior
    query, and a random map whose pole clears every site and the query by
    0.1.  Passes when every trial stays within 1e-8 on both
    the interpolant deviation and the angle mismatch; needs trials >= 1."""
    if trials < 1:
        raise PreconditionError("need at least one trial, got %d" % trials)
    rows = []
    for trial in range(trials):
        rng = random.Random(1_000_003 * seed + trial)
        samples, s = _random_instance(rng)
        moebius = random_moebius(
            rng.randrange(2**32),
            forbidden=list(samples.sites) + [s],
            clearance=0.1,
        )
        deviation, mismatch = invariance_trial(samples, s, moebius)
        rows.append((trial, deviation, mismatch))
    passed = all(
        dev <= INVARIANCE_TOLERANCE and mis <= INVARIANCE_TOLERANCE
        for _, dev, mis in rows
    )
    return ExperimentReport(
        "invariance", ("trial", "deviation", "angle_mismatch"), tuple(rows), passed
    )


def _harmonic(function_id: str):
    if function_id not in HARMONIC_FUNCTIONS:
        raise PreconditionError("unknown function %r" % function_id)
    return HARMONIC_FUNCTIONS[function_id]


def circle_samples(function_id: str, n: int, phase: float) -> SampleSet:
    """n equispaced samples of a harmonic test function on the unit
    circle, starting at the given phase angle."""
    f = _harmonic(function_id)
    sites = []
    values = []
    for k in range(n):
        t = phase + 2.0 * math.pi * k / n
        x, y = math.cos(t), math.sin(t)
        sites.append((x, y))
        values.append(f(x, y))
    return SampleSet(sites, values)


def experiment_harmonic(
    seed: int,
    sizes=(16, 64, 256, 1024),
    function_id: str = "re_z2",
    query=None,
) -> ExperimentReport:
    """Errors of the interpolant and of the normalized angle-weighted sum
    (1/2pi) * sum theta_i * f(s_i) against the true harmonic value, for
    circle sample counts in sizes.  Passes when both error columns are
    strictly decreasing and end at or below 1e-3; needs two sizes or more."""
    if len(sizes) < 2:
        raise PreconditionError("need at least two sizes, got %d" % len(sizes))
    f = _harmonic(function_id)
    q = Point(*(query if query is not None else _DEFAULT_QUERIES[function_id]))
    if q.x * q.x + q.y * q.y >= 1.0:
        raise OutsideDomainError("query must lie strictly inside the unit circle")
    exact = f(q.x, q.y)
    phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    rows = []
    for n in sizes:
        samples = circle_samples(function_id, n, phase)
        err_interp = abs(interpolate(samples, q) - exact)
        angles = lune_angles(samples, q)
        estimator = math.fsum(
            theta * samples.elevations[i] for i, theta in angles.entries
        ) / (2.0 * math.pi)
        rows.append((n, err_interp, abs(estimator - exact)))
    decreasing = all(
        rows[i + 1][col] < rows[i][col]
        for col in (1, 2)
        for i in range(len(rows) - 1)
    )
    passed = (
        decreasing
        and rows[-1][1] <= HARMONIC_FINAL_TOLERANCE
        and rows[-1][2] <= HARMONIC_FINAL_TOLERANCE
    )
    return ExperimentReport(
        "harmonic_" + function_id,
        ("n", "interpolant_error", "estimator_error"),
        tuple(rows),
        passed,
    )
