"""The two seeded experiment suites and their report plumbing."""

import math
import random

import pytest

from lunenn import OutsideDomainError, PreconditionError, SampleSet
from lunenn.experiments import (
    HARMONIC_FUNCTIONS,
    circle_samples,
    experiment_harmonic,
    experiment_invariance,
    invariance_trial,
)
from lunenn.geometry import Point
from lunenn.moebius import IDENTITY, MoebiusMap, moebius_from_inversion


def test_harmonic_functions_satisfy_mean_value_property():
    # The average over a small circle equals the center value for
    # harmonic functions; trapezoid sampling of an analytic integrand
    # converges far below the tolerance used here.
    rng = random.Random(1)
    for name, f in HARMONIC_FUNCTIONS.items():
        for _ in range(5):
            cx, cy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            r = 0.2
            m = 512
            avg = (
                math.fsum(
                    f(cx + r * math.cos(2 * math.pi * k / m), cy + r * math.sin(2 * math.pi * k / m))
                    for k in range(m)
                )
                / m
            )
            assert abs(avg - f(cx, cy)) <= 1e-12, name


def test_circle_samples_layout():
    samples = circle_samples("re_z2", 8, phase=0.3)
    assert samples.size == 8
    for p in samples.sites:
        assert abs(math.hypot(p.x, p.y) - 1.0) <= 1e-12
    assert abs(samples.sites[0].x - math.cos(0.3)) <= 1e-15
    for (x, y), z in zip(samples.sites, samples.elevations):
        assert abs(z - (x * x - y * y)) <= 1e-15


def test_invariance_trial_identity():
    samples = SampleSet([(-1, -1), (1, -1), (1, 1), (-1, 1)], [1.0, 2.0, 3.0, 4.0])
    deviation, mismatch = invariance_trial(samples, (0.1, 0.2), IDENTITY)
    assert deviation == 0.0
    assert mismatch == 0.0


def test_invariance_trial_pure_inversion():
    samples = SampleSet([(-1, -1), (1, -1), (1, 1), (-1, 1)], [1.0, 2.0, 3.0, 4.0])
    m = moebius_from_inversion(Point(2.5, 2.5), 1.0)
    deviation, mismatch = invariance_trial(samples, (0.1, 0.2), m)
    assert deviation <= 1e-8
    assert mismatch <= 1e-8


def test_invariance_trial_refuses_a_map_with_its_pole_on_a_site_or_the_query():
    samples = SampleSet([(-1, -1), (1, -1), (1, 1), (-1, 1)], [1.0, 2.0, 3.0, 4.0])
    # w -> 1 / (w - pole) sends the pole to infinity.
    with pytest.raises(PreconditionError, match="site to infinity"):
        invariance_trial(samples, (0.1, 0.2), MoebiusMap(0, 1, 1, 1 + 1j))
    with pytest.raises(PreconditionError, match="query to infinity"):
        invariance_trial(samples, (0.1, 0.2), MoebiusMap(0, 1, 1, -0.1 - 0.2j))


def test_experiment_invariance_report():
    report = experiment_invariance(seed=7, trials=5)
    assert report.name == "invariance"
    assert report.columns == ("trial", "deviation", "angle_mismatch")
    assert len(report.rows) == 5
    assert report.passed
    again = experiment_invariance(seed=7, trials=5)
    assert again.rows == report.rows


@pytest.mark.parametrize("trials", [0, -3])
def test_experiment_invariance_needs_a_trial(trials):
    # No trial is no evidence: the report must not pass vacuously.
    with pytest.raises(PreconditionError, match="at least one trial"):
        experiment_invariance(seed=1, trials=trials)


def test_experiment_harmonic_passes():
    report = experiment_harmonic(seed=3)
    assert report.name == "harmonic_re_z2"
    assert [n for n, _, _ in report.rows] == [16, 64, 256, 1024]
    assert report.passed
    errors = [e for _, e, _ in report.rows]
    assert errors == sorted(errors, reverse=True)


@pytest.mark.parametrize("sizes", [(), (64,)])
def test_experiment_harmonic_needs_two_sizes(sizes):
    # One size cannot show a decrease: the report must not pass vacuously.
    with pytest.raises(PreconditionError, match="at least two sizes"):
        experiment_harmonic(seed=1, sizes=sizes)


def test_experiment_harmonic_center_query_is_exact():
    report = experiment_harmonic(seed=5, sizes=(8, 16), query=(0.0, 0.0))
    for _, err_interp, err_estimator in report.rows:
        assert err_interp <= 1e-12
        assert err_estimator <= 1e-12


def test_experiment_harmonic_rejects_outside_queries():
    with pytest.raises(OutsideDomainError):
        experiment_harmonic(seed=1, query=(1.5, 0.0))
    with pytest.raises(OutsideDomainError):
        experiment_harmonic(seed=1, query=(1.0, 0.0))


def test_experiment_harmonic_unknown_function():
    with pytest.raises(ValueError):
        experiment_harmonic(seed=1, function_id="bogus")


def test_report_csv_format(tmp_path):
    report = experiment_invariance(seed=11, trials=3)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "trial,deviation,angle_mismatch"
    assert len(lines) == 5
    assert lines[-1] == "# pass=true"
    assert text.endswith("\n")
    assert "\r" not in text
    # 17 significant digits round-trip doubles exactly.
    for line, row in zip(lines[1:4], report.rows):
        fields = line.split(",")
        assert int(fields[0]) == row[0]
        assert float(fields[1]) == row[1]
        assert float(fields[2]) == row[2]


def test_experiment_harmonic_other_functions():
    for fid in ("im_z3", "log_shift"):
        report = experiment_harmonic(seed=3, function_id=fid)
        assert report.passed, fid


def test_circle_samples_unknown_function():
    with pytest.raises(PreconditionError, match="unknown function"):
        circle_samples("nope", 8, 0.0)
