"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload lune-uniform --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of lunenn: the program is imported from
the checkout's src/ and nothing else.  With --trace 0 the last line of
standard output holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  Either way the outputs are checked against
independent computations in a separate process (bench/checks.py) after
every measured process has exited.  --smoke shrinks every input so that
all workloads and checks run in seconds.

This process only spawns and times children, one at a time, and never
imports lunenn, numpy or scipy.  Files go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "process_s": "s",
}

#: Per-layer metrics of one phase: (name, unit, better).  Each is reported
#: per query for the query phase under its own name, and per set-up for the
#: set-up phase under "setup." + name.  "_s" metrics are self times.
PHASE_LAYERS = (
    ("predicates.orientation.calls", "count", "lower"),
    ("predicates.orientation.exact", "count", "lower"),
    ("predicates.orientation_s", "s", "lower"),
    ("predicates.incircle.calls", "count", "lower"),
    ("predicates.incircle.exact", "count", "lower"),
    ("predicates.incircle_s", "s", "lower"),
    ("predicates.exact_s", "s", "lower"),
    ("geometry.circumcircle.calls", "count", "lower"),
    ("geometry.circumcircle_s", "s", "lower"),
    ("hull.convex_hull.calls", "count", "lower"),
    ("hull.convex_hull.points", "count", "lower"),
    ("hull.convex_hull_s", "s", "lower"),
    ("hull.turning_angles_s", "s", "lower"),
    ("interpolate.sampleset_s", "s", "lower"),
    ("interpolate.classify_query_s", "s", "lower"),
    ("interpolate.lune_angles_s", "s", "lower"),
    ("interpolate.weights_from_angles_s", "s", "lower"),
    ("interpolate.interpolate_s", "s", "lower"),
    ("interpolate.neighbours", "count", "lower"),
    ("interpolate.neighbour_yield", "ratio", "higher"),
    ("delaunay.build_s", "s", "lower"),
    ("delaunay.triangles", "count", "lower"),
    ("delaunay.sibson_weights_s", "s", "lower"),
    ("delaunay.sibson_interpolate_s", "s", "lower"),
    ("delaunay.neighbours", "count", "lower"),
    ("fileio.load_samples_csv_s", "s", "lower"),
    ("fileio.evaluate_grid_s", "s", "lower"),
    ("fileio.write_pgm_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
)

RUN_LAYERS = (
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for prefix in ("", "setup."):
        out.extend((prefix + name, unit, better) for name, unit, better in PHASE_LAYERS)
    out.extend(RUN_LAYERS)
    return out


class RunFailed(Exception):
    """A child failed in a way that leaves no valid result."""


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, mode, out_dir, seconds=0.0):
    """Run bench/worker.py and return its JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", repr(seconds), "--out", out_dir,
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed("worker %s timed out" % mode) from None
    if proc.returncode != 0:
        raise RunFailed("worker %s exited %d: %s" % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_process(cmd, stderr_path):
    """Run cmd to completion; returns (exit code, wall seconds from spawn to
    exit, peak RSS in MB of that child alone)."""
    with open(stderr_path, "w") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        except _Timeout:
            proc.kill()
            proc.wait()
            raise RunFailed("%s timed out" % " ".join(cmd[:4])) from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def warm_up(out_dir):
    """Compile lunenn's bytecode and fill the page cache before timing."""
    code, _, _ = run_process(
        [sys.executable, "-c", "import lunenn, lunenn.cli"], os.path.join(out_dir, "warmup.err")
    )
    if code != 0:
        raise RunFailed("cannot import lunenn from %s" % SRC)


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def read_array(path, typecode="d"):
    data = array(typecode)
    with open(path, "rb") as handle:
        data.frombytes(handle.read())
    return data


def scaled_latencies(out_dir):
    """Query latencies at the reference speed: each divided by the median
    of the calibration samples taken around it."""
    latencies = read_array(os.path.join(out_dir, "latency.f64"))
    samples = read_array(os.path.join(out_dir, "calibration.f64"))
    near = read_array(os.path.join(out_dir, "near.i32"), "i")
    local = [calibrate.scale(samples[max(0, j - 1):j + 3]) for j in range(len(samples))]
    return [t * local[j] for t, j in zip(latencies, near)]


# -- untraced runs ----------------------------------------------------------


def measure_uniform(args, out_dir, sz):
    """lune-uniform and sibson-uniform: fresh set-ups, each in its own
    process, then one process answering queries for --seconds."""
    setup_s, process_s, first_values = [], [], []
    for _ in range(sz.setups[args.workload]):
        result = run_worker(args, "setup", out_dir)
        factor = calibrate.scale(result["calibration"])
        setup_s.extend(t * factor for t in result["setup_s"])
        process_s.append(result["process_s"] * factor)
        first_values.extend(result["values"])
    result = run_worker(args, "query", out_dir, args.seconds)
    latencies = scaled_latencies(out_dir)
    if not latencies:
        raise RunFailed("no query answered")
    metrics = {
        "setup_s": statistics.median(setup_s),
        "query_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": 1e3 * quantile(latencies, 0.5),
        "query_p90_ms": 1e3 * quantile(latencies, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
        "process_s": statistics.median(process_s),
    }
    with open(os.path.join(out_dir, "first_values.json"), "w") as handle:
        json.dump(first_values, handle)
    attempted = len(setup_s) + 1 + result["queries"]
    return metrics, attempted, result["failed"]


def measure_cli(args, out_dir, sz):
    """grid-lattice-cli: `lunenn grid` processes, one at a time; the 2x2
    grid for set-up, then the full grid for --seconds."""
    inp = workloads.lattice_input(args.seed, args.smoke)
    csv_path = os.path.join(out_dir, "lattice.csv")
    workloads.write_lattice_csv(inp, csv_path)
    err = os.path.join(out_dir, "cli.err")
    samples_path = os.path.join(out_dir, "cli-calibration.json")
    failed = 0

    def timed(grid_args):
        """Exit code, wall time at the reference speed less the kernel time
        sampled inside the child, and peak RSS of one CLI process."""
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), samples_path] + grid_args
        code, wall, peak = run_process(cmd, err)
        with open(samples_path, encoding="utf-8") as handle:
            during = json.load(handle)
        os.remove(samples_path)
        return code, (wall - sum(during)) * calibrate.scale(during), peak

    setup_s = []
    for k in range(sz.setups[args.workload]):
        pgm = os.path.join(out_dir, "setup-%d.pgm" % k)
        code, wall, _ = timed(workloads.grid_args(inp, csv_path, pgm, 2))
        failed += code != 0
        setup_s.append(wall)
    nodes = sz.grid_nodes
    process_s, rss = [], []
    deadline = perf_counter() + args.seconds
    while not process_s or perf_counter() < deadline:
        pgm = os.path.join(out_dir, "grid-%d.pgm" % len(process_s))
        code, wall, peak = timed(workloads.grid_args(inp, csv_path, pgm, nodes))
        failed += code != 0
        process_s.append(wall)
        rss.append(peak)
    per_node_ms = [1e3 * t / (nodes * nodes) for t in process_s]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "query_per_s": nodes * nodes / statistics.median(process_s),
        "query_p50_ms": quantile(per_node_ms, 0.5),
        "query_p90_ms": quantile(per_node_ms, 0.9),
        "peak_rss_mb": statistics.median(rss),
        "process_s": statistics.median(process_s),
    }
    return metrics, len(setup_s) + len(process_s), failed


# -- traced runs ------------------------------------------------------------


def import_probes(count):
    """Median seconds to import lunenn.cli in a fresh process."""
    code = "import time; t = time.perf_counter(); import lunenn.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=child_env(), timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RunFailed("import probe failed: %s" % proc.stderr.strip()[-2000:])
        times.append(float(proc.stdout))
    return statistics.median(times)


def _phase_metric(totals, name, count):
    if name == "predicates.exact_s":
        value = totals.get("predicates.orientation.exact_s", 0.0) + totals.get("predicates.incircle.exact_s", 0.0)
    elif name in ("predicates.orientation.exact", "predicates.incircle.exact"):
        value = totals.get(name + ".calls", 0)
    elif name == "interpolate.neighbour_yield":
        points = totals.get("hull.convex_hull.points", 0)
        # A ratio with its own base: not divided by the phase count.
        return totals.get("interpolate.neighbours", 0) / points if points else 0.0
    else:
        value = totals.get(name, 0)
    return value / count


def measure_traced(args, out_dir, sz):
    import_s = 0.0
    if args.workload == "grid-lattice-cli":
        inp = workloads.lattice_input(args.seed, args.smoke)
        workloads.write_lattice_csv(inp, os.path.join(out_dir, "lattice.csv"))
        import_s = import_probes(sz.import_probes)
    result = run_worker(args, "trace", out_dir, args.seconds)
    factor = calibrate.scale(result["calibration"])
    metrics = {}
    for prefix, phase, count in (("", "query", result["queries"]), ("setup.", "setup", result["setups"])):
        totals = result[phase + "_layers"]
        for name, unit, _ in PHASE_LAYERS:
            value = _phase_metric(totals, name, count)
            metrics[prefix + name] = value * factor if unit == "s" else value
    metrics["cli.import_s"] = import_s * factor
    metrics["trace.overhead_pct"] = 100.0 * (result["traced_s"] / result["untraced_s"] - 1.0)
    shutil.copyfile(
        os.path.join(out_dir, "trace.json"),
        os.path.join(OUT, "trace-%s-s%d.json" % (args.workload, args.seed)),
    )
    # Traced and untraced passes over the same queries each count.
    attempted = result["setups"] + 2 * result["queries"]
    return metrics, attempted, result.get("failed", 0)


def run_checks(args, out_dir):
    cmd = [
        sys.executable, os.path.join(HERE, "checks.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--dir", out_dir, "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RunFailed("checks crashed: %s" % proc.stderr.strip()[-2000:])
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for problem in report["problems"]:
        print("check failed: %s" % problem, file=sys.stderr)
    return report["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lunenn", "__init__.py")):
        print("error: no lunenn package under %s" % SRC, file=sys.stderr)
        return 2
    sz = workloads.sizes(args.smoke)
    out_dir = os.path.join(OUT, "%s-s%d-t%d-p%d" % (args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(out_dir)
    try:
        warm_up(out_dir)
        if args.trace:
            metrics, attempted, failed = measure_traced(args, out_dir, sz)
            units = {name: unit for name, unit, _ in per_layer_metrics()}
        elif args.workload == "grid-lattice-cli":
            metrics, attempted, failed = measure_cli(args, out_dir, sz)
            units = END_TO_END_UNITS
        else:
            metrics, attempted, failed = measure_uniform(args, out_dir, sz)
            units = END_TO_END_UNITS
        correct = run_checks(args, out_dir)
    except RunFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
