"""The measured process: sets up lunenn on one workload and answers queries.

    python3 bench/worker.py --workload W --seed N --mode setup|query|trace
                            --seconds S --out DIR [--smoke]

It imports lunenn from the checkout's src/ and nothing heavier than the
standard library, so its peak resident memory is lunenn's.  It prints one
JSON line.  Outputs that the checks need go to files in DIR, written in
fixed-size chunks so that the process's memory does not grow with the
number of queries answered.

* setup: one set-up (raw sites and elevations to the first answered query).
* query: one set-up, then queries in a closed loop for S seconds.
* trace: traced set-ups, then blocks of queries run alternately with the
  tracer off and on, for S seconds; reports the layer totals per phase and
  the traced time against the untraced time of the same queries.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: Seconds of query work between two calibration samples in the query phase.
CALIBRATE_EVERY_S = 0.025


def import_lunenn():
    """Import lunenn from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "lunenn", "__init__.py")):
        raise SystemExit("error: %s holds no lunenn package" % SRC)
    sys.path.insert(0, SRC)
    import lunenn

    if not os.path.abspath(lunenn.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported lunenn from %s, not %s" % (lunenn.__file__, SRC))
    return lunenn


class ChunkedFile:
    """Append-only file of doubles (or ints) written in fixed chunks."""

    CHUNK = 4096

    def __init__(self, path, typecode="d"):
        self._handle = open(path, "wb")
        self._typecode = typecode
        self._buf = array(typecode)
        self.count = 0

    def append(self, value):
        self._buf.append(value)
        self.count += 1
        if len(self._buf) >= self.CHUNK:
            self._buf.tofile(self._handle)
            self._buf = array(self._typecode)

    def close(self):
        self._buf.tofile(self._handle)
        self._handle.close()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class UniformRunner:
    """Set-up and one query for lune-uniform (lune-angle interpolation) or
    sibson-uniform (Delaunay build and Sibson interpolation)."""

    def __init__(self, lunenn, workload, inp):
        self.lunenn = lunenn
        self.workload = workload
        self.input = inp
        self.samples = None
        self.tri = None

    def setup(self, first_query):
        """Fresh SampleSet (and triangulation), then the first query."""
        inp = self.input
        self.samples = self.lunenn.SampleSet(inp.sites, inp.elevations)
        if self.workload == "sibson-uniform":
            self.tri = self.lunenn.build_delaunay(self.samples)
        return self.query(first_query)

    def query(self, q):
        if self.workload == "lune-uniform":
            return self.lunenn.interpolate(self.samples, q)
        return self.lunenn.sibson_interpolate(self.tri, self.input.elevations, q)


def run_setup(args):
    """Fresh set-ups in a fresh process: the first times importing lunenn
    too, the part of a one-shot process that lunenn decides (interpreter
    start is left out); each builds new objects from the raw inputs."""
    inp = workloads.uniform_input(args.workload, args.seed, args.smoke)
    first = workloads.QueryStream(args.workload, args.seed).next()
    repeats = workloads.sizes(args.smoke).setup_repeats[args.workload]
    setup_s, values = [], []
    calibrate.kernel()  # the first run in a process is slower; not a sample
    before = calibrate.bracket()
    with calibrate.Sampler() as during:
        start = perf_counter()
        lunenn = import_lunenn()
        runner = UniformRunner(lunenn, args.workload, inp)
        for _ in range(repeats):
            kernel_s = during.total_s
            setup_start = perf_counter()
            values.append(runner.setup(first))
            end = perf_counter()
            setup_s.append(end - setup_start - (during.total_s - kernel_s))
            if len(setup_s) == 1:
                process_s = end - start - during.total_s
    samples = before + during.samples + calibrate.bracket()
    return {
        "setup_s": setup_s,
        "process_s": process_s,
        "values": values,
        "peak_rss_mb": peak_rss_mb(),
        "calibration": samples,
    }


def run_query(args, lunenn):
    inp = workloads.uniform_input(args.workload, args.seed, args.smoke)
    runner = UniformRunner(lunenn, args.workload, inp)
    stream = workloads.QueryStream(args.workload, args.seed)
    values = ChunkedFile(os.path.join(args.out, "values.f64"))
    latencies = ChunkedFile(os.path.join(args.out, "latency.f64"))
    # Query k was answered between calibration samples near[k] and near[k] + 1.
    samples = ChunkedFile(os.path.join(args.out, "calibration.f64"))
    near = ChunkedFile(os.path.join(args.out, "near.i32"), "i")
    values.append(runner.setup(stream.next()))
    if runner.tri is not None:
        write_triangles(runner.tri, os.path.join(args.out, "triangles.i32"))
    failed = 0
    query = runner.query
    deadline = perf_counter() + args.seconds
    samples.append(calibrate.sample())
    last_sample = perf_counter()
    while perf_counter() < deadline:
        if perf_counter() - last_sample >= CALIBRATE_EVERY_S:
            samples.append(calibrate.sample())
            last_sample = perf_counter()
        q = stream.next()
        t0 = perf_counter()
        try:
            v = query(q)
        except Exception:  # a failed query is counted, not fatal
            failed += 1
            values.append(float("nan"))
            continue
        latencies.append(perf_counter() - t0)
        near.append(samples.count - 1)
        values.append(v)
    samples.append(calibrate.sample())
    for f in (values, latencies, samples, near):
        f.close()
    return {
        "queries": values.count - 1,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb(),
    }


def write_triangles(tri, path):
    flat = array("i")
    for t in tri.triangles:
        flat.extend(t)
    with open(path, "wb") as handle:
        flat.tofile(handle)


def run_trace(args, lunenn):
    from layertrace import Tracer

    tracer = Tracer()
    sz = workloads.sizes(args.smoke)
    setups = sz.traced_setups[args.workload]
    if args.workload == "grid-lattice-cli":
        return trace_cli(args, lunenn, tracer, setups)
    block = sz.trace_block[args.workload]

    inp = workloads.uniform_input(args.workload, args.seed, args.smoke)
    runner = UniformRunner(lunenn, args.workload, inp)
    stream = workloads.QueryStream(args.workload, args.seed)
    first = stream.next()
    tracer.install()
    try:
        for k in range(setups):
            tracer.operation = k
            first_value = runner.setup(first)
    finally:
        tracer.uninstall()
    values = ChunkedFile(os.path.join(args.out, "values.f64"))
    traced_values = ChunkedFile(os.path.join(args.out, "traced_values.f64"))
    values.append(first_value)
    traced_values.append(first_value)
    if runner.tri is not None:
        write_triangles(runner.tri, os.path.join(args.out, "triangles.i32"))
    tracer.phase = "query"
    untraced_s = traced_s = 0.0
    queries = 0
    samples = []
    deadline = perf_counter() + args.seconds
    while queries == 0 or perf_counter() < deadline:
        samples.extend(calibrate.bracket(2))
        batch = stream.take(block)
        t0 = perf_counter()
        for q in batch:
            values.append(runner.query(q))
        untraced_s += perf_counter() - t0
        tracer.install()
        try:
            t0 = perf_counter()
            for q in batch:
                tracer.operation += 1
                traced_values.append(runner.query(q))
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()
        queries += len(batch)
    values.close()
    traced_values.close()
    tracer.write(os.path.join(args.out, "trace.json"))
    return {
        "setups": setups,
        "queries": queries,
        "setup_layers": tracer.layer_totals("setup"),
        "query_layers": tracer.layer_totals("query"),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "calibration": samples,
    }


def trace_cli(args, lunenn, tracer, setups):
    """In-process lunenn.cli.main on the workload's CSV: the 2x2 grid for
    set-up, the full grid for each query."""
    import lunenn.cli

    inp = workloads.lattice_input(args.seed, args.smoke)
    csv_path = os.path.join(args.out, "lattice.csv")
    nodes = workloads.sizes(args.smoke).grid_nodes
    small = workloads.grid_args(inp, csv_path, os.path.join(args.out, "setup.pgm"), 2)
    full = workloads.grid_args(inp, csv_path, os.path.join(args.out, "grid.pgm"), nodes)
    traced_full = workloads.grid_args(inp, csv_path, os.path.join(args.out, "traced.pgm"), nodes)
    failed = 0
    tracer.install()
    try:
        for k in range(setups):
            tracer.operation = k
            failed += lunenn.cli.main(small) != 0
    finally:
        tracer.uninstall()
    tracer.phase = "query"
    untraced_s = traced_s = 0.0
    queries = 0
    samples = []
    deadline = perf_counter() + args.seconds
    while queries == 0 or perf_counter() < deadline:
        samples.extend(calibrate.bracket(2))
        t0 = perf_counter()
        failed += lunenn.cli.main(full) != 0
        untraced_s += perf_counter() - t0
        tracer.install()
        try:
            tracer.operation += 1
            t0 = perf_counter()
            failed += lunenn.cli.main(traced_full) != 0
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()
        queries += 1
    tracer.write(os.path.join(args.out, "trace.json"))
    return {
        "setups": setups,
        "queries": queries,
        "failed": failed,
        "setup_layers": tracer.layer_totals("setup"),
        "query_layers": tracer.layer_totals("query"),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "calibration": samples,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "query", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = run_setup(args)
    elif args.mode == "query":
        result = run_query(args, import_lunenn())
    else:
        result = run_trace(args, import_lunenn())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
