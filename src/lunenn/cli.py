"""Command-line front end: point evaluation, weight tables, raster grids,
and the seeded experiments."""

from __future__ import annotations

import argparse
import re
import sys

from .errors import (
    CoincidentQueryError,
    CsvFormatError,
    DegenerateBoundaryError,
    DegenerateInputError,
    GeneratorExhaustedError,
    OutsideDomainError,
    PreconditionError,
)
from .fileio import GridSpec, evaluate_grid, load_samples_csv, write_pgm
from .interpolate import WeightFunction, interpolate, lune_angles, weights_from_angles

_USAGE_EXIT = 1
_DOMAIN_EXIT = 2

_WEIGHT_FUNCTIONS = {wf.value: wf for wf in WeightFunction}

#: sorted(experiments.HARMONIC_FUNCTIONS), spelled out so that parsing
#: compiles no experiment: only the experiment command imports them.
_HARMONIC_FUNCTIONS = ("im_z3", "log_shift", "re_z2")

_DOMAIN_ERRORS = (
    CoincidentQueryError,
    CsvFormatError,
    DegenerateBoundaryError,
    DegenerateInputError,
    GeneratorExhaustedError,
    OutsideDomainError,
    PreconditionError,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let values like "-1,1" through as arguments, not option names.
        self._negative_number_matcher = re.compile(r"^-(?:\d|\.\d)")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected X,Y")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError("expected numeric X,Y") from None


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("expected XMIN,XMAX,YMIN,YMAX,NX,NY")
    try:
        return (*map(float, parts[:4]), int(parts[4]), int(parts[5]))
    except ValueError:
        raise argparse.ArgumentTypeError("expected four floats and two ints") from None


def _parse_sizes(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated ints") from None


def _build_parser():
    parser = _Parser(prog="lunenn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # The options of every command that reads a sample file.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--samples", required=True)
    common.add_argument("--weight-fn", default="tan-half", choices=sorted(_WEIGHT_FUNCTIONS))

    p_eval = sub.add_parser("eval", parents=[common], help="interpolate at a single point")
    p_eval.add_argument("--at", required=True, type=_parse_point)
    p_eval.add_argument("--allow-exterior", action="store_true")

    p_weights = sub.add_parser("weights", parents=[common], help="neighbor angle/weight table")
    p_weights.add_argument("--at", required=True, type=_parse_point)

    p_grid = sub.add_parser("grid", parents=[common], help="rasterize the interpolant to a PGM")
    p_grid.add_argument("--grid", required=True, type=_parse_grid)
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--method", default="moebius", choices=["moebius", "sibson"])

    p_exp = sub.add_parser("experiment", help="run a seeded experiment")
    p_exp.add_argument("kind", choices=["invariance", "harmonic"])
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--trials", type=int, default=50)
    p_exp.add_argument("--function", default="re_z2", choices=_HARMONIC_FUNCTIONS)
    p_exp.add_argument("--sizes", type=_parse_sizes, default=(16, 64, 256, 1024))
    p_exp.add_argument("--at", type=_parse_point, default=None)
    return parser


def _format_value(value):
    if isinstance(value, complex):
        return "%.17g,%.17g" % (value.real, value.imag)
    return "%.17g" % value


def _run(args):
    if args.command == "experiment":
        from .experiments import experiment_harmonic, experiment_invariance

        if args.kind == "invariance":
            report = experiment_invariance(args.seed, args.trials)
        else:
            report = experiment_harmonic(
                args.seed, args.sizes, args.function, args.at
            )
        report.write_csv(args.out)
        print("%s: %s" % (report.name, "pass" if report.passed else "fail"))
        return 0
    samples = load_samples_csv(args.samples)
    weight_fn = _WEIGHT_FUNCTIONS[args.weight_fn]
    if args.command == "eval":
        value = interpolate(samples, args.at, weight_fn, allow_exterior=args.allow_exterior)
        print(_format_value(value))
    elif args.command == "weights":
        angles = lune_angles(samples, args.at)
        weights = weights_from_angles(angles, weight_fn)
        print("index,theta,weight")
        for (i, theta), (_, w) in zip(angles.entries, weights.entries):
            print("%d,%.17g,%.17g" % (i, theta, w))
    else:
        grid = GridSpec(*args.grid)
        # write_pgm would refuse the rows: refuse them before the node loop.
        if any(isinstance(z, complex) for z in samples.elevations):
            raise DegenerateInputError("complex values cannot be rasterized")
        write_pgm(evaluate_grid(samples, grid, method=args.method, weight_fn=weight_fn), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return _run(args)
    except _DOMAIN_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
