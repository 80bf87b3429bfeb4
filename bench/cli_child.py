"""Start the lunenn command line the way its console script does
(`sys.exit(lunenn.cli.main())`), while sampling the reference kernel
inside the process.

    python3 bench/cli_child.py SAMPLES_JSON grid --samples ... --out ...

Writes the kernel samples taken in the process (one before lunenn starts,
one after it ends, and every 50 ms while it runs) to SAMPLES_JSON, so that
the parent can subtract their time from the process's wall time and put
the rest on the reference speed (see calibrate.py).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402


def main():
    samples_path, argv = sys.argv[1], sys.argv[2:]
    first = calibrate.sample()
    sampler = calibrate.Sampler()
    try:
        with sampler:
            from lunenn.cli import main as lunenn_main

            return lunenn_main(argv)
    finally:
        samples = [first] + sampler.samples + [calibrate.sample()]
        with open(samples_path, "w", encoding="utf-8") as handle:
            json.dump(samples, handle)


if __name__ == "__main__":
    sys.exit(main())
