"""oupac benchmark runner.

    python3 bench/run.py --workload chain --seed 1 --seconds 15 --trace 0

Runs one seeded workload (see workloads.py) in a closed loop from the
root of a source checkout, checks every op's output (see oracles.py)
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics (see metrics.py).  Run metadata is
printed on the line before and kept, with the spans of the first traced
pass, under bench/results/.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "oupac" / "__init__.py").is_file():
        print(f"error: no oupac sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        # The set-up probe imports only ops (and oupac from SRC), so that
        # setup_s holds none of the benchmark's own imports.
        sys.path.insert(0, str(SRC))
        import ops

        return ops.probe_setup(args.workload, args.seed)
    # reference records OpenBLAS's thread count before oupac loads
    import reference  # noqa: F401

    sys.path.insert(0, str(SRC))
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
