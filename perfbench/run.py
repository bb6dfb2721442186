"""The repo benchmark: ``python3 perfbench/run.py --workload NAME``.

Options: ``--seed N`` (interleaving order and generated serve pairs),
``--seconds S`` (measuring time; analysis workloads always finish at
least one whole round), ``--trace 0|1`` (0: end-to-end metrics, tracing
off; 1: the traced run and its per-layer metrics).  The last stdout line
is the result object; a human-readable report goes to stderr.  Exits 1
on a wrong verdict, 2 when the program source is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import sys

from common import require_source

ANALYSIS = ("table1-d2", "cubic-nested", "refute-exact")
WORKLOADS = ANALYSIS + ("serve-mixed",)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    if args.workload in ANALYSIS:
        import analysis
        return analysis.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    import serveload
    return serveload.run(args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
