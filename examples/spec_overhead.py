#!/usr/bin/env python3
"""Mini Figure 6: full-R2C overhead on a SPEC-suite subset.

Compiles each synthetic SPEC benchmark with and without full protection
(fresh diversification seed per run, as in the paper) and prints the
overhead per benchmark on two machine models.

Run:  python examples/spec_overhead.py  [--jobs N] [benchmark ...]
"""

import sys

from repro.eval.engine import ExperimentEngine
from repro.eval.experiments import experiment_figure6
from repro.workloads.spec import SPEC_BENCHMARKS

DEFAULT_SUBSET = ["perlbench", "mcf", "lbm", "omnetpp", "xalancbmk", "xz"]
MACHINES = ["epyc-rome", "xeon"]


def main():
    print(__doc__)
    args = sys.argv[1:]
    jobs = 1
    if "--jobs" in args:
        at = args.index("--jobs")
        jobs = int(args[at + 1])
        del args[at : at + 2]
    names = args or DEFAULT_SUBSET
    unknown = [n for n in names if n not in SPEC_BENCHMARKS]
    if unknown:
        raise SystemExit(f"unknown benchmarks: {unknown}; pick from {list(SPEC_BENCHMARKS)}")

    with ExperimentEngine(jobs=jobs) as engine:
        overheads = experiment_figure6(
            seeds=(1, 2), machines=MACHINES, benchmarks=names, engine=engine
        )
    print(f"{'benchmark':12s}" + "".join(f"{m:>12s}" for m in MACHINES))
    for name in names + ["geomean"]:
        print(f"{name:12s}" + "".join(f"{overheads[name][m]:11.1f}%" for m in MACHINES))


if __name__ == "__main__":
    main()
