"""``python3 -m benchmarks.r2cbench --workload NAME [--seed N] [--seconds S]
[--trace 0|1] [--out PATH] [--spans PATH]``

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  Exits 1
if any output check failed, 2 if the checkout's sources are missing.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.r2cbench")
    parser.add_argument("--workload", required=True,
                        help="spec-sweep, spec-steady, attack-matrix or mvee-lockstep")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run length: sets how many passes run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace every second pass and print per-layer metrics")
    parser.add_argument("--out", help="write the full JSON report to PATH")
    parser.add_argument("--spans", help="with --trace 1, write the recorded spans to PATH")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"r2cbench: no package sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The jit runs at its defaults: tier 3 is never switched off.
    os.environ.pop("REPRO_JIT_TIER3", None)
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"r2cbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from benchmarks.r2cbench.runner import describe, result_line, run_benchmark

    report, tracer = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
    if args.spans and tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in tracer.spans], handle)
    describe(report)
    print(result_line(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
