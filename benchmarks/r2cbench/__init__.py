"""r2cbench: the repository's end-to-end benchmark.

Four closed-loop workloads (``spec-sweep``, ``spec-steady``,
``attack-matrix``, ``mvee-lockstep``) driven from one process and one
thread through the package's public entry points, with every output
checked against an independent oracle.  See ``README.md`` in this
directory for the metrics, the workloads and why each was chosen.

Run one workload::

    python3 -m benchmarks.r2cbench --workload spec-sweep --seed 0

This package must not import :mod:`repro` at import time: the command
line entry point puts the checkout's ``src/`` on ``sys.path`` first.
"""
