"""The repository's performance benchmark: three workloads, per-layer
latency from spans recorded around public methods, exact I/O counters.

Run it with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see
``perfbench/README.md``.
"""
