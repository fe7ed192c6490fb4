"""The repository benchmark: three workloads timed to the ranked predictor list.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in its own process; ``BENCHMARK.json`` at the repository
root names the workloads and metrics, and ``perfbench/NOTES.md`` says why
each workload exists.
"""
