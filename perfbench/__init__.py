"""The repository's benchmark: four fixed-work workloads over the public API.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""
