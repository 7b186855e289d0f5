"""The repository benchmark: workloads, outside-in tracing, and its build.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and how to read a
traced run.
"""
