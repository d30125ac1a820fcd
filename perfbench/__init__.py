"""Benchmark of the reproduction: workloads, tracing and the runner
(``python3 perfbench/run.py``; see README.md)."""
