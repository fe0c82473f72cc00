"""Benchmark of cvleak; the entry point is ``perfbench/run.py``."""
