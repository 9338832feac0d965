"""Benchmark of toscert; run it with `python3 perfbench/run.py`."""
