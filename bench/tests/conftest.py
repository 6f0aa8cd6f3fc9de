"""Put the benchmark's modules (and, through workloads, src/) on sys.path."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402,F401
