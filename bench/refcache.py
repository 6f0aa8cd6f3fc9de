"""Cached check references, one JSON file per workload problem and seed.

The screen-* checks need a reference_solve at d=1000, which costs several
seconds, so it is computed once per seed and kept under bench/cache/. The
file records the problem fingerprints it was made for; loading it for a
problem whose fingerprint differs (say, after a change to the data
generator) fails the checks instead of passing silently.

Run as a script to build one file:
    python3 bench/refcache.py WORKLOAD SEED
"""

import json
import os
import sys

import workloads

CACHE_DIR = os.path.join(workloads.BENCH_DIR, "cache")


def path_for(workload):
    return os.path.join(CACHE_DIR, workload.cache_key + ".json")


def build(workload):
    """Compute and store the check reference for one workload."""
    payload = workload.build_cache()
    payload["fingerprints"] = workload.fingerprints()
    os.makedirs(CACHE_DIR, exist_ok=True)
    path = path_for(workload)
    partial = f"{path}.{os.getpid()}.tmp"
    with open(partial, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
    os.replace(partial, path)
    return path


def load(path):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def main(argv):
    name, seed = argv[0], int(argv[1])
    workload = workloads.build(name, seed)
    try:
        build(workload)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
