"""Machine and code facts recorded in every results file."""

import os
import platform

import numpy as np
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    parts = [blas.get("name", "?"), blas.get("version", "?")]
    if blas.get("openblas configuration"):
        parts.append(blas["openblas configuration"])
    return " ".join(parts)


def _blas_threads():
    try:
        import threadpoolctl
    except ImportError:
        return {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return {
        info["internal_api"]: info["num_threads"]
        for info in threadpoolctl.threadpool_info()
    }


def _git_commit(repo_dir):
    """HEAD of a git checkout, read from .git without running git."""
    git_dir = os.path.join(repo_dir, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _line_count(package_dir):
    total = 0
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def collect(repo_dir):
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(repo_dir),
        "src_gaugecg_lines": _line_count(os.path.join(repo_dir, "src", "gaugecg")),
    }
