"""Shared pieces of the benchmark: results, percentiles, host facts."""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

#: Checkout root (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for archives and server logs; listed in ``.gitignore``.
WORK_DIR = ROOT / ".perfbench_work"

#: Engine shape shared by every workload (2 workers = the 2-core host).
N_SHARDS = 8
WORKERS = 2

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class MismatchError(RuntimeError):
    """An answer differs from the oracle: the run fails, naming what differed."""

    def __init__(self, workload: str, op: str, query: object, detail: str) -> None:
        super().__init__(f"{workload}: {op} answer for query {query} differs from the oracle: {detail}")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def rss_mb() -> float:
    """Resident memory of this process in MB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def git_commit() -> str:
    """Commit of the checkout when it is a git work tree, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref:"):
        return ref
    name = ref.split(None, 1)[1]
    ref_file = ROOT / ".git" / name
    try:
        return ref_file.read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(seed: int, rows: Dict[str, int]) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "rows": rows,
        "git_commit": git_commit(),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(info: Dict[str, object], attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]) -> None:
    """Print the run's details, then the one-line JSON result a benchmark harness reads."""
    print(json.dumps({"info": info}, default=str))
    print(
        json.dumps(
            {"correct": True, "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
        )
    )
    sys.stdout.flush()


def latency_metrics(latencies_s: List[float], tail_q: float) -> Dict[str, Dict[str, object]]:
    return {
        "read_p50_ms": metric(percentile(latencies_s, 50) * 1e3, "ms"),
        "read_tail_ms": metric(percentile(latencies_s, tail_q) * 1e3, "ms"),
    }


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))
