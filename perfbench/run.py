"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload olap_wide --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and prints every per-layer metric.
The last line of standard output is the JSON result; the line before it
holds the host facts and run details.  Any answer that differs from the
oracle exits non-zero without a result, naming the workload, the op and
the query.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

WORKLOADS = ("olap_wide", "oltp_rw", "served_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (_ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {_ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    import importlib

    from perfbench.common import emit, host_facts

    module = importlib.import_module(f"perfbench.{args.workload}")
    workload = module.Workload(args.seed)
    run = module.trace if args.trace else module.measure
    info, attempted, failed, metrics = run(workload, args.seconds)
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "host": host_facts(args.seed, {"table": workload.table.n_rows}),
        **info,
    }
    emit(info, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
