"""``olap_wide``: wide analytic reads on Airline, one closed-loop caller.

Each cycle makes five read calls on :class:`ShardedCOAX`:

1. ``batch_range_query`` on 64 wide KNN boxes (K=200 on a 100k sample);
2. ``batch_aggregate`` SUM(AirTime) on 64 more boxes;
3. ``topk`` 10 by ArrTime on 16 boxes (the engine has no batch top-k,
   so the 16 singular calls form one read call);
4. and 5. ``knn`` k=10, each around the next point of a 32-point pool.

Each call kind forms its own latency band.  Only whole cycles run, so
every band keeps a fixed share of the samples (a fifth each, kNN two)
and the percentiles do not move with where a run happens to stop.  Most
time goes to the grid kernels, the exact post-filter, the result merge
and the executors; the serve tier plays no part and per-call planning
is under 1%.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.executors import Aggregate, TopK

from perfbench import inputs
from perfbench.clock import StealLog, Stopwatch
from perfbench.common import N_SHARDS, SETUP_REPEATS, WORKERS, latency_metrics, median, metric, rss_mb
from perfbench.oracle import ScanOracle, check_ids, check_values
from perfbench.traced import traced_run
from perfbench.writes import WriteStream, write_probe

NAME = "olap_wide"
TAIL_Q = 90.0
SUM_AIRTIME = Aggregate("sum", "AirTime")
TOPK_ARRTIME = TopK(10, column="ArrTime")
KNN_K = 10


@dataclass(frozen=True)
class Scale:
    rows: int = 1_000_000
    sample_rows: int = 100_000
    k_wide: int = 200
    n_range: int = 64
    n_aggregate: int = 64
    n_topk: int = 16
    n_knn: int = 2
    #: kNN points the calls rotate through, so no single point's ring
    #: search sets a seed's kNN band.
    knn_pool: int = 32


class Workload:
    """Inputs, oracle answers and the read calls of one seeded run."""

    def __init__(self, seed: int, scale: Scale = Scale()) -> None:
        rng = np.random.default_rng(seed)
        self.scale = scale
        self.table = inputs.airline(scale.rows)
        self.write_table = inputs.airline(max(scale.rows // 50, 1000), seed + inputs.WRITE_SEED_OFFSET)
        rows = inputs.sample(self.table, scale.sample_rows, rng)
        n_boxes = scale.n_range + scale.n_aggregate + scale.n_topk
        boxes = inputs.typical_boxes(rows, n_boxes, scale.k_wide, rng)
        self.ranges = boxes[: scale.n_range]
        self.aggregates = boxes[scale.n_range : scale.n_range + scale.n_aggregate]
        self.topk_boxes = boxes[scale.n_range + scale.n_aggregate :]
        _, self.knn_points = inputs.points(self.table, scale.knn_pool, rng)
        self.seed = seed

        oracle = ScanOracle(self.table)
        self.want_ranges = oracle.ranges(self.ranges)
        self.want_sums = oracle.aggregates(self.aggregates, SUM_AIRTIME)
        self.want_topk = [oracle.topk(box, TOPK_ARRTIME) for box in self.topk_boxes]
        self.want_knn = [oracle.knn(point, KNN_K) for point in self.knn_points]

    def build(self) -> ShardedCOAX:
        return ShardedCOAX(self.table, config=EngineConfig(n_shards=N_SHARDS, workers=WORKERS))

    def read_calls(self) -> List[Tuple[str, Callable, Callable, int]]:
        """``(op, call(engine), check(result), answers)`` per read call."""

        def check_ranges(results):
            for slot, got in enumerate(results):
                check_ids(NAME, "batch_range_query", slot, got, self.want_ranges[slot])

        def check_topk(results):
            for slot, got in enumerate(results):
                check_ids(NAME, "topk", slot, got, self.want_topk[slot], ordered=True)

        calls = [
            ("range", lambda e: e.batch_range_query(self.ranges), check_ranges, len(self.ranges)),
            (
                "aggregate",
                lambda e: e.batch_aggregate(self.aggregates, SUM_AIRTIME),
                lambda got: check_values(NAME, "batch_aggregate", got, self.want_sums),
                len(self.aggregates),
            ),
            (
                "topk",
                lambda e: [e.topk(box, TOPK_ARRTIME) for box in self.topk_boxes],
                check_topk,
                len(self.topk_boxes),
            ),
        ]
        cursor = itertools.count()

        def knn(engine):
            slot = next(cursor) % len(self.knn_points)
            return slot, engine.knn(self.knn_points[slot], KNN_K)

        def check_knn(result):
            slot, got = result
            check_ids(NAME, "knn", slot, got, self.want_knn[slot], ordered=True)

        return calls + [("knn", knn, check_knn, 1)] * self.scale.n_knn


class Phase:
    """Read-call latencies and per-cycle answer rates of one measured phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: Answers per second of read-call time, one value per cycle.
        self.cycle_rates: List[float] = []
        #: Pending delta rows sampled before each read call (none here).
        self.pending: List[int] = []

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def qps(self) -> float:
        """Median over cycles, so a burst of host noise moves one cycle only."""
        return median(self.cycle_rates) if self.cycle_rates else 0.0


class Runner:
    """Runs the read cycle on one engine."""

    def __init__(self, workload: Workload, engine: ShardedCOAX) -> None:
        self.engine = engine
        self._calls = workload.read_calls()
        self._log = StealLog()

    def run(self, seconds: float) -> Phase:
        """Whole cycles until ``seconds`` have passed (at least one); the
        answer checks run between calls, outside the timed intervals."""
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while True:
            busy = 0.0
            answers = 0
            for _, call, check, n_answers in self._calls:
                with Stopwatch(self._log) as watch:
                    result = call(self.engine)
                elapsed = watch.seconds
                check(result)
                phase.latencies.append(elapsed)
                busy += elapsed
                answers += n_answers
            phase.cycle_rates.append(answers / busy)
            if time.perf_counter() >= deadline:
                return phase


def setup(workload: Workload) -> Tuple[Runner, float, float]:
    """Build plus one checked warm-up cycle: ``(runner, setup_s, build_s)``."""
    with Stopwatch() as whole:
        with Stopwatch() as build:
            engine = workload.build()
        runner = Runner(workload, engine)
        runner.run(0.0)
    return runner, whole.seconds, build.seconds


def measure(workload: Workload, seconds: float) -> Tuple[Dict, int, int, Dict]:
    """Untraced run: end-to-end metrics.

    Memory growth is taken around the first set-up of the process, so no
    freed engine is around to be reused; the further set-ups for the
    ``setup_s`` median run after the timed phase.
    """
    rss_before = rss_mb()
    runner, setup_s, build_s = setup(workload)
    setups, builds = [setup_s], [build_s]
    gc.collect()
    gc.freeze()
    phase = runner.run(seconds)
    gc.unfreeze()
    rss_growth = rss_mb() - rss_before
    engine = runner.engine
    index_bytes = engine.directory_bytes()
    stream = WriteStream(workload.write_table, workload.seed)
    writes = write_probe(engine, workload.table, stream, workload.ranges[:8], NAME)
    engine.close()
    for _ in range(SETUP_REPEATS - 1):
        runner, setup_s, build_s = setup(workload)
        runner.engine.close()
        setups.append(setup_s)
        builds.append(build_s)

    metrics = {
        "setup_s": metric(median(setups), "s"),
        **latency_metrics(phase.latencies, TAIL_Q),
        "read_qps": metric(phase.qps(), "1/s"),
        "write_rows_per_s": metric(writes.rows_per_s(), "rows/s"),
        "ok_share": metric(1.0, "share"),
        "index_bytes": metric(index_bytes, "bytes"),
        "rss_mb": metric(rss_growth, "MB"),
    }
    info = {
        "read_calls": phase.ops,
        "cycles": len(phase.cycle_rates),
        "tail_percentile": TAIL_Q,
        "samples_beyond_tail": int(phase.ops * (100 - TAIL_Q) / 100),
        "setup_s_each": setups,
        "build_s_each": builds,
        "write_probe_rows_per_s_each": writes.rates,
    }
    return info, phase.ops + writes.n_calls, 0, metrics


def trace(workload: Workload, seconds: float) -> Tuple[Dict, int, int, Dict]:
    return traced_run(workload.build, lambda engine: Runner(workload, engine), seconds)
