"""``oltp_rw``: small reads beside inserts, updates, deletes and compaction.

OSM, one FD group (Timestamp -> Id, about 78% primary), adaptive layout
on with the default ``LayoutConfig``.  A single caller runs whole
*periods*: ``Scale.rounds`` rounds of [4 read batches, insert, update,
delete], then one engine ``compact()``.  Each read batch holds 8 point
rectangles on existing rows and 8 narrow KNN boxes (K=10 on a 100k
sample of the same table): mixing them inside every batch keeps all
read calls in one latency band, so the median is not an edge between a
point band and a narrow band.  Inserted and updated rows come from a
second OSM table drawn with another seed.

Per-call fixed cost dominates here: translation, planning, shard glue,
pending-row scans, tombstone masks, the layout monitor and compaction.
A gain on the read path that costs the write path shows up on this
workload.  Every read is checked against a NumPy shadow table that
receives the same writes.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.config import EngineConfig, LayoutConfig
from repro.core.engine import ShardedCOAX

from perfbench import inputs
from perfbench.clock import StealLog, Stopwatch
from perfbench.common import N_SHARDS, SETUP_REPEATS, WORKERS, latency_metrics, median, metric, rss_mb
from perfbench.oracle import ShadowTable, check_ids
from perfbench.traced import traced_run
from perfbench.writes import WriteStream, WriteTimes, compact, write_round

NAME = "oltp_rw"
TAIL_Q = 90.0
BATCH = 16
READS_PER_ROUND = 4
#: Rows per insert, update and delete call.
WRITE_SIZES = (256, 128, 128)


@dataclass(frozen=True)
class Scale:
    rows: int = 1_000_000
    sample_rows: int = 100_000
    write_rows: int = 200_000
    k_narrow: int = 10
    pool: int = 256
    rounds: int = 16


class Workload:
    def __init__(self, seed: int, scale: Scale = Scale()) -> None:
        rng = np.random.default_rng(seed)
        self.scale = scale
        self.seed = seed
        self.table = inputs.osm(scale.rows)
        self.write_table = inputs.osm(scale.write_rows, seed + inputs.WRITE_SEED_OFFSET)
        rows = inputs.sample(self.table, scale.sample_rows, rng)
        self.narrow = inputs.typical_boxes(rows, scale.pool, scale.k_narrow, rng)
        self.points, _ = inputs.points(self.table, scale.pool, rng)

    def build(self) -> ShardedCOAX:
        config = EngineConfig(n_shards=N_SHARDS, workers=WORKERS, layout=LayoutConfig(enabled=True))
        return ShardedCOAX(self.table, config=config)


class Phase:
    """Read-batch latencies, per-period read rates and write times."""

    def __init__(self, log: StealLog) -> None:
        self.latencies: List[float] = []
        #: Answers per second of read-call time, one value per period.
        self.period_rates: List[float] = []
        self.writes = WriteTimes(log)
        self.pending: List[int] = []

    @property
    def ops(self) -> int:
        return len(self.latencies) + self.writes.n_calls

    def qps(self) -> float:
        """Median over periods, so a burst of host noise moves one period only."""
        return median(self.period_rates) if self.period_rates else 0.0


class LoadGen:
    """Engine, shadow and input cursors of one set-up."""

    def __init__(self, workload: Workload, engine: ShardedCOAX, shadow: ShadowTable) -> None:
        self.workload = workload
        self.engine = engine
        self.shadow = shadow
        self.stream = WriteStream(workload.write_table, workload.seed)
        self.log = StealLog()
        self._next = 0

    def _batch(self) -> List:
        """Half point, half narrow rectangles, so every batch costs alike."""
        start = self._next
        self._next += BATCH // 2
        pools = (self.workload.points, self.workload.narrow)
        return [pool[(start + i) % len(pool)] for i in range(BATCH // 2) for pool in pools]

    def read(self, phase: Phase) -> float:
        """One checked read batch; returns its latency."""
        queries = self._batch()
        phase.pending.append(self.engine.n_pending)
        with Stopwatch(self.log) as watch:
            results = self.engine.batch_range_query(queries)
        elapsed = watch.seconds
        for slot, (got, query) in enumerate(zip(results, queries)):
            check_ids(NAME, "batch_range_query", slot, got, self.shadow.query(query))
        phase.latencies.append(elapsed)
        return elapsed

    def period(self, phase: Phase, rounds: int) -> None:
        read_s = 0.0
        for _ in range(rounds):
            for _ in range(READS_PER_ROUND):
                read_s += self.read(phase)
            write_round(self.engine, self.shadow, self.stream, phase.writes, WRITE_SIZES, NAME)
        compact(self.engine, phase.writes)
        phase.period_rates.append(READS_PER_ROUND * rounds * BATCH / read_s)

    def run(self, seconds: float) -> Phase:
        """Whole periods until ``seconds`` have passed (at least one)."""
        phase = Phase(self.log)
        deadline = time.perf_counter() + seconds
        while True:
            self.period(phase, self.workload.scale.rounds)
            if time.perf_counter() >= deadline:
                return phase


def setup(workload: Workload, shadow: ShadowTable) -> Tuple[LoadGen, float, float]:
    """Build plus one warm-up round and compaction: ``(loadgen, setup_s, build_s)``."""
    with Stopwatch() as whole:
        with Stopwatch() as build:
            engine = workload.build()
        loadgen = LoadGen(workload, engine, shadow)
        loadgen.period(Phase(loadgen.log), 1)
    return loadgen, whole.seconds, build.seconds


def measure(workload: Workload, seconds: float) -> Tuple[Dict, int, int, Dict]:
    """Untraced run: end-to-end metrics (set-up order as in ``olap_wide``)."""
    shadow = ShadowTable(workload.table)
    rss_before = rss_mb()
    loadgen, setup_s, build_s = setup(workload, shadow)
    setups, builds = [setup_s], [build_s]
    gc.collect()
    gc.freeze()
    phase = loadgen.run(seconds)
    gc.unfreeze()
    rss_growth = rss_mb() - rss_before
    engine = loadgen.engine
    index_bytes = engine.directory_bytes()
    layout_epoch = engine.layout.epoch if engine.layout is not None else 0
    engine.close()
    loadgen = None
    for _ in range(SETUP_REPEATS - 1):
        extra, setup_s, build_s = setup(workload, ShadowTable(workload.table))
        extra.engine.close()
        setups.append(setup_s)
        builds.append(build_s)

    metrics = {
        "setup_s": metric(median(setups), "s"),
        **latency_metrics(phase.latencies, TAIL_Q),
        "read_qps": metric(phase.qps(), "1/s"),
        "write_rows_per_s": metric(phase.writes.rows_per_s(), "rows/s"),
        "ok_share": metric(1.0, "share"),
        "index_bytes": metric(index_bytes, "bytes"),
        "rss_mb": metric(rss_growth, "MB"),
    }
    info = {
        "read_calls": len(phase.latencies),
        "periods": len(phase.period_rates),
        "tail_percentile": TAIL_Q,
        "samples_beyond_tail": int(len(phase.latencies) * (100 - TAIL_Q) / 100),
        "read_qps_each": phase.period_rates,
        "write_rows_per_s_each": phase.writes.rates,
        "rows_written": phase.writes.rows,
        "layout_epoch": layout_epoch,
        "setup_s_each": setups,
        "build_s_each": builds,
    }
    return info, phase.ops, 0, metrics


def trace(workload: Workload, seconds: float) -> Tuple[Dict, int, int, Dict]:
    shadow = ShadowTable(workload.table)
    return traced_run(workload.build, lambda engine: LoadGen(workload, engine, shadow), seconds)
