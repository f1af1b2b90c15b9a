"""Insert/update/delete rounds mirrored into a :class:`ShadowTable`.

``oltp_rw`` interleaves these rounds with its reads.  ``olap_wide`` and
``served_mix`` have no writes of their own, so after their timed phase
they run a short fixed *write probe* on their engine (Airline, two FD
groups) to give ``write_rows_per_s`` a value there too.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.data.predicates import Rectangle
from repro.data.table import Table

from perfbench.clock import StealLog, Stopwatch
from perfbench.common import MismatchError
from perfbench.oracle import ShadowTable, check_ids


class WriteStream:
    """Rows for inserts and updates, taken in order from a second table."""

    def __init__(self, table: Table, seed: int) -> None:
        self._columns = {name: table.column(name) for name in table.schema}
        self._n_rows = table.n_rows
        self._position = 0
        self._rng = np.random.default_rng(seed)

    def take(self, n_rows: int) -> Dict[str, np.ndarray]:
        index = (self._position + np.arange(n_rows)) % self._n_rows
        self._position += n_rows
        return {name: column[index] for name, column in self._columns.items()}

    def pick(self, live_ids: np.ndarray, n_rows: int) -> np.ndarray:
        return np.sort(self._rng.choice(live_ids, size=n_rows, replace=False))


class WriteTimes:
    """Seconds spent in write calls and in ``compact()``, and rows written.

    Rates are kept per *period* (write rounds up to and including one
    compaction), so compaction cost counts against the writes it follows.
    """

    def __init__(self, log: StealLog) -> None:
        self.log = log
        self.calls: Dict[str, List[float]] = {"insert": [], "update": [], "delete": [], "compact": []}
        self.rows = 0
        #: Rows per second of write-call time, one value per period.
        self.rates: List[float] = []
        self._period_rows = 0
        self._period_s = 0.0

    @property
    def seconds(self) -> float:
        return float(sum(sum(times) for times in self.calls.values()))

    @property
    def n_calls(self) -> int:
        return sum(len(times) for times in self.calls.values())

    def add(self, op: str, seconds: float, rows: int = 0) -> None:
        self.calls[op].append(seconds)
        self.rows += rows
        self._period_rows += rows
        self._period_s += seconds
        if op == "compact":
            self.rates.append(self._period_rows / self._period_s)
            self._period_rows, self._period_s = 0, 0.0

    def rows_per_s(self) -> float:
        """Median over periods."""
        return float(np.median(self.rates)) if self.rates else 0.0


def write_round(
    engine,
    shadow: ShadowTable,
    stream: WriteStream,
    times: WriteTimes,
    sizes: Sequence[int],
    workload: str,
) -> None:
    """One ``insert_batch``, ``update_batch`` and ``delete_batch`` call each."""
    n_insert, n_update, n_delete = sizes
    batch = stream.take(n_insert)
    with Stopwatch(times.log) as watch:
        row_ids = engine.insert_batch(batch)
    times.add("insert", watch.seconds, n_insert)
    shadow.insert(row_ids, batch)

    targets = stream.pick(shadow.live_ids(), n_update + n_delete)
    updated, deleted = targets[:n_update], targets[n_update:]
    batch = stream.take(n_update)
    with Stopwatch(times.log) as watch:
        engine.update_batch(updated, batch)
    times.add("update", watch.seconds, n_update)
    shadow.update(updated, batch)

    with Stopwatch(times.log) as watch:
        removed = engine.delete_batch(deleted)
    times.add("delete", watch.seconds, n_delete)
    shadow.delete(deleted)
    if removed != len(deleted):
        raise MismatchError(workload, "delete_batch", "round", f"deleted {removed} of {len(deleted)} live rows")


def compact(engine, times: WriteTimes) -> None:
    with Stopwatch(times.log) as watch:
        engine.compact()
    times.add("compact", watch.seconds)


def check_reads(engine, shadow: ShadowTable, queries: Sequence[Rectangle], workload: str, op: str) -> None:
    """Answer ``queries`` on the engine and compare with the shadow."""
    for slot, (got, query) in enumerate(zip(engine.batch_range_query(list(queries)), queries)):
        check_ids(workload, op, slot, got, shadow.query(query))


#: Write probe: periods of one (insert, update, delete) round and a compact.
PROBE_PERIODS = 5
PROBE_SIZES = (1024, 512, 512)


def write_probe(engine, table: Table, stream: WriteStream, checks: Sequence[Rectangle], workload: str) -> WriteTimes:
    """Fixed write work after the timed reads; checked against a shadow."""
    shadow = ShadowTable(table)
    times = WriteTimes(StealLog())
    for _ in range(PROBE_PERIODS):
        write_round(engine, shadow, stream, times, PROBE_SIZES, workload)
        compact(engine, times)
    check_reads(engine, shadow, checks, workload, "range after write probe")
    return times
