"""Reference answers the benchmark checks every engine answer against.

Two oracles, both outside any timed region:

* :class:`ScanOracle` — the program's own ``FullScanIndex`` over a
  read-only table (``olap_wide``, ``served_mix``): one mask per query,
  no shared kernels with the indexed paths.
* :class:`ShadowTable` — a NumPy copy of a table that receives the same
  inserts, updates and deletes as the engine (``oltp_rw`` and the write
  probe).  It answers a rectangle from a static sort on its first column
  plus a full scan of every row written since, so checking each read
  batch stays cheap at a million rows.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.data.executors import Aggregate, TopK
from repro.data.predicates import Rectangle
from repro.data.table import Table
from repro.indexes.full_scan import FullScanIndex

from perfbench.common import MismatchError


class ScanOracle:
    """Full-scan answers for a table that does not change."""

    def __init__(self, table: Table) -> None:
        self._index = FullScanIndex(table)

    def ranges(self, queries: Sequence[Rectangle]) -> List[np.ndarray]:
        return [np.sort(ids) for ids in self._index.batch_range_query(list(queries))]

    def aggregates(self, queries: Sequence[Rectangle], spec: Aggregate) -> np.ndarray:
        return self._index.batch_aggregate(list(queries), spec)

    def topk(self, query: Rectangle, spec: TopK) -> np.ndarray:
        return self._index.topk(query, spec)

    def knn(self, point: Mapping[str, float], k: int) -> np.ndarray:
        return self._index.knn(point, k)


def check_ids(workload: str, op: str, query: object, got: np.ndarray, want: np.ndarray, *, ordered: bool = False) -> None:
    """Same row-id set (or, with ``ordered``, the same sequence) or fail."""
    got = np.asarray(got, dtype=np.int64)
    if not ordered:
        got = np.sort(got)
    if got.shape != want.shape or not np.array_equal(got, want):
        raise MismatchError(workload, op, query, f"{len(got)} ids vs {len(want)} expected")


def check_values(workload: str, op: str, got: np.ndarray, want: np.ndarray, rtol: float = 1e-9) -> None:
    """Aggregate values equal up to summation order (``rtol``) or fail."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    close = np.isclose(got, want, rtol=rtol, atol=0.0, equal_nan=True)
    if got.shape != want.shape or not close.all():
        bad = int(np.flatnonzero(~close)[0]) if got.shape == want.shape else -1
        raise MismatchError(workload, op, bad, f"value {got[bad] if bad >= 0 else got.shape} vs {want[bad] if bad >= 0 else want.shape}")


class ShadowTable:
    """A mutable NumPy mirror of the engine's rows, keyed by global row id."""

    def __init__(self, table: Table) -> None:
        self.schema = tuple(table.schema)
        self.n_rows = table.n_rows
        capacity = max(2 * self.n_rows, 1024)
        self._columns: Dict[str, np.ndarray] = {}
        for name in self.schema:
            column = np.empty(capacity, dtype=np.float64)
            column[: self.n_rows] = table.column(name)
            self._columns[name] = column
        self._live = np.zeros(capacity, dtype=bool)
        self._live[: self.n_rows] = True
        # Rows written after the snapshot are not in the static sort.
        self._written = np.zeros(capacity, dtype=bool)
        self._written_ids: Optional[np.ndarray] = None
        key = self._columns[self.schema[0]][: self.n_rows]
        self._order = np.argsort(key, kind="stable")
        self._sorted_key = key[self._order]

    def _grow(self, needed: int) -> None:
        capacity = len(self._live)
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity)
        for name, column in self._columns.items():
            grown = np.empty(capacity, dtype=np.float64)
            grown[: len(column)] = column
            self._columns[name] = grown
        for attr in ("_live", "_written"):
            old = getattr(self, attr)
            grown = np.zeros(capacity, dtype=bool)
            grown[: len(old)] = old
            setattr(self, attr, grown)

    def _write(self, row_ids: np.ndarray, batch: Mapping[str, np.ndarray]) -> None:
        for name in self.schema:
            self._columns[name][row_ids] = batch[name]
        self._live[row_ids] = True
        self._written[row_ids] = True
        self._written_ids = None

    def insert(self, row_ids: np.ndarray, batch: Mapping[str, np.ndarray]) -> None:
        """Mirror ``insert_batch``; the engine must hand out the next ids."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        expected = np.arange(self.n_rows, self.n_rows + len(row_ids), dtype=np.int64)
        if not np.array_equal(row_ids, expected):
            raise MismatchError("shadow", "insert_batch", "ids", "engine returned unexpected row ids")
        self._grow(self.n_rows + len(row_ids))
        self._write(row_ids, batch)
        self.n_rows += len(row_ids)

    def update(self, row_ids: np.ndarray, batch: Mapping[str, np.ndarray]) -> None:
        self._write(np.asarray(row_ids, dtype=np.int64), batch)

    def delete(self, row_ids: np.ndarray) -> None:
        self._live[np.asarray(row_ids, dtype=np.int64)] = False

    def live_ids(self) -> np.ndarray:
        return np.flatnonzero(self._live[: self.n_rows])

    def query(self, query: Rectangle) -> np.ndarray:
        """Sorted live row ids inside ``query``."""
        if self._written_ids is None:
            self._written_ids = np.flatnonzero(self._written[: self.n_rows])
        interval = query.interval(self.schema[0])
        start = np.searchsorted(self._sorted_key, interval.low, side="left")
        stop = np.searchsorted(self._sorted_key, interval.high, side="right")
        static = self._order[start:stop]
        candidates = np.concatenate([static[~self._written[static]], self._written_ids])
        mask = self._live[candidates]
        for name, bounds in query.items():
            values = self._columns[name][candidates]
            mask &= (values >= bounds.low) & (values <= bounds.high)
        return np.sort(candidates[mask])
