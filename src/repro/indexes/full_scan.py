"""Full-scan baseline.

"Full scan: Every item in the dataset is checked against queries"
(Section 8.1.3).  It has zero directory overhead and serves as the
worst-case runtime reference in Figure 6.

It is also the *reference executor oracle*: :meth:`batch_aggregate_partial`,
:meth:`knn_partial` and :meth:`topk_partial` are re-implemented here from
first principles — a boolean match mask, plain NumPy reductions, one exact
``lexsort`` — sharing none of the fold kernels, prefix-sum caches or
``argpartition`` narrowing the optimised paths use.  The executor property
tests compare every index element-for-element (bit-for-bit for
COUNT/MIN/MAX) against this oracle, so a bug in the shared machinery cannot
cancel itself out.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.executors import Aggregate, AggregatePartial, TopK, narrow_topk_query
from repro.data.predicates import Rectangle
from repro.indexes.base import MultidimensionalIndex, register_index

__all__ = ["FullScanIndex"]


@register_index
class FullScanIndex(MultidimensionalIndex):
    """Scan every record for every query."""

    name = "full_scan"

    def _match_mask(self, query: Rectangle) -> np.ndarray:
        """Live-and-matching boolean mask over every covered position."""
        if self._tombstone is None:
            mask = np.ones(self.n_rows, dtype=bool)
        else:
            # Tombstoned rows are still scanned (they sit in the columns
            # until a rebuild) but can never match, which makes this the
            # delete-aware ground-truth oracle of the CRUD tests/benchmarks.
            mask = ~self._tombstone
        for name, interval in query.items():
            values = self._columns[name]
            mask &= (values >= interval.low) & (values <= interval.high)
        return mask

    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        matches = np.flatnonzero(self._match_mask(query)).astype(np.int64)
        self.stats.record(rows_examined=self.n_rows, rows_matched=len(matches))
        return matches

    # ------------------------------------------------------------------
    # Reference executors (the oracle the property tests compare against)
    # ------------------------------------------------------------------
    def batch_aggregate_partial(self, queries, spec: Aggregate) -> AggregatePartial:
        """First-principles aggregate: mask, then one NumPy reduction each.

        COUNT/MIN/MAX use ``sum``/``min``/``max`` over the masked column
        directly — the exact values the optimised fold paths must
        reproduce bit-for-bit.
        """
        partial = AggregatePartial.identity(len(queries))
        values = self._columns[spec.column] if spec.column is not None else None
        for slot, query in enumerate(queries):
            if query.is_empty or self.n_rows == 0:
                self.stats.record()
                continue
            mask = self._match_mask(query)
            matched = int(np.count_nonzero(mask))
            self.stats.record(rows_examined=self.n_rows, rows_matched=matched)
            partial.count[slot] = matched
            if values is not None and matched:
                selected = values[mask]
                partial.total[slot] = float(np.sum(selected))
                partial.minimum[slot] = float(np.min(selected))
                partial.maximum[slot] = float(np.max(selected))
        self.stats.record_batch(0, aggregates=len(queries))
        return partial

    def knn_partial(self, point, k: int, *, metric: str = "l2", bound: float = math.inf):
        """First-principles kNN: every live row's distance, one exact sort.

        No candidate narrowing at all (``bound`` is ignored) — ``lexsort``
        over ``(id, key)`` realises the library-wide ``(distance, row_id)``
        tie-break directly, so the optimised ring searches are held to it
        exactly.
        """
        TopK.knn(point, k, metric, self._columns)
        if self.n_rows == 0:
            self.stats.record(knn_queries=1)
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        keys = np.zeros(self.n_rows, dtype=np.float64)
        for dim, target in point.items():
            diff = self._columns[dim] - float(target)
            if metric == "l2":
                keys += diff * diff
            else:
                np.maximum(keys, np.abs(diff), out=keys)
        ids = self._row_ids
        if self._tombstone is not None:
            live = ~self._tombstone
            keys = keys[live]
            ids = ids[live]
        self.stats.record(rows_examined=len(ids), knn_queries=1)
        order = np.lexsort((ids, keys))[:k]
        return keys[order], ids[order]

    def topk_partial(self, query: Rectangle, spec: TopK, *, bound: float = math.inf):
        """First-principles by-column top-k: mask, gather, one exact sort.

        A finite ``bound`` cuts the rectangle on the column first, as on
        every index; the oracle runs with the default ``inf``.
        """
        TopK.by_column(spec.k, spec.column, spec.largest, self._columns)
        query = narrow_topk_query(query, spec, bound)
        if query.is_empty or self.n_rows == 0:
            self.stats.record(knn_queries=1)
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        positions = self._range_query_positions(query)
        self.stats.record_batch(0, knn_queries=1)
        if len(positions) == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        keys = self._columns[spec.column][positions].astype(np.float64)
        ids = self._row_ids[positions]
        order = np.lexsort((ids, -keys if spec.largest else keys))[: spec.k]
        return keys[order], ids[order]

    def directory_bytes(self) -> int:
        """A full scan keeps no structure at all."""
        return 0
