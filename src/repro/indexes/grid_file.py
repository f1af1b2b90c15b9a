"""Quantile-boundary grid file with a sorted dimension per cell (Section 6).

This is the index layout COAX builds its primary index on: a Grid File
variant where

* cell boundaries along every grid dimension are chosen from quantiles of
  the data (equal-depth, not equal-width), using the same number of grid
  lines for every attribute;
* cell addresses are laid out in the original attribute order;
* each cell stores its records contiguously, sorted by one designated
  attribute, so that attribute needs no grid lines at all — lookups on it
  use binary search inside the cell ("Sorting the rows inside pages means
  that we can reduce the dimensionality of the grid by one").

The layout is physical, as in Flood: the index keeps its own copy of
every column and its row ids in (cell, sort-key) order, so cell ``c``
owns local positions ``offsets[c]:offsets[c+1]``, the sort key is the
clustered sort column itself, and every candidate run the bisection
finds is a contiguous slice — the post-filter, the aggregate folds,
top-k and kNN read runs instead of gathering through a row permutation.

The same structure doubles as the Column Files baseline (see
:mod:`repro.indexes.column_files`).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.executors import (
    Aggregate,
    AggregatePartial,
    TopK,
    kth_key,
    point_distances,
    select_topk,
)
from repro.data.predicates import Rectangle, batch_bounds
from repro.data.table import Table
from repro.indexes.base import IndexBuildError, MultidimensionalIndex, register_index
from repro.indexes.kernels import (
    SMALL_QUERY_CELLS,
    axis_cell_ranges,
    axis_filter_needed,
    enumerate_cells,
    enumerate_cells_batch,
    gather_ranges,
    live_candidate_mask,
    observed_axis_spans,
    prefix_sums,
    row_major_strides,
    segment_bisect,
    segment_reduce,
    segment_sum,
)
from repro.indexes.uniform_grid import MAX_TOTAL_CELLS, _capped_cells_per_dim
from repro.stats.quantiles import quantile_boundaries

__all__ = ["SortedCellGridIndex"]


@register_index
class SortedCellGridIndex(MultidimensionalIndex):
    """Grid file with quantile boundaries and an in-cell sorted dimension."""

    name = "sorted_cell_grid"

    def __init__(
        self,
        table: Table,
        *,
        cells_per_dim: int = 8,
        max_cells: Optional[int] = None,
        sort_dimension: Optional[str] = None,
        row_ids: Optional[np.ndarray] = None,
        dimensions: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(
            table, row_ids=row_ids, dimensions=dimensions, gather_columns=False
        )
        if cells_per_dim < 1:
            raise IndexBuildError("cells_per_dim must be at least 1")
        self._sort_dimension = sort_dimension or self._dimensions[-1]
        if self._sort_dimension not in self._table.schema:
            raise IndexBuildError(f"sort dimension {self._sort_dimension!r} not in schema")
        # Grid lines cover every indexed dimension except the sorted one.
        self._grid_dimensions: Tuple[str, ...] = tuple(
            dim for dim in self._dimensions if dim != self._sort_dimension
        )
        n_grid_dims = len(self._grid_dimensions)
        # Same directory-size discipline as the uniform grid: by default the
        # total cell count may not exceed the number of indexed records.
        budget = max_cells if max_cells is not None else max(16, self.n_rows)
        budget = min(budget, MAX_TOTAL_CELLS)
        self._cells_per_dim = _capped_cells_per_dim(cells_per_dim, n_grid_dims, budget)
        self._shape: Tuple[int, ...] = tuple([self._cells_per_dim] * n_grid_dims)
        self._cell_strides: Tuple[int, ...] = row_major_strides(self._shape)
        self._cluster(table, self._row_ids, learn_boundaries=True)

    # ------------------------------------------------------------------
    # Structured restore (format v8)
    # ------------------------------------------------------------------
    @classmethod
    def _restore(
        cls,
        table: Table,
        *,
        row_ids: np.ndarray,
        columns: Dict[str, np.ndarray],
        dimensions: Sequence[str],
        sort_dimension: str,
        cells_per_dim: int,
        boundaries: Sequence[np.ndarray],
        axis_lows: Sequence[float],
        axis_highs: Sequence[float],
        offsets: np.ndarray,
    ) -> "SortedCellGridIndex":
        """Reattach a grid from persisted derived state — no rebuild.

        ``row_ids`` and ``columns`` are in clustered (cell, sort-key)
        order; they, the quantile boundaries and the per-cell offsets are
        adopted verbatim, so the restored grid is bit-identical to the
        saved one by construction and attaching costs O(metadata) plus
        mapping the arrays (nothing when they are memmaps).
        """
        index = cls.__new__(cls)
        index._init_restored(
            table, row_ids=row_ids, columns=columns, dimensions=dimensions
        )
        index._sort_dimension = sort_dimension
        index._grid_dimensions = tuple(
            dim for dim in index._dimensions if dim != sort_dimension
        )
        index._cells_per_dim = int(cells_per_dim)
        index._shape = tuple([index._cells_per_dim] * len(index._grid_dimensions))
        index._cell_strides = row_major_strides(index._shape)
        index._boundaries = [np.asarray(b, dtype=np.float64) for b in boundaries]
        index._axis_lows = [float(v) for v in axis_lows]
        index._axis_highs = [float(v) for v in axis_highs]
        index._offsets = np.asarray(offsets, dtype=np.int64)
        index._agg_prefix = {}
        return index

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _cluster(
        self, table: Table, row_ids: np.ndarray, *, learn_boundaries: bool
    ) -> None:
        """Lay ``row_ids`` of ``table`` out in (cell id, sort key) order.

        Only the indexed attributes are read in input order — enough to
        learn the quantile boundaries and the order; every column is then
        gathered exactly once, already clustered, so each cell's records
        sit contiguously and sorted by the sort dimension (the paper's
        page layout).  Local position ``p`` then holds row ``row_ids[p]``
        of the clustered order, and a candidate run is a plain slice.
        """
        indexed = {
            dim: table.column(dim)[row_ids]
            for dim in (*self._grid_dimensions, self._sort_dimension)
        }
        if learn_boundaries:
            self._boundaries: List[np.ndarray] = [
                quantile_boundaries(indexed[dim], self._cells_per_dim)
                for dim in self._grid_dimensions
            ]
        flat = self._flat_cells(indexed, len(row_ids))
        order = np.lexsort((indexed[self._sort_dimension], flat))
        del indexed
        counts = np.bincount(flat, minlength=self.n_cells)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._invalidate_row_lookup()
        self._table = table
        self._row_ids = row_ids[order]
        self._columns = {
            name: table.column(name)[self._row_ids] for name in table.schema
        }
        self._compute_axis_spans()
        # The id lookup of positions_of, straight from the permutation:
        # input row i sits at clustered position inverse[i], so listing the
        # input by ascending id (it usually is already, e.g. partition ids)
        # lists the clustered positions by ascending id — O(n), no argsort
        # of the clustered ids.
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.arange(len(order), dtype=np.int64)
        if not bool(np.all(row_ids[1:] > row_ids[:-1])):
            by_id = np.argsort(row_ids, kind="stable")
            inverse, row_ids = inverse[by_id], row_ids[by_id]
        self._sorted_row_ids, self._row_id_order = row_ids, inverse
        # The aggregate prefix-sum cache is laid out over the clustered
        # columns, so any path that moves rows must drop it.
        self._agg_prefix: Dict[str, np.ndarray] = {}

    def _flat_cells(self, columns: Dict[str, np.ndarray], n: int) -> np.ndarray:
        """Flat cell id of each of ``n`` rows given their grid-axis values."""
        if not self._grid_dimensions:
            return np.zeros(n, dtype=np.int64)
        cell_coordinates = [
            self._cell_of(columns[dim], axis)
            for axis, dim in enumerate(self._grid_dimensions)
        ]
        return np.ravel_multi_index(cell_coordinates, self._shape)

    def _cell_of(self, values: np.ndarray, axis: int) -> np.ndarray:
        boundaries = self._boundaries[axis]
        return np.clip(
            np.searchsorted(boundaries, values, side="right") - 1, 0, self._cells_per_dim - 1
        )

    def _compute_axis_spans(self) -> None:
        """Observed [min, max] per grid dimension, kept current by absorbs
        (see :func:`repro.indexes.kernels.observed_axis_spans`)."""
        self._axis_lows, self._axis_highs = observed_axis_spans(
            self._columns, self._grid_dimensions
        )

    def _row_lookup(self) -> Tuple[np.ndarray, np.ndarray]:
        """The row-id lookup of :meth:`positions_of`, without an argsort.

        Builds and absorbs keep the lookup current; only a restored grid
        derives it here, on first use.  Covered row ids are distinct
        positions of the backing table, so one scatter of the local
        positions over the table's slots lists them in ascending id
        order: ``O(table rows)`` instead of sorting the clustered ids.
        """
        if self._row_id_order is None or self._sorted_row_ids is None:
            slot = np.full(self._table.n_rows, -1, dtype=np.int64)
            slot[self._row_ids] = np.arange(self.n_rows, dtype=np.int64)
            order = slot[slot >= 0]
            self._row_id_order = order
            self._sorted_row_ids = self._row_ids[order]
        return self._sorted_row_ids, self._row_id_order

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def absorb_rows(self, table: Table, new_row_ids: np.ndarray) -> None:
        """Merge new rows of ``table`` into the existing grid in place.

        This is the incremental half of COAX compaction: the quantile
        boundaries learned at build time are kept (no re-quantiling), the
        new rows are assigned to cells with the existing directory, sorted
        by (cell, sort key) once, and each lands at its per-cell insert
        position, found with one binary search per touched cell.  Sorting
        work is ``O(k log k + k log n)`` for ``k`` new rows; every column,
        the row ids and the tombstone bitmap are then rewritten with one
        ``O(n + k)`` ``np.insert`` each, so the win over a rebuild is
        avoiding the full ``O((n + k) log (n + k))`` re-sort and the
        re-quantiling, not the linear copy.

        ``table`` must contain the previously covered rows under their old
        ids plus the new rows under ``new_row_ids``.
        """
        new_row_ids = np.asarray(new_row_ids, dtype=np.int64)
        old_n = self.n_rows
        if len(new_row_ids) == 0:
            self._table = table
            return
        if old_n == 0:
            # The grid was built over no data, so its boundaries carry no
            # information; learn them from the first absorbed batch.
            self._cluster(table, new_row_ids, learn_boundaries=True)
            return
        k = len(new_row_ids)
        indexed = {
            dim: table.column(dim)[new_row_ids]
            for dim in (*self._grid_dimensions, self._sort_dimension)
        }
        for axis, dim in enumerate(self._grid_dimensions):
            self._axis_lows[axis] = min(self._axis_lows[axis], float(indexed[dim].min()))
            self._axis_highs[axis] = max(self._axis_highs[axis], float(indexed[dim].max()))
        flat = self._flat_cells(indexed, k)
        keys = indexed[self._sort_dimension]
        order = np.lexsort((keys, flat))
        flat_sorted = flat[order]
        keys_sorted = keys[order]
        sort_column = self._columns[self._sort_dimension]
        insert_at = np.empty(k, dtype=np.int64)
        # flat_sorted is sorted, so each touched cell is one contiguous run.
        touched_cells, run_starts = np.unique(flat_sorted, return_index=True)
        run_ends = np.append(run_starts[1:], k)
        for cell, run_start, run_end in zip(touched_cells, run_starts, run_ends):
            start, stop = int(self._offsets[cell]), int(self._offsets[cell + 1])
            insert_at[run_start:run_end] = start + np.searchsorted(
                sort_column[start:stop],
                keys_sorted[run_start:run_end],
                side="right",
            )
        # Invalidate the row-id lookup before mutating the row set: if an
        # insert below raises, a stale cache must never survive.
        sorted_ids, id_positions = self._sorted_row_ids, self._row_id_order
        self._invalidate_row_lookup()
        self._table = table
        added = new_row_ids[order]
        self._row_ids = np.insert(self._row_ids, insert_at, added)
        for name in table.schema:
            self._columns[name] = np.insert(
                self._columns[name], insert_at, table.column(name)[added]
            )
        if self._tombstone is not None:
            self._tombstone = np.insert(self._tombstone, insert_at, False)
        self._agg_prefix = {}
        counts = np.bincount(flat, minlength=self.n_cells)
        self._offsets[1:] += np.cumsum(counts)
        if sorted_ids is not None and id_positions is not None:
            # Shift the lookup by the insert positions: an old position
            # moves up by the rows inserted at or before it, and new row j
            # (insert_at is non-decreasing) lands at insert_at[j] + j.
            shift = np.cumsum(np.bincount(insert_at, minlength=old_n + 1))
            by_id = np.argsort(added, kind="stable")
            at = np.searchsorted(sorted_ids, added[by_id])
            self._row_id_order = np.insert(
                id_positions + shift[id_positions],
                at,
                (insert_at + np.arange(k, dtype=np.int64))[by_id],
            )
            self._sorted_row_ids = np.insert(sorted_ids, at, added[by_id])

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _cell_range(self, axis: int, low: float, high: float) -> Tuple[int, int]:
        boundaries = self._boundaries[axis]
        lo_cell = int(np.clip(np.searchsorted(boundaries, low, side="right") - 1, 0, self._cells_per_dim - 1))
        hi_cell = int(np.clip(np.searchsorted(boundaries, high, side="right") - 1, 0, self._cells_per_dim - 1))
        return lo_cell, hi_cell

    def _axis_filter_needed(self, axis: int, low: float, high: float, lo_cell: int, hi_cell: int) -> bool:
        """Scalar filter-pruning check for one grid axis
        (see :func:`repro.indexes.kernels.axis_filter_needed`)."""
        return axis_filter_needed(
            low,
            high,
            lo_cell,
            hi_cell,
            self._boundaries[axis],
            self._cells_per_dim,
            self._axis_lows[axis],
            self._axis_highs[axis],
        )

    def _pruned_filter_dims(
        self, query: Rectangle, lo_cells: Sequence[int], hi_cells: Sequence[int]
    ) -> List[str]:
        """Grid dimensions whose exact post-filter is provably redundant.

        The filter-pruning invariant (see :meth:`_axis_filter_needed`):
        when a query interval fully covers every visited cell along an
        axis, no candidate row can violate it, so its column gather is
        skipped.  Constraints on non-indexed attributes are never pruned.
        """
        pruned: List[str] = []
        for axis, dim in enumerate(self._grid_dimensions):
            if not query.constrains(dim):
                continue
            interval = query.interval(dim)
            if not self._axis_filter_needed(
                axis, interval.low, interval.high, int(lo_cells[axis]), int(hi_cells[axis])
            ):
                pruned.append(dim)
        return pruned

    def _axis_cell_spans(self, query: Rectangle) -> Tuple[List[int], List[int]]:
        """Inclusive per-axis cell ranges the query overlaps."""
        lo_cells: List[int] = []
        hi_cells: List[int] = []
        for axis, dim in enumerate(self._grid_dimensions):
            interval = query.interval(dim)
            lo_cell, hi_cell = self._cell_range(axis, interval.low, interval.high)
            lo_cells.append(lo_cell)
            hi_cells.append(hi_cell)
        return lo_cells, hi_cells

    def _bisect_cells(
        self, cells: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cell ``[first, last)`` key runs for per-cell sort-key bounds.

        One batched bisection over all cells (of one query or of a whole
        batch) instead of two Python-dispatched ``searchsorted`` calls per
        cell.  The upper search starts from the lower result — valid because
        ``last >= first`` whenever the interval is non-empty.
        """
        keys = self._columns[self._sort_dimension]
        starts = self._offsets[cells]
        stops = self._offsets[cells + 1]
        first = segment_bisect(keys, starts, stops, lows, side="left")
        last = segment_bisect(keys, first, stops, highs, side="right")
        return first, last

    #: Hybrid switch between the scalar per-cell path and the batched
    #: kernels (shared grid-family constant; results are identical on both
    #: sides).
    SMALL_QUERY_CELLS = SMALL_QUERY_CELLS

    def _range_query_positions(self, query: Rectangle) -> np.ndarray:
        sort_interval = query.interval(self._sort_dimension)
        lo_cells, hi_cells = self._axis_cell_spans(query)
        n_cells = 1
        for lo_cell, hi_cell in zip(lo_cells, hi_cells):
            n_cells *= hi_cell - lo_cell + 1
        skip_dims: List[str] = [self._sort_dimension]  # the bisection is exact
        if n_cells <= self.SMALL_QUERY_CELLS:
            # Scalar path: enumerate the few cells with plain integer
            # stride math and scan each between two bounding binary
            # searches (Section 6) — lowest constant cost for point-like
            # queries.  Pruning analysis is not worth its overhead here.
            strides = self._cell_strides
            runs: List[np.ndarray] = []
            rows_examined = 0
            offsets = self._offsets
            keys = self._columns[self._sort_dimension]
            for combo in itertools.product(
                *(
                    range(lo_cell, hi_cell + 1)
                    for lo_cell, hi_cell in zip(lo_cells, hi_cells)
                )
            ):
                flat = sum(index * stride for index, stride in zip(combo, strides))
                start, stop = int(offsets[flat]), int(offsets[flat + 1])
                if stop <= start:
                    continue
                cell_keys = keys[start:stop]
                first = start + int(np.searchsorted(cell_keys, sort_interval.low, side="left"))
                last = start + int(np.searchsorted(cell_keys, sort_interval.high, side="right"))
                if last > first:
                    runs.append(np.arange(first, last, dtype=np.int64))
                    rows_examined += last - first
            if len(runs) == 1:
                candidates = runs[0]
            else:
                candidates = (
                    np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
                )
        else:
            cells = enumerate_cells(lo_cells, hi_cells, self._shape)
            # Kernel path: one batched bisection over the whole cell
            # hyper-rectangle plus one gathered copy of all surviving runs.
            first, last = self._bisect_cells(
                cells,
                np.full(len(cells), sort_interval.low),
                np.full(len(cells), sort_interval.high),
            )
            candidates, _ = gather_ranges(first, last)
            rows_examined = len(candidates)
            skip_dims.extend(self._pruned_filter_dims(query, lo_cells, hi_cells))
        matches = self._filter_candidates(candidates, query, skip_dims)
        self.stats.record(
            rows_examined=rows_examined,
            rows_matched=len(matches),
            cells_visited=n_cells,
        )
        return matches

    # ------------------------------------------------------------------
    # Batch query
    # ------------------------------------------------------------------
    def batch_range_query(self, queries: Sequence[Rectangle]) -> List[np.ndarray]:
        """Original row ids for every query of a batch, sharing directory work.

        The batch path computes all queries' cell ranges with one vectorized
        boundary bisection per axis, bisects the sorted dimension of every
        (query, cell) pair in one batched kernel call, gathers all candidate
        runs at once and applies one vectorized post-filter pass per
        attribute over the whole batch.  Results are bit-identical to
        ``[range_query(q) for q in queries]``.
        """
        row_ids, counts = self.batch_range_query_flat(queries)
        return np.split(row_ids, np.cumsum(counts)[:-1]) if len(counts) else []

    def batch_range_query_flat(
        self, queries: Sequence[Rectangle]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat form of :meth:`batch_range_query` (see the base class)."""
        queries = list(queries)
        if not queries:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        n_queries = len(queries)
        bounds = batch_bounds(queries)
        live = np.ones(n_queries, dtype=bool)
        for lows, highs in bounds.values():
            live &= lows <= highs
        return self.batch_flat_from_bounds(bounds, n_queries, live, n_queries)

    def batch_flat_from_bounds(
        self,
        bounds: Dict[str, Tuple[np.ndarray, np.ndarray]],
        n_queries: int,
        execute: np.ndarray,
        n_recorded: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat batch results for an already-columnar query batch.

        ``bounds`` is the per-attribute bound-matrix form of the batch (see
        :func:`repro.data.predicates.batch_bounds`); ``execute`` masks the
        queries to actually run (the rest report zero results), and
        ``n_recorded`` is how many logical queries the stats should count —
        compound callers like COAX route only a planner-chosen subset here
        while empty queries still count.  This array-level entry point lets
        COAX feed translated bound matrices straight into the grid kernels
        without materialising per-query rectangles.
        """
        if self.n_rows == 0:
            self.stats.record_batch(n_recorded)
            return np.empty(0, dtype=np.int64), np.zeros(n_queries, dtype=np.int64)
        matches, counts = self._batch_positions_from_bounds(
            bounds, n_queries, execute, n_recorded
        )
        return self._row_ids[matches], counts

    def _batch_positions_from_bounds(
        self,
        bounds: Dict[str, Tuple[np.ndarray, np.ndarray]],
        n_queries: int,
        live: np.ndarray,
        n_recorded: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Flat positional matches plus per-query counts for a batch."""
        # Per-axis cell ranges for the whole batch: one searchsorted pair
        # per axis instead of one per (query, axis).
        n_axes = len(self._grid_dimensions)
        axis_lo = np.zeros((n_axes, n_queries), dtype=np.int64)
        axis_hi = np.full((n_axes, n_queries), -1, dtype=np.int64)
        filter_needed = np.zeros((n_axes, n_queries), dtype=bool)
        for axis, dim in enumerate(self._grid_dimensions):
            if dim in bounds:
                lows, highs = bounds[dim]
            else:
                lows = np.full(n_queries, -np.inf)
                highs = np.full(n_queries, np.inf)
            axis_lo[axis], axis_hi[axis] = axis_cell_ranges(
                self._boundaries[axis], lows, highs, self._cells_per_dim
            )
            # Vectorized filter-pruning check (see _axis_filter_needed): the
            # post-filter on this axis only matters for queries whose
            # interval does not cover every visited cell.  Phrased as the
            # negation of "provably covered" so NaN (from NaN-polluted
            # boundaries or spans) conservatively keeps the filter, exactly
            # like the scalar path.
            boundaries = self._boundaries[axis]
            lower_bound = np.where(
                axis_lo[axis] > 0, boundaries[axis_lo[axis]], self._axis_lows[axis]
            )
            upper_bound = np.where(
                axis_hi[axis] < self._cells_per_dim - 1,
                boundaries[np.minimum(axis_hi[axis] + 1, self._cells_per_dim)],
                self._axis_highs[axis],
            )
            filter_needed[axis] = ~((lows <= lower_bound) & (highs >= upper_bound))
        # Masked-out queries must enumerate no cells even when their grid
        # ranges are non-empty (the emptiness may come from another
        # attribute, or the planner routed them elsewhere) — and they must
        # not force a post-filter pass on any axis either.
        if not live.all():
            axis_hi[:, ~live] = -1
            filter_needed[:, ~live] = False
        all_cells, cells_per_query = enumerate_cells_batch(axis_lo, axis_hi, self._shape)
        if n_axes == 0:
            cells_per_query = live.astype(np.int64)
            all_cells = np.zeros(int(cells_per_query.sum()), dtype=np.int64)
        cell_qid = np.repeat(np.arange(n_queries, dtype=np.int64), cells_per_query)

        # One batched sorted-key bisection over every (query, cell) pair.
        if self._sort_dimension in bounds:
            sort_lows, sort_highs = bounds[self._sort_dimension]
        else:
            sort_lows = np.full(n_queries, -np.inf)
            sort_highs = np.full(n_queries, np.inf)
        first, last = self._bisect_cells(
            all_cells, sort_lows[cell_qid], sort_highs[cell_qid]
        )
        candidates, run_lengths = gather_ranges(first, last)
        row_qid = np.repeat(cell_qid, run_lengths)

        # One vectorized post-filter pass per attribute over the whole
        # batch.  The sort dimension is proven by the bisection; a grid
        # dimension is checked only if pruning failed for at least one
        # query, and only that query's bounds stay finite.  Tombstoned
        # rows are masked out of the gathered runs here — before the
        # fused-key merge — exactly like the scalar path's exact filter,
        # so the batch path stays one pass under deletes.  The candidate
        # set is compressed after every attribute that rejected something,
        # so later column gathers touch only the still-plausible rows —
        # same final set and order (mask selection is order-preserving),
        # substantially fewer gathered values on selective batches.
        n_examined = len(candidates)
        axis_of = {dim: axis for axis, dim in enumerate(self._grid_dimensions)}
        live = live_candidate_mask(candidates, self._tombstone)
        if live is not None and not live.all():
            candidates = candidates[live]
            row_qid = row_qid[live]
        for dim, (lows, highs) in bounds.items():
            if dim == self._sort_dimension:
                continue
            axis = axis_of.get(dim)
            if axis is not None:
                needed = filter_needed[axis]
                if not needed.any():
                    continue
                lows = np.where(needed, lows, -np.inf)
                highs = np.where(needed, highs, np.inf)
            values = self._columns[dim][candidates]
            mask = (values >= lows[row_qid]) & (values <= highs[row_qid])
            if not mask.all():
                candidates = candidates[mask]
                row_qid = row_qid[mask]
        matches = candidates
        counts = np.bincount(row_qid, minlength=n_queries)
        self.stats.record_batch(
            n_recorded,
            rows_examined=n_examined,
            rows_matched=len(matches),
            cells_visited=len(all_cells),
        )
        # row_qid is non-decreasing, so `matches` holds the per-query results
        # back to back, each in the exact order the sequential path produces.
        return matches, counts

    # ------------------------------------------------------------------
    # Aggregate pushdown
    # ------------------------------------------------------------------
    def _column_prefix(self, column: str) -> np.ndarray:
        """Prefix sums of the clustered ``column`` (lazy, cached).

        One ``O(n)`` cumsum per column, amortised over every SUM/AVG
        pushdown: a covered candidate run ``[first, last)`` then folds to
        its exact total with one subtraction and zero value gathers.
        Invalidated whenever rows move (build, absorb).
        """
        prefix = self._agg_prefix.get(column)
        if prefix is None:
            prefix = prefix_sums(self._columns[column])
            self._agg_prefix[column] = prefix
        return prefix

    def batch_aggregate_partial(
        self, queries: Sequence[Rectangle], spec: Aggregate
    ) -> AggregatePartial:
        """Grid pushdown of :meth:`MultidimensionalIndex.batch_aggregate_partial`."""
        queries = list(queries)
        n_queries = len(queries)
        if not n_queries:
            return AggregatePartial.identity(0)
        bounds = batch_bounds(queries)
        live = np.ones(n_queries, dtype=bool)
        for lows, highs in bounds.values():
            live &= lows <= highs
        return self.batch_aggregate_from_bounds(bounds, n_queries, live, n_queries, spec)

    def batch_aggregate_from_bounds(
        self,
        bounds: Dict[str, Tuple[np.ndarray, np.ndarray]],
        n_queries: int,
        execute: np.ndarray,
        n_recorded: int,
        spec: Aggregate,
    ) -> AggregatePartial:
        """Fold a columnar query batch into per-query aggregate accumulators.

        The run-level pushdown: candidate (query, cell) runs are found
        exactly like the materialising batch path, but a run that is
        *provably exact* — every overlapped grid axis either fully covered
        by the query interval (no post-filter) or the cell strictly
        interior to the query's cell box, no constrained non-grid
        attributes, no tombstones; the sorted dimension is always exact by
        bisection — is folded without gathering anything:

        * COUNT adds the run length;
        * SUM/AVG add the run total from the :meth:`_column_prefix` cache
          (one subtraction per run);
        * MIN/MAX gather the run's *values* (never its row ids) and fold
          them per run with :func:`repro.indexes.kernels.segment_reduce`.

        Only the remaining boundary/unprovable runs gather values and take
        the exact post-filter, so ``rows_examined`` — which counts gathered
        rows only — collapses for covered aggregates.  Row ids are never
        materialised on any branch, which the repro-lint materialize pass
        and the gather-interception test both enforce.
        """
        partial = AggregatePartial.identity(n_queries)
        if self.n_rows == 0:
            self.stats.record_batch(n_recorded, aggregates=n_recorded)
            return partial
        n_axes = len(self._grid_dimensions)
        axis_lo = np.zeros((n_axes, n_queries), dtype=np.int64)
        axis_hi = np.full((n_axes, n_queries), -1, dtype=np.int64)
        filter_needed = np.zeros((n_axes, n_queries), dtype=bool)
        for axis, dim in enumerate(self._grid_dimensions):
            if dim in bounds:
                lows, highs = bounds[dim]
            else:
                lows = np.full(n_queries, -np.inf)
                highs = np.full(n_queries, np.inf)
            axis_lo[axis], axis_hi[axis] = axis_cell_ranges(
                self._boundaries[axis], lows, highs, self._cells_per_dim
            )
            boundaries = self._boundaries[axis]
            lower_bound = np.where(
                axis_lo[axis] > 0, boundaries[axis_lo[axis]], self._axis_lows[axis]
            )
            upper_bound = np.where(
                axis_hi[axis] < self._cells_per_dim - 1,
                boundaries[np.minimum(axis_hi[axis] + 1, self._cells_per_dim)],
                self._axis_highs[axis],
            )
            filter_needed[axis] = ~((lows <= lower_bound) & (highs >= upper_bound))
        execute = np.asarray(execute, dtype=bool)
        if not execute.all():
            axis_hi[:, ~execute] = -1
            filter_needed[:, ~execute] = False
        all_cells, cells_per_query = enumerate_cells_batch(axis_lo, axis_hi, self._shape)
        if n_axes == 0:
            cells_per_query = execute.astype(np.int64)
            all_cells = np.zeros(int(cells_per_query.sum()), dtype=np.int64)
        cell_qid = np.repeat(np.arange(n_queries, dtype=np.int64), cells_per_query)

        if self._sort_dimension in bounds:
            sort_lows, sort_highs = bounds[self._sort_dimension]
        else:
            sort_lows = np.full(n_queries, -np.inf)
            sort_highs = np.full(n_queries, np.inf)
        first, last = self._bisect_cells(
            all_cells, sort_lows[cell_qid], sort_highs[cell_qid]
        )

        # Which runs are provably exact without the post-filter?  A query
        # is fold-eligible only if nothing outside the grid + sorted
        # dimensions constrains it and no tombstone hides inside the runs
        # (run lengths cannot see deletes).
        grid_dims = set(self._grid_dimensions)
        eligible = np.ones(n_queries, dtype=bool) if self._n_tombstoned == 0 else np.zeros(n_queries, dtype=bool)
        if self._n_tombstoned == 0:
            for dim, (lows, highs) in bounds.items():
                if dim == self._sort_dimension or dim in grid_dims:
                    continue
                eligible &= np.isinf(lows) & np.isinf(highs) & (lows < 0) & (highs > 0)
        covered_run = eligible[cell_qid]
        if n_axes and len(all_cells):
            for axis in range(n_axes):
                coords = (all_cells // self._cell_strides[axis]) % self._cells_per_dim
                interior = (coords > axis_lo[axis][cell_qid]) & (
                    coords < axis_hi[axis][cell_qid]
                )
                covered_run &= interior | ~filter_needed[axis][cell_qid]

        values = self._columns[spec.column] if spec.column is not None else None
        run_lengths_all = last - first
        folded = covered_run & (run_lengths_all > 0)
        folded_examined = 0
        if folded.any():
            fold_qids = cell_qid[folded]
            fold_first = first[folded]
            fold_last = last[folded]
            fold_lengths = run_lengths_all[folded]
            partial.add_run_counts(fold_qids, fold_lengths)
            if spec.op in ("sum", "avg") and spec.column is not None:
                prefix = self._column_prefix(spec.column)
                partial.add_run_totals(
                    fold_qids, segment_sum(prefix, fold_first, fold_last)
                )
            elif spec.op in ("min", "max"):
                gathered, lengths = gather_ranges(fold_first, fold_last)
                run_values = values[gathered]
                folded_examined = len(run_values)
                extremes = segment_reduce(run_values, lengths, spec.op)
                if spec.op == "min":
                    np.minimum.at(partial.minimum, fold_qids, extremes)
                else:
                    np.maximum.at(partial.maximum, fold_qids, extremes)

        # Gather path for the boundary / unprovable runs: exactly the
        # materialising batch path's post-filter, folding *values* at the
        # surviving positions instead of returning their row ids.
        # ``rows_examined`` counts gathered candidate rows (here, plus the
        # MIN/MAX run-value gathers above) — the metric the agg-bench gate
        # compares against materialize-then-reduce.
        n_examined = int(folded_examined)
        remaining = ~covered_run
        if remaining.any():
            candidates, run_lengths = gather_ranges(first[remaining], last[remaining])
            row_qid = np.repeat(cell_qid[remaining], run_lengths)
            n_examined += len(candidates)
            live_mask = live_candidate_mask(candidates, self._tombstone)
            if live_mask is not None and not live_mask.all():
                candidates = candidates[live_mask]
                row_qid = row_qid[live_mask]
            axis_of = {dim: axis for axis, dim in enumerate(self._grid_dimensions)}
            for dim, (lows, highs) in bounds.items():
                if dim == self._sort_dimension:
                    continue
                axis = axis_of.get(dim)
                if axis is not None:
                    needed = filter_needed[axis]
                    if not needed.any():
                        continue
                    lows = np.where(needed, lows, -np.inf)
                    highs = np.where(needed, highs, np.inf)
                column = self._columns[dim][candidates]
                mask = (column >= lows[row_qid]) & (column <= highs[row_qid])
                if not mask.all():
                    candidates = candidates[mask]
                    row_qid = row_qid[mask]
            partial.fold_values(
                row_qid, values[candidates] if values is not None else None
            )
        self.stats.record_batch(
            n_recorded,
            rows_examined=n_examined,
            rows_matched=int(partial.count.sum()),
            cells_visited=len(all_cells),
            aggregates=n_recorded,
        )
        return partial

    # ------------------------------------------------------------------
    # kNN (best-first ring search over the grid directory)
    # ------------------------------------------------------------------
    def knn_partial(
        self,
        point,
        k: int,
        *,
        metric: str = "l2",
        bound: float = math.inf,
        aux_axes: Optional[Dict[str, Tuple[float, float, float]]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Best-first kNN over the grid directory.

        The search keeps an inclusive cell box per grid axis.  An axis is
        *bounded* when the query point constrains it — directly (the
        attribute is in the point) or through an FD translation supplied
        as ``aux_axes[dim] = (coordinate, scale, slack)``, meaning every
        covered row satisfies ``|v_dep - y| >= scale·|v_dim - coordinate|
        - slack`` for the point's dependent attribute ``y``.  Bounded axes
        seed at the coordinate's cell; information-less axes start at full
        span (a row outside the box on such an axis could be at distance
        zero, so they may never prune).

        Each box side of a bounded axis has a *scaled gap*: the smallest
        distance any row beyond it could have (the value gap from the
        point to that side's cell boundary, passed through the FD bound
        for translated axes).  ``d_min`` is the smallest gap over all
        sides.  One round (one ``rings_expanded`` increment) grows by one
        cell every (axis, side) pair whose gap equals ``d_min`` — the
        nearest unexplored slab first, so an axis with tight boundaries
        never drags a wide axis to full span — and scans only the new
        slab.  The search stops when ``min(kth, bound) < d_min`` holds
        *strictly*, comparing distance keys (gaps squared for L2): on
        equality an unvisited row could tie the key with a smaller row
        id, and the library-wide ``(key, row_id)`` tie-break must win.

        ``bound`` is a distance key some *other* subset already holds k
        candidates within (the engine and COAX pass their running k-th
        key): a row with a larger key cannot enter the merged answer, so
        it both stops the growth and narrows the scans, and the result
        may then hold fewer than k rows.  Once ``min(kth, bound)`` is
        finite and the point fixes the in-cell sort dimension (directly or
        through its ``aux_axes`` entry), every scanned cell is cut by
        bisection to the sort-key window that radius allows, widened
        outward so it is always a superset; ``rows_examined`` counts the
        rows whose distance was computed.
        """
        TopK.knn(point, k, metric, self._columns)
        if self.n_rows == 0:
            self.stats.record(knn_queries=1)
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        aux = aux_axes or {}

        def target_of(dim: str) -> Optional[Tuple[float, float, float]]:
            if dim in point:
                return (float(point[dim]), 1.0, 0.0)
            return aux.get(dim)

        targets = [target_of(dim) for dim in self._grid_dimensions]
        sort_target = target_of(self._sort_dimension)
        last = self._cells_per_dim - 1
        lo = [0] * len(targets)
        hi = [last] * len(targets)
        for axis, target in enumerate(targets):
            if target is not None:
                lo[axis] = hi[axis] = self._cell_range(axis, target[0], target[0])[0]
        best_keys = np.empty(0, dtype=np.float64)
        best_ids = np.empty(0, dtype=np.int64)
        rows_examined = 0
        cells_seen = 0
        rings = 0
        slabs = [(list(lo), list(hi))]
        while True:
            for slab_lo, slab_hi in slabs:
                cells = enumerate_cells(slab_lo, slab_hi, self._shape)
                cells_seen += len(cells)
                starts = self._offsets[cells]
                stops = self._offsets[cells + 1]
                radius = kth_key(best_keys, k, bound)
                if sort_target is not None and math.isfinite(radius):
                    # One bisection for both window ends: the first key >= low
                    # and the first key > high (= the first >= its successor).
                    low, high = _sort_key_window(sort_target, radius, metric)
                    n = len(cells)
                    ends = segment_bisect(
                        self._columns[self._sort_dimension],
                        np.concatenate([starts, starts]),
                        np.concatenate([stops, stops]),
                        np.repeat([low, np.nextafter(high, math.inf)], n),
                    )
                    starts, stops = ends[:n], ends[n:]
                positions, _ = gather_ranges(starts, stops)
                live_mask = live_candidate_mask(positions, self._tombstone)
                if live_mask is not None:
                    positions = positions[live_mask]
                if len(positions):
                    rows_examined += len(positions)
                    keys = point_distances(self._columns, positions, point, metric)
                    best_keys, best_ids = select_topk(
                        np.concatenate([best_keys, keys]),
                        np.concatenate([best_ids, self._row_ids[positions]]),
                        k,
                    )
            # Scaled gap of every growable (axis, side) of the box.
            sides: List[Tuple[float, int, int]] = []  # (gap, axis, -1 left / +1 right)
            for axis, target in enumerate(targets):
                if target is None:
                    continue
                value, scale, slack = target
                boundaries = self._boundaries[axis]
                if lo[axis] > 0:
                    gap = max(0.0, value - float(boundaries[lo[axis]]))
                    sides.append((max(0.0, scale * gap - slack), axis, -1))
                if hi[axis] < last:
                    gap = max(0.0, float(boundaries[hi[axis] + 1]) - value)
                    sides.append((max(0.0, scale * gap - slack), axis, 1))
            if not sides:
                break
            d_min = min(side[0] for side in sides)
            d_min_key = d_min * d_min if metric == "l2" else d_min
            radius = kth_key(best_keys, k, bound)
            if radius < d_min_key:
                break
            rings += 1
            # Grow the nearest sides one cell each; every new slab is the
            # box's fresh layer on that side, built on the box as grown so
            # far, so the slabs of one round never overlap.
            slabs = []
            for gap, axis, direction in sides:
                if gap != d_min:
                    continue
                slab_lo, slab_hi = list(lo), list(hi)
                if direction < 0:
                    lo[axis] -= 1
                    slab_lo[axis] = slab_hi[axis] = lo[axis]
                else:
                    hi[axis] += 1
                    slab_lo[axis] = slab_hi[axis] = hi[axis]
                slabs.append((slab_lo, slab_hi))
        self.stats.record(
            rows_examined=rows_examined,
            cells_visited=cells_seen,
            knn_queries=1,
            rings_expanded=rings,
        )
        return best_keys, best_ids

    # ------------------------------------------------------------------
    # Memory and layout introspection
    # ------------------------------------------------------------------
    def directory_bytes(self) -> int:
        """Cell address table plus quantile boundaries.

        The records themselves are stored clustered into sorted pages —
        the column copies and row ids in (cell, sort-key) order, with no
        row permutation beside them — so everything but the offsets and
        the boundaries is data, not directory.
        """
        boundary_bytes = int(sum(b.nbytes for b in self._boundaries))
        return int(self._offsets.nbytes) + boundary_bytes

    @property
    def sort_dimension(self) -> str:
        """The attribute kept sorted inside every cell."""
        return self._sort_dimension

    @property
    def grid_dimensions(self) -> Tuple[str, ...]:
        """The attributes with grid lines."""
        return self._grid_dimensions

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        return int(np.prod(self._shape)) if self._shape else 1

    def cell_sizes(self) -> np.ndarray:
        """Number of records per cell (page-length distribution, Figure 4a)."""
        return np.diff(self._offsets)


#: Outward widening of the kNN sort-key window, relative to its reach: far
#: above the few ulps the distance arithmetic can round by.
_WINDOW_PAD = 2.0**-40

#: Absolute floor of the window's reach: an L2 gap below it squares to (or
#: near) zero, so such rows must always fall inside the window.
_WINDOW_FLOOR = 2.0**-500


def _sort_key_window(
    target: Tuple[float, float, float], radius: float, metric: str
) -> Tuple[float, float]:
    """Sort-key interval holding every row with distance key <= ``radius``.

    ``target`` is ``(coordinate, scale, slack)``: a row whose sort key is
    ``v`` is at distance at least ``scale·|v - coordinate| - slack``
    (``(value, 1, 0)`` when the point names the sort dimension itself).
    The reach is widened outward — relatively by :data:`_WINDOW_PAD` and
    absolutely by :data:`_WINDOW_FLOOR` — so rounding in the keys, the
    square root and the endpoints can only make the window larger.
    """
    coordinate, scale, slack = target
    reach = math.sqrt(radius) if metric == "l2" else radius
    half = (reach * (1.0 + _WINDOW_PAD) + _WINDOW_FLOOR + slack) / scale
    half += _WINDOW_PAD * (abs(coordinate) + half)
    return coordinate - half, coordinate + half
