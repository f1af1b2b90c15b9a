"""The sorted-cell grid stores its rows clustered in (cell, sort-key) order.

Local position ``p`` of a :class:`SortedCellGridIndex` holds row
``row_ids[p]``: every column copy and the row ids share one clustered
order, so a candidate run is a plain slice.  These tests check that
layout after every path that lays rows out — build, absorb (into an
empty and a non-empty grid), a reclaiming COAX compaction, a current
(v8) save/load and a legacy (v7) load:

* each cell's slice of the sort column is ascending;
* ``column(name)[p] == table.column(name)[row_ids[p]]`` for every ``p``;
* ``positions_of`` / ``rows_live`` agree with a brute-force lookup.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.experiments.restart import write_legacy_archive
from repro.core.coax import COAXIndex
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel
from repro.indexes.grid_file import SortedCellGridIndex
from repro.io.persistence import load_index, save_index


def make_table(n: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 100.0, size=n)
    y = 2.0 * x + rng.uniform(-1.0, 1.0, size=n)
    y[::23] += 60.0  # outliers, so the outlier grid is non-trivial
    return Table({"x": x, "y": y, "z": rng.normal(5.0, 2.0, size=n)})


GROUPS = [
    FDGroup(
        predictor="x",
        dependents=("y",),
        models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
    )
]


def assert_clustered(grid: SortedCellGridIndex) -> None:
    table = grid.table
    row_ids = np.asarray(grid.row_ids)
    keys = grid.column(grid.sort_dimension)
    offsets = grid._offsets
    assert offsets[-1] == grid.n_rows == len(row_ids)
    for cell in range(grid.n_cells):
        assert np.all(np.diff(keys[offsets[cell]:offsets[cell + 1]]) >= 0.0)
    for name in table.schema:
        assert np.array_equal(
            grid.column(name), table.column(name)[row_ids], equal_nan=True
        )
    # Brute-force lookup over covered ids (shuffled) plus ids not covered.
    position = {int(row_id): p for p, row_id in enumerate(row_ids)}
    uncovered = np.setdiff1d(np.arange(table.n_rows + 5), row_ids)[:40]
    probe = np.concatenate([np.random.default_rng(3).permutation(row_ids), uncovered])
    want_positions = [position[int(i)] for i in probe if int(i) in position]
    assert grid.positions_of(probe).tolist() == want_positions
    tombstone = grid.tombstone_mask
    want_live = [
        int(i) in position and (tombstone is None or not tombstone[position[int(i)]])
        for i in probe
    ]
    assert grid.rows_live(probe).tolist() == want_live


class TestGridPaths:
    def test_build_over_shuffled_subset(self):
        table = make_table(3_000, seed=1)
        row_ids = np.random.default_rng(2).permutation(table.n_rows)[:2_000]
        grid = SortedCellGridIndex(table, cells_per_dim=5, row_ids=row_ids)
        assert sorted(grid.row_ids.tolist()) == sorted(row_ids.tolist())
        assert_clustered(grid)

    def test_build_over_whole_table(self):
        table = make_table(1_500, seed=4)
        grid = SortedCellGridIndex(table, cells_per_dim=4, sort_dimension="y")
        assert_clustered(grid)

    def test_absorb_into_empty_grid(self):
        table = make_table(1_200, seed=5)
        grid = SortedCellGridIndex(
            table, cells_per_dim=4, row_ids=np.empty(0, dtype=np.int64)
        )
        grid.absorb_rows(table, np.arange(table.n_rows, dtype=np.int64))
        assert grid.n_rows == table.n_rows
        assert_clustered(grid)

    def test_absorb_into_non_empty_grid_with_tombstones(self):
        base = make_table(2_000, seed=6)
        extra = make_table(700, seed=7)
        combined = base.concat(extra)
        grid = SortedCellGridIndex(base, cells_per_dim=5, sort_dimension="x")
        deleted = np.arange(0, base.n_rows, 9, dtype=np.int64)
        assert grid.delete_rows(deleted) == len(deleted)
        grid.positions_of(deleted[:3])  # warm the lookup before the absorb
        grid.absorb_rows(combined, np.arange(base.n_rows, combined.n_rows, dtype=np.int64))
        assert grid.n_tombstoned == len(deleted)
        assert not grid.rows_live(deleted).any()
        assert_clustered(grid)
        query = Rectangle({"x": Interval(10.0, 70.0), "z": Interval(3.0, 8.0)})
        want = np.setdiff1d(combined.select(query), deleted)
        assert np.array_equal(np.sort(grid.range_query(query)), want)


class TestCOAXPaths:
    @pytest.fixture()
    def index(self):
        return COAXIndex(make_table(4_000, seed=8), groups=GROUPS)

    def test_reclaiming_compaction(self, index):
        index.delete_batch(np.arange(0, 4_000, 7, dtype=np.int64))
        rng = np.random.default_rng(9)
        nx = rng.uniform(0.0, 100.0, size=300)
        index.insert_batch({"x": nx, "y": 2.0 * nx, "z": rng.normal(5.0, 2.0, size=300)})
        index.compact()
        assert index.n_tombstoned == 0
        for grid in (index.primary_index, index.outlier_index):
            assert_clustered(grid)

    def test_incremental_compaction(self, index):
        rng = np.random.default_rng(10)
        nx = rng.uniform(0.0, 100.0, size=400)
        ny = 2.0 * nx
        ny[::5] += 50.0
        index.insert_batch({"x": nx, "y": ny, "z": rng.normal(5.0, 2.0, size=400)})
        index.compact()
        for grid in (index.primary_index, index.outlier_index):
            assert_clustered(grid)

    def test_v8_save_load(self, index, tmp_path):
        index.delete_batch(np.arange(3, 4_000, 11, dtype=np.int64))
        loaded = load_index(save_index(index, tmp_path / "v8.coax"))
        for saved, grid in zip(
            (index.primary_index, index.outlier_index),
            (loaded.primary_index, loaded.outlier_index),
        ):
            assert np.array_equal(grid.row_ids, saved.row_ids)
            assert_clustered(grid)

    def test_legacy_v7_load(self, index, tmp_path):
        index.delete_batch(np.arange(5, 4_000, 13, dtype=np.int64))
        current = save_index(index, tmp_path / "v8.coax")
        loaded = load_index(write_legacy_archive(current, tmp_path / "v7.coax", 7))
        for saved, grid in zip(
            (index.primary_index, index.outlier_index),
            (loaded.primary_index, loaded.outlier_index),
        ):
            # The shim applies the stored permutation: the same clustered
            # layout as the grid that was saved, not the partition order.
            assert np.array_equal(grid.row_ids, saved.row_ids)
            for name in index.table.schema:
                assert np.array_equal(grid.column(name), saved.column(name))
            assert_clustered(grid)
