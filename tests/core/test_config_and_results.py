"""Tests for COAXConfig validation and result merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import COAXConfig
from repro.core.results import QueryResult, merge_row_ids, unique_ids


class TestCOAXConfig:
    def test_defaults_are_valid(self):
        config = COAXConfig()
        assert config.outlier_index == "sorted_cell_grid"

    def test_invalid_primary_cells(self):
        with pytest.raises(ValueError):
            COAXConfig(primary_cells_per_dim=0)

    def test_invalid_outlier_cells(self):
        with pytest.raises(ValueError):
            COAXConfig(outlier_cells_per_dim=0)

    def test_invalid_outlier_index(self):
        with pytest.raises(ValueError):
            COAXConfig(outlier_index="btree")

    def test_invalid_max_groups(self):
        with pytest.raises(ValueError):
            COAXConfig(max_groups=-1)

    def test_invalid_min_primary_fraction(self):
        with pytest.raises(ValueError):
            COAXConfig(min_primary_fraction=1.5)


class TestMergeRowIds:
    def test_union_is_sorted_and_unique(self):
        merged = merge_row_ids([np.array([3, 1]), np.array([2, 3]), np.array([], dtype=np.int64)])
        assert merged.tolist() == [1, 2, 3]

    def test_all_empty(self):
        merged = merge_row_ids([np.array([], dtype=np.int64)])
        assert len(merged) == 0
        assert merged.dtype == np.int64

    def test_no_parts(self):
        assert len(merge_row_ids([])) == 0


class TestUniqueIds:
    """The sort-based id union must equal ``np.unique`` exactly."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(13)
        info = np.iinfo(np.int64)
        return {
            "empty": np.empty(0, dtype=np.int64),
            "single": np.array([7], dtype=np.int64),
            "all_equal": np.full(50, -3, dtype=np.int64),
            "duplicate_heavy": rng.integers(0, 20, size=5_000).astype(np.int64),
            "random": rng.integers(info.min, info.max, size=5_000, dtype=np.int64),
            "extremes": np.array([info.max, info.min, 0, info.max, -1, info.min], dtype=np.int64),
        }

    @pytest.mark.parametrize(
        "name", ["empty", "single", "all_equal", "duplicate_heavy", "random", "extremes"]
    )
    def test_matches_np_unique(self, name):
        ids = self._inputs()[name]
        got = unique_ids(ids)
        want = np.unique(ids)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_input_left_untouched(self):
        ids = np.array([5, 1, 5, 3], dtype=np.int64)
        unique_ids(ids)
        assert ids.tolist() == [5, 1, 5, 3]


class TestQueryResult:
    def test_shares(self):
        result = QueryResult(
            row_ids=np.array([1, 2, 3, 4]),
            primary_row_ids=np.array([1, 2, 3]),
            outlier_row_ids=np.array([4]),
        )
        assert result.n_results == 4
        assert result.primary_share == pytest.approx(0.75)

    def test_empty_result(self):
        result = QueryResult(row_ids=np.array([], dtype=np.int64))
        assert result.n_results == 0
        assert result.primary_share == 0.0
