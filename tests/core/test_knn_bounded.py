"""Bounded best-first kNN: oracle identity, input validation, work counters.

The sharded kNN visits shards in ascending hull-distance order and carries
the running k-th key into every shard as a bound; inside a shard the grid
grows only its nearest box sides and cuts each cell to the sort-key
window that bound allows.  None of that may change an answer: every
result must equal :class:`FullScanIndex` id for id, order included, on
integer-valued data where distance ties fall exactly on the window
radius and on shard bound == k-th key.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coax import COAXIndex
from repro.core.config import EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.airline import AirlineConfig, generate_airline_dataset
from repro.data.table import Table
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.grid_file import SortedCellGridIndex

#: (n_shards, executor, workers) the property covers.
SHARDINGS = [(1, "thread", 1), (2, "thread", 2), (7, "thread", 2), (7, "process", 2)]

#: Engine states: as built, with pending inserts and tombstones, compacted.
STATES = ["fresh", "pending", "compacted"]


def integer_table(seed: int, n: int) -> Table:
    """Integer-valued columns with two soft FDs (u -> t, x -> y) and noise.

    FD detection makes ``u`` the primary's in-cell sort dimension and
    ``x`` a grid axis, so a point naming only ``t`` cuts cells through
    the FD window and one naming only ``y`` seeds a grid axis through it.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 80, size=n).astype(np.float64)
    y = np.round(2.0 * x + rng.integers(-3, 4, size=n))
    outliers = rng.random(n) < 0.05
    y[outliers] = rng.integers(0, 160, size=int(outliers.sum()))
    u = rng.integers(0, 30, size=n).astype(np.float64)
    t = np.round(3.0 * u + rng.integers(-2, 3, size=n))
    v = rng.integers(0, 10, size=n).astype(np.float64)
    return Table({"x": x, "y": y, "u": u, "t": t, "v": v})


def combined_table(base: Table, fresh: Table) -> Table:
    return Table(
        {
            name: np.concatenate([base.column(name), fresh.column(name)])
            for name in base.schema
        }
    )


@pytest.fixture(scope="module", params=[(s, st_) for s in SHARDINGS for st_ in STATES],
                ids=lambda p: f"{p[0][0]}-{p[0][1]}-{p[1]}")
def engine_and_oracle(request):
    (n_shards, executor, workers), state = request.param
    table = integer_table(3, 3_000)
    engine = ShardedCOAX(
        table,
        config=EngineConfig(n_shards=n_shards, executor=executor, workers=workers),
    )
    oracle_table, doomed = table, np.empty(0, dtype=np.int64)
    if state != "fresh":
        fresh = integer_table(4, 400)
        new_ids = engine.insert_batch({name: fresh.column(name) for name in fresh.schema})
        doomed = np.concatenate([np.arange(0, table.n_rows, 7), new_ids[::5]]).astype(np.int64)
        engine.delete_batch(doomed)
        oracle_table = combined_table(table, fresh)
        if state == "compacted":
            engine.compact()
            assert engine.n_pending == 0
        else:
            assert engine.n_pending > 0
    oracle = FullScanIndex(oracle_table)
    if len(doomed):
        oracle.delete_rows(doomed)
    yield engine, oracle, oracle_table
    engine.close()


@st.composite
def knn_points(draw, table: Table):
    """Whole rows, attribute subsets, or dependent-only points, nudged by
    small integers so they sit on and between the data."""
    row = table.row(draw(st.integers(0, table.n_rows - 1)))
    shape = draw(st.sampled_from(["row", "subset", "dependent"]))
    if shape == "row":
        dims = list(table.schema)
    elif shape == "subset":
        dims = draw(st.lists(st.sampled_from(list(table.schema)), min_size=1, unique=True))
    else:
        dims = [draw(st.sampled_from(["t", "y"]))]
    return {
        dim: float(row[dim]) + draw(st.integers(-2, 2)) * draw(st.sampled_from([0, 1]))
        for dim in dims
    }


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), k=st.integers(1, 60), metric=st.sampled_from(["l2", "linf"]))
def test_engine_knn_equals_full_scan(engine_and_oracle, data, k, metric):
    engine, oracle, table = engine_and_oracle
    point = data.draw(knn_points(table))
    got = engine.knn(point, k, metric=metric)
    want = oracle.knn(point, k, metric=metric)
    assert np.array_equal(got, want), (point, k, metric)


def test_knn_bound_ties_break_toward_smaller_global_id():
    # Every shard holds rows at exactly the k-th distance: the shard bound
    # equals the k-th key, and only visiting those shards finds the ids.
    x = np.tile(np.arange(8.0), 50)
    table = Table({"x": x, "v": np.arange(400.0)})
    engine = ShardedCOAX(table, config=EngineConfig(n_shards=4, partition_dimension="v"))
    try:
        oracle = FullScanIndex(table)
        for point in ({"x": 3.0}, {"x": 3.5}, {"x": 3.0, "v": 200.0}):
            for k in (1, 5, 50, 51, 120):
                for metric in ("l2", "linf"):
                    assert np.array_equal(
                        engine.knn(point, k, metric=metric),
                        oracle.knn(point, k, metric=metric),
                    ), (point, k, metric)
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Input validation
# ----------------------------------------------------------------------
BAD_INPUTS = [
    pytest.param({"x": 1.0}, 3, "l1", "metric", id="unknown-metric"),
    pytest.param({"x": 1.0}, 0, "l2", "k must be", id="k-zero"),
    pytest.param({"x": 1.0}, 2.5, "l2", "k must be", id="k-float"),
    pytest.param({"nope": 1.0}, 3, "l2", "unknown attributes", id="unknown-attribute"),
    pytest.param({"x": math.nan}, 3, "l2", "finite", id="nan"),
    pytest.param({"x": math.inf}, 3, "l2", "finite", id="inf"),
    pytest.param({"x": "1.0"}, 3, "l2", "finite", id="string"),
]


@pytest.fixture(scope="module")
def small_structures():
    table = integer_table(5, 600)
    engine = ShardedCOAX(table, config=EngineConfig(n_shards=2))
    yield {
        "engine": engine,
        "coax": COAXIndex(table),
        "grid": SortedCellGridIndex(table, cells_per_dim=4),
        "full_scan": FullScanIndex(table),
    }
    engine.close()


@pytest.mark.parametrize("structure", ["engine", "coax", "grid", "full_scan"])
@pytest.mark.parametrize("point,k,metric,match", BAD_INPUTS)
def test_knn_rejects_bad_input(small_structures, structure, point, k, metric, match):
    index = small_structures[structure]
    with pytest.raises(ValueError, match=match):
        index.knn(point, k, metric=metric)
    with pytest.raises(ValueError, match=match):
        index.knn_partial(point, k, metric=metric)
    if structure == "engine":
        with pytest.raises(ValueError, match=match):
            index.knn_attributed(point, k, metric=metric)


# ----------------------------------------------------------------------
# Work counters
# ----------------------------------------------------------------------
def test_knn_records_pruned_shards(small_structures):
    engine = small_structures["engine"]
    point = dict(engine.table.row(0))
    before = engine.stats.shards_pruned
    _, record = engine.knn_attributed(point, 3)
    assert record.knn_queries == 1
    assert 0 <= record.shards_pruned < engine.n_shards
    assert engine.stats.shards_pruned - before == record.shards_pruned
    engine.knn_partial(point, 3)
    assert engine.stats.shards_pruned - before == 2 * record.shards_pruned


def test_sharded_knn_examines_a_small_share_of_rows():
    table = generate_airline_dataset(AirlineConfig(n_rows=50_000, seed=11))[0]
    engine = ShardedCOAX(table, config=EngineConfig(n_shards=8))
    try:
        rng = np.random.default_rng(2)
        oracle = FullScanIndex(table)
        examined = []
        pruned = []
        for row in rng.integers(0, table.n_rows, size=16):
            point = dict(table.row(int(row)))
            ids, record = engine.knn_attributed(point, 10)
            assert np.array_equal(ids, oracle.knn(point, 10))
            examined.append(record.rows_examined)
            pruned.append(record.shards_pruned)
        assert sum(examined) <= 0.10 * table.n_rows * len(examined), examined
        assert sum(pruned) > 0
    finally:
        engine.close()


def test_grid_bound_keeps_every_row_within_it():
    # A finite bound may drop rows keyed above it, never one within it.
    table = integer_table(6, 2_000)
    grid = SortedCellGridIndex(table, cells_per_dim=6, sort_dimension="u")
    oracle = FullScanIndex(table)
    rng = np.random.default_rng(8)
    for _ in range(30):
        point = dict(table.row(int(rng.integers(0, table.n_rows))))
        metric = ("l2", "linf")[int(rng.integers(0, 2))]
        want_keys, want_ids = oracle.knn_partial(point, 40, metric=metric)
        bound = float(want_keys[int(rng.integers(0, 40))])
        keys, ids = grid.knn_partial(point, 40, metric=metric, bound=bound)
        inside = want_keys <= bound
        assert np.array_equal(ids[keys <= bound], want_ids[inside])
