"""Bounded best-first top-k: oracle identity, ties at the bound, validation.

The sharded top-k visits the shards the rectangle can touch in ascending
order of their hull edge on the ranking column and carries the running
k-th key into every shard, which cuts its rectangle on that column to the
key (primary, outlier and pending rows in turn).  None of that may change
an answer: every result must equal :class:`FullScanIndex` id for id,
order included, on integer-valued data where ties fall exactly on the
carried bound.
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
from repro.data.executors import TopK
from repro.data.predicates import Interval, Rectangle
from repro.data.table import Table
from repro.indexes.full_scan import FullScanIndex
from repro.indexes.grid_file import SortedCellGridIndex
from repro.indexes.rtree import RTreeIndex

#: (n_shards, executor, workers) the property covers.
SHARDINGS = [
    (1, "thread", 1),
    (2, "thread", 2),
    (7, "thread", 2),
    (1, "process", 2),
    (2, "process", 2),
    (7, "process", 2),
]

#: Engine states: as built, with pending inserts and tombstones, compacted.
STATES = ["fresh", "pending", "compacted"]

#: Indexed attributes; ``w`` is stored but not indexed.
DIMENSIONS = ("x", "y", "u", "t", "v")

#: Ranking columns: the sort dimension / FD predictor ``u``, the grid axis
#: ``x``, the FD dependents ``t`` and ``y``, a noise axis and ``w``.
COLUMNS = ["u", "x", "t", "y", "v", "w"]


def integer_table(seed: int, n: int) -> Table:
    """Integer-valued columns with two soft FDs (u -> t, x -> y) and noise,
    plus ``w``, a column the engine stores but does not index."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 80, size=n).astype(np.float64)
    y = np.round(2.0 * x + rng.integers(-3, 4, size=n))
    outliers = rng.random(n) < 0.05
    y[outliers] = rng.integers(0, 160, size=int(outliers.sum()))
    u = rng.integers(0, 30, size=n).astype(np.float64)
    t = np.round(3.0 * u + rng.integers(-2, 3, size=n))
    v = rng.integers(0, 10, size=n).astype(np.float64)
    w = rng.integers(0, 25, size=n).astype(np.float64)
    return Table({"x": x, "y": y, "u": u, "t": t, "v": v, "w": w})


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
        dimensions=DIMENSIONS,
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


def test_columns_cover_each_role(engine_and_oracle):
    # The property below claims to rank by a sort dimension, a grid axis,
    # an FD dependent and a non-indexed column; pin that it does.
    engine = engine_and_oracle[0]
    primary = engine.shards[0].primary_index
    assert primary.sort_dimension == "u"
    assert "x" in primary.grid_dimensions
    assert {"t", "y"} <= {dep for group in engine.groups for dep in group.dependents}
    assert "w" not in engine.dimensions


@st.composite
def rectangles(draw, table: Table):
    """Boxes on up to three columns (the ranking column included), with
    integer edges on, between and beyond the data."""
    dims = draw(st.lists(st.sampled_from(COLUMNS), max_size=3, unique=True))
    intervals = {}
    for dim in dims:
        values = table.column(dim)
        low, high = int(values.min()), int(values.max())
        start = draw(st.integers(low - 2, high + 2))
        width = draw(st.integers(0, (high - low) // 2 + 1))
        intervals[dim] = Interval(float(start), float(start + width))
    return Rectangle(intervals)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    k=st.integers(1, 80),
    column=st.sampled_from(COLUMNS),
    largest=st.booleans(),
)
def test_engine_topk_equals_full_scan(engine_and_oracle, data, k, column, largest):
    engine, oracle, table = engine_and_oracle
    query = data.draw(rectangles(table))
    spec = TopK(k, column=column, largest=largest)
    want_keys, want_ids = oracle.topk_partial(query, spec)
    keys, ids = engine.topk_partial(query, spec)
    assert np.array_equal(ids, want_ids), (query, spec)
    assert np.array_equal(keys, want_keys), (query, spec)
    assert np.array_equal(engine.topk_attributed(query, spec)[0], want_ids)


# ----------------------------------------------------------------------
# Ties at the carried bound
# ----------------------------------------------------------------------
def tie_table() -> Table:
    """Two shards on ``p``: rows 200..399 (shard 0) rank ``c`` 0..9, rows
    0..199 (shard 1) rank 5..14.  Shard 0 holds the lower hull edge and is
    searched first, yet shard 1's rows tied at 5 carry the smaller ids.
    ``neg`` mirrors ``c`` for the ``largest`` direction."""
    ids = np.arange(400)
    c = np.where(ids < 200, 5 + ids % 10, (ids - 200) % 10).astype(np.float64)
    p = ((ids + 200) % 400).astype(np.float64)
    return Table({"p": p, "c": c, "neg": -c})


@pytest.fixture(scope="module")
def tie_engine():
    table = tie_table()
    engine = ShardedCOAX(table, config=EngineConfig(n_shards=2, partition_dimension="p"))
    yield engine, FullScanIndex(table)
    engine.close()


@pytest.mark.parametrize("spec_of", [
    pytest.param(lambda k: TopK(k, column="c"), id="smallest"),
    pytest.param(lambda k: TopK(k, column="neg", largest=True), id="largest"),
])
@pytest.mark.parametrize("k", [1, 50, 100, 101, 110, 120, 140, 200, 399])
def test_topk_ties_at_the_bound_break_toward_smaller_global_id(tie_engine, spec_of, k):
    engine, oracle = tie_engine
    for query in (
        Rectangle.unconstrained(),
        Rectangle({"p": Interval(10.0, 390.0)}),
        Rectangle({"c": Interval(3.0, 12.0)}),
    ):
        spec = spec_of(k)
        assert np.array_equal(engine.topk(query, spec), oracle.topk(query, spec)), (query, k)


def test_tied_shard_is_visited_and_a_shard_beyond_the_key_is_pruned(tie_engine):
    engine, oracle = tie_engine
    query = Rectangle.unconstrained()
    for column, largest in (("c", False), ("neg", True)):
        # k=110: the 110th key after shard 0 is 5, shard 1's hull edge:
        # it must be visited, and its rows tied at 5 win on id.
        spec = TopK(110, column=column, largest=largest)
        ids, record = engine.topk_attributed(query, spec)
        assert record.shards_pruned == 0
        assert np.array_equal(ids, oracle.topk(query, spec))
        assert np.array_equal(ids[100:], np.arange(0, 100, 10))
        # k=100: the key is 4 < 5, so shard 1 holds no answer row.
        spec = TopK(100, column=column, largest=largest)
        ids, record = engine.topk_attributed(query, spec)
        assert record.shards_pruned == 1
        assert record.knn_queries == 1
        assert np.array_equal(ids, oracle.topk(query, spec))


def test_topk_partial_records_pruned_shards(tie_engine):
    engine, _ = tie_engine
    spec = TopK(100, column="c")
    before = engine.stats.snapshot()
    engine.topk_partial(Rectangle.unconstrained(), spec)
    engine.topk(Rectangle.unconstrained(), spec)
    work = engine.stats.delta(before)
    assert work.shards_pruned == 2
    assert work.knn_queries == 2


def test_carried_bound_cuts_rows_examined(tie_engine):
    # The first shard scans its matches; the second, visited with the
    # k-th key as its bound, only those keyed within it.
    engine, _ = tie_engine
    _, record = engine.topk_attributed(Rectangle.unconstrained(), TopK(110, column="c"))
    assert record.rows_examined < 400


# ----------------------------------------------------------------------
# A finite bound on every structure
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bounded_structures():
    table = integer_table(6, 2_000)
    coax = COAXIndex(table, dimensions=DIMENSIONS)
    fresh = integer_table(7, 300)
    coax.insert_batch({name: fresh.column(name) for name in fresh.schema})
    coax.delete_batch(np.arange(0, 2_300, 11))
    assert coax.n_pending > 0
    oracle = FullScanIndex(combined_table(table, fresh))
    oracle.delete_rows(np.arange(0, 2_300, 11))
    table_oracle = FullScanIndex(table)
    return {
        "coax": (coax, oracle),
        "grid": (SortedCellGridIndex(table, cells_per_dim=6, sort_dimension="u"), table_oracle),
        "rtree": (RTreeIndex(table), table_oracle),
        "full_scan": (FullScanIndex(table), table_oracle),
    }


@pytest.mark.parametrize("structure", ["coax", "grid", "rtree", "full_scan"])
def test_finite_bound_keeps_every_row_within_it(bounded_structures, structure):
    # A finite bound may drop rows keyed beyond it, never one within it.
    index, oracle = bounded_structures[structure]
    rng = np.random.default_rng(8)
    for _ in range(30):
        column = COLUMNS[int(rng.integers(0, len(COLUMNS)))]
        largest = bool(rng.integers(0, 2))
        spec = TopK(60, column=column, largest=largest)
        low = float(rng.integers(0, 40))
        query = Rectangle({"x": Interval(low, low + 40.0)})
        want_keys, want_ids = oracle.topk_partial(query, spec)
        if len(want_keys) == 0:
            continue
        sort_keys = -want_keys if largest else want_keys
        bound = float(sort_keys[int(rng.integers(0, len(sort_keys)))])
        keys, ids = index.topk_partial(query, spec, bound=bound)
        inside = sort_keys <= bound
        assert np.array_equal(ids, want_ids[inside]), (structure, column, largest)
        assert np.array_equal(keys, want_keys[inside])


def test_delta_store_bound_keeps_every_row_within_it(bounded_structures):
    coax, _ = bounded_structures["coax"]
    pending = coax.delta
    query = Rectangle.unconstrained()
    for largest in (False, True):
        spec = TopK(500, column="t", largest=largest)
        keys, ids = pending.topk_candidates(query, spec)
        bound = float(-keys[40] if largest else keys[40])
        cut_keys, cut_ids = pending.topk_candidates(query, spec, bound=bound)
        inside = (-keys if largest else keys) <= bound
        assert np.array_equal(cut_ids, ids[inside])
        assert np.array_equal(cut_keys, keys[inside])


# ----------------------------------------------------------------------
# Input validation
# ----------------------------------------------------------------------
BAD_SPECS = [
    pytest.param(TopK(3, column="nope"), "not a known attribute", id="unknown-column"),
    pytest.param(TopK(3, column="x", largest="yes"), "largest must be a bool", id="largest-str"),
    pytest.param(TopK(3, point={"x": 1.0}), "exactly one", id="knn-spec"),
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
@pytest.mark.parametrize("spec,match", BAD_SPECS)
def test_topk_rejects_bad_input(small_structures, structure, spec, match):
    index = small_structures[structure]
    query = Rectangle({"x": Interval(0.0, 40.0)})
    with pytest.raises(ValueError, match=match):
        index.topk(query, spec)
    with pytest.raises(ValueError, match=match):
        index.topk_partial(query, spec)
    if structure == "engine":
        with pytest.raises(ValueError, match=match):
            index.topk_attributed(query, spec)


def test_by_column_builds_the_same_spec():
    assert TopK.by_column(4, "x", True, ("x", "y")) == TopK(4, column="x", largest=True)
    with pytest.raises(ValueError, match="k must be"):
        TopK.by_column(0, "x", False, ("x",))
    with pytest.raises(ValueError, match="not a known attribute"):
        TopK.by_column(2, "z", False, ("x",))


def test_empty_rectangle_and_infinite_bound():
    table = integer_table(9, 300)
    engine = ShardedCOAX(table, config=EngineConfig(n_shards=3))
    try:
        empty = Rectangle({"x": Interval(5.0, 1.0)})
        ids, record = engine.topk_attributed(empty, TopK(3, column="u"))
        assert len(ids) == 0 and record.shards_pruned == 0 and record.knn_queries == 1
        spec = TopK(7, column="t", largest=True)
        query = Rectangle({"u": Interval(3.0, 20.0)})
        keys, ids = engine.topk_partial(query, spec, bound=math.inf)
        assert np.array_equal(ids, FullScanIndex(table).topk(query, spec))
    finally:
        engine.close()
