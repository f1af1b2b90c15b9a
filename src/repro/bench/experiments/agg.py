"""Aggregate/kNN executor benchmark — pushdown vs materialize-then-reduce.

The executor refactor's headline claim is that COUNT/SUM/MIN/MAX/AVG over
a rectangle never needs the candidate row ids: the grid kernels fold
covered runs in place (run lengths, prefix-sum differences, segment
reductions) and only boundary cells gather.  This driver measures exactly
that claim on the Airline and OSM datasets (``BENCH_agg.json``):

* **aggregate workload** — rectangles at ~10% selectivity on each
  dataset's primary sort dimension (exact by bisection, so covered runs
  fold id-free), each op executed two ways on the *same* index: the
  aggregate executor (``batch_aggregate``) vs the materialize-then-reduce
  baseline (``batch_range_query`` + NumPy reduction over the gathered
  column).  Results are verified against each other per query — COUNT
  exactly, the float folds to 1e-9 — before any number is reported.
* **kNN workload** — ``knn`` ring search vs the brute-force baseline
  (full-column distances + one exact ``lexsort``), verified id-for-id
  including the ``(distance, row_id)`` tie-break: once on the COAX index
  with two-attribute points, once on an 8-shard engine around whole rows
  (the engine's bounded best-first search across shards).

* **top-k workload** — ``topk`` by the 8-shard engine's partition
  dimension (10 rows per box) on KNN boxes drawn from a 10% row sample,
  the olap_wide recipe: the engine's bounded best-first search (shards in
  hull-edge order, the k-th key carried into each and cut into its
  rectangle) vs materialise-then-select (``range_query`` + ``select_topk``
  over the gathered column), both verified id-for-id against brute force.

``rows_examined`` is the honest work metric: the aggregate path counts
only the rows it actually gathers (boundary cells), the baseline counts
its materialised candidates.  ``smoke=True`` shrinks to CI scale and
asserts the deterministic gate — for COUNT/SUM/AVG the pushdown examines
at least :data:`SMOKE_EXAMINED_FACTOR` x fewer rows than the baseline, and
so does the sharded full-row kNN against brute force; the sharded top-k
examines at least :data:`SMOKE_TOPK_FACTOR` x fewer rows than
materialise-then-select — so a regression that silently reintroduces id
materialisation (or breaks run coverage, or an unbounded kNN or top-k
scan) fails the pipeline, not just a latency chart.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.experiments.datasets import airline_table, osm_table
from repro.bench.reporting import ExperimentResult
from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig, EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.executors import Aggregate, TopK, select_topk
from repro.data.predicates import Interval, Rectangle
from repro.data.queries import WorkloadConfig, generate_knn_queries
from repro.data.table import Table

__all__ = ["run"]

#: Aggregate ops folded per dataset (COUNT carries no value column).
AGG_OPS: Tuple[str, ...] = ("count", "sum", "avg", "min", "max")

#: Ops whose fold never gathers covered runs (COUNT folds run lengths,
#: SUM/AVG fold prefix-sum differences); MIN/MAX gather run *values* and
#: are reported but not gated.
FOLD_ONLY_OPS: Tuple[str, ...] = ("count", "sum", "avg")

#: Smoke gate: pushdown must examine at least this factor fewer rows than
#: materialize-then-reduce on the ~10% selectivity workload.
SMOKE_EXAMINED_FACTOR = 5.0

#: Smoke gate of the sharded top-k row: rows examined by the bounded
#: search at least this factor fewer than materialise-then-select.
SMOKE_TOPK_FACTOR = 2.0

#: Shards of the engine the full-row kNN and the top-k rows run on.
KNN_SHARDS = 8

#: Top-k row: rows per answer, boxes, and the K of the KNN boxes drawn
#: from a 10% row sample (each box spans about ``10 * K`` rows).
TOPK_K = 10
TOPK_BOXES = 16
TOPK_BOX_NEIGHBOURS = 200

#: Target selectivity of the aggregate rectangles.
SELECTIVITY = 0.10

#: Per-dataset (value column, kNN point dimensions).  The aggregate
#: rectangles constrain the built index's *primary sort dimension*
#: (``build_report.primary_sort_dimension`` — FD detection is
#: data-dependent, so it cannot be hard-coded): exact by bisection inside
#: every cell, so covered runs fold id-free, while a grid-axis constraint
#: would leave boundary cells on the gather path and understate the
#: pushdown.  kNN points mix a grid axis with an FD-predicted axis on
#: Airline (exercising the ring search's Equation-2 translation) and use
#: the classic spatial pair on OSM.
DATASET_PLAN = {
    "Airline": ("AirTime", ("Distance", "ScheduledArrTime")),
    "OSM": ("Longitude", ("Latitude", "Longitude")),
}


def _selectivity_queries(
    table: Table, dim: str, n_queries: int, rng: np.random.Generator
) -> List[Rectangle]:
    """Rectangles covering ~``SELECTIVITY`` of the rows along ``dim``."""
    values = np.sort(np.asarray(table.column(dim), dtype=np.float64))
    n = len(values)
    width = max(int(n * SELECTIVITY), 1)
    starts = rng.integers(0, max(n - width, 1), size=n_queries)
    return [
        Rectangle({dim: Interval(float(values[s]), float(values[min(s + width, n - 1)]))})
        for s in starts
    ]


def _reduce_baseline(
    op: str, ids_per_query: List[np.ndarray], values: Optional[np.ndarray]
) -> np.ndarray:
    """The materialize-then-reduce answer: NumPy reduction per id set."""
    out = np.empty(len(ids_per_query), dtype=np.float64)
    for slot, ids in enumerate(ids_per_query):
        if op == "count":
            out[slot] = len(ids)
        elif len(ids) == 0:
            out[slot] = 0.0 if op == "sum" else np.nan
        else:
            gathered = values[ids]
            if op == "sum":
                out[slot] = np.sum(gathered)
            elif op == "avg":
                out[slot] = np.sum(gathered) / len(gathered)
            elif op == "min":
                out[slot] = np.min(gathered)
            else:
                out[slot] = np.max(gathered)
    return out


def _brute_knn(
    table: Table, point: Dict[str, float], k: int
) -> np.ndarray:
    """Brute-force kNN baseline: full-column distances, one exact sort."""
    n = table.n_rows
    keys = np.zeros(n, dtype=np.float64)
    for dim, target in point.items():
        diff = np.asarray(table.column(dim), dtype=np.float64) - float(target)
        keys += diff * diff
    ids = np.arange(n, dtype=np.int64)
    return ids[np.lexsort((ids, keys))[:k]]


def _knn_row(
    dataset: str,
    workload: str,
    table: Table,
    index,
    points: List[Dict[str, float]],
    k: int,
    repeats: int,
) -> Dict[str, object]:
    """Time ``index.knn`` and brute force over ``points`` (best of
    ``repeats`` each), verify them id for id, and report the row."""
    brute = [_brute_knn(table, point, k) for point in points]
    brute_seconds = np.inf
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        for point in points:
            _brute_knn(table, point, k)
        brute_seconds = min(brute_seconds, time.perf_counter() - start)
    examined_before = index.stats.rows_examined
    search_seconds = np.inf
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        found = [index.knn(point, k) for point in points]
        search_seconds = min(search_seconds, time.perf_counter() - start)
    examined = (index.stats.rows_examined - examined_before) // max(repeats, 1)
    for got, want in zip(found, brute):
        if not np.array_equal(got, want):
            raise AssertionError(f"{workload} diverged from brute force on {dataset}")
    return {
        "dataset": dataset,
        "workload": workload,
        "queries": len(points),
        "pushdown_s": round(search_seconds, 4),
        "materialize_s": round(brute_seconds, 4),
        "speedup": round(brute_seconds / max(search_seconds, 1e-9), 2),
        "pushdown_rows_examined": int(examined),
        "materialize_rows_examined": int(table.n_rows * len(points)),
        "examined_ratio": round(table.n_rows * len(points) / max(examined, 1), 1),
    }


def _brute_topk(table: Table, query: Rectangle, spec: TopK) -> np.ndarray:
    """Brute-force top-k baseline: full-table match mask, one exact sort."""
    ids = np.flatnonzero(query.matches(table.columns())).astype(np.int64)
    keys = np.asarray(table.column(spec.column), dtype=np.float64)[ids]
    return ids[np.lexsort((ids, -keys if spec.largest else keys))[: spec.k]]


def _topk_row(
    dataset: str,
    table: Table,
    engine: ShardedCOAX,
    boxes: List[Rectangle],
    repeats: int,
) -> Dict[str, object]:
    """Time the engine's bounded top-k and materialise-then-select over
    ``boxes`` (best of ``repeats`` each), verify both id for id against
    brute force, and report the row."""
    spec = TopK(TOPK_K, column=engine.partition_dimension)
    values = np.asarray(table.column(spec.column), dtype=np.float64)
    brute = [_brute_topk(table, box, spec) for box in boxes]

    def materialise_then_select() -> List[np.ndarray]:
        found = []
        for box in boxes:
            ids = engine.range_query(box)
            found.append(select_topk(values[ids], ids, spec.k)[1])
        return found

    def bounded() -> List[np.ndarray]:
        return [engine.topk(box, spec) for box in boxes]

    timings: Dict[str, float] = {}
    examined: Dict[str, int] = {}
    for name, call in (("materialize", materialise_then_select), ("pushdown", bounded)):
        examined_before = engine.stats.rows_examined
        seconds = np.inf
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            found = call()
            seconds = min(seconds, time.perf_counter() - start)
        timings[name] = seconds
        examined[name] = (engine.stats.rows_examined - examined_before) // max(repeats, 1)
        for got, want in zip(found, brute):
            if not np.array_equal(got, want):
                raise AssertionError(f"top-k {name} diverged from brute force on {dataset}")
    return {
        "dataset": dataset,
        "workload": f"topk:k={TOPK_K}:by={spec.column}:shards={KNN_SHARDS}",
        "queries": len(boxes),
        "pushdown_s": round(timings["pushdown"], 4),
        "materialize_s": round(timings["materialize"], 4),
        "speedup": round(timings["materialize"] / max(timings["pushdown"], 1e-9), 2),
        "pushdown_rows_examined": int(examined["pushdown"]),
        "materialize_rows_examined": int(examined["materialize"]),
        "examined_ratio": round(examined["materialize"] / max(examined["pushdown"], 1), 1),
    }


def run(
    n_rows: int = 1_000_000,
    n_queries: int = 128,
    n_points: int = 32,
    k_neighbours: int = 50,
    seed: int = 13,
    smoke: bool = False,
    repeats: int = 2,
) -> ExperimentResult:
    """Run the aggregate/kNN executor benchmark and return its table.

    Every mode is timed ``repeats`` times and the minimum reported.
    ``smoke`` shrinks to CI scale and asserts the examined-rows gate (see
    the module docstring); result verification runs in every mode.
    """
    if smoke:
        n_rows = min(n_rows, 8_000)
        n_queries = min(n_queries, 48)
        n_points = min(n_points, 8)
    rows: List[Dict[str, object]] = []
    notes: List[str] = []
    gate_failures: List[str] = []

    for dataset, maker, dataset_seed in (
        ("Airline", airline_table, seed),
        ("OSM", osm_table, seed + 1),
    ):
        table = maker(n_rows, seed=dataset_seed)
        rng = np.random.default_rng(dataset_seed)
        value_col, point_dims = DATASET_PLAN[dataset]
        index = COAXIndex(table, config=COAXConfig())
        sel_dim = index.build_report.primary_sort_dimension
        queries = _selectivity_queries(table, sel_dim, n_queries, rng)
        notes.append(f"{dataset}: aggregate rectangles constrain {sel_dim!r}")

        # Materialize-then-reduce baseline: ids once, then every reduction.
        index.batch_range_query(queries[: min(8, n_queries)])  # warm-up
        examined_before = index.stats.rows_examined
        base_seconds = np.inf
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            ids_per_query = index.batch_range_query(queries)
            base_seconds = min(base_seconds, time.perf_counter() - start)
        base_examined = (index.stats.rows_examined - examined_before) // max(repeats, 1)
        column = np.asarray(table.column(value_col), dtype=np.float64)

        for op in AGG_OPS:
            spec = Aggregate(op, None if op == "count" else value_col)
            baseline = _reduce_baseline(op, ids_per_query, column)
            reduce_seconds = np.inf
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                _reduce_baseline(op, ids_per_query, column)
                reduce_seconds = min(reduce_seconds, time.perf_counter() - start)

            index.batch_aggregate(queries[: min(8, n_queries)], spec)  # warm-up
            examined_before = index.stats.rows_examined
            push_seconds = np.inf
            pushed = None
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                pushed = index.batch_aggregate(queries, spec)
                push_seconds = min(push_seconds, time.perf_counter() - start)
            push_examined = (
                index.stats.rows_examined - examined_before
            ) // max(repeats, 1)

            if op in ("count", "min", "max"):
                equal = np.array_equal(pushed, baseline, equal_nan=True)
            else:
                equal = np.allclose(pushed, baseline, rtol=1e-9, atol=1e-9, equal_nan=True)
            if not equal:
                raise AssertionError(
                    f"aggregate pushdown diverged from materialize-then-reduce on "
                    f"{dataset}/{op}"
                )
            total_base = base_seconds + reduce_seconds
            examined_ratio = base_examined / max(push_examined, 1)
            rows.append(
                {
                    "dataset": dataset,
                    "workload": f"agg:{op}",
                    "queries": len(queries),
                    "pushdown_s": round(push_seconds, 4),
                    "materialize_s": round(total_base, 4),
                    "speedup": round(total_base / max(push_seconds, 1e-9), 2),
                    "pushdown_rows_examined": int(push_examined),
                    "materialize_rows_examined": int(base_examined),
                    "examined_ratio": round(examined_ratio, 1),
                }
            )
            if smoke and op in FOLD_ONLY_OPS and examined_ratio < SMOKE_EXAMINED_FACTOR:
                gate_failures.append(
                    f"{dataset}/{op}: examined ratio {examined_ratio:.1f} < "
                    f"{SMOKE_EXAMINED_FACTOR}"
                )

        # kNN: ring search vs brute force, id-for-id including tie-breaks.
        sample = rng.integers(0, table.n_rows, size=n_points)
        points = [
            {dim: float(np.asarray(table.column(dim))[row]) for dim in point_dims}
            for row in sample
        ]
        rows.append(
            _knn_row(dataset, f"knn:k={k_neighbours}", table, index, points, k_neighbours, repeats)
        )

        # Sharded kNN around whole rows: the engine's bounded best-first
        # search (shards in hull-distance order, the k-th key carried
        # into each) against the same brute force.
        row_points = [
            {dim: float(np.asarray(table.column(dim))[row]) for dim in table.schema}
            for row in sample
        ]
        # Sharded top-k on the same engine: KNN boxes from a 10% row
        # sample, ranked by the partition dimension.
        box_rows = table.take(
            np.sort(rng.choice(table.n_rows, size=max(table.n_rows // 10, 1), replace=False))
        )
        boxes = generate_knn_queries(
            box_rows,
            WorkloadConfig(
                n_queries=TOPK_BOXES,
                k_neighbours=min(TOPK_BOX_NEIGHBOURS, box_rows.n_rows),
                seed=dataset_seed,
            ),
        ).queries
        engine = ShardedCOAX(table, config=EngineConfig(n_shards=KNN_SHARDS))
        try:
            row = _knn_row(
                dataset,
                f"knn:k={k_neighbours}:shards={KNN_SHARDS}:full-row",
                table,
                engine,
                row_points,
                k_neighbours,
                repeats,
            )
            topk_row = _topk_row(dataset, table, engine, boxes, repeats)
        finally:
            engine.close()
        rows.extend([row, topk_row])
        if smoke and row["examined_ratio"] < SMOKE_EXAMINED_FACTOR:
            gate_failures.append(
                f"{dataset}/sharded kNN: examined ratio {row['examined_ratio']} < "
                f"{SMOKE_EXAMINED_FACTOR}"
            )
        if smoke and topk_row["examined_ratio"] < SMOKE_TOPK_FACTOR:
            gate_failures.append(
                f"{dataset}/sharded top-k: examined ratio {topk_row['examined_ratio']} < "
                f"{SMOKE_TOPK_FACTOR}"
            )

    notes.append(f"host: {os.cpu_count()} cores (nproc)")
    notes.append(
        "aggregate pushdown verified against materialize-then-reduce per query "
        "(COUNT/MIN/MAX exactly, SUM/AVG to 1e-9); kNN and top-k verified id-for-id "
        "vs brute force"
    )
    if smoke:
        if gate_failures:
            raise AssertionError(
                "examined-rows gate failed: " + "; ".join(gate_failures)
            )
        notes.append(
            f"smoke mode: asserted pushdown examines >= {SMOKE_EXAMINED_FACTOR}x fewer "
            "rows than materialize-then-reduce for COUNT/SUM/AVG, and the sharded "
            "full-row kNN >= that factor fewer than brute force; the sharded top-k "
            f">= {SMOKE_TOPK_FACTOR}x fewer than materialise-then-select"
        )

    return ExperimentResult(
        experiment="agg",
        description="Aggregate/kNN/top-k executors — pushdown vs materialize-then-reduce",
        rows=rows,
        notes=notes,
    )
