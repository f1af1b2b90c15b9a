#!/usr/bin/env python
"""Query executors: aggregates and nearest neighbours without row ids.

The read path answers the question its *consumer* actually asks: a query
carries an executor spec, and ``MaterializeIds`` (the classic row-id
contract) is just the default. This example:

1. builds COAX over the synthetic Airline table;
2. answers COUNT/SUM/AVG/MIN/MAX over a rectangle with the ``Aggregate``
   executor and checks them against materialize-then-reduce;
3. finds the 5 nearest flights to a (Distance, ArrTime) point with
   ``knn`` and the 5 longest flights in a rectangle with ``TopK``;
4. shows the same executors answered by the sharded engine — partial
   accumulators are gathered, never candidate id streams — bit-identical
   to the flat index;
5. reads the new per-op stats counters (``aggregates``, ``knn_queries``,
   ``rings_expanded``).

Run with::

    python examples/aggregates_and_knn.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Aggregate,
    COAXIndex,
    EngineConfig,
    Interval,
    Rectangle,
    ShardedCOAX,
    TopK,
    generate_airline_dataset,
)


def main() -> None:
    table, _ = generate_airline_dataset()
    index = COAXIndex(table)
    print("build")
    print("-----")
    print(index.build_report.describe())
    print()

    # -- aggregates: the kernel folds candidate runs, no id materialisation
    sort_dim = index.build_report.primary_sort_dimension
    values = np.sort(np.asarray(table.column(sort_dim), dtype=np.float64))
    query = Rectangle(
        {sort_dim: Interval(float(values[len(values) // 4]), float(values[len(values) // 2]))}
    )
    print(f"aggregates over {sort_dim!r} rectangle")
    print("---------------------------------")
    ids = index.range_query(query)
    airtime = np.asarray(table.column("AirTime"), dtype=np.float64)
    for op in ("count", "sum", "avg", "min", "max"):
        spec = Aggregate(op, None if op == "count" else "AirTime")
        value = index.aggregate(query, spec)
        reduced = {
            "count": float(len(ids)),
            "sum": float(np.sum(airtime[ids])),
            "avg": float(np.mean(airtime[ids])),
            "min": float(np.min(airtime[ids])),
            "max": float(np.max(airtime[ids])),
        }[op]
        assert np.isclose(value, reduced, rtol=1e-9)
        print(f"  {op:5s} = {value:,.2f}  (matches materialize-then-reduce)")
    print()

    # -- kNN: best-first ring search with FD translation, exact by contract
    point = {"Distance": 700.0, "ArrTime": 900.0}
    neighbours = index.knn(point, 5)
    print("5 nearest flights to", point)
    for row_id in neighbours:
        print(
            f"  row {row_id}: Distance={table.column('Distance')[row_id]:.0f}"
            f" ArrTime={table.column('ArrTime')[row_id]:.0f}"
        )
    print()

    # -- top-k by a column inside a rectangle
    longest = index.topk(query, TopK(5, column="AirTime", largest=True))
    print("5 longest flights in the rectangle")
    for row_id in longest:
        print(f"  row {row_id}: AirTime={table.column('AirTime')[row_id]:.0f}")
    print()

    # -- the sharded engine answers the same specs from partial accumulators
    engine = ShardedCOAX(table, config=EngineConfig(n_shards=4))
    try:
        sharded_count = engine.aggregate(query, Aggregate("count", None))
        flat_count = index.aggregate(query, Aggregate("count", None))
        assert sharded_count == flat_count
        assert np.array_equal(engine.knn(point, 5), neighbours)
        print(f"sharded engine agrees: COUNT={sharded_count:,.0f}, same 5 neighbours")
        stats = engine.stats
        print(
            f"engine stats: aggregates={stats.aggregates}"
            f" knn_queries={stats.knn_queries} rings_expanded={stats.rings_expanded}"
        )
    finally:
        engine.close()


if __name__ == "__main__":
    main()
