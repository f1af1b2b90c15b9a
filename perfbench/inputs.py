"""Seeded inputs: tables and query rectangles drawn from the table itself.

Rectangles are K-nearest-neighbour boxes (the paper's generator) built on
a row sample of the workload's **own** table.  ``generate_knn_queries``
costs O(rows × queries), so a sample keeps it to a fraction of a second;
a box around K sample neighbours spans about K × (rows / sample) rows of
the full table.  Everything here runs before any timing starts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.data.airline import AirlineConfig, generate_airline_dataset
from repro.data.osm import OSMConfig, generate_osm_dataset
from repro.data.predicates import Rectangle
from repro.data.queries import WorkloadConfig, generate_knn_queries
from repro.data.table import Table

#: Offset between a run's seed and the seed of its second (write) table.
WRITE_SEED_OFFSET = 1_000_003

#: Seeds of the indexed tables: the generators' defaults, the same in every
#: run.  ``--seed`` draws everything else (query sample, boxes, points,
#: written rows).  Which attribute of a correlated pair FD detection picks
#: as the predictor flips with the data seed (OSM: Timestamp -> Id or
#: Id -> Timestamp), and each orientation is a different workload; the
#: default OSM table learns Timestamp -> Id, the group oltp_rw is defined by.
AIRLINE_TABLE_SEED = AirlineConfig().seed
OSM_TABLE_SEED = OSMConfig().seed


def airline(n_rows: int, seed: int = AIRLINE_TABLE_SEED) -> Table:
    return generate_airline_dataset(AirlineConfig(n_rows=n_rows, seed=seed))[0]


def osm(n_rows: int, seed: int = OSM_TABLE_SEED) -> Table:
    return generate_osm_dataset(OSMConfig(n_rows=n_rows, seed=seed))[0]


def sample(table: Table, n_rows: int, rng: np.random.Generator) -> Table:
    n_rows = min(n_rows, table.n_rows)
    return table.take(np.sort(rng.choice(table.n_rows, size=n_rows, replace=False)))


def knn_boxes(rows: Table, n_queries: int, k: int, rng: np.random.Generator) -> List[Rectangle]:
    config = WorkloadConfig(n_queries=n_queries, k_neighbours=k, seed=int(rng.integers(2**31)))
    return list(generate_knn_queries(rows, config).queries)


def typical_boxes(rows: Table, n_queries: int, k: int, rng: np.random.Generator) -> List[Rectangle]:
    """``n_queries`` KNN boxes of typical size: twice as many are drawn and
    the half whose sample match counts lie closest to the median is kept.

    A KNN box's volume is heavy-tailed (a few boxes around sparse anchors
    span much of the table), so a plain draw lets one seed's batch do far
    more work than another's; the selection keeps each batch's work close
    to the same from seed to seed.
    """
    boxes = knn_boxes(rows, 2 * n_queries, k, rng)
    counts = np.array([match_count(rows, box) for box in boxes])
    keep = np.argsort(np.abs(counts - np.median(counts)), kind="stable")[:n_queries]
    return [boxes[i] for i in np.sort(keep)]


def match_count(rows: Table, box: Rectangle) -> int:
    mask = np.ones(rows.n_rows, dtype=bool)
    for name, interval in box.items():
        values = rows.column(name)
        mask &= (values >= interval.low) & (values <= interval.high)
    return int(mask.sum())


def points(table: Table, n_queries: int, rng: np.random.Generator) -> Tuple[List[Rectangle], List[Dict[str, float]]]:
    """Point rectangles on existing rows, plus the rows themselves."""
    rows = [table.row(int(i)) for i in rng.integers(0, table.n_rows, size=n_queries)]
    return [Rectangle.from_point(row) for row in rows], rows
