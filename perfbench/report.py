"""Turn a traced phase into the per-layer metrics of ``BENCHMARK.json``."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from perfbench.common import metric
from perfbench.layers import ADOPTERS, LAYER_METRICS, SELF_TIME_METRICS
from perfbench.spans import LayerTotals, Span, layer_totals


def engine_counters(delta, n_shards: int) -> Dict[str, float]:
    """Per-query work counters from a ``QueryStats`` window delta."""
    queries = max(delta.queries, 1)
    return {
        "grid.cells_visited": delta.cells_visited / queries,
        "grid.rows_examined": delta.rows_examined / queries,
        "grid.match_ratio": delta.rows_matched / delta.rows_examined if delta.rows_examined else 0.0,
        "engine.shards_pruned_share": delta.shards_pruned / (queries * n_shards),
    }


def memory_counters(engine) -> Dict[str, float]:
    breakdown = engine.memory_breakdown()
    mapping = breakdown.get("mapping", 0)
    return {
        "engine.mapping_bytes": float(mapping),
        "engine.shard_dir_bytes": float(sum(breakdown.values()) - mapping),
    }


def self_time_values(
    spans: Sequence[Span], n_ops: int, window: Optional[Tuple[float, float]] = None
) -> Tuple[Dict[str, float], Dict[str, LayerTotals]]:
    """``*_us`` metrics (µs of self time per generator op) plus the raw table."""
    totals = layer_totals(spans, ADOPTERS, window)
    values = {
        name: sum(totals[span].self_s for span in span_names if span in totals) * 1e6 / max(n_ops, 1)
        for name, span_names in SELF_TIME_METRICS.items()
    }
    return values, totals


def layer_metrics(values: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, 0 for layers the workload never reaches."""
    return {
        layer.name: metric(values.get(layer.name, 0.0), layer.unit) for layer in LAYER_METRICS
    }


def layer_map() -> Dict[str, str]:
    """Per-layer metric -> the end-to-end metric and workload it should move."""
    return {layer.name: layer.moves for layer in LAYER_METRICS}
