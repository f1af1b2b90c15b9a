"""Where the benchmark wraps the program, and what each layer number means.

Every ``*_us`` per-layer metric is the layer's **self time** (span time
minus the time its child spans cover), summed over the traced phase and
divided by the operations the load generator issued in that phase: µs of
that layer per operation.  Self times of the layers on the generator's
own thread therefore add up to its wall time per operation (checked by
``trace.addup_error_share``); layers on worker threads report the time
they kept a worker busy.

``LAYER_METRICS`` maps each per-layer metric to the end-to-end metric it
should move and the workload where it should move it; ``BENCHMARK.json``
has a fixed set of keys, so the map lives here and is printed with every
traced run.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from perfbench.spans import WrapPoint

_ENGINE = "repro.core.engine"
_ENGINE_CLS = "repro.core.engine:ShardedCOAX"
_COAX = "repro.core.coax"
_GRID = "repro.indexes.grid_file"
_GRID_CLS = "repro.indexes.grid_file:SortedCellGridIndex"

#: Engine read entry points: the spans worker-thread scans are adopted by.
ENGINE_READS: Tuple[str, ...] = (
    "range_query",
    "batch_range_query",
    "batch_range_query_attributed",
    "aggregate",
    "batch_aggregate",
    "batch_aggregate_partial",
    "batch_aggregate_attributed",
    "knn",
    "knn_partial",
    "knn_attributed",
    "topk",
    "topk_partial",
    "topk_attributed",
)

ENGINE_POINTS: List[WrapPoint] = (
    [WrapPoint(_ENGINE_CLS, name, "engine.read") for name in ENGINE_READS]
    + [
        WrapPoint(_ENGINE_CLS, "insert_batch", "engine.insert"),
        WrapPoint(_ENGINE_CLS, "update_batch", "engine.update"),
        WrapPoint(_ENGINE_CLS, "delete_batch", "engine.delete"),
        WrapPoint(_ENGINE_CLS, "compact", "engine.compact"),
        WrapPoint(_ENGINE, "learn_groups", "fd.learn"),
        # Equation-2 translation and planning, where the engine and the
        # per-shard COAX index look them up.
        WrapPoint(_ENGINE, "translate_bounds_batch", "translation"),
        WrapPoint(_ENGINE, "translate_query", "translation"),
        WrapPoint(_ENGINE, "translated_predictor_interval", "translation"),
        WrapPoint(_COAX, "translate_bounds_batch", "translation"),
        WrapPoint(_COAX, "translate_query", "translation"),
        WrapPoint(_ENGINE, "plan_query_flags", "planner"),
        WrapPoint(_ENGINE, "batch_overlaps_box", "planner"),
        WrapPoint(_COAX, "plan_query", "planner"),
        WrapPoint(_COAX, "plan_query_flags", "planner"),
        # Per-shard scatter work.
        WrapPoint("repro.core.coax:COAXIndex", "batch_scatter_flat", "coax.scatter"),
        WrapPoint("repro.core.coax:COAXIndex", "batch_scatter_aggregate", "coax.scatter"),
        WrapPoint("repro.core.coax:COAXIndex", "knn_partial", "coax.scatter"),
        WrapPoint("repro.core.coax:COAXIndex", "topk_partial", "coax.scatter"),
        WrapPoint(_GRID_CLS, "batch_flat_from_bounds", "grid.batch_flat"),
        WrapPoint(_GRID_CLS, "batch_aggregate_from_bounds", "grid.aggregate"),
        WrapPoint(_GRID_CLS, "knn_partial", "grid.knn"),
        WrapPoint(_GRID, "axis_cell_ranges", "kernels.cell_ranges"),
        WrapPoint(_GRID, "enumerate_cells_batch", "kernels.enumerate"),
        WrapPoint(_GRID, "enumerate_cells", "kernels.enumerate"),
        WrapPoint(_GRID, "segment_bisect", "kernels.bisect"),
        WrapPoint(_GRID, "gather_ranges", "kernels.gather"),
        # Gather-side merges.
        WrapPoint(_ENGINE, "merge_flat_row_ids", "results.merge"),
        WrapPoint(_ENGINE, "merge_row_ids", "results.merge"),
        WrapPoint(_COAX, "merge_flat_row_ids", "results.merge"),
        WrapPoint(_COAX, "merge_row_ids", "results.merge"),
        WrapPoint(_ENGINE, "merge_topk", "executors.merge"),
        WrapPoint(_COAX, "merge_topk", "executors.merge"),
        WrapPoint("repro.data.executors:AggregatePartial", "merge", "executors.merge"),
        WrapPoint("repro.data.executors:AggregatePartial", "merge_at", "executors.merge"),
        # Pending-row scans and the adaptive-layout monitor.
        WrapPoint("repro.core.delta:DeltaStore", "scan_batch", "delta.scan"),
        WrapPoint("repro.core.delta:DeltaStore", "scan", "delta.scan"),
        WrapPoint("repro.core.delta:DeltaStore", "fold_aggregate_batch", "delta.scan"),
        WrapPoint("repro.core.delta:DeltaStore", "knn_candidates", "delta.scan"),
        WrapPoint("repro.core.delta:DeltaStore", "topk_candidates", "delta.scan"),
        WrapPoint("repro.core.layout:LayoutMonitor", "observe", "layout.observe"),
        WrapPoint("repro.core.layout:LayoutMonitor", "propose", "layout.propose"),
    ]
)

#: Server-process wrap points (the serve tier looks these names up in
#: ``repro.serve.server``; JSON goes through ``repro.serve.protocol.json``).
SERVE_POINTS: List[WrapPoint] = [
    WrapPoint("repro.serve.protocol", "json", "protocol"),
    WrapPoint("repro.serve.server", "request_from_wire", "protocol.decode"),
    WrapPoint("repro.serve.server", "ok_response", "protocol.encode"),
    WrapPoint("repro.serve.server", "encode_frame", "protocol.frame"),
    WrapPoint("repro.serve.dispatcher:EngineDispatcher", "dispatch", "dispatcher.dispatch"),
    WrapPoint("repro.serve.coalescer:QueryCoalescer", "offer", "coalescer"),
    WrapPoint("repro.serve.coalescer:QueryCoalescer", "take_batch", "coalescer"),
]

#: Spans that adopt root spans of other threads contained in them.
ADOPTERS: Tuple[str, ...] = (
    "engine.read",
    "engine.insert",
    "engine.update",
    "engine.delete",
    "engine.compact",
    "dispatcher.dispatch",
)

#: Per-layer ``*_us`` metric -> span names whose self time it sums.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "kernels.cell_ranges_us": ("kernels.cell_ranges",),
    "kernels.enumerate_us": ("kernels.enumerate",),
    "kernels.bisect_us": ("kernels.bisect",),
    "kernels.gather_us": ("kernels.gather",),
    "grid.postfilter_self_us": ("grid.batch_flat",),
    "grid.aggregate_us": ("grid.aggregate",),
    "grid.knn_us": ("grid.knn",),
    "results.merge_us": ("results.merge",),
    "executors.merge_us": ("executors.merge",),
    "translation.us": ("translation",),
    "planner.us": ("planner",),
    "engine.self_us": ("engine.read",),
    "coax.scatter_self_us": ("coax.scatter",),
    "engine.insert_us": ("engine.insert",),
    "engine.update_us": ("engine.update",),
    "engine.delete_us": ("engine.delete",),
    "engine.compact_us": ("engine.compact",),
    "delta.scan_us": ("delta.scan",),
    "layout.observe_us": ("layout.observe",),
    "layout.propose_us": ("layout.propose",),
    "protocol.decode_us": ("protocol.decode",),
    "protocol.encode_us": ("protocol.encode", "protocol.frame"),
    "dispatcher.hop_us": ("dispatcher.dispatch",),
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metric it should move, and on which workload.
    moves: str


_KERNEL_MOVES = "read_qps, read_p50_ms on olap_wide; no change on served_mix"
_GLUE_MOVES = "read_p50_ms, read_tail_ms on oltp_rw; read_qps on served_mix"
_WRITE_MOVES = "write_rows_per_s, read_tail_ms on oltp_rw"
_SERVE_MOVES = "read_p50_ms, read_tail_ms, read_qps on served_mix; no change elsewhere"

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("kernels.cell_ranges_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("kernels.enumerate_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("kernels.bisect_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("kernels.gather_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("grid.postfilter_self_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("grid.aggregate_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("grid.knn_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("results.merge_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("executors.merge_us", "us", "lower", _KERNEL_MOVES),
    LayerMetric("grid.cells_visited", "count", "lower", _KERNEL_MOVES),
    LayerMetric("grid.rows_examined", "count", "lower", _KERNEL_MOVES),
    LayerMetric("grid.match_ratio", "share", "higher", _KERNEL_MOVES),
    LayerMetric("translation.us", "us", "lower", _GLUE_MOVES),
    LayerMetric("planner.us", "us", "lower", _GLUE_MOVES),
    LayerMetric("engine.self_us", "us", "lower", _GLUE_MOVES),
    LayerMetric("coax.scatter_self_us", "us", "lower", _GLUE_MOVES),
    LayerMetric("engine.shards_pruned_share", "share", "higher", _GLUE_MOVES),
    LayerMetric("engine.insert_us", "us", "lower", _WRITE_MOVES),
    LayerMetric("engine.update_us", "us", "lower", _WRITE_MOVES),
    LayerMetric("engine.delete_us", "us", "lower", _WRITE_MOVES),
    LayerMetric("engine.compact_us", "us", "lower", _WRITE_MOVES),
    LayerMetric("delta.scan_us", "us", "lower", _WRITE_MOVES),
    LayerMetric("delta.pending_rows_mean", "count", "lower", _WRITE_MOVES),
    LayerMetric("layout.observe_us", "us", "lower", _WRITE_MOVES),
    LayerMetric("layout.propose_us", "us", "lower", _WRITE_MOVES),
    LayerMetric("layout.adopted", "count", "lower", _WRITE_MOVES),
    LayerMetric("protocol.decode_us", "us", "lower", _SERVE_MOVES),
    LayerMetric("protocol.encode_us", "us", "lower", _SERVE_MOVES),
    LayerMetric("protocol.resp_bytes", "bytes", "lower", _SERVE_MOVES),
    LayerMetric("dispatcher.hop_us", "us", "lower", _SERVE_MOVES),
    LayerMetric("dispatcher.busy_share", "share", "lower", _SERVE_MOVES),
    LayerMetric("coalescer.wait_us_p50", "us", "lower", _SERVE_MOVES),
    LayerMetric("coalescer.wait_us_p99", "us", "lower", _SERVE_MOVES),
    LayerMetric("coalescer.mean_batch", "count", "higher", _SERVE_MOVES),
    LayerMetric("coalescer.passthrough_share", "share", "higher", _SERVE_MOVES),
    LayerMetric("coalescer.rejected", "count", "lower", _SERVE_MOVES),
    LayerMetric("engine.mapping_bytes", "bytes", "lower", "index_bytes on every workload"),
    LayerMetric("engine.shard_dir_bytes", "bytes", "lower", "index_bytes on every workload"),
    LayerMetric("fd.learn_s", "s", "lower", "setup_s on olap_wide and oltp_rw"),
    LayerMetric("engine.build_s", "s", "lower", "setup_s on olap_wide and oltp_rw"),
    LayerMetric("persistence.load_s", "s", "lower", "setup_s on served_mix"),
    LayerMetric("persistence.archive_mb", "MB", "lower", "setup_s on served_mix"),
    LayerMetric("loadgen.late_p99_ms", "ms", "lower", "run validity of the served_mix open loop"),
    LayerMetric("trace.addup_error_share", "share", "lower", "tracer check: caller self times vs wall"),
    LayerMetric("trace.overhead_share", "share", "lower", "traced vs untraced read_qps"),
)
