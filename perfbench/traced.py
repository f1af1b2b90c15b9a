"""The traced run of an in-process workload (``--trace 1``).

One build with the tracer installed (for ``fd.learn_s``), a warm-up
cycle, then half of ``--seconds`` untraced and half traced on the same
engine.  The per-layer numbers come from the traced half; the untraced
half gives the tracing overhead on ``read_qps``.  End-to-end metrics are
never taken from this run.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from perfbench.clock import Stopwatch
from perfbench.common import N_SHARDS
from perfbench.layers import ENGINE_POINTS
from perfbench.report import (
    engine_counters,
    layer_map,
    layer_metrics,
    memory_counters,
    self_time_values,
)
from perfbench.spans import Tracer, addup_error

#: Largest allowed |Σ caller self time − traced wall| / traced wall.
ADDUP_TOLERANCE = 0.01


class TraceCheckError(RuntimeError):
    """The caller thread's self times do not add up to the traced wall."""


def traced_run(build: Callable, make_runner: Callable, seconds: float) -> Tuple[Dict, int, int, Dict]:
    """``build()`` returns the engine; ``make_runner(engine).run(seconds)``
    runs whole cycles and returns a phase with ``qps()``, ``ops``
    (operations attempted) and ``pending`` (sampled pending rows)."""
    tracer = Tracer()
    missing = tracer.install(ENGINE_POINTS)
    with Stopwatch() as watch:
        engine = build()
    build_s = watch.seconds
    learn_s = sum(span.duration for span in tracer.spans if span.name == "fd.learn")
    tracer.uninstall()
    tracer.clear()

    runner = make_runner(engine)
    warm = runner.run(0.0)
    untraced = runner.run(seconds / 2)
    before = engine.stats.snapshot()
    epoch_before = engine.layout.epoch if engine.layout is not None else 0
    tracer.install(ENGINE_POINTS)
    token = tracer.begin()
    traced = runner.run(seconds / 2)
    tracer.finish("loadgen.traced", token)
    tracer.uninstall()
    root = tracer.spans[-1]

    values, totals = self_time_values(tracer.spans, traced.ops)
    values.update(engine_counters(engine.stats.delta(before), N_SHARDS))
    values.update(memory_counters(engine))
    values["fd.learn_s"] = learn_s
    values["engine.build_s"] = build_s
    values["delta.pending_rows_mean"] = sum(traced.pending) / len(traced.pending) if traced.pending else 0.0
    values["layout.adopted"] = (engine.layout.epoch if engine.layout is not None else 0) - epoch_before
    values["trace.addup_error_share"] = addup_error(tracer.spans, root)
    values["trace.overhead_share"] = untraced.qps() / traced.qps() - 1.0 if traced.qps() > 0 else 0.0
    engine.close()
    if values["trace.addup_error_share"] > ADDUP_TOLERANCE:
        raise TraceCheckError(
            f"caller self times miss the traced wall by {values['trace.addup_error_share']:.2%}"
        )

    info = {
        "traced_wall_s": root.duration,
        "traced_ops": traced.ops,
        "untraced_read_qps": untraced.qps(),
        "traced_read_qps": traced.qps(),
        "addup_error_share": values["trace.addup_error_share"],
        "missing_wrap_points": missing,
        "layers": {name: totals._asdict() for name, totals in totals.items()},
        "layer_map": layer_map(),
    }
    attempted = warm.ops + untraced.ops + traced.ops
    return info, attempted, 0, layer_metrics(values)
