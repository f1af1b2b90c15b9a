"""Server process of ``served_mix``: cold-loads an archive and serves it.

Run as ``python -m perfbench.server_proc <archive>`` from the checkout
root.  It loads the engine with ``load_engine`` (timed: ``load_s``),
starts a ``CoalescingQueryServer`` on an ephemeral port and prints one
JSON line per event on standard output.  Commands arrive one per line on
standard input:

* ``mark`` — resident memory, index bytes and serving counters now;
* ``trace_on`` / ``trace_off`` — wrap the engine and serve layers, then
  restore them and report the layer numbers of the window in between;
* ``stop`` or end of input — stop serving and exit.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from repro.io.persistence import load_engine  # noqa: E402
from repro.serve import CoalescingQueryServer  # noqa: E402

from perfbench.common import N_SHARDS, WORKERS, rss_mb  # noqa: E402
from perfbench.layers import ENGINE_POINTS, SERVE_POINTS  # noqa: E402
from perfbench.report import engine_counters, memory_counters, self_time_values  # noqa: E402
from perfbench.spans import Tracer, addup_error, covered_share  # noqa: E402


def say(payload) -> None:
    print(json.dumps(payload, default=float), flush=True)


class TraceWindow:
    """Tracer plus the counters taken when tracing was switched on."""

    def __init__(self, server, engine) -> None:
        self.tracer = Tracer()
        self.server = server
        self.engine = engine
        self.stats = engine.stats.snapshot()
        self.counters = server.snapshot()
        self.missing = self.tracer.install(ENGINE_POINTS + SERVE_POINTS, {"protocol.frame": len})
        self.token = self.tracer.begin()

    def close(self):
        self.tracer.finish("server.traced", self.token)
        self.tracer.uninstall()
        spans = self.tracer.spans
        root = spans[-1]
        counters = self.server.snapshot()
        requests = counters["requests"] - self.counters["requests"]
        values, totals = self_time_values(spans, requests)
        values.update(engine_counters(self.engine.stats.delta(self.stats), N_SHARDS))
        values.update(memory_counters(self.engine))
        sizes = self.tracer.sizes.get("protocol.frame", [])
        offered = counters["coalescer_offered"] - self.counters["coalescer_offered"]
        values.update(
            {
                "protocol.resp_bytes": sum(sizes) / len(sizes) if sizes else 0.0,
                "dispatcher.busy_share": covered_share(spans, "dispatcher.dispatch", (root.start, root.end)),
                "coalescer.passthrough_share": (
                    (counters["coalescer_passthrough"] - self.counters["coalescer_passthrough"]) / offered
                    if offered
                    else 0.0
                ),
                "coalescer.rejected": counters["coalescer_rejected"] - self.counters["coalescer_rejected"],
                "trace.addup_error_share": addup_error(spans, root),
            }
        )
        return {
            "event": "trace_off",
            "values": values,
            "requests": requests,
            "traced_wall_s": root.duration,
            "missing_wrap_points": self.missing,
            "layers": {name: entry._asdict() for name, entry in totals.items()},
        }


async def serve(archive: str) -> None:
    rss_before = rss_mb()
    started = time.perf_counter()
    engine = load_engine(archive, workers=WORKERS, executor="thread")
    load_s = time.perf_counter() - started
    server = CoalescingQueryServer(engine)
    await server.start()
    say({"event": "ready", "port": server.port, "load_s": load_s, "rss_before_mb": rss_before})

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_commands() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    reader = threading.Thread(target=read_commands, name="commands", daemon=True)
    reader.start()
    window = None
    try:
        while True:
            command = await commands.get()
            if command == "mark":
                say(
                    {
                        "event": "mark",
                        "rss_mb": rss_mb(),
                        "index_bytes": engine.directory_bytes(),
                        "counters": server.snapshot(),
                    }
                )
            elif command == "trace_on":
                window = TraceWindow(server, engine)
                say({"event": "trace_on"})
            elif command == "trace_off" and window is not None:
                say(window.close())
                window = None
            elif command == "stop":
                break
    finally:
        await server.stop()
        engine.shutdown()
    say({"event": "stopped"})


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
