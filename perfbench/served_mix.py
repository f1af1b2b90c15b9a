"""``served_mix``: the Airline engine behind the TCP serving tier.

The Airline 1M engine is built and saved once as a v6 archive during
preparation.  A separate server process (:mod:`perfbench.server_proc`)
cold-loads it and runs ``CoalescingQueryServer``; this process generates
load over 2 pipelined ``ServeClient`` connections.  Requests cycle
through range (narrow KNN box, K=10) : point : COUNT = 3 : 1 : 1,
interleaved, so the coalescer splits batches by executor key.

Two phases share ``--seconds``:

1. a quarter in closed loop, ``OUTSTANDING`` requests in flight:
   ``read_qps`` is the median over ``QPS_SLICES`` equal slices of correct
   answers per second;
2. three quarters in open loop at ``OPEN_RATE`` requests per second, well
   below capacity: ``read_p50_ms`` / ``read_tail_ms`` (p95) are timed from
   each request's *due* time, so a stalled generator or server counts
   against later requests; ``late_p99_ms`` reports how late the generator
   itself sent.

Engine work per request is small, so the protocol, coalescer, dispatcher
and event loop dominate; ``setup_s`` measures the archive cold start
(process start, ``load_engine``, server ready, one warm-up pass) instead
of a build.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import shutil
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.executors import MATERIALIZE, Aggregate
from repro.io.persistence import load_engine, save_index
from repro.serve import ServeClient, ServerError

from perfbench import inputs
from perfbench.clock import StealLog, host_ticks, unstolen
from perfbench.common import (
    N_SHARDS,
    ROOT,
    SETUP_REPEATS,
    WORK_DIR,
    WORKERS,
    MismatchError,
    latency_metrics,
    median,
    metric,
    percentile,
)
from perfbench.oracle import ScanOracle, check_ids
from perfbench.report import layer_map, layer_metrics
from perfbench.traced import ADDUP_TOLERANCE, TraceCheckError
from perfbench.writes import WriteStream, write_probe

NAME = "served_mix"
TAIL_Q = 95.0
COUNT = Aggregate("count")
CONNECTIONS = 2
OUTSTANDING = 64
OPEN_RATE = 30.0
QPS_SLICES = 10
STEAL_SAMPLE_S = 0.1
#: Seconds to wait for a server event before giving up on the run.
SERVER_TIMEOUT_S = 120.0


class Workload:
    def __init__(self, seed: int, rows: int = 1_000_000, sample_rows: int = 100_000, pool: int = 32) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.table = inputs.airline(rows)
        self.write_table = inputs.airline(max(rows // 50, 1000), seed + inputs.WRITE_SEED_OFFSET)
        sample = inputs.sample(self.table, sample_rows, rng)
        boxes = inputs.typical_boxes(sample, 4 * pool, 10, rng)
        ranges, counts = boxes[: 3 * pool], boxes[3 * pool :]
        point_boxes, _ = inputs.points(self.table, pool, rng)
        # (kind, rectangle, executor) in the 3:1:1 interleave R R P R C.
        self.requests: List[Tuple[str, object, object]] = []
        for i in range(pool):
            self.requests += [
                ("range", ranges[3 * i], MATERIALIZE),
                ("range", ranges[3 * i + 1], MATERIALIZE),
                ("point", point_boxes[i], MATERIALIZE),
                ("range", ranges[3 * i + 2], MATERIALIZE),
                ("count", counts[i], COUNT),
            ]
        oracle = ScanOracle(self.table)
        id_slots = [i for i, (kind, _, _) in enumerate(self.requests) if kind != "count"]
        count_slots = [i for i, (kind, _, _) in enumerate(self.requests) if kind == "count"]
        self.want: Dict[int, object] = dict(
            zip(id_slots, oracle.ranges([self.requests[i][1] for i in id_slots]))
        )
        counted = oracle.aggregates([self.requests[i][1] for i in count_slots], COUNT)
        self.want.update({slot: float(value) for slot, value in zip(count_slots, counted)})
        self.archive: Optional[str] = None

    def prepare(self) -> str:
        """Build the engine once and save it as a v6 archive."""
        directory = WORK_DIR / f"{NAME}-{os.getpid()}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        engine = ShardedCOAX(self.table, config=EngineConfig(n_shards=N_SHARDS, workers=WORKERS))
        self.archive = str(save_index(engine, directory / "engine"))
        engine.close()
        return self.archive

    def cleanup(self) -> None:
        if self.archive is not None:
            shutil.rmtree(os.path.dirname(self.archive), ignore_errors=True)
            self.archive = None

    def check(self, slot: int, result) -> None:
        kind, _, _ = self.requests[slot]
        want = self.want[slot]
        if kind == "count":
            if result.value is None or float(result.value) != want:
                raise MismatchError(NAME, "served COUNT", slot, f"{result.value} vs {want}")
        else:
            check_ids(NAME, f"served {kind}", slot, result.row_ids, want)


def archive_mb(path: str) -> float:
    total = 0
    for directory, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(directory, name)) for name in files)
    return total / 1e6


class Server:
    """One server process and the client connections to it."""

    def __init__(self, proc, ready: Dict, clients: List[ServeClient]) -> None:
        self.proc = proc
        self.ready = ready
        self.clients = clients

    @classmethod
    async def start(cls, archive: str) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "perfbench.server_proc",
            archive,
            cwd=str(ROOT),
            env=env,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
        )
        server = cls(proc, {}, [])
        try:
            server.ready = await server.event("ready")
            for _ in range(CONNECTIONS):
                server.clients.append(await ServeClient.connect("127.0.0.1", server.ready["port"]))
        except BaseException:
            await server.stop()
            raise
        return server

    async def event(self, name: str) -> Dict:
        line = await asyncio.wait_for(self.proc.stdout.readline(), SERVER_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"server process exited before {name!r}")
        payload = json.loads(line)
        if payload.get("event") != name:
            raise RuntimeError(f"server sent {payload.get('event')!r}, expected {name!r}")
        return payload

    async def command(self, command: str, reply: str) -> Dict:
        self.proc.stdin.write(f"{command}\n".encode())
        await self.proc.stdin.drain()
        return await self.event(reply)

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.proc.returncode is None:
            self.proc.stdin.close()
            try:
                await asyncio.wait_for(self.proc.wait(), SERVER_TIMEOUT_S)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()


class Tally:
    """Served answers of one phase, checked after the phase ends."""

    def __init__(self) -> None:
        self.results: List[Tuple[int, object]] = []
        self.attempted = 0
        self.failed = 0
        self.waits_us: List[float] = []
        self.batched: List[int] = []

    def add(self, slot: int, result) -> None:
        self.results.append((slot, result))
        self.waits_us.append(float(result.server.get("wait_us", 0)))
        self.batched.append(int(result.server.get("batched", 1)))

    def check(self, workload: Workload) -> None:
        for slot, result in self.results:
            workload.check(slot, result)
        self.results = []


@contextlib.contextmanager
def quiet_collector():
    """Keep the load generator's own garbage collection out of the phase."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


@contextlib.asynccontextmanager
async def steal_sampling(log: StealLog):
    """Sample host steal every ``STEAL_SAMPLE_S`` while the phase runs."""

    async def sample() -> None:
        while True:
            log.sample()
            await asyncio.sleep(STEAL_SAMPLE_S)

    task = asyncio.ensure_future(sample())
    try:
        yield log
    finally:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        log.sample()


async def closed_loop(server: Server, workload: Workload, seconds: float, tally: Tally, cursor: List[int]) -> float:
    """``OUTSTANDING`` callers over the connections; median slice goodput
    (each slice's answers per unstolen second)."""
    requests = workload.requests
    done: List[float] = []
    log = StealLog()
    started = time.perf_counter()
    deadline = started + seconds

    async def caller(client: ServeClient) -> None:
        while time.perf_counter() < deadline:
            slot = cursor[0] % len(requests)
            cursor[0] += 1
            _, query, executor = requests[slot]
            tally.attempted += 1
            try:
                result = await client.query(query, executor)
            except ServerError:
                tally.failed += 1
                continue
            done.append(time.perf_counter())
            tally.add(slot, result)

    async with steal_sampling(log):
        await asyncio.gather(
            *(caller(server.clients[i % CONNECTIONS]) for i in range(OUTSTANDING))
        )
    edges = np.linspace(started, deadline, QPS_SLICES + 1)
    counts = np.histogram(done, bins=edges)[0]
    unstolen_s = [
        (end - start) * (1.0 - log.share(start, end)) for start, end in zip(edges[:-1], edges[1:])
    ]
    return float(np.median(counts / np.array(unstolen_s)))


async def open_loop(
    server: Server, workload: Workload, seconds: float, tally: Tally, cursor: List[int]
) -> Tuple[List[float], List[float]]:
    """Requests sent on a fixed schedule; latency from each due time
    (unstolen over the samples around the request)."""
    requests = workload.requests
    log = StealLog()
    spans: List[Tuple[float, float]] = []
    n_requests = max(int(OPEN_RATE * seconds), 1)
    late: List[float] = []
    pending = []
    first_due = time.perf_counter() + 0.01

    def finished(future, slot: int, due: float) -> None:
        if future.cancelled() or future.exception() is not None:
            tally.failed += 1
            return
        spans.append((due, time.perf_counter()))
        tally.add(slot, future.result())

    async with steal_sampling(log):
        for i in range(n_requests):
            due = first_due + i / OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            slot = cursor[0] % len(requests)
            cursor[0] += 1
            _, query, executor = requests[slot]
            late.append(time.perf_counter() - due)
            tally.attempted += 1
            future = await server.clients[i % CONNECTIONS].submit(query, executor)
            future.add_done_callback(lambda f, slot=slot, due=due: finished(f, slot, due))
            pending.append(future)
        if pending:
            await asyncio.wait(pending, timeout=SERVER_TIMEOUT_S)
        await asyncio.sleep(0)  # let the last done-callbacks run
    latencies = [log.unstolen(start, end) for start, end in spans]
    return latencies, late


async def warm_up(server: Server, workload: Workload) -> None:
    """One checked pass over every distinct request, ``OUTSTANDING`` at a time."""
    requests = workload.requests
    for start in range(0, len(requests), OUTSTANDING):
        slots = range(start, min(start + OUTSTANDING, len(requests)))
        results = await asyncio.gather(
            *(server.clients[slot % CONNECTIONS].query(*requests[slot][1:]) for slot in slots)
        )
        for slot, result in zip(slots, results):
            workload.check(slot, result)


async def start_warm(archive: str, workload: Workload) -> Tuple[Server, float]:
    """Server start plus one warm-up pass: ``(server, unstolen seconds)``."""
    ticks = host_ticks()
    started = time.perf_counter()
    server = await Server.start(archive)
    try:
        await warm_up(server, workload)
    except BaseException:
        await server.stop()
        raise
    return server, unstolen(time.perf_counter() - started, ticks, host_ticks())


def probe_writes(workload: Workload):
    """Write probe on the engine loaded from the same archive."""
    engine = load_engine(workload.archive, workers=WORKERS, executor="thread")
    try:
        stream = WriteStream(workload.write_table, workload.seed)
        ranges = [query for kind, query, _ in workload.requests if kind == "range"][:8]
        return write_probe(engine, workload.table, stream, ranges, NAME)
    finally:
        engine.close()


async def _measure(workload: Workload, seconds: float):
    archive = workload.prepare()
    setups: List[float] = []
    server: Optional[Server] = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            await server.stop()
        server, setup_s = await start_warm(archive, workload)
        setups.append(setup_s)
    try:
        tally = Tally()
        cursor = [0]
        with quiet_collector():
            qps = await closed_loop(server, workload, seconds / 4, tally, cursor)
            latencies, late = await open_loop(server, workload, 3 * seconds / 4, tally, cursor)
        mark = await server.command("mark", "mark")
    finally:
        await server.stop()
    tally.check(workload)
    return setups, server.ready, qps, latencies, late, mark, tally


def measure(workload: Workload, seconds: float) -> Tuple[Dict, int, int, Dict]:
    try:
        setups, ready, qps, latencies, late, mark, tally = asyncio.run(_measure(workload, seconds))
        writes = probe_writes(workload)
        size_mb = archive_mb(workload.archive)
    finally:
        workload.cleanup()
    attempted = tally.attempted
    metrics = {
        "setup_s": metric(median(setups), "s"),
        **latency_metrics(latencies, TAIL_Q),
        "read_qps": metric(qps, "1/s"),
        "write_rows_per_s": metric(writes.rows_per_s(), "rows/s"),
        "ok_share": metric((attempted - tally.failed) / attempted, "share"),
        "index_bytes": metric(mark["index_bytes"], "bytes"),
        "rss_mb": metric(mark["rss_mb"] - ready["rss_before_mb"], "MB"),
    }
    info = {
        "open_loop_requests": len(latencies),
        "tail_percentile": TAIL_Q,
        "samples_beyond_tail": int(len(latencies) * (100 - TAIL_Q) / 100),
        "late_p99_ms": percentile(late, 99) * 1e3,
        "coalescer_wait_us_p50": percentile(tally.waits_us, 50),
        "coalescer_mean_batch": float(np.mean(tally.batched)),
        "load_s": ready["load_s"],
        "archive_mb": size_mb,
        "setup_s_each": setups,
        "server_counters": mark["counters"],
    }
    return info, attempted + writes.n_calls, tally.failed, metrics


async def _trace(workload: Workload, seconds: float):
    archive = workload.prepare()
    server, _ = await start_warm(archive, workload)
    try:
        cursor = [0]
        untraced = Tally()
        traced = Tally()
        with quiet_collector():
            untraced_qps = await closed_loop(server, workload, seconds / 4, untraced, cursor)
            await server.command("trace_on", "trace_on")
            traced_qps = await closed_loop(server, workload, seconds / 4, traced, cursor)
            _, late = await open_loop(server, workload, seconds / 2, traced, cursor)
            report = await server.command("trace_off", "trace_off")
    finally:
        await server.stop()
    untraced.check(workload)
    waits, batched = traced.waits_us, traced.batched
    traced.check(workload)
    return server.ready, untraced, untraced_qps, traced, traced_qps, late, report, waits, batched


def trace(workload: Workload, seconds: float) -> Tuple[Dict, int, int, Dict]:
    try:
        ready, untraced, untraced_qps, traced, traced_qps, late, report, waits, batched = asyncio.run(
            _trace(workload, seconds)
        )
        size_mb = archive_mb(workload.archive)
    finally:
        workload.cleanup()
    values = dict(report["values"])
    if values["trace.addup_error_share"] > ADDUP_TOLERANCE:
        raise TraceCheckError(
            f"server loop self times miss the traced wall by {values['trace.addup_error_share']:.2%}"
        )
    values.update(
        {
            "coalescer.wait_us_p50": percentile(waits, 50),
            "coalescer.wait_us_p99": percentile(waits, 99),
            "coalescer.mean_batch": float(np.mean(batched)),
            "persistence.load_s": ready["load_s"],
            "persistence.archive_mb": size_mb,
            "loadgen.late_p99_ms": percentile(late, 99) * 1e3,
            "trace.overhead_share": untraced_qps / traced_qps - 1.0 if traced_qps > 0 else 0.0,
        }
    )
    info = {
        "traced_wall_s": report["traced_wall_s"],
        "traced_requests": report["requests"],
        "untraced_read_qps": untraced_qps,
        "traced_read_qps": traced_qps,
        "addup_error_share": values["trace.addup_error_share"],
        "missing_wrap_points": report["missing_wrap_points"],
        "layers": report["layers"],
        "layer_map": layer_map(),
    }
    attempted = untraced.attempted + traced.attempted
    return info, attempted, untraced.failed + traced.failed, layer_metrics(values)
