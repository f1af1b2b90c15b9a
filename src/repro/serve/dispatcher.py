"""Batch dispatcher: hands micro-batches to the engine off the event loop.

The engine's batch kernels are milliseconds of NumPy work — far too long
to run on the event loop thread that is concurrently accepting
connections and parsing frames.  The dispatcher owns a small worker
thread pool (one thread by default: the engine serialises its own batch
entry points anyway, and one in-flight batch keeps tail latency
predictable), runs ``batch_range_query_attributed`` there, and slices the
per-query results and stats back onto the per-client futures on the event
loop.

Failure semantics: an :class:`~repro.core.engine.EngineClosedError` (the
engine is being torn down under the server) resolves every future of the
batch with that typed error so connection handlers can answer
``shutting_down``; a top-k/kNN entry the engine rejects with
``ValueError`` (an unknown column or attribute) resolves that entry alone
with a :class:`~repro.serve.protocol.ProtocolError` (``bad_request``);
any other exception resolves them with the raw error (answered as
``internal``).  Futures abandoned between flush and
completion (client disconnected mid-batch) are skipped — the batch result
of everyone else is unaffected.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.executors import MATERIALIZE
from repro.indexes.base import QueryStats
from repro.serve.coalescer import PendingQuery
from repro.serve.protocol import ProtocolError

__all__ = ["EngineDispatcher"]

#: One resolved query as the connection writer consumes it:
#: ``(row_ids_or_None, value_or_None, stats, server_meta)``, or the
#: :class:`ProtocolError` of an entry the engine rejected as malformed.
_Resolved = Union[Tuple[Optional[np.ndarray], Optional[float], QueryStats, dict], ProtocolError]


class EngineDispatcher:
    """Runs coalesced batches on an engine in a worker thread.

    ``engine`` is anything with the
    ``batch_range_query_attributed(queries) -> (results, stats)`` surface
    — :class:`~repro.core.engine.ShardedCOAX` natively; a flat
    ``COAXIndex`` can be wrapped via ``ShardedCOAX.from_index``.  Serving
    the operator executors additionally needs the engine's
    ``batch_aggregate_attributed`` / ``topk_attributed`` /
    ``knn_attributed`` surface; a coalesced batch carries one executor
    kind end to end (the coalescer groups by executor key), so dispatch
    routes the whole batch through exactly one of those entry points.
    """

    def __init__(self, engine, *, max_workers: int = 1) -> None:
        self._engine = engine
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="serve-dispatch"
        )
        self.batches = 0
        self.queries = 0
        self.inflight = 0

    @property
    def engine(self):
        """The engine batches are executed against."""
        return self._engine

    @property
    def busy(self) -> bool:
        """True while at least one batch is executing (or pool-queued).

        The coalescer uses this as the group-commit signal: a query that
        arrives while a batch is in flight cannot start any sooner by
        being dispatched alone, so queueing it is free — it rides in the
        batch flushed the instant the in-flight one completes.
        """
        return self.inflight > 0

    def close(self) -> None:
        """Shut the worker pool down, waiting for the in-flight batch."""
        self._executor.shutdown(wait=True)

    def _run(self, batch: List[PendingQuery]) -> List[_Resolved]:
        """Execute one executor-homogeneous batch; one resolved slot per entry.

        Routed by the batch's executor kind (the coalescer only groups
        compatible entries): materialising batches run the flat batch
        kernel; aggregate batches run the partial-accumulator scatter and
        answer scalars; top-k/kNN entries run the engine's per-query
        merge (their batch-compatibility key deliberately ignores the
        point/rectangle, so the loop lives here).  Per-query stats come
        from the engine's own ``*_attributed`` split — including the
        ``aggregates`` / ``knn_queries`` / ``rings_expanded`` counters —
        so served attribution matches direct engine calls exactly.
        """
        executor = batch[0].executor if batch else MATERIALIZE
        kind = getattr(executor, "kind", "materialize")
        resolved: List[_Resolved] = []
        if kind == "aggregate":
            values, stats = self._engine.batch_aggregate_attributed(
                [entry.query for entry in batch], executor
            )
            for value, query_stats in zip(values, stats):
                # ``.item()`` (NumPy scalar → Python scalar) keeps the wire
                # encoder numpy-free: json rejects np.int64/np.float64.
                resolved.append((None, value.item(), query_stats, {}))
        elif kind == "topk":
            for entry in batch:
                spec = entry.executor
                try:
                    if spec.is_knn:
                        ids, query_stats = self._engine.knn_attributed(
                            spec.point, spec.k, metric=spec.metric
                        )
                    else:
                        ids, query_stats = self._engine.topk_attributed(entry.query, spec)
                except ValueError as exc:
                    # The engine validates top-k/kNN input against its
                    # schema (an unknown column or attribute) before any
                    # work: that entry alone is a bad request.
                    resolved.append(ProtocolError(str(exc)))
                    continue
                resolved.append((ids, None, query_stats, {}))
        else:
            results, stats = self._engine.batch_range_query_attributed(
                [entry.query for entry in batch]
            )
            for row_ids, query_stats in zip(results, stats):
                resolved.append((row_ids, None, query_stats, {}))
        return resolved

    async def dispatch(self, batch: List[PendingQuery]) -> None:
        """Execute one micro-batch and resolve its per-client futures.

        The engine call runs in the worker pool; the loop thread only
        does the slicing.  Every live future is resolved exactly once —
        with ``(row_ids, value, stats, server_meta)`` on success or with
        the engine's exception on failure.
        """
        if not batch:
            return
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        self.inflight += 1
        try:
            resolved = await loop.run_in_executor(self._executor, self._run, batch)
        # repro-lint: allow[typed-errors] thread-pool boundary: the engine's exception is re-homed onto every waiter's future, then typed at the protocol layer
        except Exception as exc:  # noqa: BLE001 - typed at the protocol layer
            for entry in batch:
                if not entry.future.done():
                    entry.future.set_exception(exc)
            return
        finally:
            self.inflight -= 1
        self.batches += 1
        self.queries += len(batch)
        n_batched = len(batch)
        for entry, outcome in zip(batch, resolved):
            if entry.future.done():
                continue
            if isinstance(outcome, ProtocolError):
                entry.future.set_exception(outcome)
            else:
                row_ids, value, query_stats, _ = outcome
                meta = {
                    "batched": n_batched,
                    "wait_us": round(max(started - entry.offered_at, 0.0) * 1e6)
                    if entry.offered_at
                    else 0,
                }
                entry.future.set_result((row_ids, value, query_stats, meta))

    async def dispatch_one(self, entry: PendingQuery) -> None:
        """Pass-through for the naive path: a batch of exactly one query."""
        await self.dispatch([entry])

    def run_direct(self, queries: Sequence) -> List[np.ndarray]:
        """Synchronous oracle helper: the same engine, no serving layer.

        Benchmarks verify every served result element-for-element against
        this direct call.
        """
        results, _ = self._engine.batch_range_query_attributed(list(queries))
        return results
