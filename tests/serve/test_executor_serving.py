"""Serving the operator executors: wire protocol, coalescing, end to end.

Covers the `op` dispatch surface: request round trips for all five ops,
the typed ``bad_request`` for unknown ops and for a top-k column or kNN
attribute the engine does not store (connection survives), executor
grouping in the coalescer, and served aggregate/kNN/top-k answers checked
against the engine queried directly.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import ShardedCOAX
from repro.data.executors import MATERIALIZE, Aggregate, TopK, executor_key
from repro.data.predicates import Interval, Rectangle
from repro.serve import (
    CoalescingQueryServer,
    ProtocolError,
    RemoteBadRequestError,
    ServeClient,
)
from repro.serve.coalescer import CoalescerConfig, PendingQuery, QueryCoalescer
from repro.serve.protocol import encode_frame, request_from_wire, request_to_wire

RANGE_QUERY = Rectangle({"Distance": Interval(500.0, 800.0)})
EMPTY_QUERY = Rectangle({"Distance": Interval(-90.0, -80.0)})


@pytest.fixture(scope="module")
def engine(airline_small) -> ShardedCOAX:
    engine = ShardedCOAX(airline_small, config=EngineConfig(n_shards=2))
    yield engine
    engine.close()


# ----------------------------------------------------------------------
# Wire round trips
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "executor",
    [
        MATERIALIZE,
        Aggregate("count", None),
        Aggregate("avg", "AirTime"),
        TopK(5, column="AirTime", largest=True),
        TopK(3, point={"Distance": 700.0, "ArrTime": 900.0}, metric="linf"),
    ],
)
def test_request_round_trip(executor):
    wire = request_to_wire(RANGE_QUERY, executor)
    query, decoded = request_from_wire(wire)
    assert decoded == executor or decoded.kind == executor.kind
    assert executor_key(decoded) == executor_key(executor)
    if getattr(executor, "is_knn", False):
        assert dict(decoded.point) == dict(executor.point)
    else:
        assert {d: (i.low, i.high) for d, i in query.items()} == {
            d: (i.low, i.high) for d, i in RANGE_QUERY.items()
        }


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m.update(op="percentile"),
        lambda m: m.update(op="aggregate", agg="median", column="AirTime"),
        lambda m: m.update(op="aggregate", agg="sum"),  # missing column
        lambda m: m.update(op="knn", point={"x": 1.0}, k=0),
        lambda m: m.update(op="knn", point={"x": 1.0}, k=3, metric="cosine"),
        lambda m: m.update(op="knn", point={"x": float("inf")}, k=3),
        lambda m: m.update(op="topk", k=2),  # missing column
    ],
)
def test_malformed_requests_raise_protocol_error(mutate):
    message = request_to_wire(RANGE_QUERY, MATERIALIZE)
    mutate(message)
    with pytest.raises(ProtocolError):
        request_from_wire(message)


# ----------------------------------------------------------------------
# Coalescer grouping
# ----------------------------------------------------------------------
class FakeFuture:
    def __init__(self) -> None:
        self._done = False

    def cancel(self) -> None:
        self._done = True

    def cancelled(self) -> bool:
        return False

    def done(self) -> bool:
        return self._done


def test_take_batch_splits_at_executor_boundaries():
    coalescer = QueryCoalescer(
        CoalescerConfig(max_batch=16, max_window_s=1.0), clock=lambda: 0.0
    )
    specs = [
        MATERIALIZE,
        MATERIALIZE,
        Aggregate("count", None),
        Aggregate("count", None),
        Aggregate("sum", "AirTime"),
        TopK(5, point={"x": 1.0}),
        TopK(5, point={"x": 2.0}),  # different centre, same batch key
        MATERIALIZE,
    ]
    for i, spec in enumerate(specs):
        coalescer.offer(
            PendingQuery(query=object(), future=FakeFuture(), executor=spec),
            now=i * 1e-5,
        )
    sizes = []
    while coalescer.n_waiting:
        batch = coalescer.take_batch(now=1.0)
        sizes.append(len(batch))
        keys = {executor_key(entry.executor) for entry in batch}
        assert len(keys) == 1  # one dispatched batch, one executor key
    assert sizes == [2, 2, 1, 2, 1]  # FIFO order preserved, split at ops


# ----------------------------------------------------------------------
# End to end over TCP
# ----------------------------------------------------------------------
def test_served_executors_match_direct_engine(engine):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                count = await client.aggregate(RANGE_QUERY, Aggregate("count", None))
                avg = await client.aggregate(RANGE_QUERY, Aggregate("avg", "AirTime"))
                empty_min = await client.aggregate(
                    EMPTY_QUERY, Aggregate("min", "AirTime")
                )
                point = {"Distance": 700.0, "ArrTime": 900.0}
                neighbours = await client.knn(point, 5)
                longest = await client.topk(
                    RANGE_QUERY, TopK(4, column="AirTime", largest=True)
                )
                return count, avg, empty_min, neighbours, longest, point

    count, avg, empty_min, neighbours, longest, point = asyncio.run(scenario())
    assert count == engine.aggregate(RANGE_QUERY, Aggregate("count", None))
    assert np.isclose(avg, engine.aggregate(RANGE_QUERY, Aggregate("avg", "AirTime")))
    assert empty_min is None  # engine-side NaN travels as null
    assert np.array_equal(neighbours, engine.knn(point, 5))
    assert np.array_equal(
        longest, engine.topk(RANGE_QUERY, TopK(4, column="AirTime", largest=True))
    )


def test_unknown_op_answers_bad_request_and_connection_survives(engine):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                message = dict(request_to_wire(RANGE_QUERY, MATERIALIZE))
                message["op"] = "percentile"
                request_id = client._next_id
                client._next_id += 1
                message["id"] = request_id
                future = asyncio.get_running_loop().create_future()
                client._pending[request_id] = future
                client._writer.write(encode_frame(message))
                await client._writer.drain()
                with pytest.raises(RemoteBadRequestError, match="op"):
                    await future
                # The connection is still usable after the typed rejection.
                count = await client.aggregate(RANGE_QUERY, Aggregate("count", None))
                return count

    count = asyncio.run(scenario())
    assert count == engine.aggregate(RANGE_QUERY, Aggregate("count", None))


def test_unknown_topk_column_answers_bad_request_and_connection_survives(engine):
    # The wire decodes the spec fine; the engine rejects the column with a
    # ValueError, which reaches the client as a typed bad_request.
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(RemoteBadRequestError, match="Nope"):
                    await client.topk(RANGE_QUERY, TopK(3, column="Nope"))
                with pytest.raises(RemoteBadRequestError, match="unknown attributes"):
                    await client.knn({"Nope": 1.0}, 3)
                return await client.topk(RANGE_QUERY, TopK(3, column="AirTime"))

    got = asyncio.run(scenario())
    assert np.array_equal(got, engine.topk(RANGE_QUERY, TopK(3, column="AirTime")))


def test_pipelined_mixed_ops_answer_in_order(engine):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                futures = []
                for i in range(30):
                    if i % 3 == 0:
                        futures.append(await client.submit(RANGE_QUERY))
                    elif i % 3 == 1:
                        futures.append(
                            await client.submit(
                                RANGE_QUERY, Aggregate("count", None)
                            )
                        )
                    else:
                        futures.append(
                            await client.submit(
                                RANGE_QUERY, TopK(3, column="AirTime")
                            )
                        )
                return await asyncio.gather(*futures)

    results = asyncio.run(scenario())
    want_ids = np.sort(engine.range_query(RANGE_QUERY))
    want_count = engine.aggregate(RANGE_QUERY, Aggregate("count", None))
    want_topk = engine.topk(RANGE_QUERY, TopK(3, column="AirTime"))
    for i, result in enumerate(results):
        if i % 3 == 0:
            assert np.array_equal(np.sort(result.row_ids), want_ids)
        elif i % 3 == 1:
            assert result.value == want_count
        else:
            assert np.array_equal(result.row_ids, want_topk)


def test_served_stats_attribute_new_ops(engine):
    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                result = await client.query(RANGE_QUERY, Aggregate("count", None))
                return result.stats

    stats = asyncio.run(scenario())
    assert stats["aggregates"] == 1
    assert stats["knn_queries"] == 0


def test_served_knn_stats_carry_pruned_shards(engine, airline_small):
    # k=1 around an existing row: the k-th key is 0, so the shard whose
    # hulls stay clear of the row is skipped and the response says so.
    point = dict(airline_small.row(0))
    _, direct = engine.knn_attributed(point, 1)
    assert direct.shards_pruned >= 1

    async def scenario():
        async with CoalescingQueryServer(engine) as server:
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                result = await client.query(
                    Rectangle.unconstrained(), TopK(1, point=point)
                )
                return result.stats

    stats = asyncio.run(scenario())
    assert stats["knn_queries"] == 1
    assert stats["shards_pruned"] == direct.shards_pruned
    assert stats["rows_examined"] == direct.rows_examined
