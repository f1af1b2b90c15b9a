"""Wire protocol of the serving front end: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  JSON keeps the protocol debuggable from any language
(``nc`` plus a hex dump is a working client); the length prefix keeps
framing trivial and lets the server reject oversized frames *before*
parsing them.  Infinite rectangle bounds — JSON has no ``inf`` — travel as
``null`` (``null`` low = unbounded below, ``null`` high = unbounded above).

Requests
--------

Every request carries an ``op`` selecting the executor the query runs
under; ``range``/``point`` materialise row ids (the original protocol),
``aggregate``/``topk``/``knn`` dispatch to the engine's operator
executors::

    {"id": 7, "op": "range", "bounds": {"Distance": [500, 800], "AirTime": [60, null]}}
    {"id": 8, "op": "point", "point": {"Distance": 512.0, "AirTime": 64.0}}
    {"id": 9, "op": "aggregate", "agg": "sum", "column": "AirTime",
     "bounds": {"Distance": [500, 800]}}
    {"id": 10, "op": "topk", "k": 5, "column": "AirTime", "largest": true,
     "bounds": {"Distance": [500, 800]}}
    {"id": 11, "op": "knn", "k": 8, "metric": "l2",
     "point": {"Distance": 512.0, "AirTime": 64.0}}

An ``op`` the server does not know — e.g. a newer client talking to an
older server, or vice versa — is answered with a typed ``bad_request``
response, never a dropped connection: unknown ops are a parse error of
the request *body*, so framing stays trusted and the connection lives on.

``id`` is chosen by the client and echoed verbatim in the response, so
clients may pipeline any number of requests per connection and match
responses by id (the server always answers in request order per
connection, but ids make the pairing explicit and survive client-side
reordering).

Responses
---------

::

    {"id": 7, "ok": true, "row_ids": [3, 19], "stats": {...}, "server": {...}}
    {"id": 9, "ok": true, "value": 6021.5, "stats": {...}, "server": {...}}
    {"id": 7, "ok": false, "error": {"code": "overloaded", "message": "...",
                                     "retry_after_ms": 2}}

Materialising and top-k/kNN ops answer with ``row_ids``; aggregates
answer with ``value`` (``null`` for MIN/MAX/AVG over an empty match set —
JSON has no NaN).  ``stats`` carries the per-query
:class:`~repro.indexes.base.QueryStats` attribution (coalescing server
only); ``server`` carries serving-side metadata (batch size the query
rode in, queue wait).  Error codes are the :data:`ERROR_CODES` constants
— ``overloaded`` is the typed fast-reject of admission control and
carries ``retry_after_ms``.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.data.executors import (
    AGGREGATE_OPS,
    MATERIALIZE,
    METRIC_CHOICES,
    Aggregate,
    Executor,
    TopK,
)
from repro.data.predicates import Interval, Rectangle

__all__ = [
    "MAX_FRAME_BYTES",
    "ERROR_CODES",
    "ProtocolError",
    "encode_frame",
    "read_frame",
    "query_to_wire",
    "query_from_wire",
    "request_to_wire",
    "request_from_wire",
    "ok_response",
    "error_response",
    "split_response",
]

#: Hard upper bound on a frame's payload size; a length prefix beyond this
#: closes the connection instead of allocating attacker-controlled buffers.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Typed error codes a response may carry.
ERROR_CODES = ("overloaded", "shutting_down", "bad_request", "internal")

_LENGTH = struct.Struct(">I")


class ProtocolError(ValueError):
    """A frame that cannot be parsed into a valid request/response."""


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialise one message as a length-prefixed JSON frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF before a length prefix.

    A connection that dies mid-frame raises ``IncompleteReadError`` (the
    caller drops the connection); an oversized or non-JSON frame raises
    :class:`ProtocolError` — the peer is misbehaving and framing can no
    longer be trusted, so callers close the connection rather than answer.
    """
    prefix = await reader.read(_LENGTH.size)
    if not prefix:
        return None
    if len(prefix) < _LENGTH.size:
        prefix += await reader.readexactly(_LENGTH.size - len(prefix))
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    body = await reader.readexactly(length)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame must be a JSON object")
    return message


def _bound_to_wire(value: float) -> Optional[float]:
    return None if math.isinf(value) else float(value)


def _bound_from_wire(value: Any, default: float) -> float:
    if value is None:
        return default
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"bound must be a number or null, got {value!r}")
    if math.isnan(value):
        raise ProtocolError("bound must not be NaN")
    return float(value)


def query_to_wire(query: Rectangle) -> Dict[str, Any]:
    """Request body of a range query over ``query`` (without the id)."""
    return {
        "op": "range",
        "bounds": {
            name: [_bound_to_wire(interval.low), _bound_to_wire(interval.high)]
            for name, interval in query.items()
        },
    }


def _point_from_wire(message: Mapping[str, Any]) -> Dict[str, float]:
    point = message.get("point")
    if not isinstance(point, dict) or not point:
        raise ProtocolError("point query needs a non-empty 'point' object")
    values: Dict[str, float] = {}
    for name, value in point.items():
        if value is None:
            raise ProtocolError(f"point value for {name!r} must not be null")
        values[str(name)] = _bound_from_wire(value, math.nan)
    return values


def _bounds_from_wire(message: Mapping[str, Any]) -> Rectangle:
    bounds = message.get("bounds")
    if not isinstance(bounds, dict):
        raise ProtocolError("range query needs a 'bounds' object")
    intervals: Dict[str, Interval] = {}
    for name, pair in bounds.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ProtocolError(f"bounds for {name!r} must be a [low, high] pair")
        intervals[str(name)] = Interval(
            _bound_from_wire(pair[0], -math.inf), _bound_from_wire(pair[1], math.inf)
        )
    return Rectangle(intervals)


def _k_from_wire(message: Mapping[str, Any]) -> int:
    k = message.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ProtocolError(f"'k' must be a positive integer, got {k!r}")
    return k


def query_from_wire(message: Mapping[str, Any]) -> Rectangle:
    """Parse a materialising request body into its :class:`Rectangle`.

    The pre-executor entry point, kept for old callers that only speak
    ``range``/``point``; new code uses :func:`request_from_wire`, which
    also yields the executor.  Raises :class:`ProtocolError` on any
    malformed shape — unknown op, non-list bounds, NaN values — so the
    server can answer a typed ``bad_request`` instead of crashing a
    dispatch batch.
    """
    op = message.get("op")
    if op == "point":
        return Rectangle.from_point(_point_from_wire(message))
    if op != "range":
        raise ProtocolError(f"unknown op {op!r}; expected 'range' or 'point'")
    return _bounds_from_wire(message)


def request_from_wire(message: Mapping[str, Any]) -> Tuple[Rectangle, Executor]:
    """Parse a request body into ``(query, executor)`` for dispatch.

    ``range``/``point`` map to the materialising executor; ``aggregate``,
    ``topk`` and ``knn`` map to the corresponding operator executor (a
    kNN request's rectangle is unconstrained — the point lives in the
    spec).  Any other ``op`` — including ones a future protocol revision
    may add — raises :class:`ProtocolError`, which the server answers as
    a typed ``bad_request``.
    """
    op = message.get("op")
    if op in ("range", "point"):
        return query_from_wire(message), MATERIALIZE
    if op == "aggregate":
        agg = message.get("agg")
        if agg not in AGGREGATE_OPS:
            raise ProtocolError(
                f"'agg' must be one of {AGGREGATE_OPS}, got {agg!r}"
            )
        column = message.get("column")
        if column is not None and not isinstance(column, str):
            raise ProtocolError(f"'column' must be a string, got {column!r}")
        try:
            spec = Aggregate(str(agg), column)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        return _bounds_from_wire(message), spec
    if op == "topk":
        column = message.get("column")
        if not isinstance(column, str):
            raise ProtocolError(f"topk needs a string 'column', got {column!r}")
        largest = message.get("largest", False)
        if not isinstance(largest, bool):
            raise ProtocolError(f"'largest' must be a boolean, got {largest!r}")
        spec = TopK(_k_from_wire(message), column=column, largest=largest)
        return _bounds_from_wire(message), spec
    if op == "knn":
        metric = message.get("metric", "l2")
        if metric not in METRIC_CHOICES:
            raise ProtocolError(
                f"'metric' must be one of {METRIC_CHOICES}, got {metric!r}"
            )
        try:
            spec = TopK(
                _k_from_wire(message), point=_point_from_wire(message), metric=str(metric)
            )
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        return Rectangle.unconstrained(), spec
    raise ProtocolError(
        f"unknown op {op!r}; expected one of "
        "'range', 'point', 'aggregate', 'topk', 'knn'"
    )


def request_to_wire(query: Rectangle, executor: Executor = MATERIALIZE) -> Dict[str, Any]:
    """Request body (without the id) running ``query`` under ``executor``."""
    kind = getattr(executor, "kind", "materialize")
    if kind == "aggregate":
        body = dict(query_to_wire(query))
        body["op"] = "aggregate"
        body["agg"] = executor.op
        if executor.column is not None:
            body["column"] = executor.column
        return body
    if kind == "topk":
        if executor.is_knn:
            return {
                "op": "knn",
                "k": int(executor.k),
                "metric": executor.metric,
                "point": {
                    name: float(value) for name, value in executor.point.items()
                },
            }
        body = dict(query_to_wire(query))
        body["op"] = "topk"
        body["k"] = int(executor.k)
        body["column"] = executor.column
        body["largest"] = bool(executor.largest)
        return body
    return query_to_wire(query)


def ok_response(
    request_id: Any,
    row_ids=None,
    *,
    value: Optional[float] = None,
    stats: Optional[Mapping[str, int]] = None,
    server: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Success response carrying the result ids — or, for an aggregate
    op, its scalar ``value`` — plus optional metadata.

    A NaN aggregate (MIN/MAX/AVG over an empty match set) travels as
    ``null``: JSON has no NaN, and Python's permissive encoder would emit
    a literal ``NaN`` token other parsers reject.
    """
    payload: Dict[str, Any] = {"id": request_id, "ok": True}
    if row_ids is not None:
        payload["row_ids"] = [int(row_id) for row_id in row_ids]
    else:
        payload["value"] = None if value is None or math.isnan(value) else value
    if stats is not None:
        payload["stats"] = dict(stats)
    if server is not None:
        payload["server"] = dict(server)
    return payload


def error_response(
    request_id: Any,
    code: str,
    message: str,
    *,
    retry_after_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """Typed error response (``code`` must be one of :data:`ERROR_CODES`)."""
    if code not in ERROR_CODES:
        raise ValueError(f"error code must be one of {ERROR_CODES}, got {code!r}")
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = float(retry_after_ms)
    return {"id": request_id, "ok": False, "error": error}


def split_response(
    message: Mapping[str, Any],
) -> Tuple[Any, bool, Dict[str, Any]]:
    """``(id, ok, body)`` of a response frame; raises on malformed shapes."""
    if "ok" not in message:
        raise ProtocolError("response frame is missing 'ok'")
    ok = bool(message["ok"])
    body = dict(message)
    return message.get("id"), ok, body
