"""Span tracing from outside the program, plus the self-time arithmetic.

The benchmark records one span per call into a layer by replacing a
public function with a timing wrapper *at the place its callers look it
up*: the module attribute (``repro.core.engine.translate_bounds_batch``,
because ``engine`` imports that name directly) or the class attribute
(``SortedCellGridIndex.batch_flat_from_bounds``).  Nothing inside the
program changes; :meth:`Tracer.uninstall` puts every original back.

A span records its name, start, end, thread and parent.  Synchronous
spans nest on a per-thread stack, so their parent is the enclosing span
on the same thread.  A root span on another thread (a shard scan on the
engine's worker pool, the engine call on the serve dispatcher thread) is
adopted afterwards by the innermost *adopter* span (an engine entry or a
dispatch) that contains it in time.  Coroutine spans (``async def``)
cover their awaits, so they never sit on the stack; they can only adopt.

Self time of a span is its duration minus the part of that interval its
children cover (the union, so parallel children count once).  On one
thread, the thread-local self times of a root and its nested descendants
add up to the root's duration exactly; :func:`addup_error` checks that.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import threading
import time
import types
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    #: True when recorded on the thread's span stack (synchronous call).
    nested: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class WrapPoint(NamedTuple):
    """``target`` is ``"pkg.module"`` or ``"pkg.module:Class"``."""

    target: str
    attr: str
    span: str


class Tracer:
    """Collects spans in memory; install/uninstall wrappers around layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        #: Sizes of returned values, per span name (e.g. encoded frame bytes).
        self.sizes: Dict[str, List[int]] = {}
        self._clock = clock
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> Tuple[int, Optional[int], float]:
        """Open a nested span on the calling thread; pass the token to :meth:`finish`."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, self._clock()

    def finish(self, name: str, token: Tuple[int, Optional[int], float]) -> None:
        end = self._clock()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, threading.get_ident(), parent, True))

    def wrap(self, fn: Callable, name: str, size_of: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn`` recording spans named ``name``."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_coroutine(*args, **kwargs):
                sid = next(self._ids)
                start = self._clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append(
                        Span(sid, name, start, self._clock(), threading.get_ident(), None, False)
                    )

            return traced_coroutine

        sizes = self.sizes.setdefault(name, []) if size_of is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(name, token)
            if sizes is not None:
                sizes.append(size_of(result))
            return result

        return traced

    def install(self, points: Iterable[WrapPoint], size_of: Optional[Dict[str, Callable]] = None) -> List[str]:
        """Wrap every point; returns the points that no longer exist."""
        size_of = size_of or {}
        missing: List[str] = []
        for point in points:
            module_name, _, class_name = point.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = getattr(owner, point.attr)
            except (ImportError, AttributeError):
                missing.append(f"{point.target}.{point.attr}")
                continue
            own = isinstance(owner, type) and point.attr in vars(owner)
            if isinstance(original, types.ModuleType):
                # A module the callers reach through an attribute (the
                # serve protocol's ``json``): shim it with traced functions.
                shim = types.SimpleNamespace(**vars(original))
                for func, span in _MODULE_SHIMS.get(point.attr, {}).items():
                    setattr(shim, func, self.wrap(getattr(original, func), f"{point.span}{span}"))
                replacement = shim
            else:
                replacement = self.wrap(original, point.span, size_of.get(point.span))
            self._patches.append((owner, point.attr, original, own or not isinstance(owner, type)))
            setattr(owner, point.attr, replacement)
        return missing

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original, restore = self._patches.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def clear(self) -> None:
        self.spans = []
        self.sizes = {name: [] for name in self.sizes}


#: Functions replaced inside a shimmed module, with the suffix added to the
#: wrap point's span name.  ``json.loads`` parses requests and
#: ``json.dumps`` serialises responses in the server process.
_MODULE_SHIMS: Dict[str, Dict[str, str]] = {"json": {"loads": ".decode", "dumps": ".encode"}}


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def adopt(spans: Sequence[Span], adopters: Iterable[str]) -> Dict[int, Optional[int]]:
    """Parent of every span: its stack parent, else the innermost adopter
    span on another thread whose interval contains it."""
    adopter_names = set(adopters)
    candidates = sorted(
        (span for span in spans if span.name in adopter_names), key=lambda span: span.start
    )
    starts = [span.start for span in candidates]
    parents: Dict[int, Optional[int]] = {}
    for span in spans:
        if span.parent is not None:
            parents[span.sid] = span.parent
            continue
        parent = None
        position = bisect.bisect_right(starts, span.start) - 1
        while position >= 0:
            candidate = candidates[position]
            if (
                candidate.thread != span.thread
                and candidate.sid != span.sid
                and candidate.end >= span.end
            ):
                parent = candidate.sid
                break
            position -= 1
        parents[span.sid] = parent
    return parents


def self_times(
    spans: Sequence[Span], parents: Dict[int, Optional[int]], *, same_thread: bool = False
) -> Dict[int, float]:
    """Duration minus the union of the children's intervals, per span.

    With ``same_thread`` only children on the span's own thread count.
    """
    by_id = {span.sid: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent_id = parents.get(span.sid)
        parent = by_id.get(parent_id) if parent_id is not None else None
        if parent is None or (same_thread and parent.thread != span.thread):
            continue
        children.setdefault(parent.sid, []).append(
            (max(span.start, parent.start), min(span.end, parent.end))
        )
    return {
        span.sid: span.duration - union_length(children.get(span.sid, ()))
        for span in spans
    }


def addup_error(spans: Sequence[Span], root: Span) -> float:
    """|Σ thread-local self time on the root's thread − root duration| / duration.

    Covers the root and every nested span on its thread inside it.
    """
    on_thread = [
        span
        for span in spans
        if span.thread == root.thread
        and span.nested
        and span.start >= root.start
        and span.end <= root.end
    ]
    if root not in on_thread:
        on_thread.append(root)
    local = self_times(on_thread, {span.sid: span.parent for span in on_thread}, same_thread=True)
    total = sum(local.values())
    return abs(total - root.duration) / root.duration if root.duration > 0 else 0.0


class LayerTotals(NamedTuple):
    calls: int
    busy_s: float
    self_s: float


def layer_totals(
    spans: Sequence[Span], adopters: Iterable[str], window: Optional[Tuple[float, float]] = None
) -> Dict[str, LayerTotals]:
    """Calls, busy time (Σ duration) and self time per span name.

    With ``window`` only spans that start inside it count (children are
    still subtracted from their parents either way).
    """
    parents = adopt(spans, adopters)
    own = self_times(spans, parents)
    totals: Dict[str, List[float]] = {}
    for span in spans:
        if window is not None and not window[0] <= span.start <= window[1]:
            continue
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += own[span.sid]
    return {name: LayerTotals(int(c), b, s) for name, (c, b, s) in totals.items()}


def covered_share(spans: Sequence[Span], name: str, window: Tuple[float, float]) -> float:
    """Share of ``window`` during which at least one ``name`` span ran."""
    start, end = window
    clipped = [
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.name == name and span.end > start and span.start < end
    ]
    return union_length(clipped) / (end - start) if end > start else 0.0
