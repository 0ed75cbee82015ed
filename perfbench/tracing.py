"""Per-layer tracing for the benchmark, installed from outside the program.

A :class:`Tracer` wraps the functions that form each layer's boundary
(protocol transition and absorb, engine legality and goal checks, the
delivery model, the live node's send/marker-wait/query handlers and the
wire codec), accumulates time and counts while installed, and puts every
original back on :meth:`Tracer.restore`.  Nothing in ``src/`` knows it is
being traced.

Synchronous spans nest on a stack, so a span's *self* time excludes the
wrapped calls made inside it.  Coroutine spans interleave with other
tasks on the event loop, so they are recorded as inclusive wall time and
kept off the stack.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import repro.live.loadgen
import repro.live.node
from repro.live.node import LiveNodeRuntime
from repro.sim.engine import SynchronousEngine
from repro.sim.transport import DeliveryModel

#: Frame kinds the wire counters split out; every other frame a client
#: sends is a service-plane query.
ROUND_FRAMES = ("hello", "ptrs", "eor")
QUERY_FRAMES = ("census", "succ", "known", "status", "shutdown")


class Tracer:
    """Accumulates per-layer time and counts while its wrappers are installed."""

    def __init__(self) -> None:
        #: Inclusive seconds per span name.
        self.total: Dict[str, float] = defaultdict(float)
        #: Seconds per span name minus the wrapped calls made inside it.
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- installation -------------------------------------------------------------

    def install(self, node_class: type) -> "Tracer":
        """Wrap every traced boundary; *node_class* is the protocol's class."""
        self._patch(node_class, "run_round", self._timed("run_round"))
        self._patch(node_class, "absorb", self._timed("absorb"))
        self._patch(SynchronousEngine, "_check_legality", self._timed("legality"))
        self._patch(SynchronousEngine, "_check_legality_fast", self._timed("legality"))
        self._patch(SynchronousEngine, "_resolve_goal", self._timed_goal)
        self._patch(DeliveryModel, "submit", self._timed("submit"))
        self._patch(DeliveryModel, "submit_bulk", self._timed("submit"))
        self._patch(DeliveryModel, "pending", self._timed("transport_deliver"))
        self._patch(DeliveryModel, "deliver", self._timed_generator("transport_deliver"))
        self._patch(LiveNodeRuntime, "_send", self._timed_async("send"))
        self._patch(LiveNodeRuntime, "_wait_for_markers", self._timed_async("marker_wait"))
        self._patch(LiveNodeRuntime, "_answer_query", self._timed("query"))
        # The live modules import the codec by name, so it is wrapped at
        # each lookup site rather than in ``repro.live.wire``.
        for module in (repro.live.node, repro.live.loadgen):
            self._patch(module, "encode_frame", self._counted_encode)
            # Reading a frame includes idle socket wait: count, never time.
            self._patch(module, "read_frame", self._counted_read)
        return self

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patches:
            owner, name, original, owned = self._patches.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        owned = name in vars(owner)
        original = vars(owner)[name] if owned else getattr(owner, name)
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original, owned))

    # -- span recording -----------------------------------------------------------

    def _open(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, key: str, start: float) -> None:
        elapsed = perf_counter() - start
        children = self._stack.pop()
        self.total[key] += elapsed
        self.self_time[key] += elapsed - children
        self.calls[key] += 1
        if self._stack:
            self._stack[-1] += elapsed

    def _timed(self, key: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = self._open()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(key, start)

            return wrapper

        return make

    def _timed_generator(self, key: str) -> Callable[[Callable], Callable]:
        """Time only the steps inside a generator, not its consumer's loop body."""

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = original(*args, **kwargs)
                while True:
                    start = self._open()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self._close(key, start)
                    yield item

            return wrapper

        return make

    def _timed_async(self, key: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = perf_counter()
                try:
                    return await original(*args, **kwargs)
                finally:
                    self.total[key] += perf_counter() - start
                    self.calls[key] += 1

            return wrapper

        return make

    def _timed_goal(self, original: Callable) -> Callable:
        timed = self._timed("goal")

        @functools.wraps(original)
        def resolve(engine: Any, goal: Any) -> Callable:
            return timed(original(engine, goal))

        return resolve

    def _counted_encode(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def encode(payload: Any) -> bytes:
            start = self._open()
            try:
                data = original(payload)
            finally:
                self._close("encode", start)
            kind = payload.get("t")
            if kind in ROUND_FRAMES:
                self.counts["frames_" + kind] += 1
            elif kind in QUERY_FRAMES:
                self.counts["frames_query"] += 1
            self.counts["bytes_out"] += len(data)
            return data

        return encode

    def _counted_read(self, original: Callable) -> Callable:
        @functools.wraps(original)
        async def read(reader: Any) -> Any:
            frame = await original(reader)
            if frame is not None:
                self.counts["frames_in"] += 1
            return frame

        return read
