"""The traced run: wrappers around each layer's public functions.

Nothing inside the program changes.  Inside ``with traced(tracer):`` each
traced function is replaced *where its caller binds it*
(``repro.collectives.executor.send``,
``repro.core.engine.attribute_iteration``, class attributes for methods)
by a wrapper that reports to the :class:`Tracer`; the originals are put
back on the way out.  Tracing is strictly an observer: the benchmark
checks that simulated statistics and documents are identical with the
wrappers in place and without.

Three kinds of boundary are recorded:

- **spans** -- coarse, per-call layer boundaries (``api.build``,
  ``core.run``, ``simcore.run`` ...).  Each is kept in memory as
  ``(id, name, start, end, parent id, request id)`` and written out when
  the benchmark ends.
- **frames** -- hot boundaries called tens of thousands of times per run
  (trace recording, step pricing, collective-program resumptions).  They
  are timed and nest like spans, so they count toward their parent's
  child time, but only their totals are kept.
- **counts** -- call counts of the hottest functions (``send``, ``recv``,
  ``Fabric.transport``, ``Resource.acquire``).

A boundary's self time is its duration minus the durations of the
boundaries opened directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

Span = Tuple[int, str, float, float, int, str]


class Tracer:
    """In-memory span store with running inclusive and self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.request = ""
        self.spans: List[Span] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.events = 0
        self.cache_hits = 0
        self.cache_misses = 0
        # open boundaries: [name, start, child_time, span_id (0 = frame)]
        self._stack: List[list] = []
        self._next_id = 1

    def enter(self, name: str, keep: bool = False) -> list:
        span_id = 0
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, self.clock(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"trace boundary {frame[0]!r} closed out of order "
                f"(innermost open is {popped[0]!r})")
        name, start, child_time, span_id = frame
        duration = end - start
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        self.total[name] += duration
        self.self_time[name] += duration - child_time
        self.calls[name] += 1
        if span_id:
            self.spans.append(
                (span_id, name, start, end, parent_id, self.request))

    def drive(self, generator: Iterator, name: str) -> Iterator:
        """Proxy a process-body generator, timing each resumption as one
        frame (the simulator only ever ``send``\\ s into its processes)."""
        value = None
        while True:
            frame = self.enter(name)
            try:
                item = generator.send(value)
            except StopIteration as stop:
                self.exit(frame)
                return stop.value
            except BaseException:
                self.exit(frame)
                raise
            self.exit(frame)
            value = yield item

    def write(self, path: Path) -> None:
        """Write every kept span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request}) + "\n")


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #


def _timed(tracer: Tracer, fn: Callable, name: str, keep: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, keep)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
    return wrapper


def _counted(tracer: Tracer, fn: Callable, name: str) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _engine_run(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = self.steps
        frame = tracer.enter("simcore.run", True)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.exit(frame)
            tracer.events += self.steps - before
    return wrapper


def _run_op(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts["collectives.ops"] += 1
        return tracer.drive(fn(*args, **kwargs), "collectives.run_op")
    return wrapper


def _cache_get(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter("exec.cache_get", True)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if result is None:
            tracer.cache_misses += 1
        else:
            tracer.cache_hits += 1
        return result
    return wrapper


def _targets() -> List[Tuple[object, str, Callable[[Tracer, Callable], Callable]]]:
    """``(owner, attribute, make_wrapper)`` for every traced binding."""
    import repro.api
    import repro.collectives.executor
    import repro.core.engine
    import repro.exec
    import repro.exec.cache
    import repro.validate.replay
    from repro.collectives.executor import CollectiveExecutor
    from repro.core.engine import TrainingSimulation
    from repro.core.scheduler import HolmesScheduler
    from repro.exec.cache import ResultCache
    from repro.network.fabric import Fabric
    from repro.simcore.engine import SimEngine
    from repro.simcore.resource import Resource
    from repro.simcore.trace import TraceRecorder

    def span(name):
        return lambda t, fn: _timed(t, fn, name, True)

    def frame(name):
        return lambda t, fn: _timed(t, fn, name, False)

    def count(name):
        return lambda t, fn: _counted(t, fn, name)

    return [
        # api
        (repro.api, "build", span("api.build")),
        (repro.api, "summarize", span("api.summarize")),
        (repro.api.Scenario, "digest", frame("api.digest")),
        (repro.exec.cache, "scenario_digest", frame("api.digest")),
        # core
        (TrainingSimulation, "run", span("core.run")),
        (HolmesScheduler, "plan", span("core.plan")),
        # simcore
        (SimEngine, "run", _engine_run),
        (TraceRecorder, "record", frame("simcore.trace_record")),
        (Resource, "acquire", count("simcore.resource_acquires")),
        # collectives: both binding sites of the p2p generator bodies
        (repro.collectives.executor, "send", count("collectives.sends")),
        (repro.core.engine, "send", count("collectives.sends")),
        (repro.collectives.executor, "recv", count("collectives.recvs")),
        (repro.core.engine, "recv", count("collectives.recvs")),
        (CollectiveExecutor, "run_op", _run_op),
        # network
        (Fabric, "collective_step_time", frame("network.step_price")),
        (Fabric, "collective_step_occupancy", frame("network.step_price")),
        (Fabric, "p2p_time", count("network.p2p_price_calls")),
        (Fabric, "p2p_occupancy", count("network.p2p_price_calls")),
        (Fabric, "transport", count("network.transport_calls")),
        # obs / validate
        (repro.core.engine, "attribute_iteration", span("obs.attribution")),
        (repro.validate.replay, "fingerprint", span("validate.fingerprint")),
        # exec
        (repro.exec, "run_sweep", span("exec.sweep")),
        (ResultCache, "get", _cache_get),
        (ResultCache, "put", span("exec.cache_put")),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """``with traced(tracer):`` -- every traced binding is wrapped inside
    and restored on the way out."""
    saved = []
    try:
        for owner, attr, make in _targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, make(tracer, original))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
