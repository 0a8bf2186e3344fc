"""Host-speed reference kernel and the normalizer built on it.

Host speed drifts between processes (and within one) by more than the
bounds the benchmark gates on, so every CPU-bound timing made in the
benchmark process is reported in *normalized seconds*::

    normalized = wall * NOMINAL_S / r

where ``r`` is the mean time of the reference kernel measured just
before and just after the sample.  The kernel is shaped like the
simulator's discrete-event hot path (see :class:`ReferenceKernel`), so it
slows down and speeds up with the same host effects the simulator feels.

This module imports nothing from ``repro``: a change to the program must
never change the yardstick it is measured with.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Callable, List, Optional, Tuple, TypeVar

#: nominal kernel time in seconds: a normalized timing reads as the wall
#: time on a host where one kernel call takes exactly this long
NOMINAL_S = 0.010

#: kernel loop count, sized so one call takes about NOMINAL_S on an idle
#: 2-vCPU x86 cloud host running CPython 3.11
KERNEL_ITERATIONS = 4500

#: entries in the kernel's pointer-chasing table (about 11 MB of objects,
#: well beyond the caches, like the simulator's own object graph)
TABLE_SIZE = 300_000

T = TypeVar("T")


class _Event:
    __slots__ = ("when", "owner", "value")

    def __init__(self, when: float, owner: int, value: int) -> None:
        self.when = when
        self.owner = owner
        self.value = value


def _process(table: dict, owner: int):
    """A tiny process body: resumed with events, folds them into a dict."""
    total = 0
    while True:
        event = yield total
        key = (owner, event.value & 15)
        total += table.get(key, 0) + event.value
        table[key] = total & 0xFFFF


class ReferenceKernel:
    """A fixed, deterministic workload shaped like the simulator's hot
    path: ``heapq`` push/pop of tuples, dict lookups, small-object
    allocation, generator resumption, and pointer chasing through a table
    larger than the CPU caches.  The memory-bound part matters: on a
    shared host, contention slows cache-missing code less than
    cache-resident code, and the simulator misses the cache a lot."""

    def __init__(self, iterations: int = KERNEL_ITERATIONS,
                 table_size: int = TABLE_SIZE) -> None:
        self.iterations = iterations
        self.links = [(i * 2654435761) % 1000003 for i in range(table_size)]

    def __call__(self) -> int:
        """Run once; returns a checksum so the work cannot be skipped."""
        table: dict = {}
        procs = [_process(table, owner) for owner in range(8)]
        for proc in procs:
            next(proc)
        links = self.links
        size = len(links)
        queue: List[Tuple[float, int, _Event]] = []
        seq = 0
        hop = 0
        checksum = 0
        for i in range(self.iterations):
            when = (i * 7919 % 1031) * 1e-3
            heapq.heappush(queue, (when, seq, _Event(when, i & 7, i)))
            seq += 1
            for _ in range(8):
                hop = links[hop % size]
            checksum ^= hop
            if len(queue) > 512:
                _, _, event = heapq.heappop(queue)
                checksum ^= procs[event.owner].send(event)
        while queue:
            _, _, event = heapq.heappop(queue)
            checksum ^= procs[event.owner].send(event)
        return checksum


class Normalizer:
    """Times samples between reference-kernel runs and converts them to
    normalized seconds; keeps every reference time for the diagnostics."""

    def __init__(self, kernel: Optional[Callable[[], object]] = None,
                 nominal: float = NOMINAL_S, reps: int = 5,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.kernel = kernel if kernel is not None else ReferenceKernel()
        self.nominal = nominal
        self.reps = reps
        self.clock = clock
        self.ref_times: List[float] = []

    def reference(self) -> float:
        """Median of ``reps`` kernel calls (each one is also kept).

        The cyclic garbage collector is paused meanwhile: the kernel makes
        no cycles, and a collection would scan the whole heap, tying the
        yardstick to how much the measured program happens to hold."""
        times = []
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.reps):
                start = self.clock()
                self.kernel()
                times.append(self.clock() - start)
        finally:
            if was_enabled:
                gc.enable()
        self.ref_times.extend(times)
        return statistics.median(times)

    def normalize(self, raw: float, before: float, after: float) -> float:
        """``raw`` seconds as normalized seconds, given the reference times
        measured just before and just after the sample."""
        return raw * self.nominal / ((before + after) / 2.0)

    def measure(self, fn: Callable[[], T]) -> Tuple[float, float, T]:
        """Run ``fn`` once between reference measurements; returns
        ``(normalized_s, raw_s, fn's result)``."""
        return self.series().sample(fn)

    def series(self) -> "Series":
        """Back-to-back samples that share the reference between them."""
        return Series(self)


class Series:
    """Samples taken back to back: reference, sample, reference, sample,
    reference ...  Each sample is normalized by the references on either
    side of it, so host speed is tracked at the granularity of one sample
    and each reference serves two samples."""

    def __init__(self, normalizer: Normalizer) -> None:
        self.normalizer = normalizer
        self.before = normalizer.reference()

    def sample(self, fn: Callable[[], T]) -> Tuple[float, float, T]:
        """Run ``fn``; returns ``(normalized_s, raw_s, fn's result)``.

        A full collection first gives every sample the same garbage
        collector state, instead of billing one sample for the garbage
        the previous ones left."""
        norm = self.normalizer
        gc.collect()
        start = norm.clock()
        result = fn()
        raw = norm.clock() - start
        after = norm.reference()
        normalized = norm.normalize(raw, self.before, after)
        self.before = after
        return normalized, raw, result
