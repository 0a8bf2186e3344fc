"""The in-process workloads ``table3`` and ``ladder``, and the
:class:`Run` every workload (``serve_warm.py`` too) reports into.

A workload is a function ``(Run) -> None`` that fills ``run.metrics``
(the end-to-end measurements, or with ``run.trace`` the per-layer ones)
and counts operations in ``run.attempted`` / ``run.failed``.  It drives
the public API (``repro.api``, ``repro.client``) from this one process,
with at most two threads and two connections; only ``setup_s`` is timed
in fresh interpreters.

Inputs come only from ``run.seed``: the order of the Table 3 cells, the
interleaving of the ladder rungs and the served request stream.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from refkernel import Normalizer
from stats import golden_diff, golden_stats, spread
from tracer import Tracer, traced

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPS = 7
#: cells per sweep call in the cold pass
COLD_CHUNK = 4
#: warm passes timed together as one ``table3_warm_s`` sample
WARM_BATCH = 10
#: minimum warm samples, even when the cold pass used the whole window
MIN_WARM_SAMPLES = 5
#: warm passes in the traced run
TRACE_WARM_PASSES = 20
#: minimum ladder rounds, even when the window is shorter
MIN_ROUNDS = 3


class Run:
    """One benchmark invocation: settings, counters, findings, results."""

    def __init__(self, seed: int, seconds: float, trace: bool, work: Path,
                 out: Path, golden: Dict[str, Dict[str, object]]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.out = out
        self.golden = golden
        self.norm = Normalizer()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.diagnostics: Dict[str, object] = {}

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def check_golden(self, results: Dict[str, object]) -> None:
        """Golden statistics must match exactly; each mismatching
        scenario is one failed operation."""
        actual = {key: golden_stats(r) for key, r in results.items()}
        problems = golden_diff(self.golden, actual)
        bad = {line.split(":", 1)[0] for line in problems}
        for line in problems:
            self.problems.append("golden " + line)
        self.failed += len(bad)

    def timed_setup(self, workload: str) -> None:
        """``setup_s``: the median normalized time, over
        :data:`SETUP_REPS` fresh interpreters, to import ``repro`` and
        build the workload's inputs -- so work a change moves into import
        time or input construction shows."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        command = [sys.executable, "-c",
                   f"from workloads import build_inputs; "
                   f"build_inputs({workload!r}, {self.seed})"]
        normalized, raw = [], []
        for _ in range(SETUP_REPS):
            n, r, _ = self.norm.measure(lambda: subprocess.run(
                command, cwd=self.work, env=env, check=True,
                stdout=subprocess.DEVNULL))
            normalized.append(n)
            raw.append(r)
        self.metrics["setup_s"] = statistics.median(normalized)
        self.diagnostics["bench.raw.setup_s"] = statistics.median(raw)

    def finish(self) -> None:
        """Host-speed diagnostics, shared by every workload."""
        refs = self.norm.ref_times
        self.diagnostics["bench.ref_s"] = statistics.median(refs) if refs else 0.0
        self.diagnostics["bench.ref_spread"] = spread(refs)


def document_bytes(result: object) -> bytes:
    """The result's ``repro.api.result/v1`` document, canonically encoded."""
    return json.dumps(result.to_document(), sort_keys=True,
                      allow_nan=False).encode("utf-8")


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, factor: float) -> Dict[str, float]:
    """The per-layer metrics a traced in-process run produced; times are
    scaled by ``factor`` into normalized seconds."""
    t, s, c = tracer.total, tracer.self_time, tracer.counts
    simcore_s = t["simcore.run"]
    return {
        "api.build_s": t["api.build"] * factor,
        "api.digest_s": t["api.digest"] * factor,
        "api.digest_calls": tracer.calls["api.digest"],
        "api.summarize_s": t["api.summarize"] * factor,
        "core.run_self_s": s["core.run"] * factor,
        "core.plan_s": t["core.plan"] * factor,
        "simcore.run_self_s": s["simcore.run"] * factor,
        "simcore.events": tracer.events,
        "simcore.events_per_s": (tracer.events / (simcore_s * factor)
                                 if simcore_s else 0.0),
        "simcore.trace_record_s": t["simcore.trace_record"] * factor,
        "simcore.resource_acquires": c["simcore.resource_acquires"],
        "collectives.sends": c["collectives.sends"],
        "collectives.recvs": c["collectives.recvs"],
        "collectives.channel_s": t["collectives.run_op"] * factor,
        "collectives.ops": c["collectives.ops"],
        "network.step_price_s": t["network.step_price"] * factor,
        "network.step_price_calls": tracer.calls["network.step_price"],
        "network.p2p_price_calls": c["network.p2p_price_calls"],
        "network.transport_calls": c["network.transport_calls"],
        "obs.attribution_s": t["obs.attribution"] * factor,
        "validate.fingerprint_s": t["validate.fingerprint"] * factor,
        "exec.cache_get_s": t["exec.cache_get"] * factor,
        "exec.cache_hits": tracer.cache_hits,
        "exec.cache_misses": tracer.cache_misses,
        "exec.cache_put_s": t["exec.cache_put"] * factor,
        "exec.sweep_self_s": s["exec.sweep"] * factor,
    }


def traced_section(run: Run, name: str, work: Callable[[], object]):
    """Run ``work`` with the layer wrappers installed, between reference
    measurements.  Returns ``(normalized_s, work's result)`` and writes
    the kept spans under ``run.out``."""
    tracer = Tracer()

    def traced_work():
        with traced(tracer):
            return work()

    normalized, raw, result = run.norm.measure(traced_work)
    run.metrics.update(layer_metrics(tracer, normalized / raw))
    tracer.write(run.out / f"spans-{name}-seed{run.seed}.jsonl")
    return normalized, result


# ---------------------------------------------------------------------- #
# table3
# ---------------------------------------------------------------------- #


def _table3_cells(seed: int) -> List[object]:
    from repro.bench.benchfile import table3_scenarios

    cells = [dataclasses.replace(s, trace_enabled=True)
             for s in table3_scenarios()]
    random.Random(seed).shuffle(cells)
    return cells


def _paper_err(cells: Sequence[object], results: Sequence[object]) -> float:
    """Mean |relative TFLOPS error| against the paper's Table 3."""
    from repro.bench.paper_data import TABLE3
    from repro.bench.runner import ENV_ALIASES

    display = {short: name for name, short in ENV_ALIASES.items()}
    errors = []
    for cell, result in zip(cells, results):
        group = int(cell.label.split(":", 1)[0][1:])
        paper = TABLE3[(group, cell.nodes, display[cell.env])][0]
        errors.append(abs(result.tflops - paper) / paper)
    return sum(errors) / len(errors)


def _check_docs(run: Run, what: str, results: Sequence[object],
                expected: Sequence[bytes]) -> None:
    for result, want in zip(results, expected):
        if result is None or document_bytes(result) != want:
            label = getattr(result, "scenario", "?")
            run.fail(1, f"{what} document differs from the local run: {label}")


def table3(run: Run) -> None:
    import repro.api as api
    from repro.exec.cache import ResultCache

    run.timed_setup("table3")
    cells = build_inputs("table3", run.seed)
    n = len(cells)

    # the local reference documents, in the canonical cell order and
    # before anything else holds memory, so the process's peak RSS is the
    # cells' own and does not depend on the seed
    canonical = sorted(cells, key=lambda c: c.label)
    local = {c.label: api.run(c) for c in canonical}
    if not run.trace:
        run.metrics["peak_rss_mb"] = peak_rss_mb()
    chunks = [cells[i:i + COLD_CHUNK] for i in range(0, n, COLD_CHUNK)]

    def sweep(batch, cache):
        return lambda: api.sweep(batch, jobs=1, cache=cache)

    def warm(cache: ResultCache, passes: int):
        return lambda: [api.sweep(cells, jobs=1, cache=cache)
                        for _ in range(passes)]

    # the cold pass: every cell once into an empty cache, in chunks so
    # each chunk is normalized by the host speed around it
    deadline = time.perf_counter() + run.seconds
    cache = ResultCache(run.work / "table3-cache")
    series = run.norm.series()
    cold_norm = cold_raw = 0.0
    cold_results: List[object] = []
    for chunk in chunks:
        norm, raw, results = series.sample(sweep(chunk, cache))
        cold_norm += norm
        cold_raw += raw
        cold_results.extend(results)
    run.attempted += n
    run.diagnostics["bench.raw.table3_cold_s"] = cold_raw

    warm_norm: List[float] = []
    warm_raw: List[float] = []
    warm_results: List[List[object]] = []
    if run.trace:
        norm, raw, passes = series.sample(warm(cache, TRACE_WARM_PASSES))
        untraced = cold_norm + norm
        warm_results.extend(passes)
        run.attempted += n * TRACE_WARM_PASSES
        run.diagnostics["bench.raw.table3_warm_s"] = raw / TRACE_WARM_PASSES
        traced_cache = ResultCache(run.work / "table3-traced-cache")

        def traced_work():
            cold = [r for chunk in chunks for r in sweep(chunk, traced_cache)()]
            return cold, warm(traced_cache, TRACE_WARM_PASSES)()

        traced_s, (traced_cold, traced_warm) = traced_section(
            run, "table3", traced_work)
        run.attempted += n * (1 + TRACE_WARM_PASSES)
        run.metrics["simcore.spans"] = sum(r.num_spans for r in traced_cold)
        run.metrics["bench.trace_overhead"] = traced_s - untraced
        cold_bytes = [document_bytes(r) for r in cold_results]
        _check_docs(run, "traced cold", traced_cold, cold_bytes)
        for results in traced_warm:
            _check_docs(run, "traced warm", results, cold_bytes)
    else:
        while (len(warm_norm) < MIN_WARM_SAMPLES
               or time.perf_counter() < deadline):
            norm, raw, passes = series.sample(warm(cache, WARM_BATCH))
            warm_norm.append(norm / WARM_BATCH)
            warm_raw.append(raw / WARM_BATCH)
            warm_results.extend(passes)
            run.attempted += n * WARM_BATCH
        run.metrics["table3_cold_s"] = cold_norm
        run.metrics["table3_warm_s"] = statistics.median(warm_norm)
        run.diagnostics["bench.raw.table3_warm_s"] = statistics.median(warm_raw)
        run.diagnostics["samples.table3_warm_s"] = len(warm_norm)

    # correctness, outside every timed region
    local_results = [local[c.label] for c in cells]
    local_bytes = [document_bytes(r) for r in local_results]
    run.check_golden({f"table3/{label}": r for label, r in local.items()})
    _check_docs(run, "cold", cold_results, local_bytes)
    for results in warm_results:
        _check_docs(run, "warm", results, local_bytes)
    run.diagnostics["table3.paper_err"] = _paper_err(cells, local_results)


# ---------------------------------------------------------------------- #
# ladder
# ---------------------------------------------------------------------- #

#: (metric, nodes of 8 GPUs, fidelity tier, runs per round): the gated
#: rungs run more often; the 256-GPU rung alone takes about half a round
RUNGS = (("ladder_128_s", 16, "executed", 4),
         ("ladder_256_s", 32, "executed", 1),
         ("ladder_512_auto_s", 64, "auto", 4))


def _ladder_scenarios() -> Dict[str, object]:
    from repro.api import Scenario
    from repro.bench.paramgroups import PARAM_GROUPS

    model = PARAM_GROUPS[1].model
    return {
        metric: Scenario(
            env="ib", nodes=nodes, num_layers=model.num_layers,
            hidden_size=model.hidden_size,
            num_attention_heads=model.num_attention_heads,
            seq_length=model.seq_length, vocab_size=model.vocab_size,
            tensor=1, pipeline=2, micro_batch_size=4, num_microbatches=4,
            trace_enabled=False, fidelity=fidelity,
            label=f"ladder:{nodes * 8}:{fidelity}")
        for metric, nodes, fidelity, _ in RUNGS
    }


def ladder(run: Run) -> None:
    import repro.api as api

    run.timed_setup("ladder")
    scenarios = build_inputs("ladder", run.seed)
    rng = random.Random(run.seed)
    order = [metric for metric, _, _, _ in RUNGS]
    schedule = [metric for metric, _, _, per_round in RUNGS
                for _ in range(per_round)]
    samples: Dict[str, List[float]] = {m: [] for m in order}
    raws: Dict[str, List[float]] = {m: [] for m in order}
    results: Dict[str, List[object]] = {m: [] for m in order}

    series = run.norm.series()

    def one_round() -> None:
        rng.shuffle(schedule)
        for metric in schedule:
            norm, raw, result = series.sample(
                lambda: api.run(scenarios[metric]))
            samples[metric].append(norm)
            raws[metric].append(raw)
            results[metric].append(result)
            run.attempted += 1

    deadline = time.perf_counter() + run.seconds
    rounds = 0
    if run.trace:
        one_round()
        untraced = sum(samples[m][-1] for m in order)
        run.metrics["bench.ladder_256_s"] = samples["ladder_256_s"][-1]

        def traced_round() -> List[object]:
            return [api.run(scenarios[m]) for m in order]

        traced_s, traced_results = traced_section(
            run, "ladder", traced_round)
        run.attempted += len(order)
        run.metrics["simcore.spans"] = sum(r.num_spans for r in traced_results)
        run.metrics["bench.trace_overhead"] = traced_s - untraced
        for metric, result in zip(order, traced_results):
            results[metric].append(result)
    else:
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            one_round()
            rounds += 1
        for metric in order:
            run.metrics[metric] = statistics.median(samples[metric])
            run.diagnostics[f"samples.{metric}"] = len(samples[metric])
        run.metrics["peak_rss_mb"] = peak_rss_mb()
    for metric in order:
        run.diagnostics[f"bench.raw.{metric}"] = statistics.median(raws[metric])

    # correctness: golden statistics of the first result per rung, and
    # every repeat byte-identical to it
    run.check_golden({f"ladder/{scenarios[m].label}": results[m][0]
                      for m in order})
    for metric in order:
        first = document_bytes(results[metric][0])
        for result in results[metric][1:]:
            if document_bytes(result) != first:
                run.fail(1, f"{metric}: repeated run differs")


def build_inputs(workload: str, seed: int):
    """The in-process inputs of ``workload`` (what ``setup_s`` times)."""
    if workload == "table3":
        return _table3_cells(seed)
    return _ladder_scenarios()
