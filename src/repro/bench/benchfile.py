"""``BENCH_<date>.json``: measured simulator performance, committed and gated.

:func:`collect_bench` produces one self-contained document per run:

- **microbenchmarks** — the :mod:`repro.exec.microbench` suite, each with
  raw ns/op and a machine-normalized ratio.
- **sweep timings** — the Table 3 cell grid executed three ways through
  :func:`repro.api.sweep`: serial (``jobs=1``), parallel (``jobs=N``), and
  warm-cache; with the digest-equality verdict that proves all three
  returned byte-identical results.
- **cases** — the calibrated Table 1 trio (InfiniBand / RoCE / Ethernet,
  4 nodes, parameter group 1, paper §4.2), each with its headline TFLOPS
  and a schema-validated :mod:`repro.obs` profile report.
- **fidelity / plan / serve** — the ``auto``-tier speedup on a
  contention-free grid, the planner's discovered-vs-preset ratio, and
  the warm-cache serving overhead.

:func:`check_bench` is the CI gate: one :class:`Verdict` per gate against
a committed reference (``results/bench_reference.json``).  Timings are
compared in calibration-normalized units (default tolerance 10%), so the
gate tracks the simulator's code, not the CI runner's hardware
generation; the other bounds are the module constants below and hold
whatever the reference contains.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario
from repro.exec.microbench import check_regression, run_microbenches

#: document schema tag
SCHEMA = "repro.bench/v1"

#: the Table 1 calibration point: one NIC family per case (paper §4.2)
CASE_ENVS = ("ib", "roce", "ethernet")
CASE_NODES = 4
CASE_GROUP = 1

#: allowed relative drift of a case's headline TFLOPS from the reference
TFLOPS_TOLERANCE = 0.02
#: floor on the ``auto``-tier speedup: a healthy analytic fast path clears
#: it with 2-3x of margin, so a miss means the fast path stopped engaging
MIN_SPEEDUP = 10.0
#: floor on discovered-vs-preset TFLOPS: the planner confirms every preset
#: baseline alongside its searched layouts, so >= 1.0 is structural
MIN_DISCOVERED_VS_PRESET = 1.0
#: ceiling on warm-cache serving overhead (wire + queue + dispatch,
#: typically tens of milliseconds): catches a cache bypass or an
#: event-loop regression, not runner jitter
MAX_OVERHEAD_MS = 250.0

#: the Table 3 grid: parameter groups x node counts x NIC environments
TABLE3_GROUPS = (1, 2, 3, 4)
TABLE3_NODES = (4, 6, 8)
TABLE3_ENVS = ("InfiniBand", "RoCE", "Ethernet", "Hybrid")


def table3_scenarios(fast: bool = False) -> List[object]:
    """The Table 3 sweep as scenarios (48 cells; ``fast`` trims to the
    4-cell group-1/4-node row for quick CI gates)."""
    groups: Sequence[int] = (1,) if fast else TABLE3_GROUPS
    nodes: Sequence[int] = (4,) if fast else TABLE3_NODES
    return [
        case_scenario(env, n, PARAM_GROUPS[gid])
        for gid in groups
        for n in nodes
        for env in TABLE3_ENVS
    ]


def _timed_sweep(scenarios, jobs, cache=None, timeout=None, resume=False,
                 journal=None, progress=False, textfile=None):
    from repro.api import sweep

    t0 = time.perf_counter()
    results = sweep(
        scenarios, jobs=jobs, cache=cache,
        timeout=timeout, resume=resume, journal=journal,
        progress=progress, textfile=textfile,
    )
    return time.perf_counter() - t0, results


def _bench_journal_root():
    from repro.exec.cache import default_cache_dir

    return default_cache_dir() / "bench-journal"


def _table1_cases() -> Dict[str, object]:
    """Headline TFLOPS of the calibrated Table 1 trio, each case with its
    profile report (built and schema-validated, as ``repro profile`` does)."""
    from repro.bench.runner import HOLMES_BASE
    from repro.frameworks.base import simulate_framework
    from repro.hardware.presets import GPUS_PER_NODE
    from repro.obs.report import build_report, validate_report
    from repro.validate.scenarios import ENV_BUILDERS

    group = PARAM_GROUPS[CASE_GROUP]
    cases: Dict[str, object] = {}
    for name in CASE_ENVS:
        topology = ENV_BUILDERS[name](CASE_NODES, GPUS_PER_NODE)
        result = simulate_framework(
            HOLMES_BASE, topology, group.parallel_for(topology.world_size),
            group.model, trace_enabled=True,
        )
        report = build_report(result, scenario={
            "env": name,
            "nodes": CASE_NODES,
            "group": CASE_GROUP,
            "world_size": topology.world_size,
        })
        validate_report(report)
        cases[name] = {
            "tflops_per_gpu": result.tflops,
            "throughput_samples_per_s": result.throughput,
            "iteration_seconds": result.iteration_time,
            "report": report,
        }
    return cases


def _fidelity_point() -> Dict[str, object]:
    """Wall-time a contention-free Table-3-style grid (t=1, p=1, so no
    pipeline p2p shares a NIC with the data-parallel rings) at the
    ``executed`` and ``auto`` tiers.  On this grid ``auto`` prices every
    collective as one closed-form event; ``worst_rel_deviation`` checks
    the tiers still agree."""
    from repro.api import Scenario, simulate

    group = PARAM_GROUPS[CASE_GROUP]

    def timed(fidelity):
        cells = [
            Scenario.from_group(
                env, nodes, group, tensor=1, pipeline=1, data=0,
                global_batch_size=0, num_microbatches=2,
                trace_enabled=False, fidelity=fidelity,
            )
            for env in CASE_ENVS
            for nodes in (4, 8)
        ]
        t0 = time.perf_counter()
        results = [simulate(c) for c in cells]
        return time.perf_counter() - t0, results

    executed_s, executed = timed("executed")
    auto_s, auto = timed("auto")
    return {
        "grid": "contention-free table3-style (t=1 p=1; "
                "ib/roce/ethernet x 4,8 nodes)",
        "cells": len(executed),
        "executed_seconds": executed_s,
        "auto_seconds": auto_s,
        "speedup": executed_s / auto_s if auto_s > 0 else 0.0,
        "worst_rel_deviation": max(
            abs(a.iteration_time - e.iteration_time) / e.iteration_time
            for a, e in zip(auto, executed)
        ),
    }


def _plan_point() -> Dict[str, object]:
    """One small heterogeneous auto-planner run: discovered-layout TFLOPS
    over the best framework-preset TFLOPS."""
    from repro.api import Scenario, plan

    base = Scenario(
        env="hybrid", nodes=2, gpus_per_node=4, num_layers=8,
        hidden_size=512, num_attention_heads=8, seq_length=1024,
        micro_batch_size=2, global_batch_size=64,
        framework="holmes-base", trace_enabled=False, label="bench-plan",
    )
    t0 = time.perf_counter()
    result = plan(base, budget=8, top_k=2)
    wall = time.perf_counter() - t0
    best_preset = max(r.tflops for r in result.baselines)
    return {
        "base": "hybrid 2x4, gpt(8L,512h), batch 64",
        "enumerated": result.enumerated,
        "searched": result.searched,
        "confirmed": result.confirmed,
        "seconds": wall,
        "discovered_tflops": result.best.tflops,
        "best_preset_tflops": best_preset,
        "discovered_vs_preset": (
            result.best.tflops / best_preset if best_preset > 0 else 0.0
        ),
        "max_deviation": result.max_deviation,
    }


def _serve_point() -> Dict[str, object]:
    """Warm-cache serving overhead: median latency of ``/v1/run`` against
    an in-process daemon minus the median of the same lookup through the
    cache directly — what HTTP framing, the queue and runner dispatch
    cost per request."""
    import statistics

    from repro.api import Scenario
    from repro.client import ServeClient
    from repro.serve import ServeConfig, start_in_process

    scenario = Scenario.from_group(
        "ib", 2, 1, tensor=1, pipeline=1, data=0,
        global_batch_size=0, num_microbatches=2, trace_enabled=False,
        fidelity="auto",
    )
    repeats = 15
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        with start_in_process(
            ServeConfig(port=0, cache_dir=tmp, workers=1)
        ) as daemon:
            client = ServeClient(daemon.url, tenant="bench")
            client.run(scenario)  # cold: execute once, warm the cache
            served = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                client.run_document(scenario)
                served.append(time.perf_counter() - t0)
            inproc = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                daemon.service.cache.get(scenario)
                inproc.append(time.perf_counter() - t0)
    served_ms = statistics.median(served) * 1000.0
    inproc_ms = statistics.median(inproc) * 1000.0
    return {
        "scenario": "warm-cache /v1/run, in-process daemon, 1 runner",
        "repeats": repeats,
        "served_ms": served_ms,
        "inproc_ms": inproc_ms,
        "overhead_ms": served_ms - inproc_ms,
    }


def collect_bench(
    jobs: int = 8,
    repeats: int = 3,
    fast: bool = False,
    micro_only: bool = False,
    date: Optional[str] = None,
    timeout: Optional[float] = None,
    resume: bool = False,
    progress: bool = False,
    textfile: Optional[str] = None,
    fidelity: Optional[str] = None,
) -> Dict[str, object]:
    """Measure and assemble one benchmark document.

    ``timeout`` bounds each cell's wall clock (a hung cell is killed and
    retried rather than stalling the whole bench); ``resume=True`` journals
    the serial and parallel legs under ``<cache-dir>/bench-journal`` so a
    crashed/interrupted bench re-executes only unfinished cells on the
    next ``--resume`` run.  Journals are cleared once the bench completes
    (a resumed leg's wall time only measures the remaining cells, so a
    clean finish must not leave journals that would hollow out the *next*
    run's timings).  ``progress`` / ``textfile`` enable the flight
    recorder's live surfaces (:mod:`repro.obs.flight`) on the sweep legs;
    neither can change a result or a digest verdict.  ``fidelity`` runs
    every sweep cell at that tier (``executed`` | ``analytic`` | ``auto``;
    recorded in ``doc["sweep"]["fidelity"]`` — the gate refuses to compare
    documents measured at different tiers).  Unless ``micro_only``, the
    document also carries the Table 1 ``cases`` and the ``fidelity`` /
    ``plan`` / ``serve`` points, which ignore ``fidelity`` and ``fast``.
    """
    doc: Dict[str, object] = {
        "schema": SCHEMA,
        "date": date or time.strftime("%Y-%m-%d"),
        "host": {"cpus": os.cpu_count() or 1},
        "microbench": run_microbenches(repeats=repeats),
    }
    if micro_only:
        return doc

    journal_root = _bench_journal_root() if resume else None
    scenarios = table3_scenarios(fast=fast)
    if fidelity is not None:
        import dataclasses

        scenarios = [
            dataclasses.replace(s, fidelity=fidelity) for s in scenarios
        ]
    serial_s, serial = _timed_sweep(
        scenarios, jobs=1, timeout=timeout, resume=resume,
        journal=journal_root / "serial" if journal_root else None,
        progress=progress, textfile=textfile,
    )
    parallel_s, parallel = _timed_sweep(
        scenarios, jobs=jobs, timeout=timeout, resume=resume,
        journal=journal_root / "parallel" if journal_root else None,
        progress=progress, textfile=textfile,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        from repro.exec import ResultCache

        cache = ResultCache(tmp)
        _timed_sweep(scenarios, jobs=1, cache=cache, timeout=timeout)  # populate
        cached_s, cached = _timed_sweep(scenarios, jobs=1, cache=cache,
                                        timeout=timeout)
    if journal_root is not None:
        import shutil

        shutil.rmtree(journal_root, ignore_errors=True)

    digests = [r.trace_digest for r in serial]
    identical = (
        digests == [r.trace_digest for r in parallel]
        and serial == parallel
        and serial == cached
    )
    cells = len(scenarios)
    doc["sweep"] = {
        "name": "table3" + ("-fast" if fast else ""),
        "fidelity": fidelity or "executed",
        "cells": cells,
        "serial_seconds": serial_s,
        "serial_seconds_per_cell": serial_s / cells,
        "parallel_jobs": jobs,
        "parallel_seconds": parallel_s,
        "parallel_speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "cached_seconds": cached_s,
        "cache_speedup": serial_s / cached_s if cached_s > 0 else 0.0,
        "digests_identical": identical,
        # per-cell serial cost in calibration units: the machine-neutral
        # number the regression gate compares
        "normalized_cell_cost": (
            serial_s
            * 1e9
            / cells
            / doc["microbench"]["benchmarks"]["calibration"]["ns_per_op"]  # type: ignore[index]
        ),
    }
    from repro.exec import resilience_summary

    # process-lifetime executor recovery counters: all zeros on a healthy
    # bench; nonzero values explain a slow or partially resumed run
    doc["sweep"]["resilience"] = resilience_summary()  # type: ignore[index]
    doc["cases"] = _table1_cases()
    doc["fidelity"] = _fidelity_point()
    doc["plan"] = _plan_point()
    doc["serve"] = _serve_point()
    return doc


def write_bench(doc: Mapping[str, object], path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


class Verdict(NamedTuple):
    """The outcome of one gate: its name, pass/fail, and a one-line detail."""

    gate: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"{'ok' if self.ok else 'FAIL':4s}  {self.gate:10s}  {self.detail}"


def _tflops_verdict(cases: Mapping, reference: Mapping) -> Verdict:
    ref_cases = reference.get("cases")
    ref_cases = ref_cases if isinstance(ref_cases, Mapping) else {}
    parts, bad, worst = [], [], 0.0
    for name, case in cases.items():
        actual = float(case["tflops_per_gpu"])
        ref = ref_cases.get(name)
        if not isinstance(ref, Mapping):
            bad.append(f"{name} missing from reference")
            continue
        expected = float(ref["tflops_per_gpu"])
        drift = abs(actual - expected) / expected if expected else float("inf")
        worst = max(worst, drift)
        parts.append(f"{name} {actual:.2f}")
        if drift > TFLOPS_TOLERANCE:
            bad.append(
                f"{name} {actual:.2f} vs reference {expected:.2f} "
                f"(drift {drift:.2%})"
            )
    if bad:
        detail = "; ".join(bad) + f" (tolerance {TFLOPS_TOLERANCE:.0%})"
    else:
        detail = (
            f"{', '.join(parts)} TFLOPS within {TFLOPS_TOLERANCE:.0%} of "
            f"reference (worst drift {worst:.2%})"
        )
    return Verdict("tflops", not bad, detail)


def check_bench(
    doc: Mapping[str, object],
    reference: Mapping[str, object],
    tolerance: float = 0.10,
) -> List[Verdict]:
    """Gate a fresh document against a committed reference: one
    :class:`Verdict` per gate whose section the document carries.
    ``tolerance`` bounds the normalized microbench and sweep timings; the
    other bounds are the module constants."""
    regressions = check_regression(
        doc["microbench"], reference.get("microbench", {}), tolerance  # type: ignore[arg-type]
    )
    if regressions:
        detail = "; ".join(r.describe() for r in regressions)
    else:
        detail = "normalized costs within tolerance of reference"
    verdicts = [Verdict(
        "microbench", not regressions, f"{detail} (tolerance {tolerance:.0%})"
    )]
    sweep_doc = doc.get("sweep")
    sweep_ref = reference.get("sweep")
    if isinstance(sweep_doc, Mapping):
        identical = bool(sweep_doc.get("digests_identical", False))
        verdicts.append(Verdict(
            "identity", identical,
            "serial/parallel/cached results "
            + ("identical" if identical else "are NOT identical"),
        ))
    if isinstance(sweep_doc, Mapping) and isinstance(sweep_ref, Mapping):
        doc_tier = str(sweep_doc.get("fidelity", "executed"))
        ref_tier = str(sweep_ref.get("fidelity", "executed"))
        ref_cost = float(sweep_ref.get("normalized_cell_cost", 0.0))
        got_cost = float(sweep_doc.get("normalized_cell_cost", 0.0))
        if doc_tier != ref_tier:
            verdicts.append(Verdict(
                "sweep", False,
                f"fidelity tier mismatch — document measured at "
                f"{doc_tier!r} but reference at {ref_tier!r}; timings are "
                "not comparable across tiers",
            ))
        else:
            ratio = got_cost / ref_cost if ref_cost > 0 else 1.0
            verdicts.append(Verdict(
                "sweep", ratio <= 1.0 + tolerance,
                f"normalized per-cell cost {got_cost:.0f} vs reference "
                f"{ref_cost:.0f} ({ratio:.2f}x, tolerance {tolerance:.0%})",
            ))
    cases = doc.get("cases")
    if isinstance(cases, Mapping):
        verdicts.append(_tflops_verdict(cases, reference))
    fidelity = doc.get("fidelity")
    if isinstance(fidelity, Mapping):
        speedup = float(fidelity["speedup"])
        verdicts.append(Verdict(
            "fidelity", speedup >= MIN_SPEEDUP,
            f"auto-tier speedup {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x, "
            f"worst deviation {float(fidelity['worst_rel_deviation']):.3%})",
        ))
    plan_doc = doc.get("plan")
    if isinstance(plan_doc, Mapping):
        ratio = float(plan_doc["discovered_vs_preset"])
        verdicts.append(Verdict(
            "plan", ratio >= MIN_DISCOVERED_VS_PRESET,
            f"discovered-vs-preset {ratio:.3f}x "
            f"(floor {MIN_DISCOVERED_VS_PRESET:.1f}x, "
            f"{plan_doc['searched']} searched)",
        ))
    serve_doc = doc.get("serve")
    if isinstance(serve_doc, Mapping):
        overhead = float(serve_doc["overhead_ms"])
        verdicts.append(Verdict(
            "serve", overhead <= MAX_OVERHEAD_MS,
            f"warm-cache overhead {overhead:.1f}ms "
            f"(ceiling {MAX_OVERHEAD_MS:.0f}ms, served "
            f"{float(serve_doc['served_ms']):.1f}ms)",
        ))
    return verdicts
