"""What the benchmark measures: workloads, metrics, bounds and routes.

``BENCHMARK.json`` at the repository root is the contract the benchmark
is run under; this module is the same list with the reasoning attached,
and ``test_perfbench.py`` keeps the two in step.  Every per-layer metric
names the end-to-end metric it should move and on which workload
(``route``), written down before any optimization is measured against it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    route: str


WORKLOADS: List[Workload] = [
    Workload(
        "table3",
        "the paper's 48 Table 3 cells, cold then warm through api.sweep: how "
        "users regenerate the tables; the only workload that records spans "
        "and writes the cache"),
    Workload(
        "ladder",
        "api.run on ib at 128 and 256 GPUs executed and 512 auto: executed "
        "ring sends grow ~4x per doubling; the auto rung issues no sends and "
        "bypasses any ring-kernel change"),
    Workload(
        "serve-warm",
        "2 closed-loop clients on /v1/run over a warmed hit set: HTTP, queue, "
        "cache hit and 20 ms poll with no simulation"),
]

#: Every workload reports every end-to-end metric, so they are named by
#: role; :data:`SOURCES` says which measurement fills each role on each
#: workload.  The routes below use the measurement names.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("heavy_s", "s", "lower", 0.25),
    EndToEnd("light_s", "s", "lower", 0.25),
]

#: role -> measurement, per workload.  Timings made in the benchmark
#: process are normalized seconds; serve latencies are raw client-observed
#: seconds, because that work happens in the daemon.
SOURCES: Dict[str, Dict[str, str]] = {
    "table3": {
        "heavy_s": "table3_cold_s",      # the cold 48-cell sweep
        "light_s": "table3_warm_s",      # one warm 48-cell sweep, all hits
    },
    "ladder": {
        "heavy_s": "ladder_128_s",       # api.run, 128 GPUs, executed tier
        "light_s": "ladder_512_auto_s",  # api.run, 512 GPUs, auto tier
    },
    "serve-warm": {
        # client latency.  The tail percentiles are printed as diagnostics
        # but do not gate: over ten runs on a busy host p99 spread 46% and
        # p90 16%, against 6% for the mean, which still carries the tail
        "heavy_s": "serve_mean_s",
        "light_s": "serve_p50_s",
    },
}

_COLD = "table3_cold_s @ table3"
_LADDER = "ladder_* @ ladder and table3_cold_s @ table3"
_RING = ("ladder_128_s (and bench.ladder_256_s, 4x the sends) most, "
         "table3_cold_s less, zero on ladder_512_auto_s")
_SERVE = "serve_p50_s and serve_mean_s @ serve-warm"

PER_LAYER: List[PerLayer] = [
    # api
    PerLayer("api.build_s", "s", "lower", _COLD),
    PerLayer("api.digest_s", "s", "lower", "table3_warm_s @ table3"),
    PerLayer("api.digest_calls", "count", "lower", "table3_warm_s @ table3"),
    PerLayer("api.summarize_s", "s", "lower", _COLD),
    # core
    PerLayer("core.run_self_s", "s", "lower", _COLD),
    PerLayer("core.plan_s", "s", "lower", "ladder_512_auto_s @ ladder"),
    # simcore
    PerLayer("simcore.run_self_s", "s", "lower",
             "ladder_128_s @ ladder and table3_cold_s @ table3"),
    PerLayer("simcore.events", "count", "lower", _LADDER),
    PerLayer("simcore.events_per_s", "1/s", "higher", _LADDER),
    PerLayer("simcore.trace_record_s", "s", "lower",
             "table3_cold_s and peak_rss_mb @ table3; zero on ladder"),
    PerLayer("simcore.spans", "count", "lower",
             "table3_cold_s and peak_rss_mb @ table3; zero on ladder"),
    PerLayer("simcore.resource_acquires", "count", "lower", _LADDER),
    # collectives
    PerLayer("collectives.sends", "count", "lower",
             _RING),
    PerLayer("collectives.recvs", "count", "lower",
             _RING),
    PerLayer("collectives.channel_s", "s", "lower",
             _RING),
    PerLayer("collectives.ops", "count", "lower",
             _RING),
    # network
    PerLayer("network.step_price_s", "s", "lower", _LADDER),
    PerLayer("network.step_price_calls", "count", "lower", _LADDER),
    PerLayer("network.p2p_price_calls", "count", "lower", _LADDER),
    PerLayer("network.transport_calls", "count", "lower", _LADDER),
    # obs / validate
    PerLayer("obs.attribution_s", "s", "lower", _COLD),
    PerLayer("validate.fingerprint_s", "s", "lower", _COLD),
    # exec
    PerLayer("exec.cache_get_s", "s", "lower", "table3_warm_s @ table3"),
    PerLayer("exec.cache_hits", "count", "higher", "table3_warm_s @ table3"),
    PerLayer("exec.cache_misses", "count", "lower", "table3_warm_s @ table3"),
    PerLayer("exec.cache_put_s", "s", "lower", _COLD),
    PerLayer("exec.sweep_self_s", "s", "lower", "table3_warm_s @ table3"),
    # serve (scraped from the daemon) and its client
    PerLayer("serve.server_s", "s", "lower", _SERVE),
    PerLayer("serve.cpu_per_req_s", "s", "lower", _SERVE),
    PerLayer("serve.cache_hit_ratio", "ratio", "higher", _SERVE),
    PerLayer("serve.shed", "count", "lower", _SERVE),
    PerLayer("client.overhead_s", "s", "lower", "serve_p50_s @ serve-warm"),
    # bench diagnostics
    PerLayer("bench.ref_s", "s", "lower", "none: host speed beside every "
             "normalized number"),
    PerLayer("bench.ref_spread", "ratio", "lower", "none: reference kernel "
             "IQR/median"),
    PerLayer("bench.trace_overhead", "s", "lower", "none: traced minus "
             "untraced time of the same work"),
    PerLayer("bench.ladder_256_s", "s", "lower", "none: the 256-GPU "
             "executed rung, normalized; too few samples per run to gate on"),
    PerLayer("bench.raw.setup_s", "s", "lower", "setup_s"),
    PerLayer("bench.raw.table3_cold_s", "s", "lower", "table3_cold_s"),
    PerLayer("bench.raw.table3_warm_s", "s", "lower", "table3_warm_s"),
    PerLayer("bench.raw.ladder_128_s", "s", "lower", "ladder_128_s"),
    PerLayer("bench.raw.ladder_256_s", "s", "lower", "ladder_256_s"),
    PerLayer("bench.raw.ladder_512_auto_s", "s", "lower",
             "ladder_512_auto_s"),
]

#: seconds each run measures (``--seconds``)
RUN_SECONDS = 25


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this spec describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [w._asdict() for w in WORKLOADS],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
