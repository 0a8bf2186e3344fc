"""Tests of the benchmark's own machinery.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import refkernel  # noqa: E402
import spec  # noqa: E402
from refkernel import Normalizer  # noqa: E402
from serve_warm import metric_sum, parse_metrics  # noqa: E402
from stats import (GOLDEN_FIELDS, golden_diff, percentile, spread,  # noqa: E402
                   tail_percentile)
from tracer import Tracer, traced  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------- #
# normalizer
# ---------------------------------------------------------------------- #


def test_normalizer_scales_by_mean_of_surrounding_references():
    clock = FakeClock()
    kernel_times = iter([0.010, 0.030, 0.020,    # before: median 0.020
                         0.040, 0.040, 0.040])   # after: median 0.040
    norm = Normalizer(kernel=lambda: clock.advance(next(kernel_times)),
                      nominal=0.010, reps=3, clock=clock)
    normalized, raw, result = norm.measure(lambda: clock.advance(3.0) or "ok")
    assert result == "ok"
    assert raw == pytest.approx(3.0)
    # r = (0.020 + 0.040) / 2 = 0.030; normalized = 3.0 * 0.010 / 0.030
    assert normalized == pytest.approx(1.0)
    assert len(norm.ref_times) == 6


def test_normalized_time_is_invariant_to_uniform_host_speed():
    def run_on(speed: float) -> float:
        clock = FakeClock()
        norm = Normalizer(kernel=lambda: clock.advance(0.010 * speed),
                          nominal=0.010, reps=1, clock=clock)
        return norm.measure(lambda: clock.advance(2.0 * speed))[0]

    assert run_on(1.0) == pytest.approx(run_on(1.7)) == pytest.approx(2.0)


def test_reference_kernel_is_deterministic_and_independent_of_the_program():
    kernel = refkernel.ReferenceKernel(iterations=500, table_size=1000)
    assert kernel() == kernel() == refkernel.ReferenceKernel(500, 1000)()
    tree = ast.parse(Path(refkernel.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "repro" for name in imported)


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([5.0], 99) == 5.0


def test_tail_percentile_needs_ten_samples_beyond():
    pct, value, beyond = tail_percentile([float(v) for v in range(1, 1001)])
    assert (pct, value, beyond) == (99.0, 990.0, 10)
    # with 100 samples only p90 keeps ten samples beyond it
    pct, value, beyond = tail_percentile([float(v) for v in range(1, 101)])
    assert (pct, value, beyond) == (90.0, 90.0, 10)
    # too few for any tail: the median, with its own count
    pct, value, beyond = tail_percentile([1.0, 2.0, 3.0])
    assert (pct, value, beyond) == (50.0, 2.0, 1)


def test_spread_is_iqr_over_median():
    assert spread([1.0]) == 0.0
    assert spread([10.0] * 8) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert spread(values) == pytest.approx((11.5 - 8.5) / 10.0)


def _stats(**changes):
    base = {"tflops": 150.0, "iteration_time": 3.5, "makespan": 3.2,
            "num_spans": 1000, "bubble_fraction": 0.1, "comm_fraction": 0.2}
    base.update(changes)
    return base


def test_golden_diff_is_exact():
    golden = {"a": _stats(), "b": _stats(tflops=120.0)}
    assert golden_diff(golden, {"a": _stats(), "b": _stats(tflops=120.0)}) == []
    problems = golden_diff(golden, {"a": _stats(tflops=150.0 + 1e-12)})
    assert len(problems) == 1
    assert problems[0].startswith("a: tflops")


def test_golden_diff_reports_every_field_and_unpinned_scenarios():
    problems = golden_diff({"a": _stats()},
                           {"a": _stats(num_spans=999, comm_fraction=0.0),
                            "new": _stats()})
    assert problems == [
        "a: num_spans = 999, golden 1000",
        "a: comm_fraction = 0.0, golden 0.2",
        "new: no golden statistics recorded",
    ]


def test_golden_file_pins_every_field():
    golden = json.loads((HERE / "golden.json").read_text())
    assert golden
    for stats in golden.values():
        assert set(stats) == set(GOLDEN_FIELDS)


# ---------------------------------------------------------------------- #
# tracer
# ---------------------------------------------------------------------- #


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.request = "r1"
    outer = tracer.enter("outer", keep=True)
    clock.advance(1.0)
    child = tracer.enter("child", keep=True)
    clock.advance(2.0)
    leaf = tracer.enter("leaf")          # a frame: timed, not kept
    clock.advance(0.5)
    tracer.exit(leaf)
    tracer.exit(child)
    clock.advance(0.25)
    tracer.exit(outer)

    assert tracer.total["outer"] == pytest.approx(3.75)
    assert tracer.self_time["outer"] == pytest.approx(1.25)
    assert tracer.total["child"] == pytest.approx(2.5)
    assert tracer.self_time["child"] == pytest.approx(2.0)
    assert tracer.self_time["leaf"] == pytest.approx(0.5)
    # kept spans: (id, name, start, end, parent, request), children first
    assert tracer.spans == [(2, "child", 1.0, 3.5, 1, "r1"),
                            (1, "outer", 0.0, 3.75, 0, "r1")]


def test_boundaries_must_close_in_order():
    tracer = Tracer(clock=FakeClock())
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        tracer.exit(outer)


def test_drive_times_each_resumption_and_returns_the_value():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def body():
        clock.advance(1.0)
        got = yield "first"
        clock.advance(got)
        yield "second"
        clock.advance(0.5)
        return "done"

    outer = tracer.enter("engine")
    proxy = tracer.drive(body(), "body")
    assert next(proxy) == "first"
    clock.advance(10.0)                   # suspended: not the body's time
    assert proxy.send(2.0) == "second"
    with pytest.raises(StopIteration) as stop:
        proxy.send(None)
    tracer.exit(outer)
    assert stop.value.value == "done"
    assert tracer.calls["body"] == 3
    assert tracer.total["body"] == pytest.approx(3.5)
    assert tracer.self_time["engine"] == pytest.approx(10.0)


def test_tracing_is_an_observer_and_uninstalls_cleanly():
    import repro.api as api
    import repro.collectives.executor as executor
    from repro.network.fabric import Fabric

    scenario = api.Scenario(env="hybrid", nodes=2, num_microbatches=2)
    plain = api.run(scenario).to_document()
    originals = (api.build, executor.send, Fabric.__dict__["transport"])
    tracer = Tracer()
    with traced(tracer):
        assert api.build is not originals[0]
        traced_doc = api.run(scenario).to_document()
    assert (api.build, executor.send, Fabric.__dict__["transport"]) == originals
    assert traced_doc == plain
    assert tracer.calls["core.run"] == 1
    assert tracer.counts["collectives.sends"] > 0
    assert tracer.events > 0
    assert {s[1] for s in tracer.spans} >= {"api.build", "core.run",
                                            "simcore.run", "api.summarize"}


# ---------------------------------------------------------------------- #
# serve scrape and the benchmark contract
# ---------------------------------------------------------------------- #


def test_parse_metrics_sums_matching_label_sets():
    text = "\n".join([
        "# HELP serve_request_seconds request latency by endpoint",
        "# TYPE serve_request_seconds histogram",
        'serve_request_seconds_sum{endpoint="/v1/run"} 1.5',
        'serve_request_seconds_sum{endpoint="/metrics"} 0.25',
        'serve_cache_hits_total{tenant="a"} 3',
        'serve_cache_hits_total{tenant="b"} 4',
        "serve_shed_total 0",
    ])
    samples = parse_metrics(text)
    assert metric_sum(samples, "serve_request_seconds_sum",
                      endpoint="/v1/run") == 1.5
    assert metric_sum(samples, "serve_cache_hits_total") == 7
    assert metric_sum(samples, "serve_shed_total") == 0
    assert metric_sum(samples, "missing_total") == 0


def test_benchmark_json_matches_spec():
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()


def test_every_workload_fills_every_end_to_end_role():
    import run

    names = [w.name for w in spec.WORKLOADS]
    assert sorted(names) == sorted(run.WORKLOADS) == sorted(spec.SOURCES)
    roles = {m.name for m in spec.END_TO_END}
    for sources in spec.SOURCES.values():
        assert set(sources) <= roles
    layer_names = [m.name for m in spec.PER_LAYER]
    assert len(layer_names) == len(set(layer_names))
    setup = [m for m in spec.END_TO_END if m.name == "setup_s"][0]
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_result_line_has_exactly_the_contract_metrics(tmp_path):
    import run
    from workloads import Run

    bench = Run(1, 1.0, False, tmp_path, tmp_path, {})
    bench.metrics.update({"setup_s": 0.3, "peak_rss_mb": 100.0,
                          "ladder_128_s": 1.5, "ladder_512_auto_s": 0.2})
    bench.attempted = 3
    line = run.result_line(bench, "ladder")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {m.name for m in spec.END_TO_END}
    assert line["metrics"]["heavy_s"] == {"value": 1.5, "unit": "s"}

    bench.trace = True
    bench.fail(1, "golden a: tflops differs")
    line = run.result_line(bench, "ladder")
    assert line["correct"] is False and line["failed"] == 1
    assert set(line["metrics"]) == {m.name for m in spec.PER_LAYER}
