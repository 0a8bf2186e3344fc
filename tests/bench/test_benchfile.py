"""The ``repro bench`` document and its CI gate: the Table 1 TFLOPS cases,
the fidelity / plan / serve points, one verdict per gate, and the trend
view over a unified document."""

import copy
import json
import os
import subprocess
import sys

import pytest

from repro.bench.benchfile import (
    MAX_OVERHEAD_MS,
    MIN_DISCOVERED_VS_PRESET,
    MIN_SPEEDUP,
    SCHEMA,
    TFLOPS_TOLERANCE,
    check_bench,
    collect_bench,
    write_bench,
)
from repro.obs.report import validate_report

REPO = os.path.join(os.path.dirname(__file__), "..", "..")
REFERENCE = os.path.join(REPO, "results", "bench_reference.json")


@pytest.fixture(scope="module")
def bench():
    return collect_bench(jobs=1, repeats=1, fast=True)


def verdicts_by_gate(doc, reference, tolerance=0.10):
    verdicts = check_bench(doc, reference, tolerance=tolerance)
    gates = [v.gate for v in verdicts]
    assert len(gates) == len(set(gates)), gates  # one verdict per gate
    return {v.gate: v for v in verdicts}


def failing(doc, reference):
    return {
        gate for gate, v in verdicts_by_gate(doc, reference).items()
        if not v.ok
    }


class TestDocument:
    def test_schema_and_cases_are_the_table1_trio(self, bench):
        assert bench["schema"] == SCHEMA
        assert list(bench["cases"]) == ["ib", "roce", "ethernet"]

    def test_each_case_embeds_a_valid_profile_report(self, bench):
        for name, case in bench["cases"].items():
            assert case["tflops_per_gpu"] > 0, name
            assert case["iteration_seconds"] > 0, name
            validate_report(case["report"])

    def test_serve_overhead_is_served_minus_inproc(self, bench):
        serve = bench["serve"]
        assert serve["repeats"] >= 3
        assert serve["served_ms"] > 0
        assert serve["inproc_ms"] >= 0
        assert serve["overhead_ms"] == pytest.approx(
            serve["served_ms"] - serve["inproc_ms"])

    def test_micro_only_skips_every_section(self):
        doc = collect_bench(repeats=1, micro_only=True)
        assert set(doc) == {"schema", "date", "host", "microbench"}
        gates = verdicts_by_gate(doc, doc)
        assert list(gates) == ["microbench"]


class TestGate:
    def test_document_gated_against_itself_passes(self, bench):
        gates = verdicts_by_gate(bench, bench)
        assert set(gates) == {
            "microbench", "identity", "sweep", "tflops", "fidelity",
            "plan", "serve",
        }
        assert all(v.ok for v in gates.values()), gates

    def test_microbench_slowdown_fails(self, bench):
        doc = copy.deepcopy(bench)
        doc["microbench"]["benchmarks"]["allreduce"]["normalized"] *= 1.2
        assert failing(doc, bench) == {"microbench"}

    def test_sweep_cost_slowdown_fails(self, bench):
        doc = copy.deepcopy(bench)
        doc["sweep"]["normalized_cell_cost"] *= 1.2
        assert failing(doc, bench) == {"sweep"}

    def test_sweep_tier_mismatch_fails(self, bench):
        doc = copy.deepcopy(bench)
        doc["sweep"]["fidelity"] = "auto"
        assert failing(doc, bench) == {"sweep"}

    def test_divergent_results_fail_identity(self, bench):
        doc = copy.deepcopy(bench)
        doc["sweep"]["digests_identical"] = False
        assert failing(doc, bench) == {"identity"}

    def test_tflops_drift_beyond_tolerance_fails(self, bench):
        reference = copy.deepcopy(bench)
        reference["cases"]["ib"]["tflops_per_gpu"] *= 1 + 2 * TFLOPS_TOLERANCE
        gates = verdicts_by_gate(bench, reference)
        assert not gates["tflops"].ok
        assert "ib" in gates["tflops"].detail
        assert failing(bench, reference) == {"tflops"}

    def test_case_missing_from_reference_fails(self, bench):
        reference = copy.deepcopy(bench)
        del reference["cases"]["roce"]
        gates = verdicts_by_gate(bench, reference)
        assert not gates["tflops"].ok
        assert "roce missing from reference" in gates["tflops"].detail
        del reference["cases"]
        assert failing(bench, reference) == {"tflops"}

    def test_fidelity_speedup_below_floor_fails(self, bench):
        doc = copy.deepcopy(bench)
        doc["fidelity"]["speedup"] = MIN_SPEEDUP * 0.99
        assert failing(doc, bench) == {"fidelity"}

    def test_plan_ratio_below_floor_fails(self, bench):
        doc = copy.deepcopy(bench)
        doc["plan"]["discovered_vs_preset"] = MIN_DISCOVERED_VS_PRESET * 0.99
        assert failing(doc, bench) == {"plan"}

    def test_serve_overhead_above_ceiling_fails(self, bench):
        doc = copy.deepcopy(bench)
        doc["serve"]["overhead_ms"] = MAX_OVERHEAD_MS + 1.0
        assert failing(doc, bench) == {"serve"}

    def test_bounds_hold_whatever_the_reference_says(self, bench):
        # a reference carrying the old per-section bound blocks cannot
        # loosen a gate: the bounds are module constants
        doc = copy.deepcopy(bench)
        doc["serve"]["overhead_ms"] = MAX_OVERHEAD_MS + 1.0
        reference = copy.deepcopy(bench)
        reference["serve"] = {"max_overhead_ms": 1e9}
        assert failing(doc, reference) == {"serve"}

    def test_committed_reference_matches_a_fresh_run(self, bench):
        """The same TFLOPS gate CI applies on every push."""
        with open(REFERENCE) as fh:
            reference = json.load(fh)
        tflops = verdicts_by_gate(bench, reference)["tflops"]
        assert tflops.ok, tflops
        # at the calibrated Table 1 point the NIC families rank as in the
        # paper: InfiniBand > RoCE > Ethernet
        cases = bench["cases"]
        assert (
            cases["ib"]["tflops_per_gpu"]
            > cases["roce"]["tflops_per_gpu"]
            > cases["ethernet"]["tflops_per_gpu"]
        )


def test_trend_reads_tflops_from_a_unified_document(bench, tmp_path, capsys):
    from repro.cli import main

    write_bench(bench, str(tmp_path / "BENCH_2099-01-01.json"))
    assert main(["report", "--trend", "--results", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for series in ("tflops.ib", "tflops.roce", "tflops.ethernet",
                   "sweep.normalized_cell_cost", "micro.allreduce"):
        assert series in out


def test_importing_benchfile_loads_no_serve_client_or_plan():
    # perfbench's table3 setup imports this module; serving and planning
    # must stay function-local so their import cost stays out of it
    code = (
        "import sys, repro.bench.benchfile\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.serve', 'repro.client', 'repro.plan'))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
