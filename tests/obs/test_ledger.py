"""Run-ledger and BENCH-trend unit tests."""

import json

from repro.obs.ledger import (
    BENCH_SCHEMA,
    SCHEMA,
    RunLedger,
    RunRecord,
    TrendSeries,
    bench_trend,
    load_bench_history,
    record_run,
    render_trend,
    trend_regressions,
)


# --------------------------------------------------------------------- #
# ledger records
# --------------------------------------------------------------------- #


def _record(**overrides):
    base = dict(
        kind="sweep",
        started="2026-08-08T12:00:00",
        wall_seconds=1.5,
        outcome="ok",
        sweep_digest="a" * 64,
        code_salt="salt",
        counts={"executed": 10, "cache_hits": 2},
        summary={"note": "x"},
    )
    base.update(overrides)
    return RunRecord(**base)


def test_run_record_roundtrip():
    record = _record()
    data = record.to_dict()
    assert data["schema"] == SCHEMA
    assert RunRecord.from_dict(data) == record


def test_run_record_describe_lists_counts():
    text = _record(counts={"executed": 10, "quarantined": 2}).describe()
    assert "sweep" in text
    assert "10 run" in text
    assert "2 failed" in text
    assert "a" * 12 in text


def test_ledger_append_and_tail(tmp_path):
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    for i in range(5):
        ledger.append(_record(started=f"2026-08-0{i + 1}T00:00:00"))
    records = ledger.records()
    assert len(records) == 5
    assert [r.started for r in ledger.tail(2)] == [
        "2026-08-04T00:00:00", "2026-08-05T00:00:00",
    ]


def test_ledger_tolerates_corrupt_and_foreign_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record())
    with open(path, "a") as fh:
        fh.write("not json\n")
        fh.write(json.dumps({"schema": "other/v1"}) + "\n")
        fh.write(json.dumps({"schema": SCHEMA, "bogus": True}) + "\n")
    ledger.append(_record(kind="bench"))
    records = ledger.records()
    assert [r.kind for r in records] == ["sweep", "bench"]
    assert ledger.corrupt_lines == 3


def test_ledger_missing_file_is_empty(tmp_path):
    assert RunLedger(tmp_path / "nope.jsonl").records() == []


def test_ledger_append_failure_is_silent(tmp_path):
    target = tmp_path / "dir-not-file"
    target.mkdir()
    RunLedger(target).append(_record())  # OSError swallowed


def test_record_run_stamps_code_salt(tmp_path):
    from repro.exec.digest import CODE_VERSION_SALT

    ledger = RunLedger(tmp_path / "ledger.jsonl")
    record = record_run(
        "bench",
        started="2026-08-08T00:00:00",
        wall_seconds=2.0,
        outcome="ok",
        summary={"normalized_cell_cost": 42.0},
        ledger=ledger,
    )
    assert record.code_salt == CODE_VERSION_SALT
    assert ledger.records() == [record]


def test_record_run_accepts_path_ledger(tmp_path):
    path = tmp_path / "ledger.jsonl"
    record_run(
        "validate", started="x", wall_seconds=0.1, outcome="ok", ledger=path
    )
    assert len(RunLedger(path).records()) == 1


# --------------------------------------------------------------------- #
# BENCH trend
# --------------------------------------------------------------------- #


def _exec_doc(date, cost, micro=None):
    benches = {
        name: {"ns_per_op": value, "normalized": value}
        for name, value in (micro or {}).items()
    }
    return {
        "schema": BENCH_SCHEMA,
        "date": date,
        "sweep": {"normalized_cell_cost": cost},
        "microbench": {"benchmarks": benches},
    }


def _cases_doc(date, tflops):
    return {
        "schema": BENCH_SCHEMA,
        "date": date,
        "cases": {
            name: {"tflops_per_gpu": value} for name, value in tflops.items()
        },
    }


def test_load_bench_history_sorts_and_filters(tmp_path):
    (tmp_path / "BENCH_2026-08-07.json").write_text(
        json.dumps(_exec_doc("2026-08-07", 110.0))
    )
    (tmp_path / "BENCH_2026-08-05.json").write_text(
        json.dumps(_exec_doc("2026-08-05", 100.0))
    )
    (tmp_path / "BENCH_bad.json").write_text("{ not json")
    (tmp_path / "BENCH_foreign.json").write_text(
        json.dumps({"schema": "else/v1"})
    )
    (tmp_path / "other.json").write_text(json.dumps(_exec_doc("2026-01-01", 1)))
    docs = load_bench_history(tmp_path)
    assert [name for name, _ in docs] == [
        "BENCH_2026-08-05.json", "BENCH_2026-08-07.json",
    ]


def test_bench_trend_merges_sweep_micro_and_tflops_series():
    docs = [
        ("a.json", _exec_doc("2026-08-05", 100.0, micro={"allreduce": 10.0})),
        ("b.json", _cases_doc("2026-08-06", {"ib": 150.0})),
        ("c.json", _exec_doc("2026-08-07", 120.0, micro={"allreduce": 11.0})),
    ]
    trend = {s.name: s for s in bench_trend(docs)}
    assert set(trend) == {
        "sweep.normalized_cell_cost", "micro.allreduce", "tflops.ib",
    }
    cost = trend["sweep.normalized_cell_cost"]
    assert not cost.higher_is_better
    assert cost.points == (("2026-08-05", 100.0), ("2026-08-07", 120.0))
    assert trend["tflops.ib"].higher_is_better


def test_sweep_cost_series_never_mix_grids():
    # a --fast 4-cell document must not read as a move of the 48-cell series
    full = _exec_doc("2026-08-05", 100.0)
    full["sweep"]["name"] = "table3"
    fast = _exec_doc("2026-08-06", 40.0)
    fast["sweep"]["name"] = "table3-fast"
    trend = {s.name: s for s in bench_trend([("a.json", full),
                                             ("b.json", fast)])}
    assert trend["sweep.normalized_cell_cost[table3]"].points == (
        ("2026-08-05", 100.0),)
    assert trend["sweep.normalized_cell_cost[table3-fast]"].points == (
        ("2026-08-06", 40.0),)
    assert trend_regressions(list(trend.values())) == []


def test_trend_regressions_respect_direction():
    lower = TrendSeries(
        "cost", higher_is_better=False,
        points=(("d1", 100.0), ("d2", 120.0)),
    )
    higher = TrendSeries(
        "tflops", higher_is_better=True,
        points=(("d1", 100.0), ("d2", 120.0)),
    )
    assert len(trend_regressions([lower], tolerance=0.10)) == 1
    assert trend_regressions([higher], tolerance=0.10) == []
    # inverted moves
    assert trend_regressions(
        [TrendSeries("t", True, (("d1", 100.0), ("d2", 80.0)))], 0.10
    )
    assert trend_regressions(
        [TrendSeries("c", False, (("d1", 100.0), ("d2", 80.0)))], 0.10
    ) == []


def test_trend_regressions_within_tolerance_pass():
    series = TrendSeries(
        "cost", higher_is_better=False,
        points=(("d1", 100.0), ("d2", 105.0)),
    )
    assert trend_regressions([series], tolerance=0.10) == []


def test_trend_single_point_never_regresses():
    series = TrendSeries("cost", False, (("d1", 100.0),))
    assert series.delta_fraction() is None
    assert trend_regressions([series]) == []


def test_render_trend_marks_regressing_moves():
    trend = [
        TrendSeries("cost", False, (("d1", 100.0), ("d2", 150.0))),
        TrendSeries("tflops", True, (("d1", 100.0), ("d2", 150.0))),
    ]
    text = render_trend(trend)
    assert "+50.0%!" in text  # cost up = regressing
    assert "+50.0% " in text  # tflops up = improving, no marker
    assert "▁" in text and "█" in text


def test_render_trend_empty():
    assert "no BENCH documents" in render_trend([])


def test_sparkline_flat_series():
    series = TrendSeries("x", False, (("a", 5.0), ("b", 5.0), ("c", 5.0)))
    assert len(series.sparkline()) == 3
    assert len(set(series.sparkline())) == 1


def test_committed_results_give_multi_point_trend():
    """The repo itself must ship >= 2 BENCH documents so ``repro report
    --trend`` has a trajectory at merge (acceptance criterion)."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2] / "results"
    docs = load_bench_history(root)
    assert len(docs) >= 2
    trend = bench_trend(docs)
    multi = [s for s in trend if len(s.points) >= 2]
    assert multi, "no series spans two committed BENCH documents"
    assert "series" in render_trend(trend)
