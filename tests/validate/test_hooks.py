"""The invariant sanitizer: clean runs pass, corrupted simulations raise.

The load-bearing cases are the deliberate corruptions: a cost model that
prices a step negative and an executor that sends the wrong chunk sizes
must both surface as structured ``InvariantViolation`` errors naming the
broken invariant and the offending event — that is the safety net the
"refactor freely" mandate rests on.
"""

import dataclasses

import pytest

from repro.api import build, simulate
from repro.collectives.executor import CollectiveExecutor
from repro.errors import InvariantViolation
from repro.network.costmodel import CollectiveCostModel
from repro.simcore.engine import SimEngine
from repro.simcore.resource import Resource
from repro.simcore.trace import TraceRecorder
from repro.validate import ValidationHooks
from repro.validate.replay import trace_digest


def checked_run(scenario):
    """Simulate ``scenario`` with the sanitizer armed."""
    return simulate(dataclasses.replace(scenario, validate=True))


class TestCleanRunPasses:
    def test_no_violations_and_counters_published(self, tiny_scenario):
        sim = build(dataclasses.replace(tiny_scenario, validate=True))
        result = sim.run()
        hooks = sim.validation
        assert hooks.total_violations == 0
        assert hooks.total_checks > 1000
        # byte conservation actually ran (the scenario has DP sync)
        assert hooks.checks["collective.byte_conservation"] > 0
        assert hooks.checks["causality.time_monotonic"] > 0
        assert hooks.checks["resource.capacity"] > 0
        snapshot = result.registry.snapshot()
        assert "validation_checks_total" in snapshot
        total = sum(snapshot["validation_checks_total"]["series"].values())
        assert total == hooks.total_checks

    def test_faulted_run_passes(self, faulted_scenario):
        sim = build(dataclasses.replace(faulted_scenario, validate=True))
        sim.run()
        hooks = sim.validation
        assert hooks.total_violations == 0
        assert hooks.finalized

    def test_virtual_time_identical_with_and_without_hooks(self, tiny_scenario):
        plain = simulate(tiny_scenario)
        checked = checked_run(tiny_scenario)
        assert checked.makespan == plain.makespan
        assert trace_digest(checked.trace) == trace_digest(plain.trace)


class TestCorruptedCostModel:
    def test_negative_step_occupancy_is_caught(self, tiny_scenario, monkeypatch):
        """Acceptance criterion: a corrupted cost model raises a structured
        InvariantViolation at the event that consumed the bad price."""
        original = CollectiveCostModel.collective_step_occupancy

        def corrupted(self, nbytes, edge, messages=1):
            return -abs(original(self, nbytes, edge, messages))

        monkeypatch.setattr(
            CollectiveCostModel, "collective_step_occupancy", corrupted
        )
        with pytest.raises(InvariantViolation) as exc_info:
            checked_run(tiny_scenario)
        violation = exc_info.value
        assert violation.invariant == "causality.duration_sane"
        assert violation.context["seconds"] < 0
        # the bad price surfaces at whichever fabric method consumed it
        assert violation.context["what"] in (
            "collective_step_occupancy", "collective_step_time"
        )
        assert "src" in violation.context and "dst" in violation.context

    def test_corruption_unnoticed_without_hooks(self, tiny_scenario, monkeypatch):
        """Sanity: without the sanitizer the same corruption slips through
        (the engine itself rejects only *scheduling* into the past)."""
        monkeypatch.setattr(
            CollectiveCostModel,
            "collective_step_occupancy",
            lambda self, nbytes, edge, messages=1: 0.0,
        )
        simulate(tiny_scenario)  # must not raise

    def test_nonfinite_p2p_occupancy_is_caught(self, tiny_scenario, monkeypatch):
        monkeypatch.setattr(
            CollectiveCostModel,
            "p2p_nic_occupancy",
            lambda self, *args, **kwargs: float("nan"),
        )
        with pytest.raises(InvariantViolation) as exc_info:
            checked_run(tiny_scenario)
        assert exc_info.value.invariant == "causality.duration_sane"
        assert exc_info.value.context["what"] == "p2p_occupancy"


class TestByteConservation:
    def test_tampered_executor_chunks_are_caught(self, tiny_scenario, monkeypatch):
        """An executor that sends half-sized ring chunks breaks the
        telescoped closed form and must be flagged per member."""
        original = CollectiveExecutor._ring_phase

        def tampered(self, ring, rank, chunk, messages, tag, phase):
            return original(self, ring, rank, chunk * 0.5, messages, tag, phase)

        monkeypatch.setattr(CollectiveExecutor, "_ring_phase", tampered)
        with pytest.raises(InvariantViolation) as exc_info:
            checked_run(tiny_scenario)
        violation = exc_info.value
        assert violation.invariant == "collective.byte_conservation"
        assert violation.context["sent"] < violation.context["expected"]

    def test_tag_reuse_with_different_payload_is_caught(self):
        hooks = ValidationHooks()
        hooks.begin_collective("t", "allreduce", 0, [0, 1], 1024.0, [0, 0])
        with pytest.raises(InvariantViolation) as exc_info:
            hooks.begin_collective("t", "allreduce", 1, [0, 1], 2048.0, [0, 0])
        assert exc_info.value.invariant == "collective.group_consistent"

    def test_member_ledger_settles_group(self):
        hooks = ValidationHooks()
        ring, nodes = [0, 1], [0, 1]
        for rank in ring:
            hooks.begin_collective("t", "allreduce", rank, ring, 1000.0, nodes)
        for rank in ring:
            # ring all-reduce over two members: one rs + one ag step of n/2
            hooks.on_collective_step("t", rank, 500.0)
            hooks.on_collective_step("t", rank, 500.0)
            hooks.end_collective_member("t", rank, 0.0, 1.0)
        assert hooks.total_violations == 0
        assert "t" not in hooks._collectives  # ledger closed


class TestResourceInvariants:
    def test_overlapping_exclusive_grants_are_caught(self):
        hooks = ValidationHooks()
        engine = SimEngine(hooks=hooks)
        nic = Resource(engine, capacity=1, name="nic")
        nic.acquire()
        # corrupt the bookkeeping the way a buggy primitive would
        nic._in_use = 0
        with pytest.raises(InvariantViolation) as exc_info:
            nic.acquire()
        assert exc_info.value.invariant == "resource.capacity"
        assert exc_info.value.context["name"] == "nic"

    def test_release_handoff_keeps_net_grants_balanced(self):
        hooks = ValidationHooks()
        engine = SimEngine(hooks=hooks)
        nic = Resource(engine, capacity=1, name="nic")
        nic.acquire()
        waiter = nic.acquire()  # queued
        nic.release()  # hands the slot to the waiter
        assert waiter.triggered
        nic.release()
        assert hooks.total_violations == 0

    def test_double_release_is_caught(self):
        hooks = ValidationHooks()
        engine = SimEngine(hooks=hooks)
        nic = Resource(engine, capacity=2, name="nic")
        nic.acquire()
        nic.release()
        # keep the Resource's own guard out of the way: fake a stale count
        nic._in_use = 1
        with pytest.raises(InvariantViolation) as exc_info:
            nic.release()
        assert exc_info.value.invariant == "resource.release_balanced"


class TestSpanInvariants:
    def test_inverted_span_raises_structured_error(self):
        trace = TraceRecorder(hooks=ValidationHooks())
        with pytest.raises(InvariantViolation) as exc_info:
            trace.record(0, "compute", "forward", 2.0, 1.0)
        assert exc_info.value.invariant == "trace.span_wellformed"

    def test_negative_bytes_raise(self):
        trace = TraceRecorder(hooks=ValidationHooks())
        with pytest.raises(InvariantViolation):
            trace.record(0, "p2p", "send:x", 0.0, 1.0, nbytes=-5)

    def test_finalize_rejects_overlapping_compute(self):
        hooks = ValidationHooks()
        trace = TraceRecorder()
        trace.record(0, "compute", "forward", 0.0, 2.0)
        trace.record(0, "compute", "backward", 1.0, 3.0)
        with pytest.raises(InvariantViolation) as exc_info:
            hooks.finalize(trace, makespan=3.0, world_size=1)
        assert exc_info.value.invariant == "trace.compute_exclusive"

    def test_finalize_rejects_unnested_nic_span(self):
        hooks = ValidationHooks()
        trace = TraceRecorder()
        trace.record(0, "p2p", "send:a", 0.0, 1.0)
        trace.record(0, "nic", "nic-tx:a", 0.5, 1.5)  # pokes out of the send
        with pytest.raises(InvariantViolation) as exc_info:
            hooks.finalize(trace, makespan=2.0, world_size=1)
        assert exc_info.value.invariant == "trace.nic_nested_in_send"

    def test_finalize_rejects_alien_rank(self):
        hooks = ValidationHooks()
        trace = TraceRecorder()
        trace.record(7, "compute", "forward", 0.0, 1.0)
        with pytest.raises(InvariantViolation) as exc_info:
            hooks.finalize(trace, makespan=1.0, world_size=4)
        assert exc_info.value.invariant == "trace.rank_consistent"

    def test_finalize_accepts_clean_trace(self):
        hooks = ValidationHooks()
        trace = TraceRecorder()
        trace.record(0, "compute", "forward", 0.0, 1.0)
        trace.record(0, "compute", "backward", 1.0, 2.0)
        trace.record(0, "p2p", "send:a", 2.0, 3.0)
        trace.record(0, "nic", "nic-tx:a", 2.2, 2.8)
        trace.record(-1, "fault", "inject:nic_flap", 0.5, 0.5)
        hooks.finalize(trace, makespan=3.0, world_size=2)
        assert hooks.total_violations == 0


class TestEngineCausality:
    def test_monotonic_dispatch_passes(self):
        hooks = ValidationHooks()
        engine = SimEngine(hooks=hooks)

        def proc():
            yield engine.timeout_event(0.5)
            yield engine.timeout_event(0.5)

        engine.run_process(proc())
        assert hooks.total_violations == 0
        assert hooks.checks["causality.time_monotonic"] > 0

    def test_backwards_dispatch_is_caught(self):
        hooks = ValidationHooks()
        with pytest.raises(InvariantViolation) as exc_info:
            hooks.on_engine_step(when=1.0, now=2.0)
        assert exc_info.value.invariant == "causality.time_monotonic"
        assert exc_info.value.context == {"when": 1.0, "now": 2.0}

    def test_violation_message_carries_context(self):
        err = InvariantViolation("x.y", "broke", rank=3, tag="dp0")
        assert "[x.y]" in str(err)
        assert "rank=3" in str(err)
        assert "tag='dp0'" in str(err)
        assert err.context == {"rank": 3, "tag": "dp0"}
