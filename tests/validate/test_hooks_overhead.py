"""Disabled validation hooks must be a true no-op on the hot path.

Mirror of ``tests/simcore/test_tracing_overhead.py``: every sanitizer call
site guards on ``hooks is not None`` (or a prefetched local), so a run
without a :class:`ValidationHooks` performs *zero* sanitizer calls —
checked structurally — and the residual guard cost is micro-benchmarked at
well under 5% of a simulated iteration.
"""

import dataclasses
import time

from repro.api import build, simulate
from repro.validate import ValidationHooks


def _min_wall(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestDisabledHooksAreNoop:
    def test_default_run_never_touches_the_sanitizer(
        self, tiny_scenario, monkeypatch
    ):
        calls = [0]
        for name in (
            "on_engine_step",
            "check_duration",
            "on_resource_grant",
            "on_resource_release",
            "begin_collective",
            "on_collective_step",
            "end_collective_member",
            "on_span",
            "finalize",
        ):
            original = getattr(ValidationHooks, name)

            def counting(self, *args, __orig=original, **kwargs):
                calls[0] += 1
                return __orig(self, *args, **kwargs)

            monkeypatch.setattr(ValidationHooks, name, counting)

        simulate(tiny_scenario)  # validate=False is the default
        assert calls[0] == 0, "a hook fired without any ValidationHooks"

        simulate(dataclasses.replace(tiny_scenario, validate=True))
        assert calls[0] > 500, "sanity: armed hooks do fire"

    def test_virtual_time_unaffected_by_hooks(self, tiny_scenario):
        plain = simulate(tiny_scenario)
        checked = simulate(dataclasses.replace(tiny_scenario, validate=True))
        assert checked.makespan == plain.makespan
        assert checked.metrics == plain.metrics


class TestHooksOverheadBudget:
    def test_disabled_guard_overhead_under_5_percent(
        self, tiny_scenario, monkeypatch
    ):
        """The per-iteration cost of the ``hooks is None`` guards is <5%.

        Counts how many sanitizer calls an armed iteration performs, then
        times that many ``hooks is not None`` evaluations — exactly what
        the hot call sites pay when validation is off — against the wall
        time of an unarmed iteration. Min-of-N keeps it stable on noisy
        CI machines.
        """
        armed = build(dataclasses.replace(tiny_scenario, validate=True))
        armed.run()
        num_guards = armed.validation.total_checks
        assert num_guards > 1000, "expected a busy sanitized iteration"

        iteration_wall = _min_wall(lambda: simulate(tiny_scenario))

        hooks = None

        def guards():
            sink = False
            for _ in range(num_guards):
                sink = hooks is not None
            return sink

        guard_wall = _min_wall(guards, rounds=5)
        overhead = guard_wall / iteration_wall
        assert overhead < 0.05, (
            f"disabled-validation guards cost {overhead:.1%} of an "
            f"iteration ({num_guards} guards, {guard_wall * 1e3:.2f}ms vs "
            f"{iteration_wall * 1e3:.2f}ms)"
        )
