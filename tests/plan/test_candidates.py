"""Property tests for the planner's candidate enumerator."""

import dataclasses

import pytest

from repro.api import FRAMEWORK_PRESETS, Scenario, build
from repro.plan import (
    SEARCH_FRAMEWORKS,
    SEARCH_SCHEDULES,
    enumerate_candidates,
    enumerate_layouts,
    preset_scenarios,
)
from repro.validate.scenarios import sample_scenarios


def tiny_base(**overrides) -> Scenario:
    kwargs = dict(
        env="hybrid", nodes=2, gpus_per_node=4, num_layers=8,
        hidden_size=256, num_attention_heads=4, seq_length=512,
        micro_batch_size=2, global_batch_size=64, framework="holmes-base",
        trace_enabled=False, label="cand-base",
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def sampled_bases(n=8, seed=3):
    """Small bases drawn through the metamorphic sampler (fault-free:
    the planner plans the healthy machine)."""
    bases = []
    for scenario in sample_scenarios(n, seed=seed):
        bases.append(dataclasses.replace(
            scenario, fault_seed=None, trace_enabled=False,
        ))
    return bases


def test_every_layout_divides_world_size():
    base = tiny_base()
    layouts = enumerate_layouts(base)
    assert layouts
    for t, p, d in layouts:
        assert t * p * d == base.world_size
        assert base.gpus_per_node % t == 0
        assert base.global_batch_size % (d * base.micro_batch_size) == 0


@pytest.mark.property
def test_layout_divisibility_over_sampled_bases():
    for base in sampled_bases():
        for t, p, d in enumerate_layouts(base):
            assert t * p * d == base.world_size, base.label
            assert base.gpus_per_node % t == 0
            assert base.global_batch_size % (d * base.micro_batch_size) == 0
            assert p <= base.num_layers


def test_candidates_carry_whole_microbatch_workloads():
    base = tiny_base()
    for candidate in enumerate_candidates(base):
        assert candidate.global_batch_size == base.global_batch_size
        assert candidate.num_microbatches >= 1
        assert (
            candidate.data * candidate.micro_batch_size
            * candidate.num_microbatches
            == candidate.global_batch_size
        )
        if candidate.schedule == "interleaved":
            assert candidate.pipeline >= 2
            assert candidate.num_chunks == 2
            assert candidate.num_microbatches % candidate.pipeline == 0
        else:
            assert candidate.num_chunks == 1


def test_no_duplicate_canonical_layouts():
    base = tiny_base()
    candidates = enumerate_candidates(base)
    digests = [c.digest() for c in candidates]
    assert len(digests) == len(set(digests))


@pytest.mark.property
def test_no_duplicate_canonical_layouts_over_sampled_bases():
    for base in sampled_bases():
        digests = [c.digest() for c in enumerate_candidates(base)]
        assert len(digests) == len(set(digests)), base.label


def test_enumeration_is_deterministic():
    base = tiny_base()
    first = enumerate_candidates(base)
    second = enumerate_candidates(base)
    assert first == second
    # and stable across an equal-but-reconstructed base
    third = enumerate_candidates(tiny_base())
    assert first == third


def test_placements_are_valid_permutations():
    base = tiny_base()
    # One candidate per placement strategy is enough: placement depends on
    # (env, layout, strategy), not on the optimizer/schedule axes.
    seen = set()
    for candidate in enumerate_candidates(base):
        spec = FRAMEWORK_PRESETS[candidate.framework]
        key = (candidate.tensor, candidate.pipeline, spec.placement_strategy)
        if key in seen:
            continue
        seen.add(key)
        plan = build(candidate).plan
        world = candidate.world_size
        physical = sorted(plan.placement.physical(r) for r in range(world))
        assert physical == list(range(world)), candidate.label


def test_unknown_axis_values_are_rejected():
    from repro.errors import ConfigurationError

    base = tiny_base()
    with pytest.raises(ConfigurationError):
        enumerate_candidates(base, schedules=["zigzag"])
    with pytest.raises(ConfigurationError):
        enumerate_candidates(base, frameworks=["not-a-framework"])


def test_search_axes_cover_the_strategy_space():
    base = tiny_base()
    candidates = enumerate_candidates(base)
    schedules = {c.schedule for c in candidates}
    assert schedules == set(SEARCH_SCHEDULES)
    placements = {
        FRAMEWORK_PRESETS[c.framework].placement_strategy for c in candidates
    }
    assert placements == {"holmes", "identity"}
    partitions = {
        FRAMEWORK_PRESETS[c.framework].partition_strategy
        for c in candidates
        if c.pipeline > 1
    }
    assert partitions == {"self_adapting", "uniform"}
    assert {c.framework for c in candidates} <= set(SEARCH_FRAMEWORKS)


def test_preset_scenarios_keep_the_base_layout():
    base = tiny_base(tensor=1, pipeline=2, data=4)
    baselines = preset_scenarios(base)
    names = {b.framework for b in baselines}
    assert "holmes" in names and "megatron-lm" in names
    for baseline in baselines:
        assert (baseline.tensor, baseline.pipeline, baseline.data) == (1, 2, 4)
        assert baseline.trace_enabled
        assert baseline.label == f"preset:{baseline.framework}"
