"""The api surface reproduces the legacy entry points byte-for-byte."""

from repro.api import RunResult, Scenario, run
from repro.bench.paramgroups import PARAM_GROUPS
from repro.bench.runner import case_scenario, run_holmes_case
from repro.validate.scenarios import ENV_BUILDERS


def test_run_matches_run_holmes_case():
    group = PARAM_GROUPS[1]
    legacy = run_holmes_case(
        ENV_BUILDERS["hybrid"](4, 8), group, scenario="hybrid"
    )
    modern = run(case_scenario("Hybrid", 4, group))
    assert modern.tflops == legacy.tflops
    assert modern.throughput == legacy.throughput
    assert modern.iteration_time == legacy.iteration_time
    assert modern.reduce_scatter_time == legacy.reduce_scatter_time
    assert modern.dp_rdma_fraction == legacy.dp_rdma_fraction
    assert modern.world_size == legacy.num_gpus


def test_run_is_deterministic():
    scenario = case_scenario("ib", 2, PARAM_GROUPS[1])
    assert run(scenario) == run(scenario)


def test_run_result_round_trips_through_json():
    result = run(case_scenario("roce", 2, PARAM_GROUPS[1]))
    back = RunResult.from_dict(result.to_dict())
    assert back == result


def test_result_carries_scenario_provenance():
    scenario = case_scenario("ethernet", 2, PARAM_GROUPS[1])
    result = run(scenario)
    assert result.scenario == scenario.label
    assert result.scenario_digest == scenario.digest()
    assert Scenario.from_canonical(scenario.canonical()) == scenario
