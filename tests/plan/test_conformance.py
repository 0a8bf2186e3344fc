"""Planner conformance: the cheap search tier and the executed confirm
tier agree on the winning layout.

The two-phase search prunes with ``auto``-fidelity simulation and only
confirms the finalists with executed runs, so the whole design rests on
the tiers ranking candidates the same way.  Over metamorphically sampled
small scenarios (faults stripped — the planner plans the healthy
machine), the search-tier top-1 must be a near-tie of the executed-tier
top-1 within the declared :data:`PLAN_RANK_RTOL`, and every dual-phase
candidate's search-vs-confirm deviation must stay within the planner's
declared tolerance.
"""

import dataclasses

import pytest

from repro.plan import PLAN_FIDELITY_RTOL, PLAN_RANK_RTOL, plan_scenario
from repro.validate.scenarios import sample_scenarios

#: (budget, top_k) — confirm every searched survivor so the executed
#: ranking covers the same candidates the search tier ranked.
BUDGET = 6

SCENARIOS = sample_scenarios(14, seed=7)


def planner_base(scenario):
    return dataclasses.replace(scenario, fault_seed=None, trace_enabled=False)


@pytest.mark.property
@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.label for s in SCENARIOS])
def test_search_and_confirm_tiers_agree_on_top1(scenario):
    base = planner_base(scenario)
    result = plan_scenario(
        base,
        budget=BUDGET,
        top_k=BUDGET,
        search_fidelity="auto",
        confirm_fidelity="executed",
    )

    dual = [r for r in result.discovered if r.search_tflops is not None]
    assert dual, "no dual-phase candidates survived the search"

    # Top-1 agreement under the near-tie tolerance: the layout the cheap
    # tier would pick must confirm within one rank band of the executed
    # winner.
    search_top1 = max(dual, key=lambda r: (r.search_tflops, r.label))
    exec_top1 = max(dual, key=lambda r: (r.tflops, r.label))
    assert search_top1.tflops >= (1.0 - PLAN_RANK_RTOL) * exec_top1.tflops, (
        f"{scenario.describe()}: search tier picked {search_top1.label} "
        f"({search_top1.tflops:.2f} TFLOPS confirmed) but executed winner "
        f"is {exec_top1.label} ({exec_top1.tflops:.2f} TFLOPS)"
    )

    # Per-candidate fidelity gate: auto-tier estimates track executed runs
    # within the declared tolerance on every confirmed candidate.
    assert result.tolerance == PLAN_FIDELITY_RTOL
    assert result.within_tolerance, (
        f"{scenario.describe()}: max deviation {result.max_deviation:.4f} "
        f"exceeds {result.tolerance:.4f}"
    )


@pytest.mark.property
def test_conformance_sample_is_large_enough():
    # The satellite contract: at least 10 sampled scenarios back the
    # conformance claim.
    assert len(SCENARIOS) >= 10
