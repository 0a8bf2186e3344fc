"""The framework-preset abstraction and its runner."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.core.engine import IterationResult, TrainingSimulation
from repro.core.optimizer import OptimizerStrategy
from repro.core.scheduler import HolmesScheduler
from repro.faults.plan import FaultPlan
from repro.hardware.topology import ClusterTopology
from repro.model.config import GPTConfig
from repro.network.costmodel import CostModelConfig
from repro.parallel.degrees import ParallelConfig


@dataclass(frozen=True)
class FrameworkSpec:
    """A named policy bundle over the shared training engine."""

    name: str
    placement_strategy: str  # "holmes" | "identity"
    partition_strategy: str  # "self_adapting" | "uniform"
    optimizer: OptimizerStrategy
    nic_aware: bool
    alpha: float = 1.05  # Eq. 2 hyper-parameter (self-adapting partition)

    def with_overrides(self, **kwargs: object) -> "FrameworkSpec":
        """A copy with some fields replaced (ablation helper)."""
        return replace(self, **kwargs)


def environment_is_heterogeneous(topology: ClusterTopology) -> bool:
    """Whether the machine mixes NIC families across its nodes — the
    condition under which NIC-oblivious frameworks fall back to Ethernet."""
    families = {
        topology.nic_type_of(topology.ranks_of_node(n)[0])
        for n in range(topology.num_nodes)
    }
    return len(families) > 1


def build_simulation(
    spec: FrameworkSpec,
    topology: ClusterTopology,
    parallel: ParallelConfig,
    model: GPTConfig,
    *,
    schedule: str = "1f1b",
    num_chunks: int = 1,
    cost_config: Optional[CostModelConfig] = None,
    trace_enabled: bool = True,
    stragglers: Optional[Dict[int, float]] = None,
    tie_embeddings: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    validation: Optional[object] = None,
    fidelity: str = "executed",
) -> TrainingSimulation:
    """Plan one training iteration under a framework preset and return the
    simulation, not yet run.

    This is the one place a preset's policy becomes a simulation: the
    preset's placement and partition plan the machine (Eq. 2 with the
    preset's ``alpha``), and a NIC-oblivious preset on a heterogeneous
    machine is forced onto Ethernet.  The remaining arguments pass through
    to :class:`~repro.core.engine.TrainingSimulation`.
    """
    plan = HolmesScheduler(alpha=spec.alpha).plan(
        topology,
        parallel,
        model,
        placement_strategy=spec.placement_strategy,
        partition_strategy=spec.partition_strategy,
    )
    return TrainingSimulation(
        plan,
        model,
        optimizer=spec.optimizer,
        schedule=schedule,
        num_chunks=num_chunks,
        cost_config=cost_config,
        force_ethernet=(not spec.nic_aware)
        and environment_is_heterogeneous(topology),
        trace_enabled=trace_enabled,
        stragglers=stragglers,
        tie_embeddings=tie_embeddings,
        fault_plan=fault_plan,
        validation=validation,
        fidelity=fidelity,
    )


def simulate_framework(
    spec: FrameworkSpec,
    topology: ClusterTopology,
    parallel: ParallelConfig,
    model: GPTConfig,
    schedule: str = "1f1b",
    num_chunks: int = 1,
    cost_config: Optional[CostModelConfig] = None,
    trace_enabled: bool = True,
    fidelity: str = "executed",
) -> IterationResult:
    """Plan and simulate one training iteration under a framework preset."""
    return build_simulation(
        spec,
        topology,
        parallel,
        model,
        schedule=schedule,
        num_chunks=num_chunks,
        cost_config=cost_config,
        trace_enabled=trace_enabled,
        fidelity=fidelity,
    ).run()
