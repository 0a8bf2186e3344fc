"""Auto-parallelism planner — the paper's stated future work
("explore scheduling methods for diverse environments", §1).

Given a machine and a model, enumerate every feasible ``(t, p, d)``
configuration, reject those that would not fit in GPU memory or whose
pipeline stages cannot align with cluster boundaries, simulate the
survivors through the full engine, and rank them by throughput.

This turns Holmes from "run the configuration the paper gives you" into a
capacity-planning tool: ``plan_best(topology, model, batch)`` answers "how
should I shard this model over these clusters?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.memory_model import estimate_memory
from repro.core.optimizer import STRATEGIES, OptimizerStrategy
from repro.errors import ConfigurationError, ParallelismError, SchedulingError
from repro.hardware.topology import ClusterTopology
from repro.model.config import GPTConfig
from repro.network.costmodel import CostModelConfig
from repro.parallel.degrees import ParallelConfig, feasible_layouts


@dataclass(frozen=True)
class PlanCandidate:
    """One evaluated configuration."""

    parallel: ParallelConfig
    stage_layers: tuple
    tflops: float
    throughput: float
    iteration_time: float
    memory_utilization: float
    straddling_stages: int

    def describe(self) -> str:
        return (
            f"(t={self.parallel.tensor}, p={self.parallel.pipeline}, "
            f"d={self.parallel.data})  "
            f"{self.tflops:6.1f} TFLOPS  {self.throughput:7.2f} samples/s  "
            f"mem {self.memory_utilization * 100:3.0f}%"
        )


def enumerate_configs(
    topology: ClusterTopology,
    model: GPTConfig,
    global_batch_size: int,
    micro_batch_size: int = 4,
    max_tensor: Optional[int] = None,
) -> Iterable[ParallelConfig]:
    """All (t, p, d) triples valid for the machine, model, and batch (see
    :func:`repro.parallel.degrees.feasible_layouts`)."""
    for t, p, d in feasible_layouts(
        topology.world_size,
        topology.gpus_per_node,
        model.num_layers,
        global_batch_size,
        micro_batch_size,
        max_tensor=max_tensor,
    ):
        try:
            yield ParallelConfig(
                tensor=t, pipeline=p, data=d,
                micro_batch_size=micro_batch_size,
                global_batch_size=global_batch_size,
            )
        except ParallelismError:
            continue


def evaluate_candidates(
    topology: ClusterTopology,
    model: GPTConfig,
    configs: Iterable[ParallelConfig],
    optimizer: Optional[OptimizerStrategy] = None,
    cost_config: Optional[CostModelConfig] = None,
    allow_straddling: bool = False,
    alpha: float = 1.05,
) -> List[PlanCandidate]:
    """Simulate each configuration under the Holmes policy (with the given
    optimizer and Eq. 2 ``alpha``); drop infeasible ones."""
    # function-local: repro.frameworks imports repro.core
    from repro.frameworks.base import build_simulation
    from repro.frameworks.holmes import HOLMES

    spec = HOLMES.with_overrides(
        optimizer=optimizer or STRATEGIES["overlapped"], alpha=alpha
    )
    gpu = topology.node_of(0).gpu
    candidates: List[PlanCandidate] = []
    for parallel in configs:
        try:
            sim = build_simulation(
                spec, topology, parallel, model,
                cost_config=cost_config, trace_enabled=False,
            )
        except (SchedulingError, ParallelismError, ConfigurationError):
            continue
        plan = sim.plan
        if plan.straddling_stages and not allow_straddling:
            continue
        estimate = estimate_memory(model, parallel, list(plan.stage_layers))
        if not estimate.fits(gpu):
            continue
        result = sim.run()
        candidates.append(
            PlanCandidate(
                parallel=parallel,
                stage_layers=plan.stage_layers,
                tflops=result.tflops,
                throughput=result.throughput,
                iteration_time=result.iteration_time,
                memory_utilization=estimate.utilization(gpu),
                straddling_stages=plan.straddling_stages,
            )
        )
    return sorted(candidates, key=lambda c: -c.throughput)


def plan_best(
    topology: ClusterTopology,
    model: GPTConfig,
    global_batch_size: int,
    micro_batch_size: int = 4,
    top_k: int = 5,
    **kwargs: object,
) -> List[PlanCandidate]:
    """The planner's front door: the ``top_k`` fastest feasible plans.

    Raises :class:`ConfigurationError` when nothing fits (model too large
    for the machine at every sharding).
    """
    configs = enumerate_configs(
        topology, model, global_batch_size, micro_batch_size
    )
    candidates = evaluate_candidates(topology, model, configs, **kwargs)
    if not candidates:
        raise ConfigurationError(
            "no feasible (t, p, d) configuration: the model does not fit "
            "this machine at any sharding"
        )
    return candidates[:top_k]
