"""Parallelism degree configuration and validation.

Per the paper's formalisation (§2.4): pipeline degree ``p``, tensor degree
``t``, data degree ``d``, with ``d * p * t = N`` (the total device count).
Tensor parallelism must fit within a node (§3.1.1: TP groups communicate
over NVLink/PCIe, so ``t <= G``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ParallelismError


@dataclass(frozen=True)
class ParallelConfig:
    """The (t, p, d) triple plus batch geometry."""

    tensor: int
    pipeline: int
    data: int
    micro_batch_size: int = 1
    global_batch_size: int = 1

    def __post_init__(self) -> None:
        for name in ("tensor", "pipeline", "data", "micro_batch_size", "global_batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ParallelismError(f"{name} must be >= 1, got {value}")
        samples_per_replica = self.global_batch_size // self.data
        if self.global_batch_size % self.data != 0:
            raise ParallelismError(
                f"global batch {self.global_batch_size} not divisible by "
                f"data parallel degree {self.data}"
            )
        if samples_per_replica % self.micro_batch_size != 0:
            raise ParallelismError(
                f"per-replica batch {samples_per_replica} not divisible by "
                f"micro batch size {self.micro_batch_size}"
            )

    @property
    def world_size(self) -> int:
        """N = d * p * t."""
        return self.tensor * self.pipeline * self.data

    @property
    def num_microbatches(self) -> int:
        """Microbatches per data-parallel replica per iteration (m)."""
        return self.global_batch_size // self.data // self.micro_batch_size

    def validate_against(self, world_size: int, gpus_per_node: int) -> None:
        """Check the degrees fit the machine (N matches, t within a node)."""
        if self.world_size != world_size:
            raise ParallelismError(
                f"d*p*t = {self.world_size} but the machine has {world_size} GPUs"
            )
        if self.tensor > gpus_per_node:
            raise ParallelismError(
                f"tensor parallel degree {self.tensor} exceeds GPUs per node "
                f"{gpus_per_node}; TP must stay within a node (paper S3.1.1)"
            )
        if gpus_per_node % self.tensor != 0:
            raise ParallelismError(
                f"GPUs per node {gpus_per_node} not divisible by tensor degree "
                f"{self.tensor}; TP groups would straddle nodes"
            )

    def __str__(self) -> str:
        return (
            f"t={self.tensor} p={self.pipeline} d={self.data} "
            f"mbs={self.micro_batch_size} gbs={self.global_batch_size} "
            f"(m={self.num_microbatches})"
        )


def feasible_layouts(
    world_size: int,
    gpus_per_node: int,
    num_layers: int,
    global_batch_size: int,
    micro_batch_size: int,
    max_tensor: Optional[int] = None,
) -> List[Tuple[int, int, int]]:
    """Every ``(t, p, d)`` a machine, model and batch admit, in ascending
    ``(t, p)`` order.

    ``t`` divides ``gpus_per_node`` (and is at most ``max_tensor``);
    ``t * p`` divides the world size; ``p`` leaves every stage at least one
    transformer layer; the global batch splits over ``d`` replicas into
    whole microbatches.
    """
    max_t = min(max_tensor or gpus_per_node, gpus_per_node)
    layouts: List[Tuple[int, int, int]] = []
    for t in range(1, max_t + 1):
        if gpus_per_node % t != 0:
            continue
        for p in range(1, num_layers + 1):
            if world_size % (t * p) != 0:
                continue
            d = world_size // (t * p)
            if global_batch_size % (d * micro_batch_size) == 0:
                layouts.append((t, p, d))
    return layouts
