"""Candidate enumeration for the NIC-aware auto-planner.

A *candidate* is a complete :class:`repro.api.Scenario` derived from a base
scenario by replacing its parallel layout and policy knobs:

- ``(t, p, d)`` — every factorization of the world size where ``t`` divides
  the node's GPU count, ``p`` leaves each stage at least one transformer
  layer, and ``d`` divides the global batch into whole microbatches;
- schedule preset — ``1f1b``, ``gpipe``, or ``interleaved`` (two model
  chunks, subject to the engine's divisibility rules);
- policy preset — a :data:`repro.api.FRAMEWORK_PRESETS` name covering the
  placement axis (Holmes NIC-affinity vs rank-order identity), the
  partition axis (Eq. 2 self-adapting vs uniform), and the optimizer
  overlap axis.

Enumeration is pure data-driven iteration over sorted axes: for a fixed
base scenario it is deterministic (no RNG anywhere) and emits no two
candidates with the same canonical identity.  Everything else about the
base — machine, model, workload, perturbations, knobs — is carried through
verbatim, so candidate digests key the same result cache as any other run.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.api import FRAMEWORK_PRESETS, Scenario
from repro.errors import ConfigurationError, ParallelismError
from repro.parallel.degrees import feasible_layouts

#: Policy axis searched by default: every distinct placement x partition x
#: optimizer-overlap combination expressible as a framework preset.  The
#: ``holmes`` alias (identical spec to ``holmes-full``) is deliberately
#: absent — aliases would only produce duplicate physics under a second
#: name.
SEARCH_FRAMEWORKS: Tuple[str, ...] = (
    "holmes-full",
    "holmes-base",
    "holmes-no-sap",
    "holmes-no-overlap",
    "megatron-lm",
    "megatron-llama",
)

#: Schedule axis searched by default.
SEARCH_SCHEDULES: Tuple[str, ...] = ("1f1b", "gpipe", "interleaved")

#: Model chunks used on the interleaved schedule (the engine's canonical
#: two-chunk configuration, as in the metamorphic sampler).
INTERLEAVED_CHUNKS = 2


def enumerate_layouts(
    base: Scenario, max_tensor: Optional[int] = None
) -> List[Tuple[int, int, int]]:
    """Every feasible ``(t, p, d)`` for the base's machine, model, and
    workload, in deterministic ascending ``(t, p)`` order (see
    :func:`repro.parallel.degrees.feasible_layouts`)."""
    return feasible_layouts(
        base.world_size,
        base.gpus_per_node,
        base.num_layers,
        base.global_batch_size,
        base.micro_batch_size,
        max_tensor=max_tensor,
    )


def _schedule_variants(
    p: int, num_microbatches: int, num_layers: int, schedules: Sequence[str]
) -> Iterator[Tuple[str, int]]:
    """(schedule, num_chunks) pairs valid for a ``p``-stage pipeline.

    ``interleaved`` follows the engine's rules (and the metamorphic
    sampler's): at least two stages, microbatches divisible by the stage
    count, and enough layers for every (stage, chunk) slot.
    """
    for schedule in schedules:
        if schedule == "interleaved":
            if (
                p < 2
                or num_microbatches % p != 0
                or num_layers < p * INTERLEAVED_CHUNKS
            ):
                continue
            yield schedule, INTERLEAVED_CHUNKS
        else:
            yield schedule, 1


def _policy_key(name: str, p: int) -> Tuple[object, ...]:
    """Collapse framework presets that are physically identical for this
    pipeline degree (the partition axis vanishes at ``p == 1``)."""
    spec = FRAMEWORK_PRESETS[name]
    partition = spec.partition_strategy if p > 1 else "-"
    return (spec.placement_strategy, partition, spec.optimizer.name, spec.nic_aware)


def candidate_label(t: int, p: int, d: int, schedule: str, framework: str) -> str:
    return f"plan:t{t}p{p}d{d}:{schedule}:{framework}"


def enumerate_candidates(
    base: Scenario,
    *,
    schedules: Optional[Sequence[str]] = None,
    frameworks: Optional[Sequence[str]] = None,
    max_tensor: Optional[int] = None,
) -> List[Scenario]:
    """The full candidate space for ``base``, as concrete scenarios.

    Candidates inherit every base field except the layout/policy axes and
    tracing (search candidates run untraced; the confirm phase re-enables
    tracing on the survivors).  The list is deterministic for a fixed base
    and contains no two scenarios with the same canonical identity.
    """
    schedules = tuple(schedules) if schedules else SEARCH_SCHEDULES
    frameworks = tuple(frameworks) if frameworks else SEARCH_FRAMEWORKS
    for name in frameworks:
        if name not in FRAMEWORK_PRESETS:
            raise ConfigurationError(
                f"unknown framework {name!r}; one of {sorted(FRAMEWORK_PRESETS)}"
            )
    for schedule in schedules:
        if schedule not in SEARCH_SCHEDULES:
            raise ConfigurationError(
                f"unknown schedule {schedule!r}; one of {SEARCH_SCHEDULES}"
            )

    candidates: List[Scenario] = []
    seen_digests = set()
    for t, p, d in enumerate_layouts(base, max_tensor=max_tensor):
        m = base.global_batch_size // (d * base.micro_batch_size)
        for schedule, chunks in _schedule_variants(
            p, m, base.num_layers, schedules
        ):
            seen_policies = set()
            for framework in frameworks:
                policy = _policy_key(framework, p)
                if policy in seen_policies:
                    continue
                seen_policies.add(policy)
                try:
                    candidate = dataclasses.replace(
                        base,
                        tensor=t,
                        pipeline=p,
                        data=d,
                        schedule=schedule,
                        num_chunks=chunks,
                        framework=framework,
                        trace_enabled=False,
                        label=candidate_label(t, p, d, schedule, framework),
                    )
                except (ConfigurationError, ParallelismError):
                    continue
                digest = candidate.digest()
                if digest in seen_digests:
                    continue
                seen_digests.add(digest)
                candidates.append(candidate)
    return candidates


def preset_scenarios(base: Scenario) -> List[Scenario]:
    """The framework-preset baselines the discovered layout must beat: the
    base's own layout under every :data:`repro.frameworks.FRAMEWORKS`
    entry (the public framework registry), traced so the confirm phase can
    report bubble/comm fractions."""
    from repro.frameworks import FRAMEWORKS

    baselines = []
    for name in sorted(FRAMEWORKS):
        baselines.append(
            dataclasses.replace(
                base,
                framework=name,
                trace_enabled=True,
                label=f"preset:{name}",
            )
        )
    return baselines
