"""Contention accounting: how many flows share each node NIC.

Two distinct sharing effects matter in the paper's workloads:

1. **Within one ring collective** — NCCL builds node-contiguous rings, so no
   matter how many group members live on a node, the group's ring crosses
   that node's NIC exactly once per direction.  Members-per-node therefore
   does *not* multiply NIC traffic for a single group.

2. **Across concurrent collectives** — at the end of an iteration every data
   parallel group synchronises gradients simultaneously.  When tensor
   parallelism places members of ``t`` different DP groups on one node
   (e.g. parameter groups 7/8 with t=8), all ``t`` rings cross that node's
   NIC at once and fair-share its bandwidth.

The executed tier models effect 2 directly: concurrent rings queue through
the same capacity-1 NIC resources.  This module holds the rank-group span
helpers and :class:`FidelityPolicy`, which decides where no such sharing
occurs and the closed form is therefore exact.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FidelityError
from repro.hardware.topology import ClusterTopology
from repro.network.transport import nic_family_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fabric imports us)
    from repro.network.fabric import Fabric

#: The fidelity tiers a scenario can request.  ``executed`` runs every
#: collective step and p2p transfer through the DES NIC resources;
#: ``analytic`` prices every span with the closed-form oracle (and refuses
#: contended scenarios); ``auto`` classifies each span and uses the closed
#: form only where it is provably exact.
FIDELITY_MODES = ("executed", "analytic", "auto")


def group_node_span(topology: ClusterTopology, ranks: Sequence[int]) -> int:
    """Number of distinct nodes a rank group touches."""
    return len({topology.device(r).node_global for r in ranks})


def group_cluster_span(topology: ClusterTopology, ranks: Sequence[int]) -> int:
    """Number of distinct clusters a rank group touches."""
    return len({topology.device(r).cluster_id for r in ranks})


# --------------------------------------------------------------------- #
# fidelity classification
# --------------------------------------------------------------------- #


class FidelityPolicy:
    """Static span classifier for the tiered-fidelity engine.

    Built once per simulation (after rings and pipeline edges are known),
    it decides — *before* any event is issued — which collective rings and
    p2p edges may be priced by the closed-form oracle and committed as one
    aggregate event, and which must run step-by-step through the DES NIC
    resources.

    The closed form is exact only when nothing else competes for the NICs
    a span crosses during its window.  A ring is analytic-eligible iff:

    - no fault plan is active (fault windows can overlap any span) and no
      straggler skews are configured (their queue-reordering side effects
      are an executed-tier phenomenon);
    - the ring stays inside one cluster (the shared inter-cluster uplink
      resource is not priced by the closed form);
    - no other ring crosses any NIC this ring crosses;
    - any pipeline p2p sender sharing one of those NICs is a member of this
      ring, p2p is blocking, and the optimizer issues no background
      (overlapped-with-p2p) buckets — i.e. by the time any member reaches
      the collective, its own sends (the only possible sharers) have
      drained.

    A p2p edge is analytic-eligible iff it is intra-cluster, its sender NIC
    is crossed by no ring and used by no *other* sender rank, and p2p is
    blocking (one rank's sends serialize through its own process).

    ``mode="analytic"`` additionally *requires* every span to be eligible
    and raises :class:`~repro.errors.FidelityError` listing the offending
    spans otherwise — forcing the closed form onto a contended scenario
    would silently misprice it.
    """

    def __init__(
        self,
        mode: str,
        fabric: "Fabric",
        rings: Sequence[Sequence[int]],
        p2p_edges: Sequence[Tuple[int, int]] = (),
        *,
        has_faults: bool = False,
        has_stragglers: bool = False,
        blocking_p2p: bool = True,
        has_overlap: bool = False,
    ) -> None:
        if mode not in FIDELITY_MODES:
            raise FidelityError(
                f"unknown fidelity mode {mode!r}; choose from {FIDELITY_MODES}"
            )
        self.mode = mode
        self._ring_analytic: Dict[Tuple[int, ...], bool] = {}
        self._edge_analytic: Dict[Tuple[int, int], bool] = {}
        self.reasons: List[str] = []

        topo = fabric.topology
        rings_t = [tuple(r) for r in rings if len(tuple(r)) > 1]
        edges = [tuple(e) for e in p2p_edges]

        if mode == "executed":
            for ring in rings_t:
                self._ring_analytic[ring] = False
            for edge in edges:
                self._edge_analytic[edge] = False
            return

        # NIC transmit keys ((node, family)) each ring / each sender uses.
        ring_keys = {ring: self._ring_nic_keys(fabric, ring) for ring in rings_t}
        key_rings: Dict[tuple, List[tuple]] = defaultdict(list)
        for ring, keys in ring_keys.items():
            for key in keys:
                key_rings[key].append(ring)
        edge_key: Dict[Tuple[int, int], Optional[tuple]] = {}
        key_senders: Dict[tuple, Set[int]] = defaultdict(set)
        for src, dst in edges:
            if topo.device(src).node_global == topo.device(dst).node_global:
                edge_key[(src, dst)] = None
            else:
                key = (
                    topo.device(src).node_global,
                    nic_family_for(fabric.transport(src, dst).kind),
                )
                edge_key[(src, dst)] = key
                key_senders[key].add(src)

        for ring in rings_t:
            reason = self._classify_ring(
                topo, ring, ring_keys[ring], key_rings, key_senders,
                has_faults=has_faults, has_stragglers=has_stragglers,
                blocking_p2p=blocking_p2p, has_overlap=has_overlap,
            )
            self._ring_analytic[ring] = reason is None
            if reason is not None:
                self.reasons.append(f"ring {ring}: {reason}")
        for edge in edges:
            reason = self._classify_edge(
                topo, edge, edge_key[edge], key_rings, key_senders,
                has_faults=has_faults, has_stragglers=has_stragglers,
                blocking_p2p=blocking_p2p,
            )
            self._edge_analytic[edge] = reason is None
            if reason is not None:
                self.reasons.append(f"p2p {edge[0]}->{edge[1]}: {reason}")

        if mode == "analytic" and self.reasons:
            raise FidelityError(
                "fidelity='analytic' cannot price this scenario — contended "
                "or fault-exposed spans need executed DES (use fidelity="
                "'auto' to mix tiers)",
                reasons=self.reasons,
            )

    # ------------------------------------------------------------------ #
    # classification rules
    # ------------------------------------------------------------------ #

    @staticmethod
    def _ring_nic_keys(fabric: "Fabric", ring: Tuple[int, ...]) -> Set[tuple]:
        """The (node, NIC family) transmit keys a node-contiguous ring over
        ``ring`` crosses (empty for a single-node ring)."""
        topo = fabric.topology
        keys: Set[tuple] = set()
        d = len(ring)
        for i, r in enumerate(ring):
            nxt = ring[(i + 1) % d]
            node_r = topo.device(r).node_global
            if node_r != topo.device(nxt).node_global:
                keys.add((node_r, nic_family_for(fabric.transport(r, nxt).kind)))
        return keys

    def _classify_ring(
        self,
        topo: ClusterTopology,
        ring: Tuple[int, ...],
        keys: Set[tuple],
        key_rings: Dict[tuple, List[tuple]],
        key_senders: Dict[tuple, Set[int]],
        *,
        has_faults: bool,
        has_stragglers: bool,
        blocking_p2p: bool,
        has_overlap: bool,
    ) -> Optional[str]:
        """``None`` when the ring is analytic-eligible, else the reason it
        must execute step-by-step."""
        if has_faults:
            return "fault plan active (windows may overlap the collective)"
        if has_stragglers:
            return "straggler skews active"
        if not keys:
            return None  # single-node ring: NVLink only, trivially exclusive
        if group_cluster_span(topo, ring) > 1:
            return "crosses the shared inter-cluster uplink"
        for key in keys:
            sharers = [r for r in key_rings[key] if r != ring]
            if sharers:
                return (
                    f"shares NIC (node {key[0]}, {key[1].value}) with "
                    f"ring {sharers[0]}"
                )
            senders = key_senders.get(key, set())
            if senders:
                if has_overlap:
                    return (
                        f"background gradient buckets overlap pipeline p2p "
                        f"on NIC (node {key[0]}, {key[1].value})"
                    )
                if not blocking_p2p:
                    return (
                        f"asynchronous p2p may still occupy NIC "
                        f"(node {key[0]}, {key[1].value})"
                    )
                outsiders = senders - set(ring)
                if outsiders:
                    return (
                        f"p2p sender rank {min(outsiders)} shares NIC "
                        f"(node {key[0]}, {key[1].value})"
                    )
        return None

    def _classify_edge(
        self,
        topo: ClusterTopology,
        edge: Tuple[int, int],
        key: Optional[tuple],
        key_rings: Dict[tuple, List[tuple]],
        key_senders: Dict[tuple, Set[int]],
        *,
        has_faults: bool,
        has_stragglers: bool,
        blocking_p2p: bool,
    ) -> Optional[str]:
        if has_faults:
            return "fault plan active"
        if has_stragglers:
            return "straggler skews active"
        if key is None:
            return None  # intra-node: no NIC either way
        src, dst = edge
        if topo.device(src).cluster_id != topo.device(dst).cluster_id:
            return "crosses the shared inter-cluster uplink"
        if not blocking_p2p:
            return "asynchronous p2p sends may overlap on the sender NIC"
        if key_rings.get(key):
            return (
                f"collective ring crosses the sender NIC "
                f"(node {key[0]}, {key[1].value})"
            )
        if len(key_senders.get(key, set())) > 1:
            return (
                f"multiple sender ranks share NIC (node {key[0]}, "
                f"{key[1].value})"
            )
        return None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def collective_analytic(self, ring: Sequence[int]) -> bool:
        """Whether the collective over ``ring`` may be priced analytically
        and committed as a single aggregate event."""
        return self._ring_analytic.get(tuple(ring), False)

    def p2p_analytic(self, src: int, dst: int) -> bool:
        """Whether the (src, dst) pipeline transfer may skip the NIC
        resource (exclusively held by construction)."""
        return self._edge_analytic.get((src, dst), False)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly classification report (decision audit trail)."""
        rings = sorted(self._ring_analytic.items())
        edges = sorted(self._edge_analytic.items())
        return {
            "mode": self.mode,
            "rings_analytic": sum(1 for _, a in rings if a),
            "rings_executed": sum(1 for _, a in rings if not a),
            "edges_analytic": sum(1 for _, a in edges if a),
            "edges_executed": sum(1 for _, a in edges if not a),
            "fallback_reasons": list(self.reasons),
        }
