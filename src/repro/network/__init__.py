"""Network model: transports, communication cost models, and the fabric.

The fabric sits between the hardware topology and the collective library:
given two ranks (or a rank group) it resolves which transport their traffic
actually uses — NVLink inside a node, the cluster RDMA fabric when both ends
share a compatible RDMA family, TCP over Ethernet otherwise — and prices
transfers with an alpha-beta cost model that includes per-NIC contention.
"""

from repro.network.transport import Transport, TransportKind, resolve_transport
from repro.network.costmodel import CostModelConfig, CollectiveCostModel
from repro.network.contention import group_node_span
from repro.network.fabric import Fabric
from repro.network.health import FabricHealth, FaultStats, NicHealth
from repro.network.reliability import (
    RetryPolicy,
    delivery_probability,
    expected_attempts,
    expected_retry_overhead,
    reliable_transfer_time,
)

__all__ = [
    "Transport",
    "TransportKind",
    "resolve_transport",
    "CostModelConfig",
    "CollectiveCostModel",
    "group_node_span",
    "Fabric",
    "FabricHealth",
    "FaultStats",
    "NicHealth",
    "RetryPolicy",
    "delivery_probability",
    "expected_attempts",
    "expected_retry_overhead",
    "reliable_transfer_time",
]
