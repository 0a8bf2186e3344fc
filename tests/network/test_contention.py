"""Unit tests for NIC contention accounting."""

import pytest

from repro.hardware.nic import NICType
from repro.hardware.presets import make_topology, homogeneous_topology
from repro.network.contention import group_cluster_span, group_node_span


@pytest.fixture
def topo():
    # 4 nodes x 8 GPUs, one IB cluster.
    return homogeneous_topology(4, NICType.INFINIBAND)


class TestSpans:
    def test_node_span(self, topo):
        assert group_node_span(topo, [0, 1, 2]) == 1
        assert group_node_span(topo, [0, 8, 16]) == 3

    def test_cluster_span(self):
        topo = make_topology([(1, NICType.ROCE), (1, NICType.INFINIBAND)])
        assert group_cluster_span(topo, [0, 1]) == 1
        assert group_cluster_span(topo, [0, 8]) == 2

