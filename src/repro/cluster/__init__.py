"""Cluster substrate: node runtime and key-to-preferred-site directories."""

from repro.cluster.directory import (
    CallableDirectory,
    ConsistentHashDirectory,
    Directory,
    ExplicitDirectory,
    ShardMap,
)
from repro.cluster.membership import MembershipView, NodeMembership
from repro.cluster.node import Node
from repro.cluster.rebalancer import Rebalancer, plan_moves

__all__ = [
    "CallableDirectory",
    "ConsistentHashDirectory",
    "Directory",
    "ExplicitDirectory",
    "MembershipView",
    "NodeMembership",
    "Node",
    "Rebalancer",
    "ShardMap",
    "plan_moves",
]
