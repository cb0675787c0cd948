"""Cluster substrate: node runtime and key-to-preferred-site directories."""

from repro.cluster.directory import (
    CallableDirectory,
    ConsistentHashDirectory,
    Directory,
    ExplicitDirectory,
    ShardMap,
)
from repro.cluster.node import Node

__all__ = [
    "CallableDirectory",
    "ConsistentHashDirectory",
    "Directory",
    "ExplicitDirectory",
    "Node",
    "ShardMap",
]
