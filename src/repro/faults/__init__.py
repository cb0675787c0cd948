"""Fault injection: nemesis process and declarative fault schedules."""

from repro.faults.nemesis import DownWindow, Nemesis
from repro.faults.schedules import (
    CRASH,
    CRASH_DURABLE,
    HEAL,
    PARTITION,
    RESTART,
    FaultEvent,
    crash_cycle,
    durable_crash_cycle,
    failover_schedule,
    ordered,
    partition_cycle,
    random_schedule,
    shard_migration_schedule,
)

__all__ = [
    "Nemesis",
    "DownWindow",
    "FaultEvent",
    "CRASH",
    "CRASH_DURABLE",
    "RESTART",
    "PARTITION",
    "HEAL",
    "crash_cycle",
    "durable_crash_cycle",
    "failover_schedule",
    "partition_cycle",
    "random_schedule",
    "shard_migration_schedule",
    "ordered",
]
