"""Transactional workloads: YCSB and TPC-C ported to the key-value model."""

from repro.workloads.base import Rollback, TxnContext, TxnProgram, Workload
from repro.workloads.distributions import UniformChooser, ZipfKeyGenerator
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from repro.workloads.tpcc import TPCCConfig, TPCCWorkload

__all__ = [
    "Rollback",
    "TPCCConfig",
    "TPCCWorkload",
    "TxnContext",
    "TxnProgram",
    "UniformChooser",
    "Workload",
    "YCSBConfig",
    "YCSBWorkload",
    "ZipfKeyGenerator",
]
