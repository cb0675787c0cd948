"""Measurement: run statistics, freshness accounting, histories, checkers."""

from repro.metrics.stats import (
    AbortReason,
    MetricsRecorder,
    ReservoirSample,
    RunningStat,
)
from repro.metrics.history import History, OpRecord, TxnRecord
from repro.metrics.psi_checker import (
    CheckResult,
    check_fresh,
    check_no_read_skew,
    check_psi,
    check_site_order,
    find_long_forks,
)

__all__ = [
    "AbortReason",
    "CheckResult",
    "History",
    "MetricsRecorder",
    "OpRecord",
    "ReservoirSample",
    "RunningStat",
    "TxnRecord",
    "check_fresh",
    "check_no_read_skew",
    "check_psi",
    "check_site_order",
    "find_long_forks",
]
