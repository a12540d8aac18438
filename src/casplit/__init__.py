"""Slotted multi-stream carrier-aggregation simulator with pluggable PDCP splitters."""

__version__ = "0.1.0"

from casplit.core import make_rng
from casplit.channel import CarrierConfig, sample_fading, path_loss, sinr_db, mac_capacity
from casplit.stack import CountStack, ProtocolStack
from casplit.fuzzy_pid import (
    SplitAction,
    PidGains,
    FuzzyConfig,
    FuzzyPidController,
    compute_k,
    pid_increment,
    schedule_action,
    fuzzify,
    update_gains,
)
from casplit.scenario import ScenarioConfig, RunMode, build_run
from casplit.metrics import RunSummary, EtaReport, utilization_ratio, buffer_throughput_correlation

__all__ = [
    "make_rng",
    "CarrierConfig",
    "sample_fading",
    "path_loss",
    "sinr_db",
    "mac_capacity",
    "CountStack",
    "ProtocolStack",
    "SplitAction",
    "PidGains",
    "FuzzyConfig",
    "FuzzyPidController",
    "compute_k",
    "pid_increment",
    "schedule_action",
    "fuzzify",
    "update_gains",
    "ScenarioConfig",
    "RunMode",
    "build_run",
    "RunSummary",
    "EtaReport",
    "utilization_ratio",
    "buffer_throughput_correlation",
]
