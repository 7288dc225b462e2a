"""Workloads: TPC-C-like OLTP, TPC-H-like DSS, DBmbench-style micros,
the client driver, and the workload profiler."""

from .driver import (
    SATURATED_CLIENTS,
    dss_parallel_query,
    dss_unsaturated,
    dss_workload,
    oltp_unsaturated,
    oltp_workload,
    workload_for,
)
from .micro import MicroDatabase, micro_idx, micro_ss
from .profile import (
    TraceProfile,
    WorkloadProfile,
    format_profile,
    profile_trace,
    profile_workload,
)
from .tpcc import TpccConfig, TpccDatabase
from .tpch import QUERIES, TpchDatabase

__all__ = [
    "QUERIES",
    "SATURATED_CLIENTS",
    "MicroDatabase",
    "TraceProfile",
    "WorkloadProfile",
    "TpccConfig",
    "TpccDatabase",
    "TpchDatabase",
    "dss_parallel_query",
    "dss_unsaturated",
    "dss_workload",
    "oltp_unsaturated",
    "oltp_workload",
    "format_profile",
    "micro_idx",
    "micro_ss",
    "profile_trace",
    "profile_workload",
    "workload_for",
]
