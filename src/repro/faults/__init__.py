"""Fault injection: deterministic fault plans for resilience experiments.

See :mod:`repro.faults.plan` for the model, :mod:`repro.faults.crashpoints`
for the ALICE/CrashMonkey-style crash-point enumeration harness, and
``docs/faults.md`` / ``docs/crash_consistency.md`` for the full story
(fault classes, the NVMe retry rule, chain degradation, power loss,
and the observability additions).
"""

from repro.faults.crashpoints import (
    CrashPointResult,
    WorkloadOp,
    count_flush_boundaries,
    enumerate_crash_points,
    mixed_workload,
)
from repro.faults.plan import (
    FAULT_NET_DELAY,
    FAULT_NET_DROP,
    FAULT_POWER_LOSS,
    FAULT_SPIKE,
    FAULT_STALE,
    FAULT_TARGET_CRASH,
    FAULT_TIMEOUT,
    FAULT_TRANSIENT,
    FaultPlan,
    FaultSpec,
    fault_injection,
    get_default_fault_spec,
    parse_fault_spec,
    set_default_fault_spec,
)

__all__ = [
    "CrashPointResult",
    "FAULT_NET_DELAY",
    "FAULT_NET_DROP",
    "FAULT_POWER_LOSS",
    "FAULT_SPIKE",
    "FAULT_STALE",
    "FAULT_TARGET_CRASH",
    "FAULT_TIMEOUT",
    "FAULT_TRANSIENT",
    "FaultPlan",
    "FaultSpec",
    "WorkloadOp",
    "count_flush_boundaries",
    "enumerate_crash_points",
    "fault_injection",
    "get_default_fault_spec",
    "mixed_workload",
    "parse_fault_spec",
    "set_default_fault_spec",
]
