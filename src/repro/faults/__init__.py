"""Deterministic, seeded fault injection (rank-0 layer, next to ``obs``).

Fault *points* are named call sites in storage and service hot paths
(``"storage.read_page"``, ``"persist.write_collection"``,
``"service.execute"``, ...).  A *plan* — parsed from the
``REPRO_FAULTS`` environment variable or scoped with
:func:`use_fault_plan` — decides, from a seeded PRNG, which points
raise :class:`TransientIOError` / :class:`TornWriteError`, corrupt
bytes, or inject latency.  Disabled, every point is one attribute test
(the :class:`~repro.faults.plan.NullFaultPlan` twin).

See ``docs/robustness.md`` for the spec grammar and the runbook.
"""

from .errors import (
    FaultError,
    FaultSpecError,
    TornWriteError,
    TransientIOError,
)
from .plan import KINDS, FaultPlan, FaultRule, NullFaultPlan, parse_fault_spec
from .runtime import (
    ENV_VAR,
    NULL_PLAN,
    arm,
    disarm,
    get_plan,
    maybe_fire,
    maybe_mangle,
    use_fault_plan,
)

__all__ = [
    "FaultError",
    "FaultSpecError",
    "TornWriteError",
    "TransientIOError",
    "KINDS",
    "FaultPlan",
    "FaultRule",
    "NullFaultPlan",
    "parse_fault_spec",
    "ENV_VAR",
    "NULL_PLAN",
    "arm",
    "disarm",
    "get_plan",
    "maybe_fire",
    "maybe_mangle",
    "use_fault_plan",
]
