"""Execution governance: budgets, cancellation, typed errors, faults.

The runtime layer is what lets the worst-case-exponential searches in
:mod:`repro.discovery` (and the repair/incremental engines) run under
bounded latency with honest degradation:

* :mod:`repro.runtime.errors` — the :class:`ReproError` taxonomy
  (:class:`InputError` / :class:`BudgetExhausted` /
  :class:`EngineFault`);
* :mod:`repro.runtime.budget` — :class:`Budget`,
  :func:`checkpoint`, and the ambient :func:`governed` scope;
* :mod:`repro.runtime.execution` — the ambient
  :class:`ExecutionScope` (kernel backend, worker count, kernel
  counters) entered with :func:`execution`;
* :mod:`repro.runtime.faults` — the fault-injection harness for the
  substrate/metric boundary (imported lazily; test/bench tooling).
"""

from typing import Any

from .budget import (
    Budget,
    ShardToken,
    checkpoint,
    current_budget,
    governed,
    resolve_budget,
    sample_relation,
    verify_on_sample,
)
from .errors import BudgetExhausted, EngineFault, InputError, ReproError
from .execution import ExecutionScope, current_scope, execution

__all__ = [
    "Budget",
    "ShardToken",
    "checkpoint",
    "current_budget",
    "governed",
    "resolve_budget",
    "sample_relation",
    "verify_on_sample",
    "ExecutionScope",
    "current_scope",
    "execution",
    "BudgetExhausted",
    "EngineFault",
    "InputError",
    "ReproError",
    "FaultInjector",
    "FaultSpec",
    "FaultInjected",
    "inject",
]

_FAULT_NAMES = {"FaultInjector", "FaultSpec", "FaultInjected", "inject"}


def __getattr__(name: str) -> Any:
    # Lazy: faults patches substrate classes, so importing it eagerly
    # would create an import cycle with repro.relation / repro.metrics.
    if name in _FAULT_NAMES:
        from . import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
