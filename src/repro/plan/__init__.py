"""The shared predicate-plan IR and its pruned evaluation kernels.

This package is the executable form of the paper's subsumption thesis:
every pairwise/measured notation lowers (:func:`compile_dependency`)
into one deny-form plan over :class:`PredicateAtom` conjunctions, and
one kernel layer (:mod:`repro.plan.kernels`) evaluates all of them with
candidate-pair pruning — partition groups for equality atoms, sorted
sweeps for order atoms, value blocking for metric atoms — instead of
each notation running its own blind O(n²) loop.

The kernel layer has two backends: the scalar generators in
:mod:`repro.plan.kernels` and the vectorized columnar twins in
:mod:`repro.plan.kernels_vec` (batch numpy clause masks over the
encoded columns).  The execution scope (:func:`repro.runtime.execution`;
``REPRO_KERNEL_BACKEND`` at the root) selects ``auto`` (vectorize
eligible plans on large relations), ``vector`` (whenever eligible) or
``scalar`` (never), and collects the kernel counters.

Layering: relation substrate → plan IR → kernels → engines
(detection / discovery / incremental / profiling).  See
``docs/architecture.md``.
"""

from ..runtime.execution import KernelCounters
from .compile import compile_dependency, compile_guards
from .ir import (
    ALPHA,
    BETA,
    Clause,
    CmpAtom,
    ConstAtom,
    FnAtom,
    MetricAtom,
    NotNullAtom,
    PatternAtom,
    Plan,
    PlanCompileError,
    PredicateAtom,
    ResemblanceAtom,
    ThetaAtom,
)
from .entry import (
    build_verify,
    denial_violations,
    guard_pairs,
    guard_plan_for,
    pairwise_violations,
    plan_for,
)
from .kernels import (
    COUNTERS,
    execute_pairs,
    execute_pairs_keyed,
    execute_rows,
    strategy_hint,
)
from .parallel import resolve_workers
from .slabs import ExecutionContext, context_for

__all__ = [
    "ALPHA",
    "BETA",
    "Clause",
    "CmpAtom",
    "ConstAtom",
    "FnAtom",
    "MetricAtom",
    "NotNullAtom",
    "PatternAtom",
    "Plan",
    "PlanCompileError",
    "PredicateAtom",
    "ResemblanceAtom",
    "ThetaAtom",
    "compile_dependency",
    "compile_guards",
    "COUNTERS",
    "KernelCounters",
    "build_verify",
    "denial_violations",
    "execute_pairs",
    "execute_pairs_keyed",
    "execute_rows",
    "guard_pairs",
    "guard_plan_for",
    "pairwise_violations",
    "plan_for",
    "strategy_hint",
    "ExecutionContext",
    "context_for",
    "resolve_workers",
]
