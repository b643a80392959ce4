"""Notation-facing plan entry points: caches, verify closures, routing.

The kernels (:mod:`repro.plan.kernels`, :mod:`repro.plan.kernels_vec`)
are engine-neutral — they see an immutable
:class:`~repro.plan.slabs.ExecutionContext` and bare row indices, never
a dependency or a live substrate handle.  This module is the seam
between the notations and that engine:

* :func:`plan_for` / :func:`guard_plan_for` — per-dependency compiled
  plan caches (compile → simplify, instance-cached on the dependency);
* :func:`build_verify` — the three verify-closure shapes ("pair",
  "denial", "guard").  One closure serves the serial executor *and*
  the forked shards of :mod:`repro.plan.parallel`, which inherit it,
  so both paths re-check candidates with literally the same code;
* :func:`pairwise_violations` / :func:`denial_violations` /
  :func:`guard_pairs` — the calls the detection, incremental and
  discovery engines make.  Each accepts ``workers=`` and consults the
  ambient worker count; eligible executions (pair plans, not
  ``first_only``) fan out through the sharded parallel executor and
  fall back to the identical serial path whenever the fan-out declines.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .ir import Plan
from .kernels import execute_pairs, execute_rows
from .slabs import context_for

_Verify = Callable[[int, int], "tuple[Any, Any] | None"]


def plan_for(dep: Any) -> Plan:
    """The compiled, simplified plan of a dependency (instance-cached).

    Compilation lowers the notation; the static simplifier then rewrites
    the plan into a provably equivalent smaller one (dead clauses
    dropped, redundant atoms removed — see
    :func:`repro.analysis.simplify.simplify_plan`).
    """
    plan = getattr(dep, "_repro_plan", None)
    if plan is None or plan.source is not dep:
        from ..analysis.simplify import simplify_plan
        from .compile import compile_dependency

        plan = simplify_plan(compile_dependency(dep))
        try:
            dep._repro_plan = plan
        except (AttributeError, TypeError):
            pass
    return plan


def guard_plan_for(dep: Any) -> Plan:
    """The compiled guard (LHS) plan of a dependency (instance-cached)."""
    plan = getattr(dep, "_repro_guard_plan", None)
    if plan is None or plan.source is not dep:
        from .compile import compile_guards

        plan = compile_guards(dep)
        try:
            dep._repro_guard_plan = plan
        except (AttributeError, TypeError):
            pass
    return plan


def build_verify(
    mode: str, dep: Any, source: Any, extra: Any = None
) -> _Verify:
    """The verify closure for one execution mode, bound to ``source``.

    The notation's own definitional predicate stays the single source
    of truth for what a violation/match *is*; the serial executor and
    the forked shards call the same closure, so both report identical
    keys and payloads.
    """
    if mode == "pair":
        from ..core.violation import Violation

        label = dep.label()

        def verify_pairwise(p: int, q: int) -> "tuple[Any, Any] | None":
            reason = dep.pair_violation(source, p, q)
            if reason is None:
                return None
            return ((p, q), Violation(label, (p, q), reason))

        return verify_pairwise
    if mode == "denial":
        from ..core.numerical.dc import ALPHA, BETA
        from ..core.violation import Violation

        label = dep.label()

        def verify_denial(p: int, q: int) -> "tuple[Any, Any] | None":
            # The ordered scan emits a pair at its first denied (α, β)
            # assignment in row-major order — sort by that key.
            for a, b in ((p, q), (q, p)):
                if dep._assignment_denied(source, {ALPHA: a, BETA: b}):
                    return (
                        (a, b),
                        Violation(
                            label,
                            (p, q),
                            f"(tα=t{a}, tβ=t{b}) satisfies all atoms",
                        ),
                    )
            return None

        return verify_denial
    if mode == "guard":

        def verify_guard(p: int, q: int) -> "tuple[Any, Any] | None":
            if extra(source, p, q):
                return ((p, q), (p, q))
            return None

        return verify_guard
    raise ValueError(f"unknown verify mode {mode!r}")


def _execute(
    plan: Plan,
    source: Any,
    verify: _Verify,
    restrict: "set[int] | None",
    first_only: bool,
    workers: "int | None",
) -> list[Any]:
    """Run a pair plan: sharded across forked workers when eligible,
    else (and whenever the fan-out declines) serially.

    ``first_only`` stays serial: its contract is "the first verified
    hit in candidate order", which a fan-out would have to run to
    completion to reproduce — the serial short-circuit is the faster
    engine by construction.
    """
    if not first_only and plan.arity == 2 and not plan.never:
        from .parallel import execute_parallel, resolve_workers

        w = resolve_workers(workers, len(source))
        if w > 1:
            out = execute_parallel(
                plan, source, verify, restrict=restrict, workers=w
            )
            if out is not None:
                return out
    return execute_pairs(
        plan, context_for(source), verify, restrict=restrict,
        first_only=first_only,
    )


def pairwise_violations(
    dep: Any,
    source: Any,
    *,
    restrict: "set[int] | None" = None,
    first_only: bool = False,
    workers: "int | None" = None,
) -> list[Any]:
    """Violations of a pairwise notation via its compiled plan.

    ``pair_violation`` stays the single source of truth for what a
    violation *is* (and its reason text); the plan only decides which
    pairs are worth asking about.
    """
    return _execute(
        plan_for(dep), source, build_verify("pair", dep, source),
        restrict, first_only, workers,
    )


def denial_violations(
    dep: Any,
    source: Any,
    *,
    restrict: "set[int] | None" = None,
    first_only: bool = False,
    workers: "int | None" = None,
) -> list[Any]:
    """Violations of a DC via its compiled plan (ordered semantics).

    Matches the ordered all-assignments scan exactly: per unordered
    pair the (α, β) orientation reported is the first denied one in
    row-major order.
    """
    from ..core.violation import Violation

    plan = plan_for(dep)
    if plan.arity == 1:
        label = dep.label()
        var = dep._variables[0]

        def verify_row(r: int) -> "tuple[Any, Any] | None":
            if dep._assignment_denied(source, {var: r}):
                return (r, Violation(label, (r,), "tuple satisfies all atoms"))
            return None

        return execute_rows(
            plan, context_for(source), verify_row, restrict=restrict,
            first_only=first_only,
        )
    return _execute(
        plan, source, build_verify("denial", dep, source),
        restrict, first_only, workers,
    )


def guard_pairs(
    dep: Any,
    source: Any,
    verify_pair: Callable[..., bool],
    *,
    workers: "int | None" = None,
) -> list[tuple[int, int]]:
    """All pairs selected by a notation's LHS (its guard atoms).

    Used for match/support/confidence measures (MD.matches, NED
    support, CD confidence, PAC pair counts): the guard plan prunes,
    ``verify_pair`` is the definitional LHS test.
    """
    return _execute(
        guard_plan_for(dep), source,
        build_verify("guard", dep, source, verify_pair),
        None, False, workers,
    )
