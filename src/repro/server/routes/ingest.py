"""Row-batch ingestion into the per-tenant changefeed, plus sync check.

``POST .../batches`` takes one mutation batch in the
:meth:`repro.incremental.delta.Delta.from_json` wire format and feeds
the tenant's :class:`~repro.incremental.detector.IncrementalDetector`.
The response is the changefeed entry: violations added and resolved by
the batch, the cumulative total, any quarantined checkers (faults are
reported, never swallowed), and the honest-partial flag when the
request budget ran out mid-batch.

``POST .../check`` is the synchronous path for *small* relations: the
supplied rows are checked against the tenant's rule set inline (with
per-rule latency recorded), bounded by ``MAX_SYNC_ROWS`` — anything
bigger belongs in a background job.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from ...relation import Relation
from ...runtime.budget import checkpoint, governed
from ...runtime.errors import BudgetExhausted
from ..http import HttpError, Request, Response, json_response
from ..state import _coerce_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..app import ReproApp

#: Row ceiling for the synchronous check path.
MAX_SYNC_ROWS = 10_000


def _violation_lines(violations: Any, limit: int) -> list[str]:
    out = []
    for v in violations:
        if len(out) >= limit:
            break
        out.append(str(v))
    return out


async def ingest_batch(app: "ReproApp", request: Request) -> Response:
    """``POST /tenants/{tenant}/batches`` — apply one mutation batch.

    Body: the mutation-log wire format, e.g.::

        {"insert": [{"city": "Porto", "price": 9.0}],
         "delete": [3],
         "update": [{"row": 0, "set": {"price": 11.0}}]}
    """
    tenant = app.tenants.get(request.params["tenant"])
    detector = tenant.require_detector()
    payload = request.json_object()
    budget = app.budget_from_headers(request)
    limit_text = request.query.get("limit", "10")
    try:
        limit = max(0, int(limit_text))
    except ValueError:
        raise HttpError(400, f"bad limit {limit_text!r}")

    # Overload guards, cheapest first: the RSS watermark flips the
    # whole server read-only; the per-tenant gate bounds how many
    # batches may queue for one tenant's single-writer lock.  Both shed
    # with 429 + Retry-After instead of queueing without bound.
    app.check_writable(tenant.tenant_id)
    gate = app.guards.gate
    if not gate.try_acquire(tenant.tenant_id):
        app.shed(
            tenant.tenant_id,
            "ingest-queue-full",
            f"tenant {tenant.tenant_id!r} has "
            f"{gate.max_inflight} batches in flight; retry later",
        )
    try:
        change, transitions = await app.run_sync(
            lambda: app.apply_batch(tenant, payload, budget)
        )
    finally:
        gate.release(tenant.tenant_id)
    app.note_batch(tenant, change)
    app.log(
        "batch applied", request, event="batch_applied",
        tenant=tenant.tenant_id, batch_seq=change.seq,
    )
    return json_response(
        {
            "tenant": tenant.tenant_id,
            "seq": change.seq,
            "rows": len(detector.relation),
            "added": len(change.added),
            "resolved": len(change.resolved),
            "total_violations": change.total,
            "added_sample": _violation_lines(change.added, limit),
            "resolved_sample": _violation_lines(change.resolved, limit),
            "quarantined": list(change.quarantined),
            "breaker": [
                {"rule": t.rule, "state": t.state, "reason": t.reason}
                for t in transitions
            ],
            "complete": change.complete,
            "exhausted": change.exhausted,
        }
    )


async def violations(app: "ReproApp", request: Request) -> Response:
    """``GET /tenants/{tenant}/violations`` — the cumulative state."""
    tenant = app.tenants.get(request.params["tenant"])
    detector = tenant.require_detector()
    limit_text = request.query.get("limit", "25")
    try:
        limit = max(0, int(limit_text))
    except ValueError:
        raise HttpError(400, f"bad limit {limit_text!r}")

    def snapshot() -> dict[str, Any]:
        report = detector.report()
        return {
            "tenant": tenant.tenant_id,
            "rows": len(detector.relation),
            "total_violations": len(report.violations),
            "per_rule": {
                rule: len(vs) for rule, vs in report.per_rule.items()
            },
            "sample": _violation_lines(report.violations, limit),
            "quarantine": [
                {"seq": seq, "rule": rule, "error": error}
                for seq, rule, error in detector.quarantine
            ],
            "dead_rules": list(detector.dead_rules),
            "suspended_rules": detector.suspended_rules,
            "breaker": app.guards.breaker.states(tenant.tenant_id),
        }

    return json_response(await app.run_sync(snapshot))


async def sync_check(app: "ReproApp", request: Request) -> Response:
    """``POST /tenants/{tenant}/check`` — synchronous small-relation check.

    Body: ``{"rows": [...]}`` (positional lists or ``{name: value}``
    objects over the tenant schema).  Omitting ``rows`` checks the
    tenant's current relation instead.  Per-rule wall-clock is recorded
    into the ``repro_rule_check_seconds`` histogram.
    """
    tenant = app.tenants.get(request.params["tenant"])
    if not tenant.rule_entries:
        raise HttpError(
            409,
            f"tenant {tenant.tenant_id!r} has no rule set; "
            "PUT /tenants/{tenant}/rules first",
        )
    payload = request.json_object()
    budget = app.budget_from_headers(request)
    rows = payload.get("rows")
    if rows is not None:
        if not isinstance(rows, list):
            raise HttpError(400, '"rows" must be a list')
        if len(rows) > MAX_SYNC_ROWS:
            raise HttpError(
                413,
                f"{len(rows)} rows exceeds the synchronous limit of "
                f"{MAX_SYNC_ROWS}; submit a job instead",
            )

    def check() -> dict[str, Any]:
        if rows is None:
            relation = (
                tenant.detector.relation
                if tenant.detector is not None
                else tenant.relation
            )
        else:
            relation = Relation.empty(tenant.schema).extend(
                _coerce_rows(tenant.schema, rows)
            )
        skipped = tenant.skipped
        active = [
            e for i, e in enumerate(tenant.rule_entries) if i not in skipped
        ]
        results: list[dict[str, Any]] = []
        total = 0
        exhausted = ""
        with governed(budget):
            for entry in active:
                started = time.perf_counter()
                try:
                    # Budget gate between rules: small relations finish
                    # fast, but the loop still honours the deadline even
                    # when a single rule's kernels never checkpoint.
                    checkpoint(candidates=1)
                    found = entry.dependency.violations(relation)
                except BudgetExhausted as exc:
                    exhausted = exc.reason
                    break
                elapsed = time.perf_counter() - started
                app.rule_check_seconds.observe(
                    elapsed,
                    tenant=tenant.tenant_id,
                    rule=entry.name,
                )
                total += len(found)
                results.append(
                    {
                        "rule": entry.name,
                        "kind": entry.dependency.kind,
                        "violations": len(found),
                        "sample": _violation_lines(found, 5),
                        "seconds": round(elapsed, 6),
                    }
                )
        return {
            "tenant": tenant.tenant_id,
            "rows": len(relation),
            "rules_checked": len(results),
            "rules_skipped": tenant.skipped_rules,
            "total_violations": total,
            "results": results,
            "complete": not exhausted,
            "exhausted": exhausted,
        }

    report = await app.run_sync(check)
    if report["exhausted"]:
        app.note_budget_exhausted(tenant.tenant_id, report["exhausted"])
    app.log(
        "sync check", request, event="sync_check",
        tenant=tenant.tenant_id,
    )
    return json_response(report)
