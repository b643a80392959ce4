"""Lint-screened rule-set upload.

Uploads reuse the exact library plumbing the CLI has:
:func:`repro.rules_io.parse_rules_with_meta` parses the mixed-notation
document, :func:`repro.analysis.lint_entries` runs the full static
analyzer against the tenant's declared schema, and any error-severity
diagnostic (unknown attribute DD001, statically unsatisfiable DD003,
conflicting rules DD009) **rejects the upload** with the diagnostics —
DD codes and all — in the error body.  Warning-level findings are
returned but do not block; statically skippable rules (trivial,
duplicate, implied) get no checker and are reported as skipped,
mirroring ``repro check``'s pre-screen.

A successful upload (re)builds the tenant's
:class:`~repro.incremental.detector.IncrementalDetector` over the
tenant's *current* relation, so rules can be hot-swapped mid-stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...analysis import Severity, lint_entries
from ...rules_io import RuleFileError, parse_rules_with_meta
from ..http import HttpError, Request, Response, json_response

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..app import ReproApp


def _diagnostic_payload(diag: Any) -> dict[str, Any]:
    return {
        "code": diag.code,
        "name": diag.name,
        "severity": str(diag.severity),
        "rule": diag.rule,
        "message": diag.message,
        "location": diag.location,
        "related": list(diag.related),
    }


async def upload(app: "ReproApp", request: Request) -> Response:
    """``PUT /tenants/{tenant}/rules`` — upload a rule-file document.

    The body is exactly the ``repro check --rules`` JSON format
    (``{"rules": [...]}`` with mixed Table-2 notations, optional per-
    rule ``id``s).
    """
    tenant = app.tenants.get(request.params["tenant"])
    app.check_writable(tenant.tenant_id)
    payload = request.json()

    def build() -> Response:
        try:
            entries = parse_rules_with_meta(
                payload, source=f"tenants/{tenant.tenant_id}/rules"
            )
        except RuleFileError as exc:
            raise HttpError(400, str(exc), kind="rule-file")
        report = lint_entries(entries, schema=tenant.schema)
        diagnostics = [
            _diagnostic_payload(d) for d in report.diagnostics
        ]
        if report.has_errors:
            errors = [
                d for d in diagnostics
                if d["severity"] == str(Severity.ERROR)
            ]
            raise HttpError(
                400,
                f"rule set rejected: {len(errors)} error-severity lint "
                "finding(s)",
                kind="lint",
                diagnostics=diagnostics,
                rejected=[d["rule"] for d in errors],
            )
        with tenant.lock:
            # Pre-ack append: the accepted document hits the WAL before
            # the in-memory rule set advances, so recovery replays
            # exactly the uploads that were acknowledged.
            if app.durability is not None:
                app.durability.log_rules(tenant, payload)
            accepted = tenant.install_rules(
                entries, report.skippable, payload
            )
            skipped = tenant.skipped_rules
        app.guards.breaker.drop_tenant(tenant.tenant_id)
        app.note_rule_gauges(tenant)
        return json_response(
            {
                "tenant": tenant.tenant_id,
                "accepted": accepted,
                "skipped": skipped,
                "diagnostics": diagnostics,
                "initial_violations": len(tenant.detector.violations()),
            },
            status=200,
        )

    response = await app.run_sync(build)
    app.log(
        "rules uploaded", request, event="rules_uploaded",
        tenant=tenant.tenant_id,
    )
    return response


async def get_rules(app: "ReproApp", request: Request) -> Response:
    tenant = app.tenants.get(request.params["tenant"])
    return json_response(
        {
            "tenant": tenant.tenant_id,
            "rules": [
                {
                    "index": e.index,
                    "id": e.rule_id,
                    "kind": e.dependency.kind,
                    "rule": str(e.dependency),
                    "skipped": tenant.skipped_rules.get(e.name),
                }
                for e in tenant.rule_entries
            ],
        }
    )
