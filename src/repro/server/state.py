"""Multi-tenant state: one isolated changefeed universe per tenant.

A :class:`Tenant` owns a declared schema, the current relation, the
lint-screened rule set, and (once rules are uploaded) an
:class:`~repro.incremental.detector.IncrementalDetector` consuming that
tenant's row batches.  Tenants share nothing — the registry lock only
guards the name table, and each tenant has its own writer lock (on top
of the detector's own single-writer lock) so batch ingestion for tenant
A never blocks tenant B.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..analysis import screen_rules
from ..incremental import IncrementalDetector
from ..relation import Attribute, AttributeType, Relation, Schema
from ..rules_io import RuleEntry
from .http import HttpError

_TENANT_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

_TYPE_NAMES = {t.value: t for t in AttributeType}


def parse_schema(payload: Any) -> Schema:
    """Parse the registration schema declaration.

    Accepted shapes::

        {"attributes": ["city", {"name": "price", "type": "numerical"}]}

    (a bare list is also accepted in place of the object).  Types come
    from the survey's categorization: ``categorical`` (default),
    ``text``, ``numerical``.
    """
    if isinstance(payload, dict):
        payload = payload.get("attributes")
    if not isinstance(payload, list) or not payload:
        raise HttpError(
            400,
            "schema must be a non-empty list of attributes "
            '(strings or {"name", "type"} objects)',
        )
    attrs: list[Attribute] = []
    for spec in payload:
        if isinstance(spec, str):
            attrs.append(Attribute(spec))
            continue
        if not isinstance(spec, dict) or "name" not in spec:
            raise HttpError(
                400, f"bad attribute declaration: {spec!r}"
            )
        type_name = spec.get("type", "categorical")
        dtype = _TYPE_NAMES.get(type_name)
        if dtype is None:
            raise HttpError(
                400,
                f"unknown attribute type {type_name!r} for "
                f"{spec['name']!r}; expected one of "
                f"{sorted(_TYPE_NAMES)}",
            )
        attrs.append(Attribute(str(spec["name"]), dtype))
    try:
        return Schema(attrs)
    except KeyError as exc:  # SchemaError subclasses KeyError
        raise HttpError(400, f"bad schema: {exc.args[0]}")


@dataclass
class Tenant:
    """One tenant's universe: schema, relation, rules, changefeed."""

    tenant_id: str
    schema: Schema
    relation: Relation
    created_at: float = field(default_factory=time.time)
    #: Uploaded rule entries (with source metadata), post-lint.
    rule_entries: list[RuleEntry] = field(default_factory=list)
    #: Entry index -> reason for rules the static screen skipped.
    skipped: dict[int, str] = field(default_factory=dict)
    #: The raw accepted upload document (replayed verbatim on recovery).
    rules_payload: Any = None
    detector: IncrementalDetector | None = None
    #: Serializes rule uploads and batch ingestion for this tenant.
    lock: threading.Lock = field(default_factory=threading.Lock)
    batches_ingested: int = 0
    rows_ingested: int = 0

    def install_rules(self, entries: list[RuleEntry], payload: Any) -> int:
        """Screen and install an accepted rule set; returns the active count.

        Rules :func:`~repro.analysis.screen_rules` skips (trivial,
        duplicate, implied) get no checker.  The new detector runs over
        the tenant's current relation, so rules hot-swap mid-stream.
        Live uploads and WAL replay both install through here, so
        recovery rebuilds exactly what the upload built.
        """
        rules = [e.dependency for e in entries]
        skipped = screen_rules(rules)
        active = [dep for i, dep in enumerate(rules) if i not in skipped]
        if self.detector is not None:
            self.relation = self.detector.relation
        self.rule_entries = list(entries)
        self.skipped = skipped
        self.rules_payload = payload
        self.detector = IncrementalDetector(active, self.relation)
        return len(active)

    @property
    def skipped_rules(self) -> dict[str, str]:
        """Rule name -> reason for the skipped rules (the response shape)."""
        skipped = self.skipped
        return {
            e.name: skipped[i]
            for i, e in enumerate(self.rule_entries)
            if i in skipped
        }

    def require_detector(self) -> IncrementalDetector:
        if self.detector is None:
            raise HttpError(
                409,
                f"tenant {self.tenant_id!r} has no rule set; "
                "PUT /tenants/{tenant}/rules first",
            )
        return self.detector

    def describe(self) -> dict[str, Any]:
        current = (
            self.detector.relation if self.detector else self.relation
        )
        return {
            "tenant": self.tenant_id,
            "created_at": self.created_at,
            "attributes": [
                {"name": a.name, "type": a.dtype.value}
                for a in self.schema
            ],
            "rows": len(current),
            "rules": len(self.rule_entries),
            "skipped_rules": self.skipped_rules,
            "batches_ingested": self.batches_ingested,
            "rows_ingested": self.rows_ingested,
            "violations": (
                len(self.detector.violations()) if self.detector else None
            ),
        }


class TenantRegistry:
    """The name table of live tenants."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: dict[str, Tenant] = {}

    def register(
        self, tenant_id: str, schema: Schema, rows: list[Any] | None = None
    ) -> Tenant:
        if not _TENANT_ID.match(tenant_id):
            raise HttpError(
                400,
                f"bad tenant id {tenant_id!r}: expected 1-64 chars of "
                "[A-Za-z0-9_.-], starting alphanumeric",
            )
        relation = Relation.empty(schema)
        if rows:
            relation = relation.extend(_coerce_rows(schema, rows))
        tenant = Tenant(tenant_id=tenant_id, schema=schema, relation=relation)
        with self._lock:
            if tenant_id in self._tenants:
                raise HttpError(
                    409, f"tenant {tenant_id!r} is already registered"
                )
            self._tenants[tenant_id] = tenant
        return tenant

    def restore(self, tenant: Tenant) -> None:
        """Install a recovered tenant, bypassing the HTTP-shaped checks.

        Only the durability layer calls this (the tenant id was
        validated when first registered); a live tenant with the same
        id is never silently replaced.
        """
        with self._lock:
            if tenant.tenant_id in self._tenants:
                raise ValueError(
                    f"tenant {tenant.tenant_id!r} is already live"
                )
            self._tenants[tenant.tenant_id] = tenant

    def get(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise HttpError(404, f"unknown tenant {tenant_id!r}")
        return tenant

    def remove(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.pop(tenant_id, None)
        if tenant is None:
            raise HttpError(404, f"unknown tenant {tenant_id!r}")
        return tenant

    def list(self) -> list[Tenant]:
        with self._lock:
            return sorted(
                self._tenants.values(), key=lambda t: t.tenant_id
            )


def _coerce_rows(schema: Schema, rows: list[Any]) -> list[tuple[Any, ...]]:
    """Positional lists or ``{name: value}`` objects -> schema-order tuples."""
    names = schema.names()
    out: list[tuple[Any, ...]] = []
    for i, row in enumerate(rows):
        if isinstance(row, dict):
            stray = set(row) - set(names)
            if stray:
                raise HttpError(
                    400,
                    f"row {i} mentions unknown attributes "
                    f"{sorted(stray)}",
                )
            out.append(tuple(row.get(n) for n in names))
        elif isinstance(row, list):
            if len(row) != len(names):
                raise HttpError(
                    400,
                    f"row {i} has {len(row)} values for "
                    f"{len(names)} attributes",
                )
            out.append(tuple(row))
        else:
            raise HttpError(
                400,
                f"row {i} must be a list or an object, got "
                f"{type(row).__name__}",
            )
    return out
