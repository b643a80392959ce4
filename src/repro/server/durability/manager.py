"""Per-tenant durability: WAL appends, snapshots, and startup recovery.

The :class:`DurabilityManager` owns one directory per tenant under
``<data_dir>/tenants/<tenant_id>/``::

    wal.log         framed records (see durability.wal)
    snapshot.json   newest atomic snapshot (see durability.snapshot)

Every *acknowledged* mutation — tenant registration, rule upload, batch
ingest — is appended to the tenant's WAL **before** the in-memory state
advances and the 200 goes out, each record stamped with a per-tenant
monotone ``seq``.  Snapshots fold the WAL into one file every
``snapshot_every`` batches (the WAL is then reset); because the
snapshot records the ``seq`` it covers, a crash between
snapshot-rename and WAL-reset replays nothing twice — recovery skips
records at or below the snapshot's seq.

:meth:`DurabilityManager.recover` is the startup path: per tenant
directory it loads the newest verified snapshot (a corrupt one is
reported and skipped, falling back to full-WAL replay), truncates any
torn WAL tail, replays the surviving record suffix in order through
the same ``Delta``/detector machinery the live path uses, and installs
the rebuilt tenants into the registry.  The ``replay`` crash point
fires per replayed batch, so chaos tests can kill the process *during*
recovery and assert the next recovery still converges.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ...analysis import lint_entries
from ...incremental.delta import Delta
from ...relation import Relation, Schema
from ...relation.encoding import iter_relation_state
from ...rules_io import parse_rules_with_meta
from ...runtime import faults
from ..state import Tenant, parse_schema
from .snapshot import SnapshotCorruption, load_snapshot, write_snapshot
from .wal import FSYNC_POLICIES, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..state import TenantRegistry

#: Snapshot after this many batch records by default.
DEFAULT_SNAPSHOT_EVERY = 256

SNAPSHOT_VERSION = 1


class _TenantLog:
    """One tenant's WAL handle plus its sequence bookkeeping."""

    def __init__(self, directory: Path, fsync: str) -> None:
        self.directory = directory
        self.wal = WriteAheadLog(directory / "wal.log", fsync=fsync)
        self.next_seq = 1
        self.batches_since_snapshot = 0


@dataclass
class TenantRecovery:
    """How one tenant came back."""

    tenant_id: str
    snapshot_used: bool = False
    records_replayed: int = 0
    batches_replayed: int = 0
    torn_bytes: int = 0
    violations: int = 0
    seconds: float = 0.0
    warnings: list[str] = field(default_factory=list)


@dataclass
class RecoveryReport:
    """The outcome of one :meth:`DurabilityManager.recover` pass."""

    tenants: list[TenantRecovery] = field(default_factory=list)
    #: Directories that held no recoverable state (reason strings).
    skipped: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def batches_replayed(self) -> int:
        return sum(t.batches_replayed for t in self.tenants)

    def describe(self) -> dict[str, Any]:
        return {
            "tenants": len(self.tenants),
            "records_replayed": sum(
                t.records_replayed for t in self.tenants
            ),
            "batches_replayed": self.batches_replayed,
            "torn_bytes": sum(t.torn_bytes for t in self.tenants),
            "seconds": round(self.seconds, 6),
            "skipped": list(self.skipped),
            "warnings": [w for t in self.tenants for w in t.warnings],
        }


class DurabilityManager:
    """WAL + snapshot + recovery for every tenant of one server."""

    def __init__(
        self,
        data_dir: Path | str,
        *,
        fsync: str = "batch",
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        self.data_dir = Path(data_dir)
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.tenants_dir = self.data_dir / "tenants"
        self.tenants_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._logs: dict[str, _TenantLog] = {}
        #: Cumulative observability feed (scraped into gauges/counters).
        self.wal_bytes = 0
        self.wal_records = 0
        self.snapshots_taken = 0

    # -- log handles ---------------------------------------------------

    def _log(self, tenant_id: str) -> _TenantLog:
        with self._lock:
            log = self._logs.get(tenant_id)
            if log is None:
                directory = self.tenants_dir / tenant_id
                directory.mkdir(parents=True, exist_ok=True)
                log = _TenantLog(directory, self.fsync)
                self._logs[tenant_id] = log
            return log

    def _append(self, log: _TenantLog, record: dict[str, Any]) -> int:
        seq = log.next_seq
        record["seq"] = seq
        written = log.wal.append(record)
        log.next_seq = seq + 1
        with self._lock:
            self.wal_bytes += written
            self.wal_records += 1
        return seq

    # -- the write-ahead hooks (called before acking) ------------------

    def log_register(self, tenant: Tenant) -> int:
        """Persist a registration (schema + any seed rows), pre-ack."""
        log = self._log(tenant.tenant_id)
        return self._append(
            log,
            {
                "type": "register",
                "tenant": tenant.tenant_id,
                "created_at": tenant.created_at,
                "schema": _schema_payload(tenant.schema),
                "rows": [list(row) for row in tenant.relation.rows()],
            },
        )

    def log_rules(self, tenant: Tenant, payload: Any) -> int:
        """Persist an accepted rule-set upload (the raw document)."""
        log = self._log(tenant.tenant_id)
        return self._append(
            log,
            {
                "type": "rules",
                "tenant": tenant.tenant_id,
                "payload": payload,
            },
        )

    def log_batch(self, tenant: Tenant, delta: Delta) -> int:
        """Persist one mutation batch (canonical ``Delta.to_json``)."""
        log = self._log(tenant.tenant_id)
        return self._append(
            log,
            {
                "type": "batch",
                "tenant": tenant.tenant_id,
                "delta": delta.to_json(),
            },
        )

    def note_batch_applied(self, tenant: Tenant) -> bool:
        """Advance the snapshot countdown; snapshot when due.

        Called under the tenant lock right after a batch applies, so
        the snapshot sees a batch boundary.  Returns ``True`` when a
        snapshot was taken.
        """
        log = self._log(tenant.tenant_id)
        log.batches_since_snapshot += 1
        if log.batches_since_snapshot < self.snapshot_every:
            return False
        self.snapshot(tenant)
        return True

    def snapshot(self, tenant: Tenant) -> Path:
        """Fold the tenant's state into an atomic snapshot; reset the WAL.

        Caller must hold the tenant lock (no appends may interleave).
        """
        log = self._log(tenant.tenant_id)
        relation = (
            tenant.detector.relation
            if tenant.detector is not None
            else tenant.relation
        )
        state = {
            "version": SNAPSHOT_VERSION,
            "tenant": tenant.tenant_id,
            "created_at": tenant.created_at,
            "seq": log.next_seq - 1,
            "schema": _schema_payload(tenant.schema),
            "relation": iter_relation_state(relation),
            "rules_payload": tenant.rules_payload,
            "batches_ingested": tenant.batches_ingested,
            "rows_ingested": tenant.rows_ingested,
            "violations": (
                len(tenant.detector.violations())
                if tenant.detector is not None
                else None
            ),
        }
        path = write_snapshot(log.directory, state)
        log.wal.reset()
        log.batches_since_snapshot = 0
        with self._lock:
            self.snapshots_taken += 1
        return path

    def remove_tenant(self, tenant_id: str) -> None:
        """Drop a tenant's durable state (registration is revoked)."""
        with self._lock:
            log = self._logs.pop(tenant_id, None)
        if log is not None:
            log.wal.close()
        directory = self.tenants_dir / tenant_id
        if directory.exists():
            shutil.rmtree(directory, ignore_errors=True)

    # -- drain ---------------------------------------------------------

    def flush(self) -> None:
        """fsync every open WAL (graceful-drain path)."""
        with self._lock:
            logs = list(self._logs.values())
        for log in logs:
            log.wal.sync()

    def close(self) -> None:
        with self._lock:
            logs = list(self._logs.values())
            self._logs.clear()
        for log in logs:
            log.wal.close()

    # -- recovery ------------------------------------------------------

    def recover(self, registry: "TenantRegistry") -> RecoveryReport:
        """Rebuild every tenant from snapshot + WAL tail into ``registry``.

        Corruption never aborts the whole server: a corrupt snapshot
        falls back to full-WAL replay (warned), a torn WAL tail is
        truncated (counted), and a directory with no recoverable state
        is skipped (listed).  Each recovered tenant's detector is
        rebuilt to exactly the last acknowledged record.
        """
        started = time.perf_counter()
        report = RecoveryReport()
        if not self.tenants_dir.exists():
            report.seconds = time.perf_counter() - started
            return report
        for directory in sorted(self.tenants_dir.iterdir()):
            if not directory.is_dir():
                continue
            tenant_id = directory.name
            outcome = self._recover_tenant(tenant_id, directory)
            if isinstance(outcome, str):
                report.skipped.append(f"{tenant_id}: {outcome}")
                continue
            tenant, recovery = outcome
            registry.restore(tenant)
            report.tenants.append(recovery)
        report.seconds = time.perf_counter() - started
        return report

    def _recover_tenant(
        self, tenant_id: str, directory: Path
    ) -> tuple[Tenant, TenantRecovery] | str:
        started = time.perf_counter()
        recovery = TenantRecovery(tenant_id=tenant_id)
        snapshot: dict[str, Any] | None = None
        try:
            snapshot = load_snapshot(directory)
        except SnapshotCorruption as exc:
            recovery.warnings.append(str(exc))
        log = _TenantLog(directory, self.fsync)
        scan = log.wal.open_for_append()
        recovery.torn_bytes = log.wal.truncated_bytes
        if scan.torn_reason:
            recovery.warnings.append(
                f"wal tail truncated ({scan.torn_reason}, "
                f"{log.wal.truncated_bytes} bytes)"
            )

        tenant: Tenant | None = None
        snapshot_seq = 0
        if snapshot is not None:
            tenant, warning = _tenant_from_snapshot(snapshot)
            if tenant is None:
                recovery.warnings.append(warning)
            else:
                snapshot_seq = int(snapshot.get("seq", 0))
                recovery.snapshot_used = True
                if warning:
                    recovery.warnings.append(warning)

        last_seq = snapshot_seq
        for record in scan.records:
            seq = int(record.get("seq", 0))
            if seq <= snapshot_seq:
                continue  # already folded into the snapshot
            last_seq = max(last_seq, seq)
            kind = record.get("type")
            if kind == "register":
                if tenant is not None:
                    recovery.warnings.append(
                        f"duplicate register record at seq {seq} ignored"
                    )
                    continue
                tenant = _tenant_from_register(record)
            elif tenant is None:
                recovery.warnings.append(
                    f"{kind!r} record at seq {seq} before registration; "
                    "ignored"
                )
                continue
            elif kind == "rules":
                warning = _apply_rules_record(tenant, record)
                if warning:
                    recovery.warnings.append(warning)
            elif kind == "batch":
                faults.crash_point("replay")
                detector = tenant.detector
                if detector is None:
                    recovery.warnings.append(
                        f"batch record at seq {seq} with no rule set; "
                        "ignored"
                    )
                    continue
                delta = Delta.from_json(record["delta"], tenant.schema)
                detector.apply(delta)
                tenant.relation = detector.relation
                tenant.batches_ingested += 1
                tenant.rows_ingested += len(delta.inserts)
                recovery.batches_replayed += 1
            else:
                recovery.warnings.append(
                    f"unknown record type {kind!r} at seq {seq} ignored"
                )
            recovery.records_replayed += 1

        if tenant is None:
            log.wal.close()
            return "no snapshot and no registration record"
        log.next_seq = last_seq + 1
        with self._lock:
            self._logs[tenant_id] = log
        if tenant.detector is not None:
            recovery.violations = len(tenant.detector.violations())
        recovery.seconds = time.perf_counter() - started
        return tenant, recovery


# -- record/state (de)serialization helpers ----------------------------


def _schema_payload(schema: Schema) -> list[dict[str, str]]:
    return [{"name": a.name, "type": a.dtype.value} for a in schema]


def _tenant_from_register(record: dict[str, Any]) -> Tenant:
    schema = parse_schema({"attributes": record["schema"]})
    relation = Relation.from_rows(
        schema, [tuple(row) for row in record.get("rows", [])]
    )
    return Tenant(
        tenant_id=record["tenant"],
        schema=schema,
        relation=relation,
        created_at=record.get("created_at", time.time()),
    )


def _tenant_from_snapshot(
    snapshot: dict[str, Any],
) -> tuple[Tenant | None, str]:
    """Rebuild a tenant (and detector) from snapshot state.

    Returns ``(tenant, warning)``; ``(None, reason)`` when the state is
    structurally unusable.  The rebuilt detector's violation count is
    cross-checked against the count recorded at snapshot time — the
    cold-rebuild parity contract says they must agree, so a mismatch is
    surfaced as an integrity warning.
    """
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        return None, f"unsupported snapshot version {version!r}"
    try:
        schema = parse_schema({"attributes": snapshot["schema"]})
        relation = Relation.from_state(snapshot["relation"])
    # staticcheck: disable=SC008 — recovery boundary: a corrupt
    # snapshot is reported as a per-tenant warning, never a crash, and
    # no budget governs recovery.
    except Exception as exc:  # noqa: BLE001 - corrupt state is a skip
        return None, f"unusable snapshot state: {exc}"
    tenant = Tenant(
        tenant_id=snapshot["tenant"],
        schema=schema,
        relation=relation,
        created_at=snapshot.get("created_at", time.time()),
        batches_ingested=int(snapshot.get("batches_ingested", 0)),
        rows_ingested=int(snapshot.get("rows_ingested", 0)),
    )
    warning = ""
    payload = snapshot.get("rules_payload")
    if payload is not None:
        warning = _apply_rules_record(
            tenant, {"payload": payload, "seq": snapshot.get("seq")}
        )
        expected = snapshot.get("violations")
        if (
            not warning
            and tenant.detector is not None
            and expected is not None
        ):
            actual = len(tenant.detector.violations())
            if actual != expected:
                warning = (
                    f"integrity: snapshot recorded {expected} violations "
                    f"but the rebuilt detector reports {actual}"
                )
    return tenant, warning


def _apply_rules_record(tenant: Tenant, record: dict[str, Any]) -> str:
    """Replay one accepted rule upload: lint, screen and rebuild.

    The upload was lint-screened when first accepted and the screen is
    deterministic, so replay reuses the same path; if it somehow fails
    now (e.g. a hand-edited WAL), the tenant survives without a
    detector and the failure is reported as a warning.
    """
    payload = record.get("payload")
    try:
        entries = parse_rules_with_meta(
            payload, source=f"tenants/{tenant.tenant_id}/rules"
        )
        report = lint_entries(entries, schema=tenant.schema)
        if report.has_errors:
            raise ValueError(
                "rule set no longer passes the lint screen"
            )
        tenant.install_rules(entries, payload)
        return ""
    # staticcheck: disable=SC008 — recovery boundary: one bad WAL
    # record becomes a warning so the remaining records still replay;
    # no budget governs recovery.
    except Exception as exc:  # noqa: BLE001 - keep recovering
        return (
            f"rules record at seq {record.get('seq')} failed to "
            f"replay: {exc}"
        )
