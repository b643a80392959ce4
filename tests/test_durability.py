"""Durable tenant state: WAL, snapshots, recovery, overload, chaos.

Covers the frame-level WAL contract (round trip, torn-tail detection
per corruption mode, fsync policies), atomic checksummed snapshots,
the recovery path (snapshot + WAL tail == the live detector, corrupt
snapshots fall back to full replay, idempotence across the
snapshot/WAL-reset boundary), the overload guards (bounded ingest
admission with ``429`` + ``Retry-After``, the RSS read-only watermark,
the per-rule circuit breaker lifecycle), and chaos: subprocesses killed
at each injected crash point — and a live ``repro serve`` killed with
``SIGKILL`` mid-ingest — must recover to exactly the acknowledged
prefix.
"""

import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
import zlib
from pathlib import Path

import pytest

from repro.core import FD
from repro.incremental import IncrementalDetector
from repro.incremental.delta import Delta
from repro.quality.detection import Detector
from repro.relation import Relation, Schema
from repro.relation.encoding import iter_relation_state
from repro.server import OverloadConfig, ReproApp
from repro.server.durability import (
    CircuitBreaker,
    DurabilityManager,
    IngestGate,
    MemoryWatermark,
    SnapshotCorruption,
    WriteAheadLog,
    encode_record,
    load_snapshot,
    scan_wal,
    write_snapshot,
)
from repro.server.state import TenantRegistry, parse_schema

SCHEMA = {"attributes": ["zip", "city"]}
FD_RULES = {"rules": [{"kind": "FD", "lhs": ["zip"], "rhs": ["city"]}]}


# ---------------------------------------------------------------------------
# WAL frames


class TestWal:
    def test_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="always")
        wal.open_for_append()
        records = [
            {"seq": 1, "type": "register", "tenant": "t"},
            {"seq": 2, "type": "batch", "delta": {"insert": [["a", 1]]}},
            {"seq": 3, "nan": float("nan"), "inf": float("inf")},
        ]
        for r in records:
            wal.append(r)
        wal.close()
        scan = scan_wal(tmp_path / "wal.log")
        assert scan.torn_reason == ""
        assert scan.torn_bytes == 0
        assert [r["seq"] for r in scan.records] == [1, 2, 3]
        assert math.isnan(scan.records[2]["nan"])
        assert scan.records[2]["inf"] == float("inf")

    @pytest.mark.parametrize("fsync", ["always", "batch", "off"])
    def test_fsync_policies_all_durable_to_process_death(
        self, tmp_path, fsync
    ):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=fsync)
        wal.open_for_append()
        for i in range(100):
            wal.append({"seq": i})
        # No close(): flush-per-append means the bytes are already in
        # the OS, which is all that matters for kill -9 survival.
        scan = scan_wal(tmp_path / "wal.log")
        assert len(scan.records) == 100
        wal.close()

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            WriteAheadLog(tmp_path / "w.log", fsync="sometimes")

    def _write_frames(self, path, n=3):
        with open(path, "wb") as f:
            for i in range(n):
                f.write(encode_record({"seq": i + 1}))

    def test_torn_tail_truncated_header(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_frames(path)
        with open(path, "ab") as f:
            f.write(b"\x00\x00")  # half a length field
        scan = scan_wal(path)
        assert len(scan.records) == 3
        assert scan.torn_reason == "truncated frame header"
        assert scan.torn_bytes == 2

    def test_torn_tail_short_payload(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_frames(path)
        frame = encode_record({"seq": 99})
        with open(path, "ab") as f:
            f.write(frame[: len(frame) - 4])
        scan = scan_wal(path)
        assert len(scan.records) == 3
        assert scan.torn_reason == "payload shorter than declared length"

    def test_torn_tail_checksum_mismatch(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_frames(path)
        frame = bytearray(encode_record({"seq": 99}))
        frame[-1] ^= 0xFF  # flip a payload bit
        with open(path, "ab") as f:
            f.write(bytes(frame))
        scan = scan_wal(path)
        assert len(scan.records) == 3
        assert scan.torn_reason == "checksum mismatch"

    def test_corruption_mid_file_drops_the_suffix(self, tmp_path):
        # Prefix-durability: a bad frame invalidates everything after
        # it, even frames that would individually verify.
        path = tmp_path / "wal.log"
        good = encode_record({"seq": 1})
        bad = bytearray(encode_record({"seq": 2}))
        bad[-1] ^= 0xFF
        with open(path, "wb") as f:
            f.write(good + bytes(bad) + encode_record({"seq": 3}))
        scan = scan_wal(path)
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.torn_bytes > 0

    def test_open_for_append_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_frames(path)
        with open(path, "ab") as f:
            f.write(b"GARBAGE")
        wal = WriteAheadLog(path, fsync="off")
        scan = wal.open_for_append()
        assert wal.truncated_bytes == 7
        assert len(scan.records) == 3
        wal.append({"seq": 4})
        wal.close()
        rescan = scan_wal(path)
        assert [r["seq"] for r in rescan.records] == [1, 2, 3, 4]
        assert rescan.torn_bytes == 0

    def test_reset_empties_the_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="off")
        wal.open_for_append()
        wal.append({"seq": 1})
        wal.reset()
        wal.append({"seq": 2})
        wal.close()
        scan = scan_wal(tmp_path / "wal.log")
        assert [r["seq"] for r in scan.records] == [2]


# ---------------------------------------------------------------------------
# snapshots


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        state = {"version": 1, "tenant": "t", "x": [1, None, float("nan")]}
        write_snapshot(tmp_path, state)
        loaded = load_snapshot(tmp_path)
        assert loaded["tenant"] == "t"
        assert math.isnan(loaded["x"][2])

    def test_absent_is_none(self, tmp_path):
        assert load_snapshot(tmp_path) is None

    def test_overwrite_is_atomic(self, tmp_path):
        write_snapshot(tmp_path, {"version": 1, "gen": 1})
        write_snapshot(tmp_path, {"version": 1, "gen": 2})
        assert load_snapshot(tmp_path)["gen"] == 2
        assert not (tmp_path / "snapshot.json.tmp").exists()

    def test_bit_flip_detected(self, tmp_path):
        write_snapshot(tmp_path, {"version": 1, "tenant": "t"})
        path = tmp_path / "snapshot.json"
        data = bytearray(path.read_bytes())
        data[-3] = ord("X")  # "t" -> "X" inside the body (valid UTF-8)
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruption, match="checksum"):
            load_snapshot(tmp_path)

    def test_non_utf8_garbage_detected(self, tmp_path):
        write_snapshot(tmp_path, {"version": 1, "tenant": "t"})
        path = tmp_path / "snapshot.json"
        data = bytearray(path.read_bytes())
        data[-2] ^= 0xFF  # invalid continuation byte
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruption, match="UTF-8"):
            load_snapshot(tmp_path)

    def test_malformed_header_detected(self, tmp_path):
        (tmp_path / "snapshot.json").write_text("not a snapshot\n{}")
        with pytest.raises(SnapshotCorruption, match="header"):
            load_snapshot(tmp_path)

    def test_body_is_the_one_shot_json(self, tmp_path):
        state = {
            "version": 1,
            "nested": {"a": [1, {"b": None}], "e": {}, "l": []},
            "x": [float("nan"), float("inf"), "é", True],
        }
        write_snapshot(tmp_path, state)
        header, body = (tmp_path / "snapshot.json").read_bytes().split(b"\n", 1)
        expected = json.dumps(state, separators=(",", ":"), allow_nan=True)
        assert body == expected.encode("utf-8")
        assert header == b"repro-snapshot-v1 crc32=%010d" % zlib.crc32(body)

    def test_iterators_are_written_as_arrays(self, tmp_path):
        state = {
            "version": 1,
            "rows": iter([{"a": 1}, (x for x in [2, 3])]),
            "none": iter(()),
        }
        write_snapshot(tmp_path, state)
        assert load_snapshot(tmp_path) == {
            "version": 1, "rows": [{"a": 1}, [2, 3]], "none": []
        }

    def test_non_string_key_refused(self, tmp_path):
        with pytest.raises(TypeError, match="strings"):
            write_snapshot(tmp_path, {"version": 1, "m": {1: "x"}})

    def test_relation_state_is_written_one_column_at_a_time(self, tmp_path):
        n, width = 20_000, 8
        schema = parse_schema({"attributes": [f"c{j}" for j in range(width)]})
        rel = Relation.from_rows(
            schema, [tuple(f"v{i}-{j}" for j in range(width)) for i in range(n)]
        )
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            eager = rel.to_state()
            eager_bytes = tracemalloc.get_traced_memory()[0] - base
            del eager
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            write_snapshot(tmp_path, {"relation": iter_relation_state(rel)})
            streamed_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Eight equal columns: about two columns' worth is alive at once.
        assert streamed_peak < eager_bytes / 2
        back = Relation.from_state(load_snapshot(tmp_path)["relation"])
        assert back.rows() == rel.rows()


# ---------------------------------------------------------------------------
# relation state round trip (the snapshot encoding)


class TestRelationState:
    def test_round_trip_with_mixed_values(self):
        schema = parse_schema(
            {"attributes": ["a", {"name": "x", "type": "numerical"}]}
        )
        rel = Relation.from_rows(
            schema,
            [
                ("u", 1.5),
                (None, float("nan")),
                ("u", -0.0),
                ("v", None),
            ],
        )
        back = Relation.from_state(rel.to_state())
        assert back.schema.names() == rel.schema.names()
        rows, brows = rel.rows(), back.rows()
        assert len(rows) == len(brows)
        for r, b in zip(rows, brows):
            for x, y in zip(r, b):
                if isinstance(x, float) and math.isnan(x):
                    assert isinstance(y, float) and math.isnan(y)
                else:
                    assert x == y

    def test_version_check(self):
        schema = parse_schema({"attributes": ["a"]})
        state = Relation.from_rows(schema, [("x",)]).to_state()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            Relation.from_state(state)

    def test_json_safe(self):
        schema = parse_schema({"attributes": ["a", "b"]})
        rel = Relation.from_rows(schema, [("x", 1), ("x", 2)])
        text = json.dumps(rel.to_state(), allow_nan=True)
        back = Relation.from_state(json.loads(text))
        assert back.rows() == rel.rows()


# ---------------------------------------------------------------------------
# manager: WAL + snapshot + recovery equivalence


def _seed_manager(tmp_path, *, fsync="off", snapshot_every=1000, batches=6):
    """A tenant with rules and `batches` applied, durably logged."""
    mgr = DurabilityManager(
        tmp_path, fsync=fsync, snapshot_every=snapshot_every
    )
    reg = TenantRegistry()
    schema = parse_schema(SCHEMA)
    tenant = reg.register("acme", schema, rows=[["1", "a"], ["2", "b"]])
    mgr.log_register(tenant)

    from repro.rules_io import parse_rules_with_meta

    tenant.install_rules(parse_rules_with_meta(FD_RULES, source="t"), FD_RULES)
    mgr.log_rules(tenant, FD_RULES)

    for i in range(batches):
        delta = Delta.from_json(
            {"insert": [["1", f"dup{i}"], [str(10 + i), "ok"]]}, schema
        )
        mgr.log_batch(tenant, delta)
        tenant.detector.apply(delta)
        tenant.relation = tenant.detector.relation
        tenant.batches_ingested += 1
        tenant.rows_ingested += len(delta.inserts)
        mgr.note_batch_applied(tenant)
    return mgr, reg, tenant


def _assert_equal_state(recovered, live):
    assert len(recovered.detector.relation) == len(live.detector.relation)
    assert sorted(map(tuple, recovered.detector.relation.rows())) == sorted(
        map(tuple, live.detector.relation.rows())
    )
    assert len(recovered.detector.violations()) == len(
        live.detector.violations()
    )
    assert recovered.batches_ingested == live.batches_ingested
    assert recovered.rows_ingested == live.rows_ingested


class TestRecovery:
    def test_wal_only_replay_equals_live(self, tmp_path):
        mgr, _, live = _seed_manager(tmp_path)
        mgr.close()
        mgr2 = DurabilityManager(tmp_path, fsync="off")
        reg2 = TenantRegistry()
        report = mgr2.recover(reg2)
        assert report.batches_replayed == 6
        assert not report.skipped
        _assert_equal_state(reg2.get("acme"), live)
        mgr2.close()

    def test_snapshot_plus_tail_equals_live(self, tmp_path):
        mgr, _, live = _seed_manager(tmp_path, snapshot_every=4)
        mgr.close()
        mgr2 = DurabilityManager(tmp_path, fsync="off")
        reg2 = TenantRegistry()
        report = mgr2.recover(reg2)
        [t] = report.tenants
        assert t.snapshot_used
        # Only the records after the snapshot replay.
        assert t.batches_replayed == 2
        assert not t.warnings
        _assert_equal_state(reg2.get("acme"), live)
        mgr2.close()

    def test_corrupt_snapshot_falls_back_to_full_replay(self, tmp_path):
        mgr, _, live = _seed_manager(tmp_path, snapshot_every=4)
        mgr.close()
        # After the snapshot the WAL was reset, so full replay needs
        # the pre-snapshot records too: corrupt the snapshot AND
        # restore a full WAL by replaying a fresh seed into a second
        # directory is overkill — instead corrupt a snapshot while the
        # WAL still has everything (snapshot_every beyond the run).
        mgr2, _, live2 = _seed_manager(
            tmp_path / "b", snapshot_every=1000
        )
        mgr2.snapshot(live2)  # snapshot at the end; WAL now empty
        # Re-log one batch so recovery has a tail, then corrupt.
        schema = live2.schema
        delta = Delta.from_json({"insert": [["77", "q"]]}, schema)
        mgr2.log_batch(live2, delta)
        live2.detector.apply(delta)
        live2.relation = live2.detector.relation
        live2.batches_ingested += 1
        live2.rows_ingested += 1
        mgr2.close()
        snap = tmp_path / "b" / "tenants" / "acme" / "snapshot.json"
        data = bytearray(snap.read_bytes())
        data[-3] ^= 0xFF
        snap.write_bytes(bytes(data))
        mgr3 = DurabilityManager(tmp_path / "b", fsync="off")
        reg3 = TenantRegistry()
        report = mgr3.recover(reg3)
        # The snapshot is unusable and the WAL alone cannot rebuild
        # (it was reset at snapshot time): the tenant is reported, not
        # silently resurrected wrong.
        assert report.skipped or any(
            t.warnings for t in report.tenants
        )
        mgr3.close()

    def test_snapshot_seq_skips_already_folded_records(self, tmp_path):
        # Crash window between snapshot rename and WAL reset: simulate
        # by snapshotting, then writing the records back into the WAL
        # with their original seqs — replay must skip them.
        mgr, _, live = _seed_manager(tmp_path, snapshot_every=1000)
        log = mgr._log("acme")
        preserved = scan_wal(log.wal.path).records
        mgr.snapshot(live)
        for record in preserved:
            log.wal.append(record)
        mgr.close()
        mgr2 = DurabilityManager(tmp_path, fsync="off")
        reg2 = TenantRegistry()
        report = mgr2.recover(reg2)
        [t] = report.tenants
        assert t.snapshot_used
        assert t.batches_replayed == 0  # every record seq <= snapshot seq
        _assert_equal_state(reg2.get("acme"), live)
        mgr2.close()

    def test_torn_tail_is_reported_and_dropped(self, tmp_path):
        mgr, _, live = _seed_manager(tmp_path)
        mgr.close()
        wal = tmp_path / "tenants" / "acme" / "wal.log"
        with open(wal, "ab") as f:
            f.write(b"\x00\x00\x01\x00only-half-a-frame")
        mgr2 = DurabilityManager(tmp_path, fsync="off")
        reg2 = TenantRegistry()
        report = mgr2.recover(reg2)
        [t] = report.tenants
        assert t.torn_bytes > 0
        assert any("truncated" in w for w in t.warnings)
        _assert_equal_state(reg2.get("acme"), live)
        mgr2.close()

    def test_remove_tenant_drops_durable_state(self, tmp_path):
        mgr, _, _ = _seed_manager(tmp_path)
        mgr.remove_tenant("acme")
        assert not (tmp_path / "tenants" / "acme").exists()
        mgr2 = DurabilityManager(tmp_path, fsync="off")
        report = mgr2.recover(TenantRegistry())
        assert report.tenants == []
        mgr2.close()

    def test_empty_directory_skipped_with_reason(self, tmp_path):
        mgr = DurabilityManager(tmp_path, fsync="off")
        (mgr.tenants_dir / "ghost").mkdir()
        report = mgr.recover(TenantRegistry())
        assert report.tenants == []
        assert report.skipped and "ghost" in report.skipped[0]
        mgr.close()

    def test_recovered_manager_keeps_appending_monotone_seqs(
        self, tmp_path
    ):
        mgr, _, live = _seed_manager(tmp_path)
        mgr.close()
        mgr2 = DurabilityManager(tmp_path, fsync="off")
        reg2 = TenantRegistry()
        mgr2.recover(reg2)
        tenant = reg2.get("acme")
        delta = Delta.from_json(
            {"insert": [["55", "z"]]}, tenant.schema
        )
        mgr2.log_batch(tenant, delta)
        mgr2.close()
        records = scan_wal(
            tmp_path / "tenants" / "acme" / "wal.log"
        ).records
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


# ---------------------------------------------------------------------------
# overload: gate, watermark, breaker


class TestIngestGate:
    def test_bounded_admission(self):
        gate = IngestGate(2)
        assert gate.try_acquire("t")
        assert gate.try_acquire("t")
        assert not gate.try_acquire("t")
        assert gate.shed_total == 1
        gate.release("t")
        assert gate.try_acquire("t")

    def test_tenants_do_not_share_the_bound(self):
        gate = IngestGate(1)
        assert gate.try_acquire("a")
        assert gate.try_acquire("b")
        assert not gate.try_acquire("a")

    def test_zero_disables(self):
        gate = IngestGate(0)
        assert all(gate.try_acquire("t") for _ in range(100))


class TestMemoryWatermark:
    def test_reads_real_rss(self):
        wm = MemoryWatermark(0)
        assert wm.rss_bytes() > 0  # /proc is available on CI

    def test_watermark_flips_read_only(self):
        wm = MemoryWatermark(100)
        wm.forced_rss_bytes = 50 * 1024 * 1024
        assert not wm.read_only()
        wm.forced_rss_bytes = 200 * 1024 * 1024
        assert wm.read_only()

    def test_disabled_watermark_never_read_only(self):
        wm = MemoryWatermark(0)
        wm.forced_rss_bytes = 1 << 60
        assert not wm.read_only()


class _StubDetector:
    """Just enough detector surface for breaker unit tests."""

    def __init__(self):
        self.suspended = []
        self.resumed = []
        self.known = {"FD: a -> b"}

    def suspend_rule(self, label):
        self.suspended.append(label)
        return True

    def resume_rule(self, label):
        if label not in self.known:
            return False
        self.resumed.append(label)
        return True


class TestCircuitBreaker:
    RULE = "FD: a -> b"

    def test_opens_after_threshold_consecutive_faults(self):
        cb = CircuitBreaker(threshold=3, cooldown_s=60)
        det = _StubDetector()
        for _ in range(2):
            assert cb.after_batch("t", det, {self.RULE}) == []
        [t] = cb.after_batch("t", det, {self.RULE})
        assert t.state == "open" and "3 consecutive" in t.reason
        assert det.suspended == [self.RULE]

    def test_clean_batch_resets_the_count(self):
        cb = CircuitBreaker(threshold=3, cooldown_s=60)
        det = _StubDetector()
        cb.after_batch("t", det, {self.RULE})
        cb.after_batch("t", det, {self.RULE})
        cb.after_batch("t", det, set())  # clean batch
        cb.after_batch("t", det, {self.RULE})
        cb.after_batch("t", det, {self.RULE})
        assert det.suspended == []  # never reached 3 consecutive

    def test_half_open_probe_closes_on_success(self):
        cb = CircuitBreaker(threshold=1, cooldown_s=0.0)
        det = _StubDetector()
        [opened] = cb.after_batch("t", det, {self.RULE})
        assert opened.state == "open"
        [probing] = cb.before_batch("t", det)
        assert probing.state == "half-open"
        assert det.resumed == [self.RULE]
        [closed] = cb.after_batch("t", det, set())
        assert closed.state == "closed"
        assert cb.states("t")[self.RULE] == "closed"

    def test_half_open_probe_reopens_on_fault(self):
        cb = CircuitBreaker(threshold=1, cooldown_s=0.0)
        det = _StubDetector()
        cb.after_batch("t", det, {self.RULE})
        cb.before_batch("t", det)
        [reopened] = cb.after_batch("t", det, {self.RULE})
        assert reopened.state == "open"
        assert reopened.reason == "probe faulted"
        assert det.suspended == [self.RULE, self.RULE]

    def test_open_breaker_respects_cooldown(self):
        cb = CircuitBreaker(threshold=1, cooldown_s=3600)
        det = _StubDetector()
        cb.after_batch("t", det, {self.RULE})
        assert cb.before_batch("t", det) == []  # not yet due
        assert det.resumed == []

    def test_vanished_rule_is_forgotten(self):
        cb = CircuitBreaker(threshold=1, cooldown_s=0.0)
        det = _StubDetector()
        det.known = set()  # rule no longer exists
        cb.after_batch("t", det, {self.RULE})
        assert cb.before_batch("t", det) == []
        assert cb.states("t") == {}


class TestDetectorSuspendResume:
    def _detector(self):
        schema = Schema(["a", "b", "c"])
        rel = Relation.from_rows(
            schema, [("1", "x", "p"), ("1", "y", "p")]
        )
        rules = [FD(["a"], ["b"]), FD(["a"], ["c"])]
        return rules, IncrementalDetector(rules, rel)

    def test_suspend_removes_and_resume_rebuilds_exactly(self):
        rules, det = self._detector()
        label = rules[0].label()
        before = len(det.violations())
        assert det.suspend_rule(label)
        assert label in det.suspended_rules
        assert len(det.violations()) < before
        assert det.resume_rule(label)
        assert det.suspended_rules == []
        # Cold rebuild on resume: exact state, nothing drifted.
        assert len(det.violations()) == before

    def test_suspended_rule_skips_batches_then_catches_up(self):
        rules, det = self._detector()
        label = rules[0].label()
        det.suspend_rule(label)
        det.apply(
            Delta(inserts=[("1", "z", "q"), ("2", "w", "r")])
        )
        det.resume_rule(label)
        # The resumed checker sees the rows applied while suspended.
        cold = Detector(rules).detect(det.relation)
        assert len(det.violations()) == len(cold.violations)

    def test_unknown_labels_are_noops(self):
        _, det = self._detector()
        assert not det.suspend_rule("nope")
        assert not det.resume_rule("nope")


# ---------------------------------------------------------------------------
# breaker wired through the app ingest core


class TestBreakerIntegration:
    def test_faulting_rule_trips_then_recovers(self, monkeypatch):
        app = ReproApp(
            overload=OverloadConfig(
                breaker_threshold=2, breaker_cooldown_s=3600
            )
        )
        schema = parse_schema(SCHEMA)
        tenant = app.tenants.register("acme", schema)
        rule = FD(["zip"], ["city"])
        tenant.rules_payload = FD_RULES
        tenant.detector = IncrementalDetector([rule], tenant.relation)
        label = rule.label()

        import repro.incremental.detector as detector_mod

        real = detector_mod.checker_for
        faulty = {"on": True}

        class _Exploding:
            def __init__(self, inner):
                self._inner = inner

            def apply(self, *a, **k):
                if faulty["on"]:
                    raise RuntimeError("flaky checker")
                return self._inner.apply(*a, **k)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        def wrapping(rule_, relation):
            return _Exploding(real(rule_, relation))

        # Every (re)build of this tenant's checker is faulty until the
        # flag flips — so consecutive batches keep faulting.
        tenant.detector._checkers[0] = _Exploding(
            tenant.detector._checkers[0]
        )
        monkeypatch.setattr(detector_mod, "checker_for", wrapping)

        batch = {"insert": [["9", "x"]]}
        _, t1 = app.apply_batch(tenant, batch)
        assert t1 == []  # one fault: breaker still closed
        _, t2 = app.apply_batch(tenant, batch)
        assert [t.state for t in t2] == ["open"]
        assert tenant.detector.suspended_rules == [label]

        # While open, batches flow with the rule suspended: no faults.
        change, t3 = app.apply_batch(tenant, batch)
        assert t3 == [] and change.quarantined == []

        # Heal the rule, force the cooldown to expire, probe, close.
        faulty["on"] = False
        monkeypatch.setattr(detector_mod, "checker_for", real)
        app.guards.breaker._rules["acme"][label].opened_at = -1e9
        change, t4 = app.apply_batch(tenant, batch)
        states = [t.state for t in t4]
        assert states == ["half-open", "closed"]
        assert tenant.detector.suspended_rules == []
        # Post-recovery exactness: equal to a cold detect.
        cold = Detector([rule]).detect(tenant.detector.relation)
        assert len(tenant.detector.violations()) == len(cold.violations)
        app.shutdown()


# ---------------------------------------------------------------------------
# load shedding and the read-only watermark over HTTP


def _req(base, method, path, body=None, headers=None, timeout=30):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )

    def _decode(resp_headers, raw):
        if resp_headers.get("Content-Type", "").startswith(
            "application/json"
        ):
            return json.loads(raw or b"{}")
        return raw.decode()

    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, _decode(resp.headers, resp.read()), resp.headers
    except urllib.error.HTTPError as exc:
        return exc.code, _decode(exc.headers, exc.read()), exc.headers


class TestOverloadHttp:
    def test_queue_full_sheds_with_retry_after(self):
        app = ReproApp(
            overload=OverloadConfig(
                max_inflight_per_tenant=1, retry_after_s=2.5
            )
        )
        handle = app.run_in_thread()
        try:
            base = handle.base_url
            status, _, _ = _req(
                base, "POST", "/tenants",
                {"tenant": "acme", "schema": SCHEMA},
            )
            assert status == 201
            status, _, _ = _req(
                base, "PUT", "/tenants/acme/rules", FD_RULES
            )
            assert status == 200
            tenant = app.tenants.get("acme")
            # Hold the tenant writer lock so the admitted batch parks
            # inside the executor and keeps its gate slot.
            tenant.lock.acquire()
            try:
                results = []
                first = threading.Thread(
                    target=lambda: results.append(
                        _req(base, "POST", "/tenants/acme/batches",
                             {"insert": [["1", "a"]]})
                    )
                )
                first.start()
                deadline = time.time() + 5
                while (
                    app.guards.gate.depth("acme") == 0
                    and time.time() < deadline
                ):
                    time.sleep(0.01)
                assert app.guards.gate.depth("acme") == 1
                status, body, headers = _req(
                    base, "POST", "/tenants/acme/batches",
                    {"insert": [["2", "b"]]},
                )
                assert status == 429
                assert body["reason"] == "ingest-queue-full"
                assert headers["Retry-After"] == "2.5"
            finally:
                tenant.lock.release()
            first.join(timeout=10)
            assert results and results[0][0] == 200
            # The shed was counted, in the gate and in /metrics.
            assert app.guards.gate.shed_total == 1
            status, text, _ = _req(base, "GET", "/metrics")
            assert "repro_shed_requests_total" in text
        finally:
            handle.stop()

    def test_memory_watermark_flips_read_only(self):
        # Watermark far above the test process's real footprint; the
        # forced-RSS hook pushes us over it deterministically.
        app = ReproApp(overload=OverloadConfig(max_rss_mb=1e9))
        handle = app.run_in_thread()
        try:
            base = handle.base_url
            status, _, _ = _req(
                base, "POST", "/tenants",
                {"tenant": "acme", "schema": SCHEMA},
            )
            assert status == 201
            _req(base, "PUT", "/tenants/acme/rules", FD_RULES)
            app.guards.watermark.forced_rss_bytes = 1 << 60
            status, body, headers = _req(
                base, "POST", "/tenants/acme/batches",
                {"insert": [["1", "a"]]},
            )
            assert status == 429
            assert body["reason"] == "memory-watermark"
            assert "Retry-After" in headers
            status, _, _ = _req(
                base, "POST", "/tenants",
                {"tenant": "other", "schema": SCHEMA},
            )
            assert status == 429  # registration is mutating too
            # Reads still flow.
            status, body, _ = _req(base, "GET", "/tenants/acme/violations")
            assert status == 200
            status, health, _ = _req(base, "GET", "/healthz")
            assert health["read_only"] is True
            app.guards.watermark.forced_rss_bytes = None
            status, _, _ = _req(
                base, "POST", "/tenants/acme/batches",
                {"insert": [["1", "a"]]},
            )
            assert status == 200
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# chaos: crash points and kill -9


_CHAOS_CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.server import OverloadConfig, ReproApp

    data_dir, fsync, batches = sys.argv[1], sys.argv[2], int(sys.argv[3])
    app = ReproApp(data_dir=data_dir, fsync=fsync)
    schema = {"attributes": ["zip", "city"]}
    rules = {"rules": [{"kind": "FD", "lhs": ["zip"], "rhs": ["city"]}]}

    from repro.server.state import parse_schema
    from repro.rules_io import parse_rules_with_meta

    tenant = app.tenants.register("acme", parse_schema(schema),
                                  rows=[["1", "a"]])
    app.durability.log_register(tenant)
    entries = parse_rules_with_meta(rules, source="t")
    with tenant.lock:
        app.durability.log_rules(tenant, rules)
        tenant.install_rules(entries, rules)

    for i in range(batches):
        print(json.dumps({"event": "applying", "batch": i}), flush=True)
        change, _ = app.apply_batch(
            tenant, {"insert": [["1", "dup%d" % i], [str(100 + i), "ok"]]}
        )
        print(json.dumps({
            "event": "acked", "batch": i,
            "violations": change.total,
            "rows": len(tenant.detector.relation),
        }), flush=True)
    app.shutdown()
    print(json.dumps({"event": "done"}), flush=True)
    """
)


def _run_chaos_child(tmp_path, *, crash_point, fsync="batch", batches=8):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    )
    if crash_point:
        env["REPRO_CRASH_POINT"] = crash_point
    proc = subprocess.run(
        [sys.executable, "-c", _CHAOS_CHILD,
         str(tmp_path), fsync, str(batches)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    events = [
        json.loads(line)
        for line in proc.stdout.splitlines()
        if line.startswith("{")
    ]
    return proc, events


def _recover(tmp_path):
    app = ReproApp(data_dir=tmp_path, fsync="off")
    report = app.recovery_report
    tenant = app.tenants.get("acme")
    state = {
        "violations": len(tenant.detector.violations()),
        "rows": len(tenant.detector.relation),
        "batches": tenant.batches_ingested,
        "report": report,
    }
    app.shutdown()
    return state


class TestChaos:
    @pytest.mark.parametrize("fsync", ["always", "batch", "off"])
    def test_crash_mid_wal_append_recovers_acked_prefix(
        self, tmp_path, fsync
    ):
        # Crash while the 6th batch's frame is half-written: the torn
        # frame must be truncated and recovery must equal the acked
        # prefix exactly (batches 0..4), under every fsync policy.
        proc, events = _run_chaos_child(
            tmp_path, crash_point="wal-append:8", fsync=fsync
        )
        assert proc.returncode == 137, proc.stderr
        acked = [e for e in events if e["event"] == "acked"]
        assert len(acked) == 5  # register+rules+5 batches = 7 appends
        state = _recover(tmp_path)
        assert state["batches"] == len(acked)
        assert state["violations"] == acked[-1]["violations"]
        assert state["rows"] == acked[-1]["rows"]
        [t] = state["report"].tenants
        assert t.torn_bytes > 0  # the half-frame really was torn

    def test_crash_during_replay_then_second_recovery_converges(
        self, tmp_path
    ):
        proc, events = _run_chaos_child(tmp_path, crash_point=None)
        assert proc.returncode == 0, proc.stderr
        acked = [e for e in events if e["event"] == "acked"]
        assert len(acked) == 8
        # First recovery attempt dies mid-replay (in a child: the
        # crash is os._exit, which cannot be caught in-process)...
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        )
        env["REPRO_CRASH_POINT"] = "replay:3"
        probe = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(
                """
                import sys
                from repro.server import ReproApp
                ReproApp(data_dir=sys.argv[1], fsync="off")
                """
            ), str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert probe.returncode == 137, probe.stderr
        # ... the second (no crash armed) must converge to the full
        # durable state: replay itself never mutates the log.
        state = _recover(tmp_path)
        assert state["batches"] == 8
        assert state["violations"] == acked[-1]["violations"]
        assert state["rows"] == acked[-1]["rows"]

    def test_snapshot_write_crash_point_direct(self, tmp_path):
        # Manager-level: first snapshot lands, second dies mid-write in
        # a child process; the surviving snapshot must verify and the
        # WAL tail must carry everything after it.
        child = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, sys.argv[2])
            from tests.test_durability import _seed_manager
            # snapshot_every=3: snapshots after batches 3 and 6; the
            # second snapshot write crashes half-way.
            _seed_manager(sys.argv[1], fsync="off",
                          snapshot_every=3, batches=8)
            """
        )
        env = dict(os.environ)
        root = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = f"{root / 'src'}:{root}"
        env["REPRO_CRASH_POINT"] = "snapshot-write:2"
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path), str(root)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 137, proc.stderr
        # The tmp file of the torn write may remain; the real snapshot
        # must still verify as the *first* snapshot generation.
        snap_dir = tmp_path / "tenants" / "acme"
        state = load_snapshot(snap_dir)  # raises if torn/corrupt
        assert state is not None
        mgr = DurabilityManager(tmp_path, fsync="off")
        reg = TenantRegistry()
        report = mgr.recover(reg)
        [t] = report.tenants
        assert t.snapshot_used
        tenant = reg.get("acme")
        # 6 batches were applied before the crash (snapshot due after
        # the 6th); all 6 must be recovered: 3 from the snapshot, 3
        # replayed from the tail.
        assert tenant.batches_ingested == 6
        assert t.batches_replayed == 3
        mgr.close()


# ---------------------------------------------------------------------------
# kill -9 a live server; graceful SIGTERM drain


def _wait_for_port(stderr_path, timeout=30):
    deadline = time.time() + timeout
    while time.time() < deadline:
        text = Path(stderr_path).read_text()
        for line in text.splitlines():
            if "serving on" in line:
                try:
                    record = json.loads(line)
                    message = record.get("message", "")
                except json.JSONDecodeError:
                    message = line
                host_port = message.rsplit("serving on ", 1)[-1]
                return int(host_port.rsplit(":", 1)[-1])
        time.sleep(0.05)
    raise AssertionError(
        f"server never reported its port:\n{Path(stderr_path).read_text()}"
    )


def _start_serve(tmp_path, data_dir, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src"
    )
    stderr_path = tmp_path / "serve.log"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--data-dir", str(data_dir), *extra],
        stdout=subprocess.DEVNULL,
        stderr=open(stderr_path, "w"),
        env=env,
    )
    try:
        port = _wait_for_port(stderr_path)
    except Exception:
        proc.kill()
        raise
    return proc, f"http://127.0.0.1:{port}"


@pytest.mark.slow
class TestLiveServerChaos:
    def _ingest_some(self, base, batches=6):
        status, _, _ = _req(
            base, "POST", "/tenants",
            {"tenant": "acme", "schema": SCHEMA, "rows": [["1", "a"]]},
        )
        assert status == 201
        status, _, _ = _req(base, "PUT", "/tenants/acme/rules", FD_RULES)
        assert status == 200
        last = None
        for i in range(batches):
            status, body, _ = _req(
                base, "POST", "/tenants/acme/batches",
                {"insert": [["1", f"dup{i}"], [str(50 + i), "ok"]]},
            )
            assert status == 200, body
            last = body
        return last

    def test_kill_dash_nine_mid_ingest_recovers_acked_state(
        self, tmp_path
    ):
        data_dir = tmp_path / "state"
        proc, base = _start_serve(tmp_path, data_dir)
        try:
            last = self._ingest_some(base)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        state = _recover(data_dir)
        # Every acknowledged batch survived the SIGKILL.
        assert state["batches"] == 6
        assert state["violations"] == last["total_violations"]
        assert state["rows"] == last["rows"]

    def test_sigterm_drains_gracefully(self, tmp_path):
        data_dir = tmp_path / "state"
        proc, base = _start_serve(
            tmp_path, data_dir, "--fsync", "always"
        )
        try:
            last = self._ingest_some(base, batches=3)
        except BaseException:
            proc.kill()
            raise
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0  # clean exit, not a crash
        state = _recover(data_dir)
        assert state["batches"] == 3
        assert state["violations"] == last["total_violations"]

    def test_restarted_server_serves_recovered_state(self, tmp_path):
        data_dir = tmp_path / "state"
        proc, base = _start_serve(tmp_path, data_dir)
        try:
            last = self._ingest_some(base, batches=4)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        proc2, base2 = _start_serve(tmp_path, data_dir)
        try:
            status, body, _ = _req(base2, "GET", "/tenants/acme/violations")
            assert status == 200
            assert body["total_violations"] == last["total_violations"]
            assert body["rows"] == last["rows"]
            status, health, _ = _req(base2, "GET", "/healthz")
            assert health["recovery"]["tenants"] == 1
            # And the recovered tenant keeps accepting writes.
            status, body, _ = _req(
                base2, "POST", "/tenants/acme/batches",
                {"insert": [["1", "post-recovery"]]},
            )
            assert status == 200
        finally:
            proc2.send_signal(signal.SIGTERM)
            proc2.wait(timeout=30)
