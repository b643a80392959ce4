"""The dependency-checking service: routes, jobs, observability.

Covers the acceptance path end to end over real sockets (register →
lint-rejected upload with DD codes → rule upload → batch stream →
violations → budget-exhausted discovery job polled to an honest
partial → /metrics) plus unit tests for the router, the metrics
registry, concurrent multi-tenant ingestion, and thread-safe kernel
counter snapshots.
"""

import glob
import http.client
import json
import random
import signal
import threading

import pytest

from repro.incremental import IncrementalDetector
from repro.core import FD
from repro.datasets import random_relation
from repro.plan import KernelCounters
from repro.server import ReproApp
from repro.server.http import HttpError, Request
from repro.server.observability import Histogram, MetricsRegistry
from repro.server.routes import build_router

from .test_durability import _req, _start_serve

# ---------------------------------------------------------------------------
# helpers


@pytest.fixture(scope="module")
def server():
    app = ReproApp()
    handle = app.run_in_thread()
    yield handle
    handle.stop()


class Client:
    """A tiny keep-alive JSON client over http.client."""

    def __init__(self, handle):
        self.conn = http.client.HTTPConnection(
            handle.host, handle.port, timeout=30
        )

    def request(self, method, path, body=None, headers=None):
        payload = None if body is None else json.dumps(body)
        self.conn.request(method, path, body=payload, headers=headers or {})
        resp = self.conn.getresponse()
        raw = resp.read()
        if resp.getheader("Content-Type", "").startswith("application/json"):
            return resp.status, json.loads(raw) if raw else None
        return resp.status, raw.decode()

    def close(self):
        self.conn.close()


@pytest.fixture()
def client(server):
    c = Client(server)
    yield c
    c.close()


SCHEMA = [
    "city",
    "zip",
    {"name": "price", "type": "numerical"},
]

FD_RULES = {"rules": [{"kind": "FD", "lhs": ["zip"], "rhs": ["city"]}]}


def register(client, tenant, rows=None):
    body = {"tenant": tenant, "schema": SCHEMA}
    if rows is not None:
        body["rows"] = rows
    status, payload = client.request("POST", "/tenants", body)
    assert status == 201, payload
    return payload


def poll_job(client, job_id, tries=200):
    for _ in range(tries):
        status, job = client.request("GET", f"/jobs/{job_id}")
        assert status == 200
        if job["state"] in ("succeeded", "failed", "cancelled"):
            return job
        import time

        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish: {job}")


# ---------------------------------------------------------------------------
# the acceptance path, end to end


class TestEndToEnd:
    def test_health_and_version(self, client):
        status, body = client.request("GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        status, body = client.request("GET", "/version")
        assert status == 200 and body["name"] == "repro"

    def test_full_lifecycle(self, client, server):
        register(client, "acme")

        # 1. A rule over an unknown attribute is rejected with its DD
        #    code in the error body — the upload does not half-apply.
        status, body = client.request(
            "PUT",
            "/tenants/acme/rules",
            {"rules": [
                {"kind": "FD", "lhs": ["zip"], "rhs": ["city"]},
                {"kind": "FD", "lhs": ["zip"], "rhs": ["nope"]},
            ]},
        )
        assert status == 400
        codes = {d["code"] for d in body["diagnostics"]}
        assert "DD001" in codes
        assert body["rejected"] == ["FD: zip -> nope"]
        status, body = client.request("GET", "/tenants/acme/rules")
        assert body["rules"] == []  # nothing was applied

        # 2. A clean upload builds the changefeed detector.
        status, body = client.request(
            "PUT", "/tenants/acme/rules", FD_RULES
        )
        assert status == 200
        assert body["accepted"] == 1
        assert body["initial_violations"] == 0

        # 3. Stream three batches; the second introduces a violation,
        #    the third resolves nothing and adds clean rows.
        batches = [
            {"insert": [{"city": "Berlin", "zip": "10115", "price": 9.5}]},
            {"insert": [{"city": "Bonn", "zip": "10115", "price": 4.0}]},
            {"insert": [{"city": "Mainz", "zip": "55116", "price": 7.0}]},
        ]
        feed = []
        for batch in batches:
            status, change = client.request(
                "POST", "/tenants/acme/batches", batch
            )
            assert status == 200, change
            feed.append(change)
        assert [c["seq"] for c in feed] == [1, 2, 3]
        assert feed[1]["added"] == 1 and feed[1]["total_violations"] == 1
        assert feed[2]["added"] == 0 and feed[2]["total_violations"] == 1
        assert all(c["complete"] for c in feed)

        status, body = client.request("GET", "/tenants/acme/violations")
        assert status == 200
        assert body["total_violations"] == 1
        assert body["per_rule"] == {"FD: zip -> city": 1}
        assert body["quarantine"] == []

        # 4. Synchronous check over inline rows.
        status, body = client.request(
            "POST",
            "/tenants/acme/check",
            {"rows": [["A", "1", 1.0], ["B", "1", 2.0], ["A", "2", 3.0]]},
        )
        assert status == 200
        assert body["total_violations"] == 1
        assert body["complete"] is True
        assert body["results"][0]["rule"] == "FD: zip -> city"

        # 5. A discovery job whose deadline budget exhausts: the poll
        #    reports an honest partial, not a fake success or an error.
        status, job = client.request(
            "POST",
            "/tenants/acme/jobs",
            {"type": "discovery"},
            headers={"X-Budget-Deadline-S": "0.000001"},
        )
        assert status == 202
        job = poll_job(client, job["job"])
        assert job["state"] == "succeeded"
        assert job["partial"] is True
        assert any(s.get("exhausted") == "deadline" for s in job["stages"])
        assert "result" in job

        # 6. /metrics shows per-tenant request, violation, and
        #    budget-exhaustion counters (Prometheus text format).
        status, text = client.request("GET", "/metrics")
        assert status == 200
        assert 'repro_batches_total{tenant="acme"} 3' in text
        assert 'repro_rows_ingested_total{tenant="acme"} 3' in text
        assert 'repro_violations_added_total{tenant="acme"} 1' in text
        assert 'repro_violations{tenant="acme"} 1' in text
        assert (
            'repro_budget_exhausted_total{tenant="acme",reason="deadline"}'
            in text
        )
        assert (
            'repro_requests_total{tenant="acme",'
            'route="/tenants/{tenant}/batches",method="POST",status="200"} 3'
            in text
        )
        assert "repro_request_seconds_bucket" in text
        assert "repro_kernel_executions" in text

    def test_seeded_rows_and_delete_update_batches(self, client):
        register(
            client, "seeded",
            rows=[["A", "1", 1.0], {"city": "B", "zip": "1", "price": 2.0}],
        )
        status, body = client.request(
            "PUT", "/tenants/seeded/rules", FD_RULES
        )
        assert body["initial_violations"] == 1
        # Repair the conflict through the changefeed.
        status, change = client.request(
            "POST",
            "/tenants/seeded/batches",
            {"update": [{"row": 1, "set": {"city": "A"}}]},
        )
        assert status == 200
        assert change["resolved"] == 1 and change["total_violations"] == 0
        status, change = client.request(
            "POST", "/tenants/seeded/batches", {"delete": [0]}
        )
        assert status == 200 and change["rows"] == 1

    def test_repair_job(self, client):
        register(
            client, "fixme",
            rows=[["A", "1", 1.0], ["B", "1", 2.0], ["C", "2", 3.0]],
        )
        client.request("PUT", "/tenants/fixme/rules", FD_RULES)
        status, job = client.request(
            "POST", "/tenants/fixme/jobs", {"type": "repair"}
        )
        assert status == 202
        job = poll_job(client, job["job"])
        assert job["state"] == "succeeded", job
        assert job["result"]["remaining_violations"] == 0
        assert job["result"]["edit_count"] >= 1
        # Repairs are advisory: tenant state is untouched.
        status, body = client.request("GET", "/tenants/fixme/violations")
        assert body["total_violations"] == 1

    def test_job_listing_and_unknown_job(self, client):
        status, body = client.request("GET", "/tenants/acme/jobs")
        assert status == 200
        assert all("result" not in j for j in body["jobs"])
        status, body = client.request("GET", "/jobs/nope")
        assert status == 404

    def test_error_paths(self, client):
        # Unknown tenant -> 404 with a JSON error body.
        status, body = client.request("GET", "/tenants/ghost")
        assert status == 404 and "error" in body
        # Batch before rules -> 409.
        register(client, "norules")
        status, body = client.request(
            "POST", "/tenants/norules/batches", {"insert": [["A", "1", 1.0]]}
        )
        assert status == 409
        # Malformed batch -> 400 (not a 500).
        register(client, "badbatch")
        client.request("PUT", "/tenants/badbatch/rules", FD_RULES)
        status, body = client.request(
            "POST", "/tenants/badbatch/batches", {"delete": [99]}
        )
        assert status == 400 and "bad mutation batch" in body["error"]
        # Bad budget header -> 400.
        status, body = client.request(
            "POST",
            "/tenants/badbatch/jobs",
            {"type": "discovery"},
            headers={"X-Budget-Deadline-S": "soon"},
        )
        assert status == 400
        # Duplicate tenant -> 409; bad method -> 405 with Allow info.
        status, body = client.request(
            "POST", "/tenants", {"tenant": "acme", "schema": SCHEMA}
        )
        assert status == 409
        status, body = client.request("PATCH", "/tenants")
        assert status == 405 and "POST" in body["allowed"]
        # Unknown job type -> 400 listing the valid ones.
        status, body = client.request(
            "POST", "/tenants/badbatch/jobs", {"type": "mining"}
        )
        assert status == 400 and "discovery" in body["allowed"]

    def test_budget_headers_reject_degenerate_values(self, client):
        # Zero, negative, NaN, inf, and non-numeric budgets are all
        # client errors naming the offending header — zero can never
        # admit work and non-finite values wedge deadline arithmetic.
        register(client, "budgets")
        client.request("PUT", "/tenants/budgets/rules", FD_RULES)
        cases = [
            ("X-Budget-Deadline-S", "0"),
            ("X-Budget-Deadline-S", "-1.5"),
            ("X-Budget-Deadline-S", "nan"),
            ("X-Budget-Deadline-S", "inf"),
            ("X-Budget-Deadline-S", "-inf"),
            ("X-Budget-Max-Candidates", "0"),
            ("X-Budget-Max-Candidates", "-3"),
            ("X-Budget-Max-Candidates", "ten"),
            ("X-Budget-Max-Pairs", "0"),
            ("X-Budget-Max-Memory-Mb", "nan"),
            ("X-Budget-Max-Memory-Mb", "0"),
        ]
        for header, value in cases:
            status, body = client.request(
                "POST",
                "/tenants/budgets/batches",
                {"insert": [["A", "9", 1.0]]},
                headers={header: value},
            )
            assert status == 400, (header, value, body)
            assert header.lower() in body["error"], (header, value, body)
            assert body["header"] == header.lower()
        # A sane budget still flows.
        status, body = client.request(
            "POST",
            "/tenants/budgets/batches",
            {"insert": [["A", "9", 1.0]]},
            headers={"X-Budget-Deadline-S": "30"},
        )
        assert status == 200, body

    def test_oversized_body_gets_json_413_and_connection_survives(
        self, client, server, monkeypatch
    ):
        # Regression: an over-limit body used to close the socket
        # without draining, so clients saw a reset instead of the 413.
        import repro.server.http as http_mod

        monkeypatch.setattr(http_mod, "MAX_BODY_BYTES", 4096)
        register(client, "bigbody")
        rows = [["A", str(i), float(i)] for i in range(500)]
        status, body = client.request(
            "POST", "/tenants/bigbody/batches", {"insert": rows}
        )
        assert status == 413
        assert "exceeds" in body["error"]
        assert body["limit_bytes"] == 4096
        assert body["body_bytes"] > 4096
        # Same keep-alive connection keeps working afterwards: the
        # oversized body was drained, the stream is still synchronized.
        status, body = client.request("GET", "/tenants/bigbody")
        assert status == 200 and body["tenant"] == "bigbody"

    def test_sync_check_budget_partial(self, client):
        register(client, "tight", rows=[["A", str(i), float(i)] for i in range(50)])
        client.request("PUT", "/tenants/tight/rules", FD_RULES)
        status, body = client.request(
            "POST",
            "/tenants/tight/check",
            {},
            headers={"X-Budget-Deadline-S": "0.0000001"},
        )
        assert status == 200
        assert body["complete"] is False
        assert body["exhausted"] == "deadline"

    def test_duplicate_rule_keeps_its_original(self, client):
        # Without ids a rule and its duplicate share one name; the skip
        # is kept by entry index, so the original is still checked.
        register(client, "dupes", rows=[["A", "1", 1.0], ["B", "1", 2.0]])
        fd = {"kind": "FD", "lhs": ["zip"], "rhs": ["city"]}
        status, body = client.request(
            "PUT", "/tenants/dupes/rules", {"rules": [fd, fd]}
        )
        assert status == 200
        assert body["accepted"] == 1 and body["initial_violations"] == 1
        status, state = client.request("GET", "/tenants/dupes/violations")
        assert status == 200 and state["total_violations"] == 1

        status, body = client.request("POST", "/tenants/dupes/check", {})
        assert status == 200
        assert body["rules_checked"] == 1
        assert body["total_violations"] == state["total_violations"]

        status, body = client.request("GET", "/tenants/dupes/rules")
        assert status == 200
        assert [r["skipped"] for r in body["rules"]] == [None, "duplicate"]


# ---------------------------------------------------------------------------
# concurrency


class TestConcurrency:
    def test_two_tenants_two_threads(self, server):
        """Parallel ingestion into separate tenants never cross-talks."""
        setup = Client(server)
        for name in ("left", "right"):
            register(setup, name)
            setup.request("PUT", f"/tenants/{name}/rules", FD_RULES)
        setup.close()

        errors = []

        def ingest(name, n):
            c = Client(server)
            try:
                for i in range(n):
                    status, change = c.request(
                        "POST",
                        f"/tenants/{name}/batches",
                        {"insert": [
                            {"city": name, "zip": f"{name}-{i}", "price": i}
                        ]},
                    )
                    if status != 200:
                        errors.append((name, status, change))
            finally:
                c.close()

        threads = [
            threading.Thread(target=ingest, args=("left", 20)),
            threading.Thread(target=ingest, args=("right", 20)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        check = Client(server)
        for name in ("left", "right"):
            status, body = check.request("GET", f"/tenants/{name}")
            assert body["rows"] == 20
            assert body["batches_ingested"] == 20
            status, body = check.request("GET", f"/tenants/{name}/violations")
            assert body["total_violations"] == 0
        check.close()

    def test_incremental_detector_single_writer_lock(self):
        """Two threads hammering one detector serialize via its lock."""
        relation = random_relation(4, 3, domain_size=10, seed=1)
        a, b, c = relation.schema.names()
        detector = IncrementalDetector([FD([a], [b])], relation)
        errors = []

        def writer(k):
            try:
                for i in range(30):
                    detector.apply(
                        {"insert": [[f"w{k}-{i}", f"v{i}", f"u{i}"]]}
                    )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(k,)) for k in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Every batch landed exactly once, in a total order.
        assert len(detector.history) == 60
        assert [ch.seq for ch in detector.history] == list(range(1, 61))
        assert len(detector.relation) == 4 + 60
        # The cumulative state equals a cold recompute.
        cold = IncrementalDetector([FD([a], [b])], detector.relation)
        assert len(detector.violations()) == len(cold.violations())

    def test_kernel_counters_snapshot_under_fire(self):
        """snapshot() never sees a half-applied note or dict resize."""
        counters = KernelCounters()
        stop = threading.Event()
        errors = []

        def pound(k):
            i = 0
            while not stop.is_set():
                counters.note(f"strategy-{k}-{i % 50}")
                counters.note_work(
                    f"strategy-{k}-{i % 50}", candidates=2, verified=1
                )
                i += 1

        workers = [
            threading.Thread(target=pound, args=(k,)) for k in range(3)
        ]
        for w in workers:
            w.start()
        try:
            for _ in range(200):
                snap = counters.snapshot()
                # Consistency inside one snapshot: every strategy noted
                # work in matched candidate/verified pairs.
                for name, cand in snap.candidates_by_strategy.items():
                    assert cand == 2 * snap.verified_by_strategy[name]
                # The snapshot is detached: mutating it is invisible.
                snap.by_strategy["poison"] = 1
                assert "poison" not in counters.snapshot().by_strategy
        finally:
            stop.set()
            for w in workers:
                w.join()
        assert errors == []


# ---------------------------------------------------------------------------
# router + metrics units


def _children(pid):
    kids = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path) as fh:
            kids.update(fh.read().split())
    return kids


def _reprobe_rows(rng, n):
    rows = []
    for _ in range(n):
        entity = rng.randrange(n // 2)
        day = rng.uniform(0.0, 3650.0)
        rows.append([
            round(entity * 2.0 + rng.uniform(-0.2, 0.2), 4),
            f"z{entity}",
            round(day, 4),
            round(day * 10.0 + (1.0 if rng.random() < 0.01 else 0.0), 4),
        ])
    return rows


@pytest.mark.slow
@pytest.mark.skipif(
    not glob.glob("/proc/self/task/*/children"),
    reason="needs /proc/<pid>/task/<tid>/children",
)
class TestServeStaysInProcess:
    def test_reprobe_batches_never_fork_or_share(self, tmp_path):
        """MD/OD re-probes on a tenant above the fan-out floor run on
        the engine threads: no pool children, no shared-memory blocks."""
        rng = random.Random(7)
        shm_before = set(glob.glob("/dev/shm/psm_*"))
        proc, base = _start_serve(
            tmp_path, tmp_path / "state", "--workers", "4"
        )
        try:
            schema = [
                {"name": "street", "type": "numerical"},
                {"name": "zip", "type": "categorical"},
                {"name": "day", "type": "numerical"},
                {"name": "subtotal", "type": "numerical"},
            ]
            status, body, _ = _req(
                base, "POST", "/tenants",
                {"tenant": "t", "schema": schema,
                 "rows": _reprobe_rows(rng, 3000)},
            )
            assert status == 201, body
            rules = {"rules": [
                {"kind": "MD", "lhs": {"street": 0.5}, "rhs": ["zip"]},
                {"kind": "OD", "lhs": ["day"],
                 "rhs": [["subtotal", "<="]]},
            ]}
            status, body, _ = _req(base, "PUT", "/tenants/t/rules", rules)
            assert status == 200, body
            for _ in range(5):
                status, body, _ = _req(
                    base, "POST", "/tenants/t/batches",
                    {"insert": _reprobe_rows(rng, 100)},
                )
                assert status == 200, body
                assert body["complete"]
            assert _children(proc.pid) == set()
            assert set(glob.glob("/dev/shm/psm_*")) - shm_before == set()
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)


class TestRouter:
    def _request(self, method, path):
        return Request(
            method=method, path=path, query={}, headers={}, body=b""
        )

    def test_binds_path_params(self):
        router = build_router()
        route, params = router.resolve(
            self._request("POST", "/tenants/t-1/batches")
        )
        assert params == {"tenant": "t-1"}
        assert route.template == "/tenants/{tenant}/batches"

    def test_404_and_405(self):
        router = build_router()
        with pytest.raises(HttpError) as err:
            router.resolve(self._request("GET", "/nope"))
        assert err.value.status == 404
        with pytest.raises(HttpError) as err:
            router.resolve(self._request("DELETE", "/tenants/a/batches"))
        assert err.value.status == 405
        assert err.value.payload["allowed"] == ["POST"]


class TestMetricsRegistry:
    def test_counter_gauge_render(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "Xs.", labels=("who",))
        c.inc(who="a")
        c.inc(2, who="b")
        g = reg.gauge("depth", "Queue depth.")
        g.set(7)
        text = reg.render()
        assert "# TYPE x_total counter" in text
        assert 'x_total{who="a"} 1' in text
        assert 'x_total{who="b"} 2' in text
        assert "depth 7" in text

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram("lat", "Latency.", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        lines = h.render()
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1.0"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert h.count() == 3
        assert h.quantile(0.5) == 0.5

    def test_label_schema_enforced(self):
        reg = MetricsRegistry()
        c = reg.counter("y_total", "Ys.", labels=("who",))
        with pytest.raises(ValueError):
            c.inc(whom="a")
        # Idempotent re-registration returns the same instrument...
        assert reg.counter("y_total", "Ys.", labels=("who",)) is c
        # ...but a conflicting schema is an error, not silent aliasing.
        with pytest.raises(ValueError):
            reg.counter("y_total", "Ys.", labels=("other",))

    def test_collectors_run_at_scrape(self):
        reg = MetricsRegistry()
        g = reg.gauge("pulled", "Pulled at scrape.")
        reg.add_collector(lambda: g.set(42))
        assert "pulled 42" in reg.render()
