"""The job history is bounded: finished jobs are kept per tenant, up to
``FINISHED_JOBS_KEPT``, and an evicted job polls 404 like an unknown id.

Queued and running jobs are never evicted, and one tenant's jobs never
push out another's.  Retained memory stops growing once the history is
full, however many discovery jobs run.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc

import pytest

from repro.datasets import fd_workload
from repro.server.http import HttpError
from repro.server.jobs import RUNNING, SUCCEEDED, JobManager
from repro.server.jobs.manager import FINISHED_JOBS_KEPT
from repro.server.state import Tenant


def tenant(name: str, rows: int = 40) -> Tenant:
    """A code -> city -> state table: discovery finds ~rows/2 rules."""
    relation = fd_workload(rows, rows // 10).relation
    return Tenant(name, relation.schema, relation)


def run_jobs(manager: JobManager, owner: Tenant, count: int) -> list[str]:
    ids = []
    for __ in range(count):
        job = manager.submit(owner, "discovery", {}, None)
        job.future.result(timeout=60)
        assert job.state == SUCCEEDED, job.error
        ids.append(job.job_id)
    return ids


@pytest.fixture()
def manager():
    m = JobManager(max_workers=2)
    yield m
    m.shutdown()


def test_the_oldest_finished_job_is_evicted(manager):
    a = tenant("a")
    ids = run_jobs(manager, a, FINISHED_JOBS_KEPT + 1)
    with pytest.raises(HttpError) as evicted:
        manager.get(ids[0])
    with pytest.raises(HttpError) as unknown:
        manager.get("no-such-job")
    assert evicted.value.status == unknown.value.status == 404
    assert [j.job_id for j in manager.list("a")] == ids[1:]


def test_other_tenants_and_running_jobs_stay(manager):
    a, b = tenant("a"), tenant("b")
    release = threading.Event()
    started = threading.Event()

    def blocked(job, owner):
        started.set()
        release.wait(timeout=60)
        return {}

    manager._runners["blocked"] = blocked
    running = manager.submit(a, "blocked", {}, None)
    try:
        assert started.wait(timeout=60)
        kept_b = run_jobs(manager, b, 2)
        run_jobs(manager, a, 2 * FINISHED_JOBS_KEPT)
        assert manager.get(running.job_id).state == RUNNING
        assert [manager.get(i).job_id for i in kept_b] == kept_b
    finally:
        release.set()
    running.future.result(timeout=60)
    assert manager.get(running.job_id).state == SUCCEEDED


def test_concurrent_finishes_keep_exactly_the_bound():
    """Eight workers finishing jobs of three tenants at once, with a
    short switch interval: each tenant keeps exactly
    ``FINISHED_JOBS_KEPT`` finished jobs, so no eviction was lost, and
    no job failed on an eviction made twice."""
    manager = JobManager(max_workers=8)
    manager._runners["quick"] = lambda job, owner: {"n": len(owner.relation)}
    owners = [tenant(f"t{k}", rows=20) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        jobs = [
            manager.submit(owner, "quick", {}, None)
            for __ in range(40) for owner in owners
        ]
        for job in jobs:
            job.future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        manager.shutdown()
    for owner in owners:
        kept = manager.list(owner.tenant_id)
        assert len(kept) == FINISHED_JOBS_KEPT
        assert all(j.state == SUCCEEDED for j in kept)


def test_retained_memory_stops_growing(manager):
    a = tenant("a", rows=100)  # ~47 rules, ~7 KB of JSON per result
    run_jobs(manager, a, 2)  # warm the relation's caches and the pool
    gc.collect()
    tracemalloc.start()
    try:
        run_jobs(manager, a, FINISHED_JOBS_KEPT)
        gc.collect()
        after_16 = tracemalloc.get_traced_memory()[0]
        run_jobs(manager, a, 2 * FINISHED_JOBS_KEPT)
        gc.collect()
        after_48 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_48 <= 1.1 * after_16, (after_16, after_48)
