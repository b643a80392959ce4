"""Background jobs: discovery and repair as submit → poll → result.

Discovery (lattice/predicate-space search) and repair (fixpoint
iteration) are the worst-case-exponential end of the family tree —
far too slow for a request/response cycle.  The :class:`JobManager`
runs them on a thread pool, governed end to end by the **request
budget**: each job stage derives a child budget
(:meth:`repro.runtime.budget.Budget.child`) from the job's
request-scoped budget, so a deadline sent as an HTTP header bounds the
whole pipeline while the parent's counters keep the cross-stage total.

Honest partials are job *state*, not an error: a stage that exhausts
its budget surfaces ``partial: true`` with the per-stage reason on the
polled job, alongside whatever the engine completed.
:class:`~repro.runtime.errors.EngineFault` is reported (job state
``failed`` with the fault site) — never swallowed.

Finished jobs are kept for polling only while they are among their
tenant's :data:`FINISHED_JOBS_KEPT` most recent; an older one is
evicted, and polling its id answers 404, as for an id never issued.
Queued and running jobs are always kept.

Cancellation is cooperative and reuses the budget machinery: every job
runs under *some* budget (an unbounded one when the request set no
caps), and ``cancel`` marks it exhausted with reason ``"cancelled"`` —
the next engine checkpoint raises, the engines unwind through their
usual partial-result paths, and the job lands in state ``cancelled``
with whatever partial output existed.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from ...analysis import screen_rules
# Kept only for benchmarks/e2e/tracer.py, which wraps this module's
# ``lint_rules`` by name; the job does not call it.
from ...analysis import lint_rules  # noqa: F401
from ...profiler import profile_relation
from ...quality.detection import Detector
from ...quality.repair import repair_fds
from ...core.categorical.fd import FD
from ...runtime.budget import Budget, governed
from ...runtime.errors import BudgetExhausted, EngineFault
from ..http import HttpError
from ..state import Tenant

#: Job states, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

JOB_TYPES = ("discovery", "repair")

#: Finished jobs kept per tenant; each finished discovery job holds its
#: whole rule payload, so an unbounded history grows without limit.
FINISHED_JOBS_KEPT = 16


@dataclass
class JobStage:
    """One budget-governed stage of a job pipeline."""

    name: str
    state: str = QUEUED
    exhausted: str = ""
    duration_s: float = 0.0

    def describe(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "state": self.state,
            "duration_s": round(self.duration_s, 6),
        }
        if self.exhausted:
            out["exhausted"] = self.exhausted
        return out


@dataclass
class Job:
    """One background job and everything a poll should see."""

    job_id: str
    tenant_id: str
    job_type: str
    params: dict[str, Any]
    budget: Budget
    state: str = QUEUED
    stages: list[JobStage] = field(default_factory=list)
    result: dict[str, Any] | None = None
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    future: Future | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def partial(self) -> bool:
        return any(s.exhausted for s in self.stages)

    def describe(self, include_result: bool = True) -> dict[str, Any]:
        with self._lock:
            out: dict[str, Any] = {
                "job": self.job_id,
                "tenant": self.tenant_id,
                "type": self.job_type,
                "state": self.state,
                "partial": self.partial,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "stages": [s.describe() for s in self.stages],
                "budget": {
                    "candidates": self.budget.candidates,
                    "pairs": self.budget.pairs,
                    "exhausted": self.budget.exhausted,
                },
            }
            if include_result and self.result is not None:
                out["result"] = self.result
            if self.error is not None:
                out["error"] = self.error
        return out


class JobManager:
    """Submit/poll/cancel over a bounded worker pool."""

    def __init__(self, max_workers: int = 4) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-job"
        )
        self._jobs: dict[str, Job] = {}
        #: tenant -> its finished job ids, oldest first.
        self._finished: dict[str, deque[str]] = {}
        self._lock = threading.Lock()
        #: Called on every terminal transition: (job) -> None.
        self.on_finish: Callable[[Job], None] | None = None
        self._runners: dict[str, Callable[[Job, Tenant], dict[str, Any]]] = {
            "discovery": self._run_discovery,
            "repair": self._run_repair,
        }

    # -- lifecycle -----------------------------------------------------

    def submit(
        self,
        tenant: Tenant,
        job_type: str,
        params: dict[str, Any],
        budget: Budget | None,
    ) -> Job:
        runner = self._runners.get(job_type)
        if runner is None:
            raise HttpError(
                400,
                f"unknown job type {job_type!r}; expected one of "
                f"{sorted(self._runners)}",
            )
        job = Job(
            job_id=uuid.uuid4().hex[:16],
            tenant_id=tenant.tenant_id,
            job_type=job_type,
            params=params,
            # Every job is governed, even when the request set no caps:
            # an unbounded budget still counts work and gives
            # cancellation a checkpoint to trip.
            budget=budget if budget is not None else Budget(),
        )
        with self._lock:
            self._jobs[job.job_id] = job
        job.future = self._executor.submit(self._run, job, tenant, runner)
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    def list(self, tenant_id: str | None = None) -> list[Job]:
        with self._lock:
            jobs = list(self._jobs.values())
        if tenant_id is not None:
            jobs = [j for j in jobs if j.tenant_id == tenant_id]
        return sorted(jobs, key=lambda j: j.created_at)

    def cancel(self, job_id: str) -> Job:
        """Cooperative cancel: queued jobs unschedule, running jobs
        exhaust their budget at the next engine checkpoint."""
        job = self.get(job_id)
        with job._lock:
            if job.state in (SUCCEEDED, FAILED, CANCELLED):
                return job
            if job.future is not None and job.future.cancel():
                job.state = CANCELLED
                job.finished_at = time.time()
                self._finish(job)
                return job
            # Already running: poison the budget; the run wrapper maps
            # the resulting "cancelled" exhaustion to the final state.
            job.budget.exhausted = "cancelled"
        return job

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    def _finish(self, job: Job) -> None:
        """Every terminal transition ends here: keep the job among its
        tenant's finished ones (evicting the oldest beyond
        :data:`FINISHED_JOBS_KEPT`), then tell the observer."""
        with self._lock:
            done = self._finished.setdefault(job.tenant_id, deque())
            done.append(job.job_id)
            while len(done) > FINISHED_JOBS_KEPT:
                del self._jobs[done.popleft()]
        if self.on_finish is not None:
            try:
                self.on_finish(job)
            # staticcheck: disable=SC008 — observer callback isolation:
            # a faulty on_finish hook must not kill the worker thread.
            except Exception:  # pragma: no cover - observer must not kill
                pass

    # -- execution -----------------------------------------------------

    def _run(
        self,
        job: Job,
        tenant: Tenant,
        runner: Callable[[Job, Tenant], dict[str, Any]],
    ) -> None:
        with job._lock:
            if job.state == CANCELLED:  # cancelled while queued, raced
                return
            job.state = RUNNING
            job.started_at = time.time()
        job.budget.start()
        try:
            result = runner(job, tenant)
        except EngineFault as exc:
            # Quarantined fault: reported on the job, never swallowed.
            with job._lock:
                job.state = FAILED
                job.error = f"engine fault: {exc}" + (
                    f" (site: {exc.site})" if exc.site else ""
                )
                job.finished_at = time.time()
            self._finish(job)
            return
        # staticcheck: disable=SC008 — job boundary: the error (typed
        # name included, BudgetExhausted too) is surfaced on the failed
        # job record, never silently dropped.
        except Exception as exc:  # noqa: BLE001 - job boundary
            with job._lock:
                job.state = FAILED
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
            self._finish(job)
            return
        with job._lock:
            job.result = result
            job.state = (
                CANCELLED if job.budget.exhausted == "cancelled"
                else SUCCEEDED
            )
            job.finished_at = time.time()
        self._finish(job)

    def _stage(
        self,
        job: Job,
        name: str,
        deadline_fraction: float,
        fn: Callable[[Budget], Any],
    ) -> Any:
        """Run one pipeline stage under a child of the job budget.

        ``deadline_fraction`` splits the *remaining* request deadline
        (full remainder for the last stage); candidate/pair headroom is
        whatever the parent has left, so the stages together can never
        overrun the request caps.
        """
        remaining = job.budget.remaining_s()
        deadline = (
            None if remaining is None else remaining * deadline_fraction
        )
        child = job.budget.child(deadline_s=deadline)
        stage = JobStage(name=name, state=RUNNING)
        with job._lock:
            job.stages.append(stage)
        started = time.perf_counter()
        try:
            result = fn(child)
        finally:
            with job._lock:
                stage.duration_s = time.perf_counter() - started
                stage.exhausted = child.exhausted or (
                    "cancelled"
                    if job.budget.exhausted == "cancelled"
                    else ""
                )
                stage.state = SUCCEEDED if not stage.exhausted else (
                    CANCELLED if stage.exhausted == "cancelled"
                    else "exhausted"
                )
        return result

    # -- job kinds -----------------------------------------------------

    def _run_discovery(self, job: Job, tenant: Tenant) -> dict[str, Any]:
        """Profile the tenant's current relation, then minimize.

        Stage 1 runs the multi-pass discovery toolbox; stage 2 screens
        the discovered set with :func:`~repro.analysis.screen_rules`,
        the skip decision every evaluation path takes, yielding the
        trivial/duplicate/implied-free minimal cover.  Each stage gets
        its own child budget.
        """
        detector = tenant.detector
        relation = detector.relation if detector else tenant.relation
        params = job.params
        report = self._stage(
            job,
            "discover",
            0.8,
            lambda child: profile_relation(
                relation,
                epsilon=float(params.get("epsilon", 0.05)),
                max_lhs_size=int(params.get("max_lhs", 2)),
                budget=child,
            ),
        )
        discovered = [r.rule for r in report.rules]

        def minimize(child: Budget) -> dict[int, str]:
            try:
                with governed(child):
                    return screen_rules(discovered)
            except BudgetExhausted:
                return {}

        redundant = self._stage(job, "minimize", 1.0, minimize)
        rules_payload = [
            {
                "category": r.category,
                "rule": str(r.rule),
                "kind": r.rule.kind,
                "violations": r.violations,
                "redundant": redundant.get(i),
            }
            for i, r in enumerate(report.rules)
        ]
        return {
            "rows_profiled": len(relation),
            "rules": rules_payload,
            "minimal_cover_size": len(report.rules) - len(redundant),
            "notes": report.notes,
        }

    def _run_repair(self, job: Job, tenant: Tenant) -> dict[str, Any]:
        """Propose FD repairs for the tenant relation, then verify.

        Returns the proposed cell edits without mutating tenant state —
        repairs are advisory; applying them is the client's call (a
        future batch through the changefeed).
        """
        detector = tenant.detector
        relation = detector.relation if detector else tenant.relation
        fds = [
            e.dependency
            for e in tenant.rule_entries
            if isinstance(e.dependency, FD)
        ]
        if not fds:
            raise HttpError(
                409,
                f"tenant {tenant.tenant_id!r} has no FD rules; the "
                "repair engine needs at least one",
            )
        repaired, log = self._stage(
            job,
            "repair",
            0.8,
            lambda child: repair_fds(relation, fds, budget=child),
        )

        def verify(child: Budget) -> int | None:
            with governed(child):
                try:
                    return len(Detector(fds).detect(repaired).violations)
                except BudgetExhausted:
                    return None

        remaining = self._stage(job, "verify", 1.0, verify)
        return {
            "rows": len(relation),
            "edits": [
                {
                    "row": e.index,
                    "attribute": e.attribute,
                    "old": e.old_value,
                    "new": e.new_value,
                }
                for e in log.edits[: int(job.params.get("max_edits", 200))]
            ],
            "edit_count": len(log.edits),
            "quarantined_rows": list(log.quarantined),
            "repair_complete": log.complete,
            "repair_exhausted": log.exhausted,
            "remaining_violations": remaining,
        }
