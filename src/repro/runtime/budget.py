"""Resource budgets and cooperative cancellation.

The discovery side of the family tree is worst-case exponential
(lattice traversal, predicate-space enumeration — Fig. 3's hard end),
so every governed entry point accepts a :class:`Budget` and threads a
cooperative :func:`checkpoint` through its inner loops.  The contract:

* **No budget set** — :func:`checkpoint` is a single context-variable
  read returning immediately; the governed path is bit-identical to an
  ungoverned run (``bench_runtime_guard`` pins the <5% overhead bound).
* **Budget set** — checkpoints count work (candidates, tuple pairs)
  and watch the wall clock; when a cap is hit they raise
  :class:`~repro.runtime.errors.BudgetExhausted` *internally*.  Entry
  points catch it and return a partial result flagged with
  ``stats.complete = False`` / ``stats.exhausted = <reason>`` —
  exhaustion never propagates to the user as an exception from a
  discovery or repair call.

Budgets nest ambiently: ``with governed(budget):`` installs the budget
for the dynamic extent, and any governed entry point called underneath
with ``budget=None`` inherits it (the CLI and profiler govern whole
multi-pass runs this way).  An explicitly passed budget wins over the
ambient one.
"""

from __future__ import annotations

import mmap
import struct
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from .errors import BudgetExhausted

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycles)
    from ..core.base import Dependency
    from ..relation.relation import Relation

_MEMORY_CHECK_STRIDE = 64

#: Exhaustion reasons a :class:`ShardToken` can carry across processes.
TOKEN_REASONS = ("", "deadline", "candidates", "pairs", "memory", "cancelled")


class ShardToken:
    """Shared cancellation + work accounting for a sharded execution.

    One small anonymous shared mapping, created by the parent before it
    forks the shard processes, which inherit it:

    * a **cancel flag** plus reason code — set once by whoever exhausts
      first (the parent's poll loop or any worker), observed by every
      other shard at its next cooperative :func:`checkpoint`;
    * **global work caps** (``max_candidates`` / ``max_pairs``) frozen
      at creation from the parent's remaining headroom;
    * one **accounting slot per worker** (candidates, pairs), written
      only by its owner — lock-free — and summed by :meth:`totals` /
      :meth:`over_cap` so the *global* caps bite even though each
      worker only sees its own share of the work.

    Layout: an 18-byte header ``<BBHqq`` (cancel, reason, workers,
    max_candidates, max_pairs; ``-1`` encodes "no cap") followed by one
    ``<qq`` slot per worker.  Single-byte flag writes are atomic; slot
    writes are owner-exclusive; readers tolerate torn 8-byte reads on
    exotic platforms (the caps re-check at the next checkpoint).
    """

    _HEADER = struct.Struct("<BBHqq")
    _SLOT = struct.Struct("<qq")

    def __init__(self, buf: mmap.mmap, workers: int) -> None:
        self._buf = buf
        self.workers = workers

    @classmethod
    def create(
        cls,
        workers: int,
        *,
        max_candidates: int | None = None,
        max_pairs: int | None = None,
    ) -> "ShardToken":
        # An anonymous mapping is zero-filled (no cancel, empty slots)
        # and shared with every process forked after this call.
        buf = mmap.mmap(-1, cls._HEADER.size + workers * cls._SLOT.size)
        cls._HEADER.pack_into(
            buf, 0, 0, 0, workers,
            -1 if max_candidates is None else int(max_candidates),
            -1 if max_pairs is None else int(max_pairs),
        )
        return cls(buf, workers)

    def close(self) -> None:
        self._buf.close()

    # -- cancellation --------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Raise the cancel flag (first reason wins; idempotent)."""
        if self._buf[0]:
            return
        try:
            code = TOKEN_REASONS.index(reason)
        except ValueError:
            code = TOKEN_REASONS.index("cancelled")
        self._buf[1] = code
        self._buf[0] = 1

    def cancelled(self) -> str:
        """The cancellation reason, or ``""`` while still running."""
        if not self._buf[0]:
            return ""
        return TOKEN_REASONS[self._buf[1]]

    # -- accounting ----------------------------------------------------

    def publish(self, slot: int, candidates: int, pairs: int) -> None:
        """Publish one worker's running totals (owner-exclusive write)."""
        self._SLOT.pack_into(
            self._buf,
            self._HEADER.size + slot * self._SLOT.size,
            candidates,
            pairs,
        )

    def totals(self) -> tuple[int, int]:
        """Summed (candidates, pairs) across every worker slot."""
        candidates = pairs = 0
        for slot in range(self.workers):
            c, p = self._SLOT.unpack_from(
                self._buf, self._HEADER.size + slot * self._SLOT.size
            )
            candidates += c
            pairs += p
        return candidates, pairs

    def over_cap(self) -> str:
        """Which global cap the summed totals exceed, or ``""``."""
        _, _, _, max_candidates, max_pairs = self._HEADER.unpack_from(
            self._buf, 0
        )
        if max_candidates < 0 and max_pairs < 0:
            return ""
        candidates, pairs = self.totals()
        if 0 <= max_candidates < candidates:
            return "candidates"
        if 0 <= max_pairs < pairs:
            return "pairs"
        return ""

_current: ContextVar["Budget | None"] = ContextVar(
    "repro_current_budget", default=None
)


@dataclass
class Budget:
    """Resource caps for one governed run.

    All caps are optional; an all-``None`` budget counts work but never
    exhausts.  A budget accumulates counters across the run it governs;
    call :meth:`reset` to reuse one for a fresh run.
    """

    #: Wall-clock deadline in seconds from :meth:`start`.
    deadline_s: float | None = None
    #: Cap on candidate checks (lattice nodes, cover-search nodes, ...).
    max_candidates: int | None = None
    #: Cap on tuple-pair probes (evidence sets, pairwise distances, ...).
    max_pairs: int | None = None
    #: Peak-RSS ceiling in bytes (checked coarsely, every
    #: ``_MEMORY_CHECK_STRIDE`` checkpoints, via ``resource``).
    max_memory_bytes: int | None = None

    #: Work counters, advanced by :meth:`checkpoint`.
    candidates: int = field(default=0, init=False)
    pairs: int = field(default=0, init=False)
    #: ``""`` while within budget; the exhaustion reason afterwards.
    exhausted: str = field(default="", init=False)

    _deadline_at: float | None = field(default=None, init=False, repr=False)
    _ticks: int = field(default=0, init=False, repr=False)
    _parent: "Budget | None" = field(default=None, init=False, repr=False)
    #: Worker-side shard token (``bind_token``): checkpoints publish
    #: this budget's counters into its slot and observe cancellation.
    _token: "ShardToken | None" = field(default=None, init=False, repr=False)
    _slot: int = field(default=0, init=False, repr=False)
    #: Parent-side tokens (``attach_token``): exhaustion of *this*
    #: budget cancels them, so running shards observe it at their next
    #: checkpoint instead of grinding to completion.
    _attached: "list[ShardToken]" = field(
        default_factory=list, init=False, repr=False
    )

    def start(self) -> "Budget":
        """Arm the deadline (idempotent: the first call wins)."""
        if self.deadline_s is not None and self._deadline_at is None:
            self._deadline_at = time.monotonic() + self.deadline_s
        return self

    def reset(self) -> "Budget":
        """Clear counters and re-arm for a fresh run."""
        self.candidates = 0
        self.pairs = 0
        self.exhausted = ""
        self._deadline_at = None
        self._ticks = 0
        return self

    def child(
        self,
        *,
        deadline_s: float | None = None,
        max_candidates: int | None = None,
        max_pairs: int | None = None,
        max_memory_bytes: int | None = None,
    ) -> "Budget":
        """Derive a stage-scoped budget from this one.

        The request/job pattern: one request-scoped budget is split
        across job stages by handing each stage a *child* whose caps
        never exceed the parent's remaining headroom:

        * ``deadline_s`` is clamped to the parent's :meth:`remaining_s`
          (a parent without a deadline passes the stage's through);
        * ``max_candidates`` / ``max_pairs`` are clamped to the
          parent's cap minus the work already counted against it;
        * ``max_memory_bytes`` is the min of both (RSS is a process
          property, not a per-stage one).

        Passing ``None`` for a cap inherits the parent's *remaining*
        headroom for that dimension outright, so ``budget.child()``
        with no arguments is "whatever is left".

        Work counted by the child's checkpoints propagates up the
        parent chain — the parent's counters keep accumulating across
        stages and are **never reset** by derivation — but exhaustion
        is raised from (and recorded on) the child: a stage running
        out does not poison the parent, whose next child simply
        derives from smaller headroom.
        """
        self.start()

        def clamp(requested: int | None, cap: int | None, spent: int) -> int | None:
            headroom = None if cap is None else max(0, cap - spent)
            if requested is None:
                return headroom
            return requested if headroom is None else min(requested, headroom)

        remaining = self.remaining_s()
        if deadline_s is None:
            child_deadline = remaining
        elif remaining is None:
            child_deadline = deadline_s
        else:
            child_deadline = min(deadline_s, remaining)
        child = Budget(
            deadline_s=child_deadline,
            max_candidates=clamp(
                max_candidates, self.max_candidates, self.candidates
            ),
            max_pairs=clamp(max_pairs, self.max_pairs, self.pairs),
            max_memory_bytes=(
                max_memory_bytes
                if self.max_memory_bytes is None
                else min(
                    max_memory_bytes or self.max_memory_bytes,
                    self.max_memory_bytes,
                )
            ),
        )
        child._parent = self
        return child

    def remaining_s(self) -> float | None:
        """Seconds until the deadline, or ``None`` with no deadline."""
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - time.monotonic())

    def expired(self) -> bool:
        """Whether any cap is already blown (without raising)."""
        if self.exhausted:
            return True
        if (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        ):
            return True
        if (
            self.max_candidates is not None
            and self.candidates >= self.max_candidates
        ):
            return True
        return self.max_pairs is not None and self.pairs >= self.max_pairs

    def bind_token(self, token: "ShardToken", slot: int) -> "Budget":
        """Bind this budget to a shard token as worker ``slot``.

        Every later :meth:`checkpoint` publishes the counters into the
        slot and converts a raised cancel flag (or a blown *global* cap
        across all slots) into local :class:`BudgetExhausted`.
        """
        self._token = token
        self._slot = slot
        return self

    def attach_token(self, token: "ShardToken") -> "Budget":
        """Parent side: cancel ``token`` if this budget exhausts."""
        self._attached.append(token)
        return self

    def detach_token(self, token: "ShardToken") -> None:
        try:
            self._attached.remove(token)
        except ValueError:
            pass

    def absorb(self, candidates: int = 0, pairs: int = 0) -> None:
        """Record already-performed work without any cap checks.

        The shard-merge path: worker totals come home after the fact
        and must land on the parent's counters (and its parents') even
        when they overshoot a cap — the overshoot is then reported by
        the caller via :meth:`_exhaust`, not silently re-raised here.
        """
        self.candidates += candidates
        self.pairs += pairs
        parent = self._parent
        while parent is not None:
            parent.candidates += candidates
            parent.pairs += pairs
            parent = parent._parent

    def _exhaust(self, reason: str) -> None:
        self.exhausted = reason
        # Propagate into any running shards before raising locally:
        # a worker that exhausts cancels its siblings, and a parent
        # that exhausts (poll loop, another thread) cancels the fleet.
        tokens = list(self._attached)
        if self._token is not None:
            tokens.append(self._token)
        for token in tokens:
            try:
                token.cancel(reason)
            # staticcheck: disable=SC008 — best-effort fan-out of the
            # cancel flag; the BudgetExhausted below always raises.
            except Exception:  # pragma: no cover - token already gone
                pass
        raise BudgetExhausted(reason, budget=self)

    def checkpoint(self, candidates: int = 0, pairs: int = 0) -> None:
        """Record work; raise :class:`BudgetExhausted` past any cap.

        Once exhausted, every later checkpoint raises again — so a
        multi-pass caller (the profiler) fails fast through its
        remaining passes instead of grinding on a dead deadline.
        """
        self.candidates += candidates
        self.pairs += pairs
        if candidates or pairs:
            # Derived budgets bill their work up the parent chain, so a
            # request-scoped budget sees the total across job stages.
            parent = self._parent
            while parent is not None:
                parent.candidates += candidates
                parent.pairs += pairs
                parent = parent._parent
        if self.exhausted:
            raise BudgetExhausted(self.exhausted, budget=self)
        if (
            self.max_candidates is not None
            and self.candidates > self.max_candidates
        ):
            self._exhaust("candidates")
        if self.max_pairs is not None and self.pairs > self.max_pairs:
            self._exhaust("pairs")
        if self._deadline_at is None and self.deadline_s is not None:
            self.start()
        if (
            self._deadline_at is not None
            and time.monotonic() >= self._deadline_at
        ):
            self._exhaust("deadline")
        if self.max_memory_bytes is not None:
            self._ticks += 1
            if self._ticks % _MEMORY_CHECK_STRIDE == 0:
                if _peak_rss_bytes() > self.max_memory_bytes:
                    self._exhaust("memory")
        if self._token is not None:
            self._token.publish(self._slot, self.candidates, self.pairs)
            reason = self._token.cancelled() or self._token.over_cap()
            if reason:
                self._exhaust(reason)


def _peak_rss_bytes() -> int:
    """Peak RSS of this process in bytes (0 where unsupported)."""
    try:
        import resource
        import sys

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return rss if sys.platform == "darwin" else rss * 1024
    except (ImportError, OSError, AttributeError):
        # pragma: no cover - non-POSIX platforms
        return 0


def current_budget() -> Budget | None:
    """The ambient budget installed by :func:`governed`, if any."""
    return _current.get()


def resolve_budget(budget: Budget | None) -> Budget | None:
    """An explicitly passed budget, else the ambient one, else ``None``."""
    return budget if budget is not None else _current.get()


@contextmanager
def governed(budget: Budget | None) -> Iterator[Budget | None]:
    """Install ``budget`` as the ambient budget for this dynamic extent.

    ``governed(None)`` is a transparent no-op (the surrounding ambient
    budget, if any, stays in force), so entry points can uniformly wrap
    their bodies without disturbing an outer governor.
    """
    if budget is None:
        yield _current.get()
        return
    budget.start()
    token = _current.set(budget)
    try:
        yield budget
    finally:
        _current.reset(token)


def checkpoint(candidates: int = 0, pairs: int = 0) -> None:
    """Cooperative cancellation point for engine inner loops.

    A no-op (one context-variable read) when no budget is active.
    """
    b = _current.get()
    if b is not None:
        b.checkpoint(candidates=candidates, pairs=pairs)


# -- graceful degradation helpers --------------------------------------

def sample_relation(relation: Relation, max_rows: int = 64) -> Relation:
    """An evenly strided row sample (deterministic, order-preserving)."""
    n = len(relation)
    if n <= max_rows:
        return relation
    stride = n / max_rows
    indices = sorted({min(int(k * stride), n - 1) for k in range(max_rows)})
    return relation.take(indices)


def verify_on_sample(
    relation: Relation,
    candidates: Sequence[Dependency],
    *,
    max_candidates: int = 50,
    max_rows: int = 64,
) -> list[Dependency]:
    """Sampled verification of enumerated-but-unchecked candidates.

    The FASTDC/Hydra-style degradation: when the exact search ran out
    of budget, verify the pending candidates on a bounded row sample
    instead of dropping them.  Survivors are *sampled-verified only* —
    callers must report them under ``stats.sampled_verified`` and keep
    ``stats.complete = False`` so the answer stays honest.

    Deliberately budget-blind (it must run *after* exhaustion) but
    hard-capped on both rows and candidates, so the post-deadline
    overrun stays bounded.  Budget-blind means *actively* so: the
    ambient budget is exactly the one that just ran out, and any
    ``dep.holds`` routed through the plan kernels would re-raise
    :class:`~repro.runtime.errors.BudgetExhausted` at its first
    checkpoint — silently rejecting every survivor.  Each probe runs
    under a fresh unlimited budget instead.
    """
    if not candidates:
        return []
    sample = sample_relation(relation, max_rows=max_rows)
    out: list[Dependency] = []
    for dep in list(candidates)[:max_candidates]:
        try:
            with governed(Budget()):
                if dep.holds(sample):
                    out.append(dep)
        except BudgetExhausted:
            raise  # impossible under the fresh budget
        except Exception:
            # A candidate whose own evaluation faults on the sample is
            # simply not a survivor; verification stays best-effort
            # (BudgetExhausted is peeled off above, never swallowed).
            continue
    return out
