"""Fault injection at the substrate/metric boundary.

Robustness work needs a way to *prove* that every engine either
completes, returns an honest partial result, or raises a typed
:class:`~repro.runtime.errors.EngineFault` — never hangs and never
returns silently-wrong output.  :class:`FaultInjector` makes the two
load-bearing boundaries misbehave on demand:

* ``"metric"`` — :meth:`repro.metrics.base.Metric.distance`: injectable
  latency, raised exceptions, and *corrupted* return values (negative
  distances, NaN) that a correct engine must detect and reject;
* ``"partition"`` — the grouping substrate of FD-style discovery: the
  encoding's code tables
  (:meth:`~repro.relation.encoding.RelationEncoding.contingency`, what
  TANE reads) and
  :meth:`~repro.relation.partition_cache.PartitionCache.partition`;
* ``"groups"`` — the memoized group dicts of
  :meth:`~repro.relation.partition_cache.PartitionCache.groups`
  (CFDMiner's LHS patterns, repair).

Faults are installed by monkey-patching the class methods for the
dynamic extent of a ``with FaultInjector(...):`` block and always
restored on exit, so the harness composes with any engine without
engines knowing about it.  Triggering is deterministic (call-count
based: fire after ``after`` calls, then every ``every``-th), which
keeps the fault suite reproducible.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any

SITES = ("metric", "partition", "groups")

#: Hard-crash sites in the server durability layer (see
#: :mod:`repro.server.durability`): the process dies with ``os._exit``
#: — no flushing, no ``atexit``, exactly what ``kill -9`` looks like
#: from the filesystem's point of view.
CRASH_SITES = ("wal-append", "snapshot-write", "replay")

_CRASH_ENV = "REPRO_CRASH_POINT"
_CRASH_EXIT_CODE = 137  # what a SIGKILLed process reports

#: site -> remaining hits before the crash fires (armed sites only).
_crash_armed: dict[str, int] = {}
_crash_env_loaded = False


def arm_crash_point(site: str, after: int = 1) -> None:
    """Arm ``site`` to hard-kill the process on its ``after``-th hit.

    The crash is ``os._exit(137)`` — buffered file data is lost, locks
    are not released, nothing is flushed.  Chaos tests arm a crash
    point (directly, or via the ``REPRO_CRASH_POINT=site[:after]``
    environment variable in a server subprocess), drive load until the
    process dies, and assert that recovery reproduces exactly the
    acknowledged prefix.
    """
    if site not in CRASH_SITES:
        raise ValueError(
            f"unknown crash site {site!r}; known sites: {CRASH_SITES}"
        )
    if after < 1:
        raise ValueError("'after' must be >= 1")
    _crash_armed[site] = after


def _load_crash_env() -> None:
    """Arm crash points from ``REPRO_CRASH_POINT=site[:after][,...]``."""
    global _crash_env_loaded
    if _crash_env_loaded:
        return
    _crash_env_loaded = True
    raw = os.environ.get(_CRASH_ENV, "").strip()
    if not raw:
        return
    for part in raw.split(","):
        site, _, count = part.strip().partition(":")
        arm_crash_point(site, int(count) if count else 1)


def crash_armed(site: str) -> bool:
    """Cheap fast-path check: is ``site`` armed at all?

    Durability hot paths (WAL append) gate their crash-window code on
    this so the un-armed cost is one dict lookup.
    """
    _load_crash_env()
    return site in _crash_armed


def crash_point(site: str) -> None:
    """Advance ``site``'s countdown; hard-exit when it reaches zero.

    A no-op unless the site was armed via :func:`arm_crash_point` or
    the ``REPRO_CRASH_POINT`` environment variable.
    """
    _load_crash_env()
    remaining = _crash_armed.get(site)
    if remaining is None:
        return
    if remaining > 1:
        _crash_armed[site] = remaining - 1
        return
    os._exit(_CRASH_EXIT_CODE)

#: Sentinel: "no fault fired, run the real implementation".
_REAL = object()


class FaultInjected(RuntimeError):
    """The default exception raised by an ``exception`` fault."""


@dataclass
class FaultSpec:
    """One injectable fault at one site.

    ``kind``:

    * ``"latency"`` — sleep ``latency_s`` then run the real call;
    * ``"exception"`` — raise ``exception(message)``;
    * ``"corrupt"`` — return ``corrupt_value`` instead of the real
      result (only meaningful for ``"metric"``).

    Fires on calls ``after + 1``, ``after + 1 + every``, ... to the
    site (deterministic, per-injector call counting).
    """

    site: str
    kind: str
    every: int = 1
    after: int = 0
    latency_s: float = 0.0
    exception: type[Exception] = FaultInjected
    message: str = "injected fault"
    corrupt_value: Any = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {SITES}"
            )
        if self.kind not in ("latency", "exception", "corrupt"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.every < 1:
            raise ValueError("'every' must be >= 1")


class FaultInjector:
    """Context manager installing :class:`FaultSpec` s for its extent."""

    def __init__(self, *specs: FaultSpec) -> None:
        self.specs = list(specs)
        self.calls: Counter[str] = Counter()
        self.fired: Counter[str] = Counter()
        self._saved: list[tuple[type[Any], str, Any]] = []

    # -- trigger logic -------------------------------------------------

    def _intercept(self, site: str) -> Any:
        """Advance the site's call count; fire any due fault.

        Returns :data:`_REAL` when the real implementation should run,
        or the corrupt value to substitute; raises for exception
        faults; sleeps (then returns :data:`_REAL`) for latency faults.
        """
        self.calls[site] += 1
        n = self.calls[site]
        for spec in self.specs:
            if spec.site != site or n <= spec.after:
                continue
            if (n - spec.after - 1) % spec.every != 0:
                continue
            self.fired[site] += 1
            if spec.kind == "latency":
                time.sleep(spec.latency_s)
                continue
            if spec.kind == "exception":
                raise spec.exception(spec.message)
            return spec.corrupt_value
        return _REAL

    # -- installation --------------------------------------------------

    def _patch(self, cls: type[Any], name: str, wrapper: Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def __enter__(self) -> "FaultInjector":
        from ..metrics.base import Metric
        from ..relation.encoding import RelationEncoding
        from ..relation.partition_cache import PartitionCache

        injector = self
        real_distance = Metric.distance
        real_partition = PartitionCache.partition
        real_contingency = RelationEncoding.contingency
        real_groups = PartitionCache.groups

        def distance(self: Any, a: Any, b: Any) -> Any:
            hit = injector._intercept("metric")
            if hit is not _REAL:
                return hit
            return real_distance(self, a, b)

        def partition(self: Any, attributes: Any) -> Any:
            hit = injector._intercept("partition")
            if hit is not _REAL:  # pragma: no cover - corrupt unsupported
                return hit
            return real_partition(self, attributes)

        def contingency(self: Any, x_idxs: Any, y_idxs: Any) -> Any:
            hit = injector._intercept("partition")
            if hit is not _REAL:  # pragma: no cover - corrupt unsupported
                return hit
            return real_contingency(self, x_idxs, y_idxs)

        def groups(self: Any, attributes: Any) -> Any:
            hit = injector._intercept("groups")
            if hit is not _REAL:  # pragma: no cover - corrupt unsupported
                return hit
            return real_groups(self, attributes)

        self._patch(Metric, "distance", distance)
        self._patch(PartitionCache, "partition", partition)
        self._patch(RelationEncoding, "contingency", contingency)
        self._patch(PartitionCache, "groups", groups)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)


def inject(
    site: str,
    kind: str,
    **kwargs: Any,
) -> FaultInjector:
    """Shorthand: ``with inject("metric", "exception"): ...``."""
    return FaultInjector(FaultSpec(site=site, kind=kind, **kwargs))
