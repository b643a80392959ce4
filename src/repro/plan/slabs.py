"""Engine-neutral column slabs and execution contexts.

The kernel layer (:mod:`repro.plan.kernels`, :mod:`repro.plan.kernels_vec`)
does not touch a live :class:`~repro.relation.relation.Relation` handle:
it consumes an :class:`ExecutionContext` — a thin, read-only facade over
one immutable snapshot's column data — plus a compiled
:class:`~repro.plan.ir.Plan`.  The context exposes exactly the column
primitives the kernels need (raw columns, equal-value groups, encoded
code/float/validity arrays, sorted projections, combined keys) and
nothing else, which is what makes plan execution *engine-neutral*: the
same kernels can run against the in-process substrate, a worker process
fed over shared memory, or (future work, ROADMAP item 1) a pushed-down
SQL engine.

:class:`ColumnSlabs` is the transport form of a context: an immutable,
picklable bundle of per-column arrays — dictionary codes + distinct
values, float projections, validity masks, cached sorted projections —
that reconstitutes into an equivalent context on the other side of a
process boundary.  :meth:`ExecutionContext.share` serializes the bundle
once into a :mod:`multiprocessing.shared_memory` block; every worker of
:mod:`repro.plan.parallel` attaches and rebuilds without re-encoding,
starting with the parent's caches warm.

Layering note: this module re-exports :data:`HAS_NUMPY` from the
substrate so the kernel modules can stay free of any
``repro.relation`` import.
"""

from __future__ import annotations

import os
import pickle
import weakref
from collections.abc import Sequence
from typing import Any

from ..relation.encoding import (  # noqa: F401  (re-exported for kernels)
    HAS_NUMPY,
    ColumnCodes,
)

__all__ = [
    "ColumnSlab",
    "ColumnSlabs",
    "ExecutionContext",
    "SharedSlabHandle",
    "context_for",
    "release_shared",
    "HAS_NUMPY",
]

_Arr = Any  # numpy ndarray (kept opaque; mirrors kernels_vec)

#: Shared-memory blocks owned by this process, keyed by snapshot token.
#: Each entry is unlinked when its snapshot's encoding is freed — by
#: reference count, the moment the last user drops the snapshot — and
#: any left over by :func:`release_shared` (the parallel layer calls it
#: from its ``shutdown`` hook and at interpreter exit).
_OWNED_BLOCKS: dict[str, Any] = {}


class ColumnSlab:
    """One column's immutable kernel arrays.

    ``values``/``codes`` are the dictionary encoding (distinct values in
    first-occurrence order; one code per row); ``floats``/``valid``/
    ``sorted_rows``/``sorted_vals`` carry whichever kernel caches the
    source encoding had already built (``None`` otherwise — the receiver
    rebuilds lazily).  A column whose cells are unhashable cannot be
    dictionary-encoded; it ships verbatim in ``raw`` instead.
    """

    __slots__ = (
        "name", "values", "codes", "floats", "valid",
        "sorted_rows", "sorted_vals", "raw",
    )

    def __init__(
        self,
        name: str,
        values: list[Any] | None,
        codes: Any,
        floats: _Arr | None,
        valid: _Arr | None,
        sorted_rows: _Arr | None,
        sorted_vals: _Arr | None,
        raw: tuple[Any, ...] | None,
    ) -> None:
        self.name = name
        self.values = values
        self.codes = codes
        self.floats = floats
        self.valid = valid
        self.sorted_rows = sorted_rows
        self.sorted_vals = sorted_vals
        self.raw = raw

    def column(self) -> tuple[Any, ...]:
        """The full decoded column."""
        if self.raw is not None:
            return self.raw
        assert self.values is not None
        values = self.values
        codes = self.codes
        if HAS_NUMPY and not isinstance(codes, list):
            codes = codes.tolist()
        return tuple(values[c] for c in codes)


class ColumnSlabs:
    """An immutable, picklable bundle of one snapshot's column slabs.

    The wire format of :class:`ExecutionContext`: everything needed to
    reconstitute an equivalent context in another process — schema,
    row count, per-column slabs — plus the snapshot ``token`` that
    receivers key their caches on.
    """

    __slots__ = ("token", "n", "schema", "columns")

    def __init__(
        self, token: str, n: int, schema: Any, columns: list[ColumnSlab]
    ) -> None:
        self.token = token
        self.n = n
        self.schema = schema
        self.columns = columns

    @classmethod
    def from_context(cls, ctx: "ExecutionContext") -> "ColumnSlabs":
        """Export a context's column data (already-built caches only).

        Codes and distinct values are always materialized (they are the
        backbone every kernel shares); the float/validity/sorted caches
        ship only if the source encoding had built them, so exporting
        never forces work the kernels might not need.
        """
        source = ctx._source
        enc = source.encoding()
        columns: list[ColumnSlab] = []
        for j, attr in enumerate(source.schema):
            raw_col = source._columns[j]
            try:
                cc = enc.column_codes(j)
            except TypeError:  # unhashable cells: ship verbatim
                columns.append(
                    ColumnSlab(
                        attr.name, None, None, None, None, None, None,
                        tuple(raw_col),
                    )
                )
                continue
            codes: Any = cc.array() if HAS_NUMPY else list(cc.codes)
            floats = cc._floats
            valid = cc._valid
            srt = cc._sorted
            columns.append(
                ColumnSlab(
                    attr.name,
                    list(cc.values),
                    codes,
                    floats,
                    valid,
                    srt[0] if srt is not None else None,
                    srt[1] if srt is not None else None,
                    None,
                )
            )
        return cls(ctx.token, ctx.n, source.schema, columns)

    def to_context(self) -> "ExecutionContext":
        """Reconstitute an equivalent execution context.

        Rebuilds a relation snapshot from the decoded columns and seeds
        its encoding with the shipped codebooks and kernel caches, so
        the receiving kernels never re-hash or re-sort what the sender
        already had.  The encoding keeps the sender's ``token`` —
        receiver-side caches stay keyed by snapshot identity.
        """
        from ..relation.relation import Relation

        cols = tuple(slab.column() for slab in self.columns)
        relation = Relation._from_trusted(self.schema, cols)
        enc = relation.encoding()
        enc.token = self.token
        for j, slab in enumerate(self.columns):
            if slab.values is None:
                continue
            srt = None
            if slab.sorted_rows is not None:
                srt = (slab.sorted_rows, slab.sorted_vals)
            enc._per_column[j] = ColumnCodes.from_parts(
                cols[j],
                slab.values,
                slab.codes,
                floats=slab.floats,
                valid=slab.valid,
                sorted_projection=srt,
            )
        return ExecutionContext(relation)


class SharedSlabHandle:
    """A reference to a serialized :class:`ColumnSlabs` bundle in shared
    memory: block name, payload size, snapshot token.  Small and
    picklable — this is what actually crosses the process boundary."""

    __slots__ = ("name", "size", "token")

    def __init__(self, name: str, size: int, token: str) -> None:
        self.name = name
        self.size = size
        self.token = token

    def __repr__(self) -> str:
        return (
            f"SharedSlabHandle({self.name!r}, {self.size} bytes, "
            f"token={self.token[:8]})"
        )


def _attach_block(name: str) -> Any:
    """Attach to an existing shared-memory block.

    The parallel layer's workers are *forked*, so they inherit the
    parent's resource-tracker process: attaching re-registers the block
    in the tracker's (deduplicating) registry, a no-op, and the single
    registration is consumed by the owner's eventual ``unlink``.  No
    ``resource_tracker.unregister`` workaround is needed — and calling
    it here would erase the parent's registration from the shared
    tracker.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


def load_shared(handle: SharedSlabHandle) -> ColumnSlabs:
    """Rebuild a :class:`ColumnSlabs` bundle from a shared-memory handle."""
    shm = _attach_block(handle.name)
    try:
        payload = bytes(shm.buf[: handle.size])
    finally:
        shm.close()
    out = pickle.loads(payload)
    assert isinstance(out, ColumnSlabs)
    return out


def release_shared(token: str | None = None) -> None:
    """Unlink shared slab blocks owned by this process.

    ``token=None`` releases everything — the parallel layer's shutdown
    path.  Safe to call repeatedly; missing blocks are ignored.
    """
    tokens = [token] if token is not None else list(_OWNED_BLOCKS)
    for t in tokens:
        shm = _OWNED_BLOCKS.pop(t, None)
        if shm is None:
            continue
        try:
            shm.close()
            shm.unlink()
        # staticcheck: disable=SC008 — idempotent shutdown-path cleanup
        # of shm blocks; nothing budget-governed runs inside the try.
        except Exception:
            pass


def _release_owned(token: str, owner: int) -> None:
    """Finalizer of a shared snapshot: unlink its block in the owner.

    Forked pool workers inherit the parent's heap, finalizers included;
    only the process that created the block may unlink it.
    """
    if os.getpid() == owner:
        release_shared(token)


class ExecutionContext:
    """What the plan kernels see instead of a live relation handle.

    A read-only facade over one immutable snapshot and its encoding:
    row count, schema, and the column primitives the candidate
    generators and vectorized masks consume.  Contexts are cheap (see
    :func:`context_for`); their ``token`` — the encoding's — identifies
    the snapshot across process boundaries.
    """

    __slots__ = ("_source", "_enc", "token", "n", "schema")

    def __init__(self, source: Any) -> None:
        self._source = source
        self._enc = source.encoding()
        self.token: str = self._enc.token
        self.n: int = len(source)
        self.schema = source.schema

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(n={self.n}, "
            f"attrs={list(self.schema.names())}, token={self.token[:8]})"
        )

    # -- scalar-kernel primitives --------------------------------------

    def column(self, attr: str) -> Sequence[Any]:
        """The full raw column of ``attr``."""
        return self._source.column(attr)  # type: ignore[no-any-return]

    def group_rows(self, attrs: tuple[str, ...]) -> Any:
        """Member-row lists of the equal-value partition over ``attrs``.

        First-occurrence order, ascending members — the shared partition
        cache of the snapshot.  Raises :class:`TypeError` when a column
        holds unhashable cells (callers fall back to scanning).
        """
        return self._source.cached_group_by(attrs).values()

    # -- vector-kernel primitives --------------------------------------

    def column_kind(self, attr: str) -> str:
        """Sorted-sweep kind of a column: ``num``, ``str``, ``empty``
        or ``unsortable`` (cached on its codebook, if one is built)."""
        j = self.schema.index_of(attr)
        return self._enc.column_kind(j)  # type: ignore[no-any-return]

    def gather(self, attr: str) -> tuple[Any, Any, Any]:
        """``(codes, floats, valid)`` kernel arrays of one column."""
        j = self.schema.index_of(attr)
        return self._enc.gather(j)  # type: ignore[no-any-return]

    def distinct_values(self, attr: str) -> list[Any]:
        """Distinct values of a column, dictionary-code order."""
        j = self.schema.index_of(attr)
        return self._enc.column_codes(j).values  # type: ignore[no-any-return]

    def sorted_projection(self, attr: str) -> tuple[Any, Any]:
        """Cached ``(rows, values)`` float-sorted projection of a column."""
        j = self.schema.index_of(attr)
        return self._enc.sorted_projection(j)  # type: ignore[no-any-return]

    def combined_codes(self, attrs: tuple[str, ...]) -> Any:
        """One integer per row encoding the value combination over ``attrs``."""
        idxs = tuple(self.schema.index_of(a) for a in attrs)
        return self._enc.combined_codes(idxs)

    # -- transport -----------------------------------------------------

    def source(self) -> Any:
        """The backing snapshot (entry-point layer only — the kernels
        never call this; their verify callbacks close over it)."""
        return self._source

    def share(self) -> SharedSlabHandle:
        """Serialize this context's slabs into shared memory, once.

        The pickled :class:`ColumnSlabs` bundle lands in a single
        :class:`multiprocessing.shared_memory` block owned by this
        process and unlinked when the snapshot's encoding is freed
        (with the snapshot, by reference count); repeated calls return
        the same handle.  Raises whatever :mod:`pickle` raises on
        unpicklable cell values — callers treat that as "not shareable"
        and stay in-process.
        """
        from multiprocessing import shared_memory

        existing = _OWNED_BLOCKS.get(self.token)
        if existing is not None:
            return SharedSlabHandle(
                existing.name, existing.size_used, self.token
            )
        payload = pickle.dumps(
            ColumnSlabs.from_context(self),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, len(payload))
        )
        shm.buf[: len(payload)] = payload
        shm.size_used = len(payload)  # type: ignore[attr-defined]
        _OWNED_BLOCKS[self.token] = shm
        weakref.finalize(self._enc, _release_owned, self.token, os.getpid())
        return SharedSlabHandle(shm.name, len(payload), self.token)


def context_for(relation: Any) -> ExecutionContext:
    """The execution context of a relation snapshot.

    A fresh facade per call — nothing on the snapshot refers back to
    it, so the snapshot is freed by reference count.  Every facade of
    one snapshot shares its encoding's caches and token; relations are
    immutable and derived relations get their own encoding, so neither
    can go stale.
    """
    return ExecutionContext(relation)
