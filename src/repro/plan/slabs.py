"""Engine-neutral execution contexts.

The kernel layer (:mod:`repro.plan.kernels`, :mod:`repro.plan.kernels_vec`)
does not touch a live :class:`~repro.relation.relation.Relation` handle:
it consumes an :class:`ExecutionContext` — a thin, read-only facade over
one immutable snapshot's column data — plus a compiled
:class:`~repro.plan.ir.Plan`.  The context exposes exactly the column
primitives the kernels need (raw columns, equal-value groups, encoded
code/float/validity arrays, sorted projections, combined keys) and
nothing else, which is what makes plan execution *engine-neutral*: the
same kernels run serially in-process, in the forked shards of
:mod:`repro.plan.parallel` (which inherit the parent's context), or
(future work) against a pushed-down SQL engine.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

__all__ = ["ExecutionContext", "context_for"]


class ExecutionContext:
    """What the plan kernels see instead of a live relation handle.

    A read-only facade over one immutable snapshot and its encoding:
    row count, schema, and the column primitives the candidate
    generators and vectorized masks consume.  Contexts are cheap (see
    :func:`context_for`).
    """

    __slots__ = ("_source", "_enc", "n", "schema")

    def __init__(self, source: Any) -> None:
        self._source = source
        self._enc = source.encoding()
        self.n: int = len(source)
        self.schema = source.schema

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(n={self.n}, "
            f"attrs={list(self.schema.names())})"
        )

    # -- scalar-kernel primitives --------------------------------------

    def column(self, attr: str) -> Sequence[Any]:
        """The full raw column of ``attr``."""
        return self._source.column(attr)  # type: ignore[no-any-return]

    def group_rows(self, attrs: tuple[str, ...]) -> list[list[int]]:
        """Member-row lists of the equal-value groups over ``attrs``.

        First-occurrence order, ascending members — the encoding's
        group table.  Raises :class:`TypeError` when a column holds
        unhashable cells (callers fall back to scanning).
        """
        idxs = tuple(self.schema.index_of(a) for a in attrs)
        return [members for __, members in self._enc.group_table(idxs)]

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


def context_for(relation: Any) -> ExecutionContext:
    """The execution context of a relation snapshot.

    A fresh facade per call — nothing on the snapshot refers back to
    it, so the snapshot is freed by reference count.  Every facade of
    one snapshot shares its encoding's caches; relations are
    immutable and derived relations get their own encoding, so neither
    can go stale.
    """
    return ExecutionContext(relation)
