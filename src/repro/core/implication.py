"""Implication reasoning for FDs (Armstrong axioms) and friends.

The survey repeatedly leans on implication problems (Fig. 3 lists their
complexities); for plain FDs implication is tractable via attribute-set
closure, and this module provides the classical toolkit:

* :func:`implies` — does a set of FDs imply another FD? (linear-time
  closure test);
* :func:`equivalent` — are two FD sets equivalent covers?
* :func:`minimal_cover` — the canonical cover (singleton RHS, no
  extraneous LHS attributes, no redundant FDs);
* :func:`armstrong_relation` — a witness relation satisfying exactly
  the implied FDs (Beeri et al. [5] guarantee existence); the standard
  agree-set construction over closed attribute sets;
* :func:`closed_sets` — the lattice of closed attribute sets of an FD
  set (the structure Armstrong relations are built from).

For the NP-/coNP-complete implication problems of the extensions
(CFDs, DDs, ODs) the library intentionally ships *checkers* on data,
not deciders — mirroring Fig. 3's message.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from ..relation.relation import Relation
from ..relation.schema import Schema
from .categorical.fd import FD


def closure(attributes: Iterable[str], fds: Sequence[FD]) -> frozenset[str]:
    """Attribute-set closure X+ under ``fds`` (Armstrong axioms)."""
    out = set(attributes)
    changed = True
    while changed:
        changed = False
        for dep in fds:
            if set(dep.lhs) <= out and not set(dep.rhs) <= out:
                out |= set(dep.rhs)
                changed = True
    return frozenset(out)


def implies(fds: Sequence[FD], candidate: FD) -> bool:
    """Whether ``fds ⊨ candidate`` (closure membership test)."""
    return set(candidate.rhs) <= closure(candidate.lhs, fds)


def equivalent(a: Sequence[FD], b: Sequence[FD]) -> bool:
    """Whether two FD sets are covers of each other."""
    return all(implies(b, dep) for dep in a) and all(
        implies(a, dep) for dep in b
    )


def _split_rhs(fds: Sequence[FD]) -> list[FD]:
    """Decompose every FD to singleton RHS (Armstrong decomposition)."""
    out: list[FD] = []
    for dep in fds:
        for a in dep.rhs:
            if a not in dep.lhs:  # drop trivial parts
                out.append(FD(dep.lhs, (a,)))
    return out


def minimal_cover(fds: Sequence[FD]) -> list[FD]:
    """The canonical (minimal) cover of an FD set.

    1. singleton right-hand sides;
    2. remove extraneous LHS attributes (left-reduction);
    3. remove redundant FDs (implied by the rest).

    Deterministic given input order; the result is equivalent to the
    input (verified in tests via :func:`equivalent`).
    """
    work = _split_rhs(fds)

    # Left-reduce each FD.
    reduced: list[FD] = []
    for k, dep in enumerate(work):
        lhs = list(dep.lhs)
        for a in list(lhs):
            if len(lhs) == 1:
                break
            trial = [x for x in lhs if x != a]
            # a is extraneous iff trial -> rhs still follows from the
            # *current* whole set.
            current = reduced + [FD(tuple(lhs), dep.rhs)] + work[k + 1:]
            if implies(current, FD(tuple(trial), dep.rhs)):
                lhs = trial
        reduced.append(FD(tuple(lhs), dep.rhs))

    # Drop redundant FDs.
    result = list(dict.fromkeys(reduced))
    changed = True
    while changed:
        changed = False
        for dep in list(result):
            rest = [d for d in result if d is not dep]
            if implies(rest, dep):
                result.remove(dep)
                changed = True
                break
    return result


def closed_sets(
    attributes: Sequence[str], fds: Sequence[FD]
) -> list[frozenset[str]]:
    """All closed attribute sets ``X = X+`` (the closure lattice).

    Exponential in ``|attributes|``; intended for design-time schemas.
    """
    names = sorted(attributes)
    out: set[frozenset[str]] = set()
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            out.add(closure(combo, fds))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def armstrong_relation(
    attributes: Sequence[str], fds: Sequence[FD]
) -> Relation:
    """A relation satisfying exactly the FDs implied by ``fds``.

    Classical agree-set construction: one base tuple of zeros, plus one
    tuple per *meet-irreducible* closed set C agreeing with the base
    exactly on C.  The resulting relation satisfies X -> A iff
    ``A ∈ closure(X)`` — asserted exhaustively in tests.
    """
    names = sorted(attributes)
    closed = [set(c) for c in closed_sets(names, fds)]
    # Meet-irreducible closed sets suffice, but using all closed sets
    # (minus the full set, which adds a duplicate row) stays correct
    # and keeps the construction simple.
    witnesses = [c for c in closed if c != set(names)]
    rows: list[tuple] = [tuple(0 for __ in names)]
    for k, agree in enumerate(witnesses, start=1):
        rows.append(
            tuple(0 if a in agree else k for a in names)
        )
    return Relation.from_rows(Schema(names), rows)

