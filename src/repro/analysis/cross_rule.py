"""Cross-rule analysis: implication, redundancy, and conflicts.

The family tree's subsumption edges (PAPER Fig. 1) give *sound*
implication tests between rules of a mixed-notation rule set:

* **FD / wildcard-CFD / AFD** — Armstrong implication over the FD pool
  (a variable CFD with an all-wildcard pattern *is* its embedded FD;
  an FD implies any AFD whose embedded FD it implies, since g3 = 0).
  AFD-to-AFD implication is restricted to the monotone case (same or
  smaller LHS implied is unsound because g3 is not monotone under
  general Armstrong steps): identical sides with a looser error bound.
* **DD** — :meth:`DD.subsumes` (looser LHS, tighter RHS).
* **OD** — identical attribute sequences with pointwise mark
  implication (``<`` implies ``<=``, ``=`` implies both non-strict
  marks) in the premise-weakening / conclusion-strengthening direction.
* **SD** — same sides with gap containment.
* **MD** — tighter LHS thresholds and a larger RHS set imply the rest.
* **MFD** — identical sides with a smaller delta.

Deliberately *not* implied (unsound): MD ⇒ FD (NaN distances escape),
DC ⇒ FD (NULL semantics differ), SD ⇒ OD (SDs skip NULL rows).

:func:`_redundant_rules` is the one decision of which rules evaluation
may skip: trivial rules, duplicates and implied rules, with their
witnesses.  :func:`repro.analysis.screen_rules` hands it to every
evaluation path, and ``repro lint`` reports the same findings as DD004,
DD008 and DD007.  :func:`conflicts` adds the DD009 findings.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..core.base import Dependency
from ..core.categorical.afd import AFD
from ..core.categorical.cfd import CFD
from ..core.categorical.fd import FD
from ..core.heterogeneous.dd import DD
from ..core.heterogeneous.md import MD
from ..core.heterogeneous.mfd import MFD
from ..core.implication import implies as fd_implies
from ..core.numerical.od import OD, MarkedAttribute
from ..core.numerical.sd import SD
from ..rules_io import RuleEntry
from .diagnostics import CONFLICTING_RULES, Diagnostic, make

#: mark m1 implies mark m2: every pair ordered by m1 is ordered by m2.
_MARK_IMPLIES: dict[str, tuple[str, ...]] = {
    "<": ("<", "<="),
    "<=": ("<=",),
    ">": (">", ">="),
    ">=": (">=",),
    "=": ("=", "<=", ">="),
}


def _mark_implies(strong: str, weak: str) -> bool:
    return weak in _MARK_IMPLIES.get(strong, ())


def _as_fd(dep: Dependency) -> FD | None:
    """The plain FD a rule *states outright*, when there is one.

    A variable CFD whose pattern is all-wildcard places no condition at
    all, so it is exactly its embedded FD.  AFDs/MFDs are weaker than
    their embedded FD and must not enter the FD pool.
    """
    if type(dep) is FD:
        return dep
    if type(dep) is CFD and dep.pattern.is_pure_wildcard(dep.attributes()):
        return FD(dep.lhs, dep.rhs)
    return None


def _same_registry(a: Dependency, b: Dependency) -> bool:
    return getattr(a, "registry", None) is getattr(b, "registry", None)


def _od_marks(side: tuple[MarkedAttribute, ...]) -> tuple[str, ...]:
    return tuple(m.attribute for m in side)


def _implies_pairwise(a: Dependency, b: Dependency) -> bool:
    """Sound single-rule implication a ⇒ b outside the FD pool."""
    if isinstance(a, DD) and isinstance(b, DD) and _same_registry(a, b):
        return a.subsumes(b)
    if isinstance(a, OD) and isinstance(b, OD):
        if _od_marks(a.lhs) != _od_marks(b.lhs):
            return False
        if _od_marks(a.rhs) != _od_marks(b.rhs):
            return False
        premise_ok = all(
            _mark_implies(mb.mark, ma.mark) for ma, mb in zip(a.lhs, b.lhs, strict=True)
        )
        conclusion_ok = all(
            _mark_implies(ma.mark, mb.mark) for ma, mb in zip(a.rhs, b.rhs, strict=True)
        )
        return premise_ok and conclusion_ok
    if isinstance(a, SD) and isinstance(b, SD):
        return (
            a.lhs == b.lhs
            and a.rhs == b.rhs
            and b.gap.subsumes(a.gap)
        )
    if isinstance(a, MD) and isinstance(b, MD) and _same_registry(a, b):
        if not set(b.rhs) <= set(a.rhs):
            return False
        # b's premise must select a subset of a's premise pairs: every
        # a-threshold is met whenever b's (tighter) thresholds are.
        for pa in a.lhs:
            if not any(
                pb.attribute == pa.attribute
                and pb.metric is pa.metric
                and pb.threshold <= pa.threshold
                for pb in b.lhs
            ):
                return False
        return True
    if isinstance(a, MFD) and isinstance(b, MFD) and _same_registry(a, b):
        return (
            a.lhs == b.lhs and a.rhs == b.rhs and a.delta <= b.delta
        )
    if isinstance(a, AFD) and isinstance(b, AFD):
        return (
            a.lhs == b.lhs
            and a.rhs == b.rhs
            and a.max_error <= b.max_error
        )
    return False


#: The notations :func:`_implies_pairwise` relates, in its test order.
#: Two rules can imply one another pairwise only inside one family.
_FAMILIES: tuple[type[Dependency], ...] = (DD, OD, SD, MD, MFD, AFD)


def _family(dep: Dependency) -> type[Dependency] | None:
    return next((cls for cls in _FAMILIES if isinstance(dep, cls)), None)


def _implied_by_set(
    index: int,
    rules: Sequence[Dependency],
    active: set[int],
    fd_forms: Sequence[FD | None],
    fd_pool: Sequence[tuple[int, FD]],
    kin: Sequence[int],
) -> tuple[int, ...] | None:
    """Witness indices when rule ``index`` is implied by the others.

    ``fd_pool`` holds the rules with an FD form (with that form) and
    ``kin`` the rules of this rule's family, both in ``active``'s
    iteration order; members no longer active are passed over.
    """
    target = rules[index]

    target_fd = fd_forms[index]
    if target_fd is None and type(target) is AFD:
        # An FD pool implying the embedded FD implies the AFD (g3 = 0).
        target_fd = target.embedded
    if target_fd is not None and not fd_implies([], target_fd):
        # (A trivial FD is implied by the empty set — that is DD004's
        # finding, not an implication between rules.)
        pool = [(j, fd) for j, fd in fd_pool if j != index and j in active]
        if pool and fd_implies([fd for _, fd in pool], target_fd):
            for j, fd in pool:
                if fd_implies([fd], target_fd):
                    return (j,)
            return tuple(j for j, _ in pool)

    for j in kin:
        if j != index and j in active and _implies_pairwise(rules[j], target):
            return (j,)
    return None


def _is_duplicate(a: Dependency, b: Dependency) -> bool:
    if type(a) is not type(b):
        return False
    if a == b:  # FD/CFD/AFD/DD/DC define structural equality
        return True
    return _implies_pairwise(a, b) and _implies_pairwise(b, a)


def _disjoint(a, b) -> bool:
    """Interval disjointness (no value in both)."""
    if a.high < b.low or b.high < a.low:
        return True
    if a.high == b.low and (a.high_open or b.low_open):
        return True
    if b.high == a.low and (b.high_open or a.low_open):
        return True
    return False


_OD_OPPOSED = {("<", ">"), ("<", ">="), ("<=", ">"), (">", "<"),
                (">=", "<"), (">", "<=")}


def _conflict(a: Dependency, b: Dependency) -> str | None:
    """A reason the two rules cannot both hold on non-trivial data."""
    if isinstance(a, SD) and isinstance(b, SD):
        if a.lhs == b.lhs and a.rhs == b.rhs and _disjoint(a.gap, b.gap):
            return (
                f"gaps {a.gap} and {b.gap} on {a.rhs} are disjoint; any "
                "two consecutive rows violate one of the rules"
            )
        return None
    if isinstance(a, DD) and isinstance(b, DD) and _same_registry(a, b):
        if a.lhs != b.lhs:
            return None
        for attr, iv_a in a.rhs.ranges.items():
            iv_b = b.rhs.ranges.get(attr)
            if iv_b is not None and _disjoint(iv_a, iv_b):
                return (
                    f"RHS ranges on {attr} ({iv_a} vs {iv_b}) are "
                    "disjoint; any pair matching the shared LHS "
                    "violates one of the rules"
                )
        return None
    if isinstance(a, OD) and isinstance(b, OD):
        if a.lhs != b.lhs:
            return None
        marks_b = {m.attribute: m.mark for m in b.rhs}
        for m in a.rhs:
            other = marks_b.get(m.attribute)
            if other is not None and (m.mark, other) in _OD_OPPOSED:
                return (
                    f"opposed RHS marks {m.attribute}^{m.mark} vs "
                    f"{m.attribute}^{other}; any strictly LHS-ordered "
                    "pair violates one of the rules"
                )
        return None
    if isinstance(a, CFD) and isinstance(b, CFD):
        if not (a.is_constant_cfd() and b.is_constant_cfd()):
            return None
        if a.lhs != b.lhs:
            return None
        lhs_pat_a = {x: a.pattern.entry(x) for x in a.lhs}
        lhs_pat_b = {x: b.pattern.entry(x) for x in b.lhs}
        if lhs_pat_a != lhs_pat_b:
            return None
        consts_b = {
            y: b.pattern.entry(y).constant for y in b.rhs
        }
        for y in a.rhs:
            if y in consts_b:
                c_a = a.pattern.entry(y).constant
                if c_a != consts_b[y]:
                    return (
                        f"the same LHS pattern pins {y} to {c_a!r} in "
                        f"one rule and {consts_b[y]!r} in the other; "
                        "any matching tuple violates one of the rules"
                    )
        return None
    return None


def conflicts(entries: Sequence[RuleEntry]) -> list[Diagnostic]:
    """DD009 findings: pairs of rules that cannot both hold.

    Both orientations of each pair are checked.
    """
    diagnostics: list[Diagnostic] = []
    for i, entry in enumerate(entries):
        for j in range(i):
            reason = _conflict(entries[j].dependency, entry.dependency)
            if reason is None:
                reason = _conflict(entry.dependency, entries[j].dependency)
            if reason is not None:
                diagnostics.append(
                    make(
                        CONFLICTING_RULES,
                        entry.name,
                        f"conflicts with rule {entries[j].name!r}: "
                        f"{reason}",
                        location=entry.location,
                        related=(entries[j].location,),
                    )
                )
    return diagnostics


def _trivial_reason(dep: Dependency) -> str | None:
    """A reason the rule holds on *every* relation, else None."""
    if isinstance(dep, AFD) and dep.embedded.is_trivial():
        # A trivial embedded FD has g3 error 0 <= any max_error.  (The
        # same is NOT sound for MFDs: d(v, v) = 0 is a metric axiom an
        # arbitrary user-supplied distance need not satisfy.)
        return (
            f"embedded FD is trivial (RHS {list(dep.rhs)} ⊆ LHS "
            f"{list(dep.lhs)})"
        )
    if isinstance(dep, FD) and dep.is_trivial():
        return f"RHS {list(dep.rhs)} ⊆ LHS {list(dep.lhs)}"
    if isinstance(dep, CFD):
        if set(dep.rhs) <= set(dep.lhs) and dep.is_variable_cfd():
            return (
                f"RHS {list(dep.rhs)} ⊆ LHS {list(dep.lhs)} with a "
                "wildcard RHS pattern"
            )
        return None
    if isinstance(dep, DD):
        ranges = dep.rhs.ranges
        if all(
            a in dep.lhs.ranges and iv.subsumes(dep.lhs.ranges[a])
            for a, iv in ranges.items()
        ):
            return "every RHS range contains its LHS range"
        return None
    if isinstance(dep, OD):
        lhs_marks = {m.attribute: m.mark for m in dep.lhs}
        if all(
            m.attribute in lhs_marks
            and _mark_implies(lhs_marks[m.attribute], m.mark)
            for m in dep.rhs
        ):
            return "every RHS mark is implied by the same LHS mark"
        return None
    return None


@dataclass(frozen=True)
class Redundancy:
    """The rules of a set that add nothing to it, and their witnesses.

    A rule can qualify more than once (a trivial rule may also be a
    duplicate); :meth:`skips` labels it by the first of trivial,
    duplicate, implied.
    """

    #: index -> why the rule holds on every relation (DD004).
    trivial: dict[int, str]
    #: index -> the earlier rule it duplicates (DD008), over all rules.
    duplicate_of: dict[int, int]
    #: index -> the rules implying it (DD007), over the non-duplicates.
    implied_by: dict[int, tuple[int, ...]]

    def skips(self) -> dict[int, str]:
        """index -> reason, for every rule evaluation may skip."""
        out = dict.fromkeys(self.trivial, "trivial")
        for i in self.duplicate_of:
            out.setdefault(i, "duplicate")
        for i in self.implied_by:
            out.setdefault(i, "implied")
        return dict(sorted(out.items()))


def _redundant_rules(rules: Sequence[Dependency]) -> Redundancy:
    """Decide which rules evaluation may skip, and why.

    Skipping is sound: whenever every kept rule holds, so does every
    skipped one.  A trivial rule holds on every relation; a duplicate
    holds whenever its (earlier, never itself duplicate) original
    does; an implied rule holds whenever its witnesses do.

    Each rule's facts (family, FD form) are computed once, and a rule
    is compared only with the rules that could duplicate or imply it:
    an equal rule of its type, found by hashing when it has no family;
    the FD pool; and the active rules of its family.
    """
    trivial: dict[int, str] = {}
    for i, dep in enumerate(rules):
        why = _trivial_reason(dep)
        if why is not None:
            trivial[i] = why

    families = [_family(dep) for dep in rules]
    duplicate_of: dict[int, int] = {}
    first_equal: dict[tuple[type[Dependency], Dependency], int] = {}
    # type -> its rules that are not duplicates, so far
    originals: dict[type[Dependency], list[int]] = {}
    for i, dep in enumerate(rules):
        same_type = originals.setdefault(type(dep), [])
        if families[i] is None:
            # Outside every family a rule duplicates only an equal one.
            try:
                j = first_equal.setdefault((type(dep), dep), i)
            except TypeError:  # an unhashable rule: scan its type
                j = next((j for j in same_type if rules[j] == dep), i)
        else:
            j = next(
                (j for j in same_type if _is_duplicate(rules[j], dep)), i
            )
        if j == i:
            same_type.append(i)
        else:
            duplicate_of[i] = j

    # Greedy descending pass: try to drop the *latest* rule first, then
    # re-test earlier ones against the shrunken set, so mutual-
    # implication groups keep their earliest member and the result is a
    # cover (the surviving rules still imply everything dropped).
    # Candidates are tried in ``active``'s iteration order (a set's,
    # which discarding members leaves unchanged): it picks witnesses.
    active = {i for i in range(len(rules)) if i not in duplicate_of}
    order = list(active)
    fd_forms = [_as_fd(dep) for dep in rules]
    fd_pool = [(j, fd) for j in order if (fd := fd_forms[j]) is not None]
    kin: dict[type[Dependency] | None, list[int]] = {}
    for j in order:
        if families[j] is not None:
            kin.setdefault(families[j], []).append(j)
    implied_by: dict[int, tuple[int, ...]] = {}
    for i in sorted(active, reverse=True):
        found = _implied_by_set(
            i, rules, active, fd_forms, fd_pool, kin.get(families[i], ())
        )
        if found is not None:
            implied_by[i] = found
            active.discard(i)
    return Redundancy(trivial, duplicate_of, dict(sorted(implied_by.items())))
