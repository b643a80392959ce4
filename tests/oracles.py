"""Reference implementations the parity suites check production code against.

Each function is the plain, definitional form of an operation whose
production path is optimized: value-tuple grouping instead of
dictionary codes (``repro.relation.encoding``), a scan of every tuple
pair instead of pruned kernels (``repro.plan``), a row-by-row CSV read
(two of them, to infer column types) instead of the one-pass columnar
loader (``repro.relation.io``), a CFD pattern matched row by row
instead of through codebooks, the skip decision with every rule
compared against every other instead of by family bucket
(``repro.analysis.cross_rule``), and FD-style discovery and counting
over value groups and partitions instead of the encoding's code tables
(TANE, CORDS, CFDMiner, FD listing, g3, CFD counts).  They share
nothing with the paths they check except each notation's own predicate
(``pair_violation``, ``Predicate.evaluate``, the LHS/RHS similarity
tests, ``CFD.matches_lhs``, ``FD._group_violations``, the pairwise
implication tests) and TANE's lattice walk, which *is* the definition
the fast paths re-verify against.

Nothing here is fast, and nothing in ``src/`` calls it: the oracles
exist so a fast path that silently loses or invents answers fails a
test.  The naive-baseline microbenchmarks time them as well.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from itertools import combinations
from typing import Any

from repro.analysis.cross_rule import (
    Redundancy,
    _as_fd,
    _is_duplicate,
    _implies_pairwise,
    _trivial_reason,
)
from repro.core.categorical.afd import AFD
from repro.core.categorical.cfd import CFD
from repro.core.categorical.fd import FD
from repro.core.heterogeneous.cd import CD
from repro.core.heterogeneous.md import MD
from repro.core.heterogeneous.ned import NED
from repro.core.heterogeneous.pac import PAC
from repro.core.heterogeneous.constraints import Interval
from repro.core.numerical.dc import ALPHA, BETA, DC
from repro.core.implication import implies as fd_implies
from repro.core.numerical.sd import SD
from repro.core.violation import Violation
from repro.discovery.common import DiscoveryStats
from repro.discovery.tane import _tane_traverse
from repro.relation import (
    Attribute,
    AttributeType,
    Relation,
    Schema,
    StrippedPartition,
    cache_for,
)
from repro.runtime.errors import InputError

Row = tuple[Any, ...]
Pair = tuple[int, int]
Report = list[tuple[tuple[int, ...], str]]


# -- value-tuple substrate ---------------------------------------------------


def group_by(relation: Relation, attributes: Sequence[str]) -> dict[Row, list[int]]:
    """Row indices keyed by their ``X``-value tuple, first-occurrence order."""
    if not attributes:
        return {(): list(range(len(relation)))} if len(relation) else {}
    cols = [relation.column(a) for a in attributes]
    groups: dict[Row, list[int]] = defaultdict(list)
    for i, row in enumerate(zip(*cols, strict=True)):
        groups[row].append(i)
    return dict(groups)


def project(relation: Relation, attributes: Sequence[str]) -> list[Row]:
    """The distinct ``X``-value tuples (set-semantics projection rows)."""
    return list(group_by(relation, attributes))


def distinct_count(relation: Relation, attributes: Sequence[str]) -> int:
    """``|dom(X)|_r``: the number of distinct ``X``-value tuples."""
    if not attributes:
        return 1 if len(relation) else 0
    return len(set(zip(*(relation.column(a) for a in attributes), strict=True)))


def stripped_partition(
    relation: Relation, attributes: Sequence[str]
) -> StrippedPartition:
    """π_X: the equal-``X`` classes of two or more rows."""
    return StrippedPartition(
        len(relation), group_by(relation, attributes).values()
    )


# -- all-pairs scans ---------------------------------------------------------


def _pairs(relation: Relation) -> Iterable[Pair]:
    """Every unordered pair ``i < j`` in row-major order."""
    return combinations(range(len(relation)), 2)


def pair_violations(
    dep: Any, relation: Relation, restrict: set[int] | None = None
) -> Report:
    """The quadratic scan of ``dep.pair_violation`` over all pairs.

    With ``restrict``, only pairs touching one of those rows — the
    incremental re-probe contract.
    """
    out: Report = []
    for i, j in _pairs(relation):
        if restrict is not None and i not in restrict and j not in restrict:
            continue
        reason = dep.pair_violation(relation, i, j)
        if reason is not None:
            out.append(((i, j), reason))
    return out


def _denied(dc: DC, relation: Relation, assignment: dict[str, int]) -> bool:
    return all(p.evaluate(relation, assignment) for p in dc.predicates)


def _dc_variables(dc: DC) -> list[str]:
    return sorted(set().union(*(p.variables() for p in dc.predicates)))


def dc_violations(dc: DC, relation: Relation) -> Report:
    """The ordered DC scan.

    Single-tuple DCs check every row.  Two-tuple DCs check every
    ordered assignment ``(tα, tβ)``, ``α != β``, in row-major order, and
    report each unordered pair once, with the first denied orientation.
    """
    n = len(relation)
    if dc.is_single_tuple:
        (var,) = _dc_variables(dc)
        return [
            ((i,), "tuple satisfies all atoms")
            for i in range(n)
            if _denied(dc, relation, {var: i})
        ]
    out: dict[tuple[int, ...], str] = {}
    for i in range(n):
        for j in range(n):
            if i == j or (min(i, j), max(i, j)) in out:
                continue
            if _denied(dc, relation, {ALPHA: i, BETA: j}):
                out[(min(i, j), max(i, j))] = (
                    f"(tα=t{i}, tβ=t{j}) satisfies all atoms"
                )
    return list(out.items())


def dc_holds(dc: DC, relation: Relation) -> bool:
    """No assignment of the ordered DC scan is denied."""
    n = len(relation)
    if dc.is_single_tuple:
        (var,) = _dc_variables(dc)
        return not any(_denied(dc, relation, {var: i}) for i in range(n))
    return not any(
        i != j and _denied(dc, relation, {ALPHA: i, BETA: j})
        for i in range(n)
        for j in range(n)
    )


def guard_pairs(
    relation: Relation, lhs_test: Callable[[Relation, int, int], bool]
) -> list[Pair]:
    """The all-pairs guard scan: every pair ``i < j`` the LHS selects."""
    return [(i, j) for i, j in _pairs(relation) if lhs_test(relation, i, j)]


# -- guard-pair measures -----------------------------------------------------


def md_matches(md: MD, relation: Relation) -> list[Pair]:
    """``MD.matches``: the LHS-similar pairs (a CMD's condition aside)."""
    return guard_pairs(relation, md.similar_on_lhs)


def cd_confidence(cd: CD, relation: Relation) -> float:
    """``CD.confidence``: the share of LHS-agreeing pairs meeting the RHS."""
    agreeing = guard_pairs(relation, cd._lhs_agrees)
    good = sum(cd.rhs.similar(relation, i, j, cd.registry) for i, j in agreeing)
    return good / len(agreeing) if agreeing else 1.0


def pac_pair_counts(pac: PAC, relation: Relation) -> tuple[int, int]:
    """``PAC.pair_counts``: (#pairs close on X, #of those close on Y)."""
    close = guard_pairs(relation, pac._lhs_close)
    return len(close), sum(pac._rhs_close(relation, i, j) for i, j in close)


def ned_support_and_confidence(
    ned: NED, relation: Relation
) -> tuple[int, float]:
    """``NED.support_and_confidence``: (#LHS-agreeing pairs, RHS share)."""
    agreeing = guard_pairs(relation, ned.lhs_agrees)
    good = sum(ned.rhs_agrees(relation, i, j) for i, j in agreeing)
    return len(agreeing), (good / len(agreeing) if agreeing else 1.0)


def pac_violations(pac: PAC, relation: Relation) -> Report:
    """The X-close pairs beyond the Y tolerance."""
    return [
        (pair, "within Δ on X but beyond ε on Y")
        for pair in guard_pairs(relation, pac._lhs_close)
        if not pac._rhs_close(relation, *pair)
    ]


# -- per-notation dispatch ---------------------------------------------------


def violations(dep: Any, relation: Relation) -> Report:
    """The reference ``(tuples, reason)`` report of a pair-checked notation,
    in the order the plan kernels must reproduce."""
    if isinstance(dep, DC):
        return dc_violations(dep, relation)
    if isinstance(dep, PAC):
        return pac_violations(dep, relation)
    return pair_violations(dep, relation)


def holds(dep: Any, relation: Relation) -> bool:
    """The reference verdict of a pair-checked notation."""
    if isinstance(dep, DC):
        return dc_holds(dep, relation)
    if isinstance(dep, PAC):
        close, good = pac_pair_counts(dep, relation)
        return (good / close if close else 1.0) >= dep.confidence
    return not pair_violations(dep, relation)


# -- CFD pattern matching ----------------------------------------------------


def cfd_matching_indices(cfd: CFD, relation: Relation) -> list[int]:
    """The tuples matching ``t_p`` on the LHS, one row at a time."""
    return [i for i in range(len(relation)) if cfd.matches_lhs(relation, i)]


def cfd_violation_count(cfd: CFD, relation: Relation) -> int:
    """``len(cfd.violations(relation))`` from the row scan: matching
    tuples failing a constant RHS entry, plus the matching pairs equal
    on the LHS and unequal on the RHS."""
    matching = cfd_matching_indices(cfd, relation)
    failing = sum(
        1 for i in matching
        if not all(
            cfd.pattern.entry(a).matches(relation.value_at(i, a))
            for a in cfd.rhs
        )
    )
    sub = relation.take(matching)
    return failing + sum(
        len(members) * (len(members) - 1) // 2
        - sum(len(m) * (len(m) - 1) // 2 for m in by_y.values())
        for members, by_y in _split_groups(sub, cfd.lhs, cfd.rhs)
    )


# -- FD-style counting and discovery -----------------------------------------


def _split_groups(
    relation: Relation, lhs: Sequence[str], rhs: Sequence[str]
) -> list[tuple[list[int], dict[Row, list[int]]]]:
    """Each equal-``X`` group with its members split by ``Y``-value,
    both in first-occurrence order."""
    rhs_cols = [relation.column(a) for a in rhs]
    out = []
    for members in group_by(relation, lhs).values():
        by_y: dict[Row, list[int]] = {}
        for t in members:
            by_y.setdefault(tuple(col[t] for col in rhs_cols), []).append(t)
        out.append((members, by_y))
    return out


def fd_violations(fd: FD, relation: Relation) -> list[Violation]:
    """Every equal-``X`` group split by ``Y``, in first-occurrence
    order: the listing ``FD.violations`` must reproduce."""
    label = fd.label()
    rhs_cols = [relation.column(a) for a in fd.rhs]
    out: list[Violation] = []
    for x_value, members in group_by(relation, fd.lhs).items():
        out.extend(fd._group_violations(label, x_value, members, rhs_cols))
    return out


def fd_holds(fd: FD, relation: Relation) -> bool:
    """Every equal-``X`` group holds one ``Y``-value."""
    return all(len(by_y) == 1 for __, by_y in _split_groups(
        relation, fd.lhs, fd.rhs
    ))


def g3_error(fd: FD, relation: Relation) -> float:
    """The share of rows outside each ``X`` group's largest ``Y``
    subgroup."""
    n = len(relation)
    if n == 0:
        return 0.0
    kept = sum(
        max(len(m) for m in by_y.values())
        for __, by_y in _split_groups(relation, fd.lhs, fd.rhs)
    )
    return (n - kept) / n


def tane(
    relation: Relation, max_lhs_size: int | None = None, epsilon: float = 0.0
) -> list[Any]:
    """TANE's lattice walk with the published tests on stripped
    partitions: equal ranks, or ``g3`` from ``π_X`` and ``π_{X ∪ A}``."""
    names = sorted(relation.schema.names())
    if max_lhs_size is None:
        max_lhs_size = max(len(names) - 1, 1)
    cache = cache_for(relation)

    def valid(lhs: tuple[str, ...], a: str) -> bool:
        pi_lhs = cache.partition(lhs)
        pi_x = cache.partition(lhs + (a,))
        if epsilon == 0.0:
            return pi_lhs.rank == pi_x.rank
        return pi_lhs.g3_error(pi_x) <= epsilon

    def is_key(combo: tuple[str, ...]) -> bool:
        return cache.partition(combo).rank == len(relation)

    found: list[Any] = []
    _tane_traverse(
        relation, names, max_lhs_size, epsilon, valid, is_key, found,
        DiscoveryStats(),
    )
    return found


def chi_square_statistic(
    relation: Relation, col1: str, col2: str, max_categories: int = 20
) -> tuple[float, int]:
    """CORDS' chi-square statistic with one table increment per row."""
    counts1 = relation.value_counts(col1)
    counts2 = relation.value_counts(col2)
    top1 = sorted(counts1, key=counts1.get, reverse=True)[:max_categories]
    top2 = sorted(counts2, key=counts2.get, reverse=True)[:max_categories]
    cat1 = {v: k for k, v in enumerate(top1)}
    cat2 = {v: k for k, v in enumerate(top2)}
    other1, other2 = len(cat1), len(cat2)
    rows = other1 + 1
    cols = other2 + 1
    table = [[0.0] * cols for __ in range(rows)]
    c1 = relation.column(col1)
    c2 = relation.column(col2)
    for a, b in zip(c1, c2, strict=True):
        table[cat1.get(a, other1)][cat2.get(b, other2)] += 1
    n = len(c1)
    if n == 0:
        return 0.0, 0
    row_sums = [sum(r) for r in table]
    col_sums = [sum(table[r][c] for r in range(rows)) for c in range(cols)]
    live_rows = sum(1 for s in row_sums if s > 0)
    live_cols = sum(1 for s in col_sums if s > 0)
    stat = 0.0
    for r in range(rows):
        for c in range(cols):
            expected = row_sums[r] * col_sums[c] / n
            if expected > 0:
                stat += (table[r][c] - expected) ** 2 / expected
    dof = max((live_rows - 1) * (live_cols - 1), 1)
    return stat, dof


def discover_constant_cfds(
    relation: Relation, min_support: int = 2, max_lhs_size: int = 2
) -> list[CFD]:
    """CFDMiner with a per-member RHS test and a linear scan of the
    minimal patterns found so far."""
    names = sorted(relation.schema.names())
    found: list[CFD] = []
    minimal: dict[str, list[frozenset[tuple[str, object]]]] = {
        a: [] for a in names
    }
    for size in range(1, max_lhs_size + 1):
        for lhs in combinations(names, size):
            for x_value, indices in group_by(relation, lhs).items():
                if len(indices) < min_support:
                    continue
                items = frozenset(zip(lhs, x_value, strict=True))
                for a in names:
                    if a in lhs or any(m <= items for m in minimal[a]):
                        continue
                    column = relation.column(a)
                    values = {column[t] for t in indices}
                    if len(values) == 1:
                        pattern = dict(items)
                        pattern[a] = next(iter(values))
                        found.append(CFD(lhs, (a,), pattern))
                        minimal[a].append(items)
    return found


# -- the skip decision -------------------------------------------------------


def _implied_by_set(
    index: int, rules: Sequence[Any], active: set[int]
) -> tuple[int, ...] | None:
    """Witness indices when rule ``index`` is implied by the others:
    every active rule is a candidate."""
    target = rules[index]
    target_fd = _as_fd(target)
    if target_fd is None and type(target) is AFD:
        target_fd = target.embedded
    if target_fd is not None and not fd_implies([], target_fd):
        pool: list[tuple[int, FD]] = []
        for j in active:
            if j == index:
                continue
            fd = _as_fd(rules[j])
            if fd is not None:
                pool.append((j, fd))
        if pool and fd_implies([fd for _, fd in pool], target_fd):
            for j, fd in pool:
                if fd_implies([fd], target_fd):
                    return (j,)
            return tuple(j for j, _ in pool)
    for j in active:
        if j == index:
            continue
        if _implies_pairwise(rules[j], target):
            return (j,)
    return None


def redundant_rules(rules: Sequence[Any]) -> Redundancy:
    """The skip decision with every rule compared against every other:
    duplicates against all earlier rules, implication against every
    active rule, in ``active``'s own iteration order."""
    trivial: dict[int, str] = {}
    for i, dep in enumerate(rules):
        why = _trivial_reason(dep)
        if why is not None:
            trivial[i] = why
    duplicate_of: dict[int, int] = {}
    for i, dep in enumerate(rules):
        for j in range(i):
            if j not in duplicate_of and _is_duplicate(rules[j], dep):
                duplicate_of[i] = j
                break
    active = {i for i in range(len(rules)) if i not in duplicate_of}
    implied_by: dict[int, tuple[int, ...]] = {}
    for i in sorted(active, reverse=True):
        found = _implied_by_set(i, rules, active)
        if found is not None:
            implied_by[i] = found
            active.discard(i)
    return Redundancy(trivial, duplicate_of, dict(sorted(implied_by.items())))


# -- SD discovery ------------------------------------------------------------


def discover_sds(relation: Relation, max_relative_span: float) -> list[SD]:
    """Gap intervals fitted to the consecutive gaps that are not NaN,
    kept when narrow against the span of the column's non-NaN values
    and when the confidence DP (Golab et al.) verifies them at 1."""
    names = sorted(a.name for a in relation.schema.numerical_attributes())
    found = []
    for lhs in names:
        for rhs in names:
            if lhs == rhs:
                continue
            probe = SD(lhs, rhs, (None, None))
            gaps = [
                g for __, __, g in probe.consecutive_gaps(relation)
                if not math.isnan(g)
            ]
            ys = [
                float(v) for v in relation.column(rhs)
                if v is not None and not math.isnan(float(v))
            ]
            if not gaps or not ys:
                continue
            low, high = min(gaps), max(gaps)
            span = max(ys) - min(ys)
            if math.isinf(low) or math.isinf(high) or span <= 0:
                continue
            if (high - low) / span > max_relative_span:
                continue
            sd = SD(lhs, rhs, Interval(low, high))
            if sd.confidence(relation) >= 1.0:
                found.append(sd)
    return found


# -- CSV loading -------------------------------------------------------------


def coerce_cell(
    text: str,
    dtype: AttributeType,
    *,
    allow_nonfinite: bool = False,
    row: int | None = None,
    column: str | None = None,
    source: str | None = None,
) -> Any:
    """One stripped CSV cell as a value of ``dtype``."""
    if text == "":
        return None
    if dtype is AttributeType.NUMERICAL:
        try:
            f = float(text)
        except ValueError as exc:
            raise InputError(
                f"non-numeric value {text!r} in numerical column",
                row=row,
                column=column,
                source=source,
            ) from exc
        if not math.isfinite(f):
            if allow_nonfinite:
                return None
            raise InputError(
                f"non-finite value {text!r} in numerical column "
                "(pass allow_nonfinite=True to map it to null)",
                row=row,
                column=column,
                source=source,
            )
        return int(f) if f.is_integer() else f
    return text


def read_csv_rows(
    f: Any,
    schema: Schema | Sequence[Any] | None = None,
    delimiter: str = ",",
    allow_nonfinite: bool = False,
    source: str | None = None,
) -> Relation:
    """Read CSV rows one at a time, coercing each cell as it comes."""
    reader = csv.reader(f, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(
            "CSV input has no header row", source=source
        ) from None
    header = [h.strip() for h in header]
    if schema is None:
        schema = Schema(header)
    elif not isinstance(schema, Schema):
        schema = Schema(schema)
    if list(schema.names()) != header:
        raise InputError(
            f"CSV header {header} does not match schema "
            f"{list(schema.names())}",
            row=1,
            source=source,
        )
    dtypes = [a.dtype for a in schema]
    names = list(schema.names())
    rows = []
    for raw in reader:
        if not raw:
            continue
        line = reader.line_num
        if len(raw) != len(schema):
            raise InputError(
                f"CSV row of width {len(raw)} does not match schema "
                f"of width {len(schema)}: {raw!r}",
                row=line,
                source=source,
            )
        rows.append(
            tuple(
                coerce_cell(
                    cell.strip(),
                    dt,
                    allow_nonfinite=allow_nonfinite,
                    row=line,
                    column=name,
                    source=source,
                )
                for cell, dt, name in zip(raw, dtypes, names, strict=True)
            )
        )
    return Relation.from_rows(schema, rows)


def read_csv(path: str, schema: Any = None, allow_nonfinite: bool = False) -> Relation:
    """:func:`read_csv_rows` over a file."""
    with open(path, newline="", encoding="utf-8") as f:
        return read_csv_rows(
            f, schema, allow_nonfinite=allow_nonfinite, source=str(path)
        )


def detect_schema(path: str, numerical: set[str], text: set[str]) -> Schema:
    """Column types from a first, untyped read of the whole file: a column
    is numerical iff every non-empty cell parses as a float (and one
    does), unless an override names it."""
    raw = read_csv(path)

    def is_number(v: object) -> bool:
        try:
            float(str(v))
        except (TypeError, ValueError):
            return False
        return True

    attrs = []
    for name in raw.schema.names():
        if name in numerical:
            dtype = AttributeType.NUMERICAL
        elif name in text:
            dtype = AttributeType.TEXT
        else:
            column = [v for v in raw.column(name) if v is not None]
            dtype = (
                AttributeType.NUMERICAL
                if column and all(is_number(v) for v in column)
                else AttributeType.TEXT
            )
        attrs.append(Attribute(name, dtype))
    return Schema(attrs)


def load_relation(
    path: str, numerical: Sequence[str] = (), text: Sequence[str] = ()
) -> Relation:
    """The two-pass typed load: detect the schema, then read again."""
    schema = detect_schema(path, set(numerical), set(text))
    return read_csv(path, schema)
