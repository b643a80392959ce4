"""Distance-constraint primitives shared by the heterogeneous branch.

Section 3 notations constrain *metric distances* rather than equality:

* :class:`Interval` — a (half-)open or closed range of distances, the
  ``{=, <, >, <=, >=}``-specified ranges of DD differential functions;
* :class:`DifferentialFunction` — the paper's ``φ[X]``: a pattern of
  distance ranges over an attribute set, evaluated on tuple pairs;
* :class:`SimilarityPredicate` — one attribute's "similar within α"
  check, the building block of NEDs and MDs.

Metrics are resolved through a :class:`~repro.metrics.MetricRegistry`
so the same dependency object can be checked under different metric
choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from ...metrics.base import Metric
from ...metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from ...relation.relation import Relation

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A distance range with individually open/closed endpoints."""

    low: float = 0.0
    high: float = INF
    low_open: bool = False
    high_open: bool = False

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"empty interval: [{self.low}, {self.high}]")

    def contains(self, value: float) -> bool:
        if value < self.low or (self.low_open and value == self.low):
            return False
        if value > self.high or (self.high_open and value == self.high):
            return False
        return True

    # -- constructors mirroring the DD operator notation ------------------

    @classmethod
    def at_most(cls, bound: float) -> "Interval":
        """``<= bound`` — the "similar" range [0, bound]."""
        return cls(0.0, bound)

    @classmethod
    def less_than(cls, bound: float) -> "Interval":
        return cls(0.0, bound, high_open=True)

    @classmethod
    def at_least(cls, bound: float) -> "Interval":
        """``>= bound`` — the "dissimilar" range [bound, inf)."""
        return cls(bound, INF)

    @classmethod
    def greater_than(cls, bound: float) -> "Interval":
        return cls(bound, INF, low_open=True)

    @classmethod
    def exactly(cls, value: float) -> "Interval":
        return cls(value, value)

    @classmethod
    def between(cls, low: float, high: float) -> "Interval":
        return cls(low, high)

    @classmethod
    def everything(cls) -> "Interval":
        return cls(0.0, INF)

    @classmethod
    def parse(cls, spec: object) -> "Interval":
        """Lenient conversion used by the DD/SD constructors.

        Accepts an :class:`Interval`, a number ``b`` (meaning ``<= b``),
        an ``(op, bound)`` pair, or a ``(low, high)`` numeric pair.
        """
        if isinstance(spec, Interval):
            return spec
        if isinstance(spec, (int, float)):
            return cls.at_most(float(spec))
        if isinstance(spec, tuple) and len(spec) == 2:
            a, b = spec
            if isinstance(a, str):
                op = {"≤": "<=", "≥": ">="}.get(a, a)
                factory = {
                    "<=": cls.at_most,
                    "<": cls.less_than,
                    ">=": cls.at_least,
                    ">": cls.greater_than,
                    "=": cls.exactly,
                }.get(op)
                if factory is None:
                    raise ValueError(f"unknown interval operator {a!r}")
                return factory(float(b))
            return cls.between(float(a), float(b))
        raise ValueError(f"cannot interpret interval spec {spec!r}")

    def is_similarity_range(self) -> bool:
        """True for ranges of the form [0, b] — the NED-expressible case."""
        return self.low == 0.0 and not self.low_open and self.high < INF

    def subsumes(self, other: "Interval") -> bool:
        """True iff every value in ``other`` is also in ``self``."""
        low_ok = self.low < other.low or (
            self.low == other.low and (not self.low_open or other.low_open)
        )
        high_ok = self.high > other.high or (
            self.high == other.high and (not self.high_open or other.high_open)
        )
        return low_ok and high_ok

    def __str__(self) -> str:
        if self.high == INF and self.low == 0.0 and not self.low_open:
            return "[0, inf)"
        if self.high == INF:
            op = ">" if self.low_open else ">="
            return f"{op}{self.low:g}"
        if self.low == 0.0 and not self.low_open:
            op = "<" if self.high_open else "<="
            return f"{op}{self.high:g}"
        if self.low == self.high:
            return f"={self.low:g}"
        lo = "(" if self.low_open else "["
        hi = ")" if self.high_open else "]"
        return f"{lo}{self.low:g}, {self.high:g}{hi}"


class DifferentialFunction:
    """``φ[X]``: per-attribute distance ranges evaluated on tuple pairs.

    A pair of tuples is *compatible* with ``φ[X]`` iff for every
    attribute ``A`` in the function, ``d_A(t1[A], t2[A])`` falls in the
    declared range.
    """

    __slots__ = ("ranges",)

    def __init__(self, ranges: Mapping[str, object]) -> None:
        if not ranges:
            raise ValueError("differential function needs >= 1 attribute")
        self.ranges: dict[str, Interval] = {
            a: Interval.parse(spec) for a, spec in ranges.items()
        }

    def attributes(self) -> tuple[str, ...]:
        return tuple(self.ranges)

    def compatible(
        self,
        relation: Relation,
        i: int,
        j: int,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> bool:
        """Whether tuples ``i, j`` satisfy every distance range."""
        for a, interval in self.ranges.items():
            metric = registry.metric_for(relation.schema[a])
            d = metric.distance(relation.value_at(i, a), relation.value_at(j, a))
            if not interval.contains(d):
                return False
        return True

    def distances(
        self,
        relation: Relation,
        i: int,
        j: int,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> dict[str, float]:
        """The per-attribute distances of a pair (for violation reasons)."""
        out: dict[str, float] = {}
        for a in self.ranges:
            metric = registry.metric_for(relation.schema[a])
            out[a] = metric.distance(
                relation.value_at(i, a), relation.value_at(j, a)
            )
        return out

    def subsumes(self, other: "DifferentialFunction") -> bool:
        """φ subsumes φ' iff compatible(φ') implies compatible(φ).

        Requires φ's attributes ⊆ φ'-attributes with each φ-range
        containing the corresponding φ'-range.
        """
        for a, interval in self.ranges.items():
            if a not in other.ranges:
                return False
            if not interval.subsumes(other.ranges[a]):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferentialFunction):
            return NotImplemented
        return self.ranges == other.ranges

    def __hash__(self) -> int:
        return hash(frozenset(self.ranges.items()))

    def __str__(self) -> str:
        return ", ".join(f"{a}({iv})" for a, iv in self.ranges.items())

    def __repr__(self) -> str:
        return f"DifferentialFunction({{{self}}})"


@dataclass(frozen=True)
class SimilarityPredicate:
    """One attribute's "similar within threshold" test.

    ``threshold`` is a *distance* upper bound (the paper's NED
    definition notes it uses similarity originally but adopts distance
    "for convenience"; we follow the paper).
    """

    attribute: str
    threshold: float
    metric: Metric | None = None

    def resolve_metric(
        self, relation: Relation, registry: MetricRegistry
    ) -> Metric:
        if self.metric is not None:
            return self.metric
        return registry.metric_for(relation.schema[self.attribute])

    def satisfied(
        self,
        relation: Relation,
        i: int,
        j: int,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> bool:
        metric = self.resolve_metric(relation, registry)
        return metric.within(
            relation.value_at(i, self.attribute),
            relation.value_at(j, self.attribute),
            self.threshold,
        )

    def __str__(self) -> str:
        return f"{self.attribute}^{self.threshold:g}"


def coerce_predicates(
    spec: Mapping[str, float] | Sequence[SimilarityPredicate],
) -> tuple[SimilarityPredicate, ...]:
    """Accept ``{attr: threshold}`` or explicit predicate sequences."""
    if isinstance(spec, Mapping):
        return tuple(
            SimilarityPredicate(a, float(t)) for a, t in spec.items()
        )
    return tuple(spec)
