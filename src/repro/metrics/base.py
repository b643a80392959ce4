"""Metric and similarity protocol for heterogeneous-data dependencies.

Section 3 of the survey attaches a distance metric ``d_A`` to each
attribute, required to satisfy non-negativity, identity of
indiscernibles, and symmetry (triangle inequality holds for the string
metrics shipped here but is not required by the definitions).

Two dual views are used by different notations:

* **distance** (DDs, MFDs, NEDs as normalized in the paper): smaller is
  closer; thresholds are upper bounds ``<= alpha``;
* **similarity** (MDs, the original NED formulation): larger is closer;
  thresholds are lower bounds ``>= alpha``.

:class:`Metric` carries both, with ``similarity`` derived from distance
when only one is given.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Protocol, runtime_checkable

Value = Any
DistanceFn = Callable[[Value, Value], float]


@runtime_checkable
class SupportsDistance(Protocol):
    """Anything exposing ``distance(a, b) -> float``."""

    def distance(self, a: Value, b: Value) -> float: ...


class Metric:
    """A named distance function over an attribute domain.

    ``None`` handling follows the convention used in constraint checking:
    the distance between two ``None`` values is 0 (indiscernible), and
    the distance between ``None`` and any concrete value is ``inf``
    (never similar) — so missing data neither fabricates nor masks
    similarity-based violations.
    """

    __slots__ = ("name", "_distance", "_similarity")

    def __init__(
        self,
        name: str,
        distance: DistanceFn,
        similarity: DistanceFn | None = None,
    ) -> None:
        self.name = name
        self._distance = distance
        self._similarity = similarity

    def distance(self, a: Value, b: Value) -> float:
        if a is None and b is None:
            return 0.0
        if a is None or b is None:
            return float("inf")
        d = self._distance(a, b)
        if d < 0:
            raise ValueError(
                f"metric {self.name!r} returned negative distance {d!r}"
            )
        return d

    def similarity(self, a: Value, b: Value) -> float:
        """Similarity in [0, 1]; defaults to ``1 / (1 + distance)``."""
        if a is None and b is None:
            return 1.0
        if a is None or b is None:
            return 0.0
        if self._similarity is not None:
            return self._similarity(a, b)
        return 1.0 / (1.0 + self.distance(a, b))

    def within(self, a: Value, b: Value, threshold: float) -> bool:
        """True iff ``distance(a, b) <= threshold``."""
        return self.distance(a, b) <= threshold

    def __call__(self, a: Value, b: Value) -> float:
        return self.distance(a, b)

    def __repr__(self) -> str:
        return f"Metric({self.name!r})"


def check_metric_axioms(
    metric: Metric, samples: list[Value], *, tolerance: float = 1e-9
) -> list[str]:
    """Check non-negativity / identity / symmetry on sample values.

    Returns a list of human-readable violations (empty = all good).
    Used by tests and by the registry's self-check.
    """
    problems: list[str] = []
    for a in samples:
        if abs(metric.distance(a, a)) > tolerance:
            problems.append(f"d({a!r}, {a!r}) != 0")
    for i, a in enumerate(samples):
        for b in samples[i + 1:]:
            d_ab = metric.distance(a, b)
            d_ba = metric.distance(b, a)
            if d_ab < -tolerance:
                problems.append(f"d({a!r}, {b!r}) < 0")
            if abs(d_ab - d_ba) > tolerance:
                problems.append(f"d({a!r},{b!r}) != d({b!r},{a!r})")
    return problems
