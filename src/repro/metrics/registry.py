"""A per-attribute metric registry.

Dependencies with metric semantics (MFDs, NEDs, DDs, CDs, PACs, MDs)
need to know *which* metric applies to *which* attribute.  The
:class:`MetricRegistry` binds attribute names to metrics, with
type-aware defaults: numerical attributes fall back to absolute
difference, everything else to edit distance — matching the conventions
of the paper's examples.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..relation.schema import Attribute, AttributeType, Schema
from .base import Metric
from .numeric import ABS_DIFF
from .string import EDIT_DISTANCE


class MetricRegistry:
    """Maps attribute names to metrics, with sensible defaults."""

    def __init__(
        self,
        overrides: Mapping[str, Metric] | None = None,
        *,
        default_text: Metric = EDIT_DISTANCE,
        default_numeric: Metric = ABS_DIFF,
    ) -> None:
        self._overrides = dict(overrides or {})
        self._default_text = default_text
        self._default_numeric = default_numeric

    def bind(self, attribute: Attribute | str, metric: Metric) -> "MetricRegistry":
        """Return a new registry with one extra binding."""
        name = attribute.name if isinstance(attribute, Attribute) else attribute
        merged = dict(self._overrides)
        merged[name] = metric
        return MetricRegistry(
            merged,
            default_text=self._default_text,
            default_numeric=self._default_numeric,
        )

    def metric_for(self, attribute: Attribute | str) -> Metric:
        """The metric bound to ``attribute`` (or the type default)."""
        if isinstance(attribute, Attribute):
            if attribute.name in self._overrides:
                return self._overrides[attribute.name]
            if attribute.dtype is AttributeType.NUMERICAL:
                return self._default_numeric
            return self._default_text
        if attribute in self._overrides:
            return self._overrides[attribute]
        return self._default_text

    def for_schema(self, schema: Schema) -> dict[str, Metric]:
        """Resolve a metric for every attribute of ``schema``."""
        return {a.name: self.metric_for(a) for a in schema}


DEFAULT_REGISTRY = MetricRegistry()
