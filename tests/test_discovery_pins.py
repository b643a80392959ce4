"""Discovery output pinned across changes.

Two committed CSVs under ``tests/data/`` are profiled the way a
discovery job profiles a tenant (``profile_relation``, then the skip
decision), and the result is diffed against the JSON committed beside
each CSV: every ``[category, rule, kind, violations]`` row in order,
and the skip decision with its witnesses.  A change that alters which
rules are found, their order or their counts fails here, even when the
server and the in-process profile still agree with each other.

To regenerate, only after a change that is meant to alter discovery
output, run from the repository root::

    PYTHONPATH=src python tests/test_discovery_pins.py

It rewrites both CSVs (from the seeded generators in
``benchmarks/e2e/inputs.py``) and both JSON files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.analysis.cross_rule import _redundant_rules
from repro.profiler import profile_relation
from repro.relation import Attribute, AttributeType, Schema
from repro.relation.io import read_csv

DATA = Path(__file__).parent / "data"

#: name -> how the generator in benchmarks/e2e/inputs.py makes its rows.
PINNED = {
    "discovery_1k": "discovery_rows(1, 1000)",
    "address_2k": "address_rows(random.Random(1), 2000, 400)",
}


def pinned_output(relation: Any) -> dict[str, Any]:
    """The rules a discovery job reports for ``relation`` and its skip
    decision, as JSON-ready lists and string-keyed dicts."""
    report = profile_relation(relation)
    rules = [r.rule for r in report.rules]
    decision = _redundant_rules(rules)
    return {
        "rules": [
            [r.category, str(r.rule), r.rule.kind, r.violations]
            for r in report.rules
        ],
        "trivial": {str(i): why for i, why in decision.trivial.items()},
        "duplicate_of": {
            str(i): j for i, j in decision.duplicate_of.items()
        },
        "implied_by": {
            str(i): list(w) for i, w in decision.implied_by.items()
        },
    }


def _load(name: str) -> tuple[Any, dict[str, Any]]:
    expected = json.loads((DATA / f"{name}.json").read_text("utf-8"))
    schema = Schema([
        Attribute(n, AttributeType(t)) for n, t in expected["schema"]
    ])
    return read_csv(DATA / f"{name}.csv", schema), expected


@pytest.mark.parametrize("name", sorted(PINNED))
def test_discovery_output_is_pinned(name):
    relation, expected = _load(name)
    got = pinned_output(relation)
    assert got["rules"] == expected["rules"]
    for part in ("trivial", "duplicate_of", "implied_by"):
        assert got[part] == expected[part], part


def _regenerate() -> None:
    import random

    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "benchmarks" / "e2e"))
    import inputs

    tables = {
        "discovery_1k": (
            inputs.DISCOVERY_SCHEMA, inputs.discovery_rows(1, 1000)
        ),
        "address_2k": (
            inputs.ADDRESS_SCHEMA,
            inputs.address_rows(random.Random(1), 2000, 400),
        ),
    }
    DATA.mkdir(exist_ok=True)
    for name, (schema, rows) in tables.items():
        inputs.write_csv(DATA / f"{name}.csv", rows, [n for n, _ in schema])
        typed = Schema([Attribute(n, AttributeType(t)) for n, t in schema])
        out = {
            "source": f"benchmarks/e2e/inputs.py: {PINNED[name]}",
            "schema": [list(pair) for pair in schema],
            **pinned_output(read_csv(DATA / f"{name}.csv", typed)),
        }
        # One rule per line, so a changed rule is a one-line diff.
        rules = ",\n  ".join(json.dumps(r) for r in out.pop("rules"))
        head = ",\n ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in out.items())
        (DATA / f"{name}.json").write_text(
            f'{{\n {head},\n "rules": [\n  {rules}\n ]\n}}\n', encoding="utf-8"
        )
        print(f"{name}: {rules.count(chr(10)) + 1} rules")


if __name__ == "__main__":
    _regenerate()
