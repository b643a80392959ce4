"""Seeded inputs for the end-to-end benchmark, plus reference counts.

Every table is built from one ``random.Random(seed)`` stream, so a seed
names its inputs exactly.  Rows describe addresses: an *entity* ``a``
fixes the name, street position, zip, city and state, so the planted
dependencies hold by construction and a small, seeded share of rows is
perturbed to violate them (the "dependencies plus sparse noise" shape
of the synthetic-data literature).

:func:`reference_counts` recounts the ``check-100k`` violations with
NumPy, without importing the program, so the benchmark can check the
CLI's per-rule output for any seed.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: The address schema shared by ``check-100k`` and the ingest workloads.
ADDRESS_SCHEMA = [
    ("name", "categorical"),
    ("street", "numerical"),
    ("zip", "categorical"),
    ("city", "categorical"),
    ("state", "categorical"),
    ("day", "numerical"),
    ("price", "numerical"),
    ("subtotal", "numerical"),
    ("taxes", "numerical"),
]
COLUMNS = [name for name, _ in ADDRESS_SCHEMA]

FD_ZIP_CITY = {"kind": "FD", "lhs": ["zip"], "rhs": ["city"]}
OD_DAY_SUBTOTAL = {"kind": "OD", "lhs": ["day"], "rhs": [["subtotal", "<="]]}

CHECK_RULES = [
    FD_ZIP_CITY,
    {"kind": "MFD", "lhs": ["name"], "rhs": ["price"], "delta": 10},
    OD_DAY_SUBTOTAL,
    {"kind": "MD", "lhs": {"street": 0.5}, "rhs": ["name"]},
    {"kind": "DC", "predicates": [
        {"attr1": "subtotal", "op": "<", "attr2": "subtotal"},
        {"attr1": "taxes", "op": ">", "attr2": "taxes"},
    ]},
]

INGEST_FD_RULES = [
    FD_ZIP_CITY,
    {"kind": "FD", "lhs": ["zip"], "rhs": ["state"]},
    {"kind": "AFD", "lhs": ["city"], "rhs": ["state"], "max_error": 0.05},
]

INGEST_REPROBE_RULES = INGEST_FD_RULES + [
    {"kind": "MD", "lhs": {"street": 0.5}, "rhs": ["zip"]},
    OD_DAY_SUBTOTAL,
]

#: Share of generated rows with one planted violation, split evenly
#: over the five perturbations of :func:`_address_row`.
NOISE = 0.01

#: Each ingest batch: fresh rows inserted, cities updated.
BATCH_INSERTS = 95
BATCH_UPDATES = 5


def _address_row(rng: random.Random, entity: int, noise: bool) -> list[Any]:
    """One row for ``entity``; with ``noise``, one planted violation."""
    street = entity * 2.0 + rng.uniform(-0.2, 0.2)
    city = f"c{entity // 4}"
    price = 100.0 + entity % 300 + rng.uniform(-4.0, 4.0)
    day = rng.uniform(0.0, 3650.0)
    subtotal = day * 10.0
    taxes = subtotal * 0.1
    kind = rng.randrange(5) if noise else -1
    if kind == 0:
        city = f"typo{rng.randrange(10**9)}"
    elif kind == 1:
        price += rng.choice((-1.0, 1.0)) * rng.uniform(25.0, 60.0)
    elif kind == 2:
        subtotal += rng.uniform(0.5, 2.0)
    elif kind == 3:
        # Into reach of a neighbouring entity's rows, out of its own.
        street += rng.choice((-1.0, 1.0)) * rng.uniform(1.3, 1.7)
    elif kind == 4:
        taxes += rng.uniform(0.05, 0.2)
    return [
        f"n{entity}",
        round(street, 4),
        f"z{entity}",
        city,
        f"s{entity // 400}",
        round(day, 4),
        round(price, 2),
        round(subtotal, 4),
        round(taxes, 4),
    ]


def address_rows(rng: random.Random, n: int, entities: int) -> list[list[Any]]:
    """``n`` rows over a pool of ``entities``."""
    return [
        _address_row(rng, rng.randrange(entities), rng.random() < NOISE)
        for _ in range(n)
    ]


def write_csv(path: Path, rows: list[list[Any]], columns: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


# -- check-100k reference counts -------------------------------------------


def _strict_inversions(values: np.ndarray) -> int:
    """Pairs ``i < j`` with ``values[i] > values[j]`` (bottom-up merge)."""
    n = len(values)
    _, ranks = np.unique(values, return_inverse=True)
    ranks = ranks.astype(np.int64)
    stride = np.int64(n + 1)
    total = 0
    width = 1
    while width < n:
        idx = np.arange(n)
        pair = idx // (2 * width)
        left = (idx // width) % 2 == 0
        keys = pair * stride + ranks
        left_keys = keys[left]  # sorted: each left block is sorted
        right_keys = keys[~left]
        right_pair = pair[~left]
        # Left elements of the same pair that are strictly greater.
        pair_end = np.searchsorted(left_keys, (right_pair + 1) * stride)
        not_greater = np.searchsorted(left_keys, right_keys, side="right")
        total += int((pair_end - not_greater).sum())
        # Merge: each 2w-block becomes sorted by rank.
        ranks = ranks[np.lexsort((ranks, pair))]
        width *= 2
    return total


def _group_pairs(keys: list[Any], values: list[Any], bad) -> int:
    """Pairs sharing a key whose values satisfy ``bad(u, v)``."""
    groups: dict[Any, list[Any]] = {}
    for k, v in zip(keys, values):
        groups.setdefault(k, []).append(v)
    count = 0
    for members in groups.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if bad(members[i], members[j]):
                    count += 1
    return count


def reference_counts(rows: list[list[Any]]) -> list[int]:
    """Violation counts of :data:`CHECK_RULES` on ``rows``, in order.

    Each count is of unordered violating tuple pairs, as ``repro check``
    reports them.  FD and MFD count within key groups; the OD and the DC
    are inversion counts; the MD scans street-sorted neighbours.
    """
    col = {name: [r[i] for r in rows] for i, name in enumerate(COLUMNS)}
    fd = _group_pairs(col["zip"], col["city"], lambda u, v: u != v)
    mfd = _group_pairs(
        col["name"], col["price"], lambda u, v: abs(u - v) > 10
    )
    day = np.array(col["day"])
    subtotal = np.array(col["subtotal"])
    taxes = np.array(col["taxes"])
    # OD day<= -> subtotal<=: a same-day pair violates when subtotals
    # differ, so ties sort by descending subtotal to count as inversions.
    od = _strict_inversions(subtotal[np.lexsort((-subtotal, day))])
    # DC not(a.subtotal < b.subtotal and a.taxes > b.taxes): same-subtotal
    # pairs never violate, so ties sort by ascending taxes.
    dc = _strict_inversions(taxes[np.lexsort((taxes, subtotal))])
    street = np.array(col["street"])
    order = np.argsort(street, kind="stable")
    s = street[order]
    names = np.array(col["name"])[order]
    md = 0
    k = 1
    while k < len(s):
        close = (s[k:] - s[:-k]) <= 0.5
        if not close.any():
            break
        md += int((close & (names[k:] != names[:-k])).sum())
        k += 1
    return [fd, mfd, od, md, dc]


# -- ingest streams --------------------------------------------------------


@dataclass
class IngestStream:
    """A seeded changefeed producer with a local copy of the relation.

    Each batch inserts fresh rows and updates a few cities: 80% of the
    updates repair a city (a known-dirty row when there is one), 20%
    inject a typo, so the violation count stays bounded as the tenant
    grows.  ``rows`` mirrors every acknowledged change, which is what
    the cold recount checks the server against.
    """

    rng: random.Random
    entities: int
    rows: list[list[Any]]
    dirty: set[int] = field(init=False)

    def __post_init__(self) -> None:
        self.dirty = {
            i for i, r in enumerate(self.rows) if r[3] != _clean_city(r)
        }

    def next_batch(self) -> dict[str, Any]:
        rng = self.rng
        inserted = address_rows(rng, BATCH_INSERTS, self.entities)
        typos = BATCH_UPDATES // 5
        repairs = sorted(self.dirty)[: BATCH_UPDATES - typos]
        while len(repairs) < BATCH_UPDATES - typos:
            repairs.append(rng.randrange(len(self.rows)))
        updates = [
            {"row": row, "set": {"city": _clean_city(self.rows[row])}}
            for row in repairs
        ]
        for _ in range(typos):
            row = rng.randrange(len(self.rows))
            city = f"typo{rng.randrange(10**9)}"
            updates.append({"row": row, "set": {"city": city}})
        return {"insert": inserted, "update": updates}

    def acknowledge(self, batch: dict[str, Any]) -> None:
        """Fold an acknowledged batch into the local copy."""
        for update in batch["update"]:
            row = update["row"]
            self.rows[row][3] = update["set"]["city"]
            if self.rows[row][3] == _clean_city(self.rows[row]):
                self.dirty.discard(row)
            else:
                self.dirty.add(row)
        start = len(self.rows)
        self.rows.extend(list(r) for r in batch["insert"])
        for i, r in enumerate(batch["insert"]):
            if r[3] != _clean_city(r):
                self.dirty.add(start + i)


def _clean_city(row: list[Any]) -> str:
    return f"c{int(row[2][1:]) // 4}"


def ingest_stream(seed: int, seed_rows: int) -> IngestStream:
    rng = random.Random(seed)
    entities = 20_000
    return IngestStream(
        rng=rng, entities=entities, rows=address_rows(rng, seed_rows, entities)
    )


# -- discovery table -------------------------------------------------------

DISCOVERY_SCHEMA = [
    ("zip", "categorical"),
    ("city", "categorical"),
    ("state", "categorical"),
    ("region", "categorical"),
    ("category", "categorical"),
    ("price", "numerical"),
    ("nights", "numerical"),
    ("subtotal", "numerical"),
]


def discovery_rows(seed: int, n: int, zips: int = 100) -> list[list[Any]]:
    """A zip -> city -> state -> region hierarchy with 1% city noise,
    category-driven prices, and subtotal = nights * price.

    Zips are dealt round-robin, so every zip has the same support and
    the number of constant CFDs (most of the rules found) barely
    depends on the seed; the seed places the noise, categories and
    nights.
    """
    rng = random.Random(seed)
    base_price = [40.0, 65.0, 90.0, 120.0, 180.0]
    rows = []
    for i in range(n):
        z = i % zips
        city = f"c{z // 4}"
        if rng.random() < 0.01:
            city = f"c{rng.randrange(zips // 4)}"
        category = rng.randrange(len(base_price))
        nights = rng.randrange(1, 15)
        price = base_price[category]
        rows.append([
            f"z{z}",
            city,
            f"s{z // 20}",
            f"r{z // 40}",
            f"k{category}",
            price,
            float(nights),
            nights * price,
        ])
    return rows
