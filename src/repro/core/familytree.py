"""The family tree of extensions (Fig. 1A) — executable.

Each arrow of the paper's Fig. 1, e.g. FDs -> SFDs, claims that the
target notation *subsumes* the source: every source dependency can be
written as a special target dependency.  This module makes each arrow a
first-class :class:`ExtensionEdge` carrying

* the **embedding** — a function rewriting a source dependency instance
  into the target formalism (``SFD.from_fd``, ``DC.from_od_all``, ...);
* the **paper section** justifying the arrow;
* whether the embedding is a semantic **equivalence** (``embed(d)``
  holds iff ``d`` holds, the usual case: FD = SFD with s = 1) or a
  one-way **implication** (``d`` holds ⇒ ``embed(d)`` holds — the
  FD -> MVD arrow, where FDs are a strict special case, and the
  OD -> SD arrow, where ties on the ordered attribute are invisible to
  the sequence semantics).

:func:`verify_edge` checks the claimed relationship empirically on any
relations you hand it — the property-based tests drive it with random
relations, which is this reproduction's evidence for Fig. 1A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

from ..relation.relation import Relation
from .base import Conjunction, Dependency
from .categorical import AFD, AMVD, CFD, ECFD, FD, FHD, MVD, NUD, PFD, SFD
from .heterogeneous import CD, CDD, DD, FFD, MD, MFD, NED, PAC
from .heterogeneous.md import CMD
from .numerical import CSD, DC, OD, OFD, SD

if TYPE_CHECKING:  # pragma: no cover - typing only (imported on first use)
    import networkx as nx

Embedding = Callable[[Dependency], Dependency]


@dataclass(frozen=True)
class ExtensionEdge:
    """One arrow of Fig. 1A: ``target`` extends/generalizes ``source``."""

    source: str
    target: str
    section: str
    embed: Embedding
    equivalence: bool = True
    note: str = ""

    def __str__(self) -> str:
        rel = "≡" if self.equivalence else "⇒"
        return f"{self.source} -> {self.target} ({rel}, §{self.section})"


def _embed_od_to_dc(dep: OD) -> Dependency:
    dcs = DC.from_od_all(dep)
    return dcs[0] if len(dcs) == 1 else Conjunction(dcs)


def _embed_ecfd_to_dc(dep: ECFD) -> Dependency:
    dcs = DC.from_ecfd_all(dep)
    return dcs[0] if len(dcs) == 1 else Conjunction(dcs)


#: All arrows of Fig. 1A.  Node names follow the survey's abbreviations.
EDGES: tuple[ExtensionEdge, ...] = (
    # Categorical branch
    ExtensionEdge("FD", "SFD", "2.1.2", SFD.from_fd,
                  note="FDs are SFDs with strength 1"),
    ExtensionEdge("FD", "PFD", "2.2.2", PFD.from_fd,
                  note="FDs are PFDs with probability 1"),
    ExtensionEdge("FD", "AFD", "2.3.2", AFD.from_fd,
                  note="FDs are AFDs with g3 error 0"),
    ExtensionEdge("FD", "NUD", "2.4.2", NUD.from_fd,
                  note="FDs are NUDs with weight 1"),
    ExtensionEdge("FD", "CFD", "2.5.2", CFD.from_fd,
                  note="FDs are CFDs with all-wildcard pattern"),
    ExtensionEdge("CFD", "eCFD", "2.5.5", ECFD.from_cfd,
                  note="eCFD patterns add operator predicates"),
    ExtensionEdge("FD", "MVD", "2.6.2", MVD.from_fd, equivalence=False,
                  note="every FD is an MVD (strictly weaker semantics)"),
    ExtensionEdge("MVD", "FHD", "2.6.5", FHD.from_mvd,
                  note="MVDs are FHDs with a single branch"),
    ExtensionEdge("MVD", "AMVD", "2.6.6", AMVD.from_mvd,
                  note="MVDs are AMVDs with epsilon 0"),
    # Heterogeneous branch
    ExtensionEdge("FD", "MFD", "3.1.2", MFD.from_fd,
                  note="FDs are MFDs with delta 0"),
    ExtensionEdge("MFD", "NED", "3.2.2", NED.from_mfd,
                  note="MFDs are NEDs with LHS thresholds 0"),
    ExtensionEdge("NED", "DD", "3.3.2", DD.from_ned,
                  note="NEDs are DDs with similar-only ranges"),
    ExtensionEdge("DD", "CDD", "3.3.5", CDD.from_dd,
                  note="DDs are CDDs with the match-all condition"),
    ExtensionEdge("CFD", "CDD", "3.3.5", CDD.from_cfd,
                  note="CFD constants become the CDD condition "
                       "(variable CFDs)"),
    ExtensionEdge("NED", "CD", "3.4.2", CD.from_ned,
                  note="NEDs are CDs with single-attribute θ "
                       "(single-RHS NEDs)"),
    ExtensionEdge("NED", "PAC", "3.5.2", PAC.from_ned,
                  note="NEDs are PACs with confidence 1"),
    ExtensionEdge("FD", "FFD", "3.6.2", FFD.from_fd,
                  note="FDs are FFDs with crisp resemblance"),
    ExtensionEdge("FD", "MD", "3.7.2", MD.from_fd,
                  note="FDs are MDs with exact-match similarity"),
    ExtensionEdge("MD", "CMD", "3.7.5", CMD.from_md,
                  note="MDs are CMDs with the match-all condition"),
    # Numerical branch
    ExtensionEdge("OFD", "OD", "4.2.2", OD.from_ofd,
                  note="pointwise OFDs are all-ascending ODs"),
    ExtensionEdge("OD", "DC", "4.3.2", _embed_od_to_dc,
                  note="OD marks become DC order atoms"),
    ExtensionEdge("eCFD", "DC", "4.3.3", _embed_ecfd_to_dc,
                  note="eCFD patterns become DC constant atoms"),
    ExtensionEdge("OD", "SD", "4.4.2", SD.from_od, equivalence=False,
                  note="order marks become (-inf,0] / [0,inf) gaps; "
                       "ties on X are invisible to the sequence"),
    ExtensionEdge("SD", "CSD", "4.4.5", CSD.from_sd,
                  note="SDs are CSDs conditioned on the full range"),
)

#: Node -> the survey's data-type branch (for Fig. 1's three groups).
BRANCHES: dict[str, str] = {
    "FD": "categorical", "SFD": "categorical", "PFD": "categorical",
    "AFD": "categorical", "NUD": "categorical", "CFD": "categorical",
    "eCFD": "categorical", "MVD": "categorical", "FHD": "categorical",
    "AMVD": "categorical",
    "MFD": "heterogeneous", "NED": "heterogeneous", "DD": "heterogeneous",
    "CDD": "heterogeneous", "CD": "heterogeneous", "PAC": "heterogeneous",
    "FFD": "heterogeneous", "MD": "heterogeneous", "CMD": "heterogeneous",
    "OFD": "numerical", "OD": "numerical", "DC": "numerical",
    "SD": "numerical", "CSD": "numerical",
}

#: Notation name -> implementing class (the survey's Table 2 rows).
CLASSES: dict[str, type] = {
    "FD": FD, "SFD": SFD, "PFD": PFD, "AFD": AFD, "NUD": NUD,
    "CFD": CFD, "eCFD": ECFD, "MVD": MVD, "FHD": FHD, "AMVD": AMVD,
    "MFD": MFD, "NED": NED, "DD": DD, "CDD": CDD, "CD": CD,
    "PAC": PAC, "FFD": FFD, "MD": MD, "CMD": CMD,
    "OFD": OFD, "OD": OD, "DC": DC, "SD": SD, "CSD": CSD,
}


class FamilyTree:
    """The extension graph of Fig. 1A, queryable and verifiable."""

    def __init__(self, edges: Sequence[ExtensionEdge] = EDGES) -> None:
        self.edges = tuple(edges)

    @cached_property
    def graph(self) -> nx.DiGraph:
        """The arrows as a ``networkx.DiGraph``, built on first use (a
        command that never asks about the tree never imports networkx)."""
        import networkx as nx

        graph = nx.DiGraph()
        for name, branch in BRANCHES.items():
            graph.add_node(name, branch=branch)
        for e in self.edges:
            graph.add_edge(e.source, e.target, edge=e)
        return graph

    # -- queries -----------------------------------------------------------

    def edge(self, source: str, target: str) -> ExtensionEdge:
        data = self.graph.get_edge_data(source, target)
        if data is None:
            raise KeyError(f"no extension edge {source} -> {target}")
        return data["edge"]

    def extends(self, target: str, source: str) -> bool:
        """Does ``target`` (transitively) subsume ``source``?"""
        import networkx as nx

        return nx.has_path(self.graph, source, target)

    def generalizations(self, notation: str) -> list[str]:
        """All notations subsuming ``notation`` (its ancestors' closure)."""
        import networkx as nx

        return sorted(nx.descendants(self.graph, notation))

    def specializations(self, notation: str) -> list[str]:
        """All notations that ``notation`` subsumes."""
        import networkx as nx

        return sorted(nx.ancestors(self.graph, notation))

    def roots(self) -> list[str]:
        """Notations with no incoming extension arrow (FD and OFD)."""
        return sorted(
            n for n in self.graph.nodes if self.graph.in_degree(n) == 0
        )

    def maximal(self) -> list[str]:
        """Notations nothing further extends (the most expressive)."""
        return sorted(
            n for n in self.graph.nodes if self.graph.out_degree(n) == 0
        )

    def extension_path(self, source: str, target: str) -> list[str]:
        """One chain of arrows from ``source`` up to ``target``."""
        import networkx as nx

        return nx.shortest_path(self.graph, source, target)

    def embed_along_path(
        self, dep: Dependency, path: Sequence[str]
    ) -> Dependency:
        """Rewrite ``dep`` through consecutive embeddings along ``path``."""
        current = dep
        for a, b in zip(path, path[1:], strict=False):
            current = self.edge(a, b).embed(current)
        return current

    def by_branch(self) -> dict[str, list[str]]:
        """Fig. 1's three groups: data type -> notations."""
        out: dict[str, list[str]] = {}
        for name, branch in BRANCHES.items():
            out.setdefault(branch, []).append(name)
        return out

    def is_dag(self) -> bool:
        import networkx as nx

        return nx.is_directed_acyclic_graph(self.graph)

    def to_text(self) -> str:
        """ASCII rendering of the tree (used by the bench harness)."""
        lines = ["Family tree of extensions (arrow = generalizes):"]
        for branch, names in sorted(self.by_branch().items()):
            lines.append(f"\n[{branch}]")
            for e in self.edges:
                if BRANCHES[e.target] == branch:
                    rel = "≡" if e.equivalence else "⇒"
                    lines.append(
                        f"  {e.source:>5} --{rel}--> {e.target:<5} "
                        f"(§{e.section}) {e.note}"
                    )
        return "\n".join(lines)


@dataclass
class EdgeVerification:
    """Outcome of empirically checking one arrow on concrete relations."""

    edge: ExtensionEdge
    checked: int
    agreements: int
    counterexamples: list[tuple[int, bool, bool]]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def verify_edge(
    edge: ExtensionEdge,
    dep: Dependency,
    relations: Iterable[Relation],
) -> EdgeVerification:
    """Check the arrow's semantic claim for ``dep`` on each relation.

    For equivalence edges, ``dep.holds(r) == embed(dep).holds(r)`` must
    agree everywhere; for implication edges, ``dep.holds(r)`` must imply
    ``embed(dep).holds(r)``.
    """
    embedded = edge.embed(dep)
    checked = 0
    agreements = 0
    bad: list[tuple[int, bool, bool]] = []
    for k, r in enumerate(relations):
        child = dep.holds(r)
        parent = embedded.holds(r)
        ok = (child == parent) if edge.equivalence else (not child or parent)
        checked += 1
        if ok:
            agreements += 1
        else:
            bad.append((k, child, parent))
    return EdgeVerification(edge, checked, agreements, bad)


DEFAULT_TREE = FamilyTree()
