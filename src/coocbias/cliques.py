"""Clique enumeration and imbalance measurement on the co-occurrence graph.

For a class y, a size-k clique is a set of k concepts that are pairwise
connected and each connected to y; the class itself is not part of the set.
The common cliques at level k are those found for every class. Counting how
many records of each class contain all concepts of a common clique exposes
per-class imbalance: spurious class-concept correlations show up as lopsided
counts on small cliques.

Cliques are represented as sorted tuples of concept names so that equality,
hashing, and report ordering are canonical without extra bookkeeping.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .dataset import Dataset
from .graph import CooccurrenceGraph, NodeId, NodeKind

__all__ = [
    "Clique",
    "ClassCliqueSet",
    "Provenance",
    "CliqueFrequencyTable",
    "ImbalanceEntry",
    "enumerate_class_cliques",
    "common_clique_set",
    "frequency_table",
    "cooccurrence_count",
    "imbalanced_cliques",
]

Clique = tuple[str, ...]


@dataclass(frozen=True)
class ClassCliqueSet:
    """All concept cliques of one class, grouped by size.

    ``by_level[k]`` lists the size-k cliques in lexicographic order. Levels
    run from 1 to ``k_max`` inclusive; a level with no cliques is an empty
    tuple. ``graph_fingerprint`` ties the result to the graph it came from.
    """

    label: str
    k_max: int
    by_level: dict[int, tuple[Clique, ...]]
    graph_fingerprint: str

    def level(self, k: int) -> tuple[Clique, ...]:
        return self.by_level.get(k, ())

    @property
    def max_k(self) -> int:
        """Largest size with at least one clique; 0 when there are none."""
        return max((k for k, v in self.by_level.items() if v), default=0)


def enumerate_class_cliques(
    graph: CooccurrenceGraph, label: str, k_max: int
) -> ClassCliqueSet:
    """List concept cliques around one class, by size, up to k_max.

    Depth-first expansion over the class's concept neighbors in sorted order:
    each clique is extended only with higher-indexed candidates adjacent to
    every current member, so each clique is produced exactly once and each
    level comes out lexicographically sorted.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if label not in graph.classes:
        raise ValueError(f"unknown class: {label!r}")
    cls = graph.class_node(label)
    anchor = [n for n in graph.neighbors(cls) if n.kind == NodeKind.CONCEPT]
    weights = graph.weights  # candidates stay sorted, so (node, c) is canonical

    by_level: dict[int, list[Clique]] = {k: [] for k in range(1, k_max + 1)}

    def expand(clique: list[NodeId], candidates: list[NodeId]) -> None:
        if clique:
            by_level[len(clique)].append(tuple(graph.name(n) for n in clique))
        if len(clique) == k_max:
            return
        for i, node in enumerate(candidates):
            extended = [c for c in candidates[i + 1 :] if (node, c) in weights]
            expand(clique + [node], extended)

    expand([], anchor)
    return ClassCliqueSet(
        label=label,
        k_max=k_max,
        by_level={k: tuple(v) for k, v in by_level.items()},
        graph_fingerprint=graph.fingerprint(),
    )


def common_clique_set(
    per_class: list[ClassCliqueSet], relax_fraction: float | None = None
) -> dict[int, tuple[Clique, ...]]:
    """Intersect clique sets across classes, level by level.

    By default a clique must appear for every class. With ``relax_fraction``
    set (0 < f <= 1), appearing for at least ceil(f * n_classes) classes is
    enough; f = 1.0 reproduces the strict intersection.
    """
    if not per_class:
        raise ValueError("no class clique sets given")
    fingerprints = {s.graph_fingerprint for s in per_class}
    if len(fingerprints) > 1:
        raise ValueError("class clique sets come from different graphs")
    k_maxes = {s.k_max for s in per_class}
    if len(k_maxes) > 1:
        raise ValueError(f"class clique sets have mixed k_max: {sorted(k_maxes)!r}")
    labels = [s.label for s in per_class]
    if len(set(labels)) < len(labels):
        raise ValueError("duplicate class in clique sets")
    if relax_fraction is not None and not 0.0 < relax_fraction <= 1.0:
        raise ValueError(f"relax_fraction must be in (0, 1], got {relax_fraction}")

    k_max = per_class[0].k_max
    if relax_fraction is None:
        needed = len(per_class)
    else:
        needed = max(1, math.ceil(relax_fraction * len(per_class)))

    out: dict[int, tuple[Clique, ...]] = {}
    for k in range(1, k_max + 1):
        tallies: dict[Clique, int] = {}
        for s in per_class:
            for q in s.level(k):
                tallies[q] = tallies.get(q, 0) + 1
        out[k] = tuple(sorted(q for q, n in tallies.items() if n >= needed))
    return out


class Provenance(enum.Enum):
    """Whether a frequency table still holds raw dataset counts."""

    ORIGINAL = "original"
    ADJUSTED = "adjusted"


@dataclass
class CliqueFrequencyTable:
    """Per-class record counts for each common clique, grouped by level.

    ``counts[k][clique][label]`` is the number of records of that class
    containing every concept in the clique. Every class has an entry for
    every clique (zero when no record matches). ``provenance`` starts as
    ORIGINAL; planned synthetic counts flip it to ADJUSTED.
    """

    classes: tuple[str, ...]
    counts: dict[int, dict[Clique, dict[str, int]]]
    provenance: Provenance = field(default=Provenance.ORIGINAL)

    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))

    def copy(self) -> "CliqueFrequencyTable":
        return CliqueFrequencyTable(
            classes=self.classes,
            counts={
                k: {q: dict(per) for q, per in table.items()}
                for k, table in self.counts.items()
            },
            provenance=self.provenance,
        )


def cooccurrence_count(dataset: Dataset, label: str, clique: Clique) -> int:
    """Number of records with the given label containing every clique concept."""
    if label not in set(dataset.classes):
        raise ValueError(f"unknown class: {label!r}")
    if not clique:
        raise ValueError("empty clique")
    unknown = set(clique) - set(dataset.concepts)
    if unknown:
        raise ValueError(f"unknown concepts: {sorted(unknown)!r}")
    mask = dataset.masks[label]
    for c in clique:
        mask &= dataset.masks[c]
    return mask.bit_count()


def frequency_table(
    dataset: Dataset, common: dict[int, tuple[Clique, ...]]
) -> CliqueFrequencyTable:
    """Count records per (clique, class) for every common clique.

    A clique's count for a class is the popcount of its concepts' record
    bitsets (``dataset.masks``) ANDed with the class's bitset. Each clique
    costs k ANDs plus one popcount per class over n-bit sets; cliques
    sharing a prefix redo the prefix's ANDs.
    """
    masks = dataset.masks
    counts: dict[int, dict[Clique, dict[str, int]]] = {}
    for k, cliques in common.items():
        level: dict[Clique, dict[str, int]] = {}
        for q in cliques:
            mask = ~0
            for c in q:
                mask &= masks[c]
            level[q] = {y: (mask & masks[y]).bit_count() for y in dataset.classes}
        counts[k] = level
    return CliqueFrequencyTable(classes=dataset.classes, counts=counts)


@dataclass(frozen=True)
class ImbalanceEntry:
    """One unevenly covered clique: per-class counts and per-class shortfalls.

    ``deficits`` maps each class whose count is below the maximum to the
    difference; ``under_represented`` are the classes attaining the minimum.
    """

    concepts: Clique
    per_class: dict[str, int]
    max_count: int
    deficits: dict[str, int]
    under_represented: tuple[str, ...]


def imbalanced_cliques(table: CliqueFrequencyTable) -> tuple[ImbalanceEntry, ...]:
    """Extract the cliques whose per-class counts differ, worst first.

    Order: descending maximum deficit, then ascending clique size, then
    lexicographic clique. Balanced cliques (all counts equal, including all
    zero) are omitted. The table must hold raw dataset counts; an adjusted
    table mixes in planned records and would report phantom balance.
    """
    if table.provenance is not Provenance.ORIGINAL:
        raise ValueError("imbalance extraction needs a table with original provenance")
    entries: list[ImbalanceEntry] = []
    for k in table.levels():
        for q, per in table.counts[k].items():
            values = set(per.values())
            if len(values) <= 1:
                continue
            m = max(values)
            lo = min(values)
            deficits = {y: m - n for y, n in per.items() if n < m}
            entries.append(
                ImbalanceEntry(
                    concepts=q,
                    per_class=dict(per),
                    max_count=m,
                    deficits=deficits,
                    under_represented=tuple(sorted(y for y, n in per.items() if n == lo)),
                )
            )
    entries.sort(key=lambda e: (-max(e.deficits.values()), len(e.concepts), e.concepts))
    return tuple(entries)
