"""Clique enumeration and imbalance measurement on the co-occurrence graph.

For a class y, a size-k clique is a set of k concepts that are pairwise
connected and each connected to y; the class itself is not part of the set.
The common cliques at level k are those found for every class. Counting how
many records of each class contain all concepts of a common clique exposes
per-class imbalance: spurious class-concept correlations show up as lopsided
counts on small cliques.

Per-class and common cliques come from one depth-first search over the
graph's adjacency bitsets that prunes a branch once too few classes remain,
so the common cliques cost no per-class lists. ``diagnose`` runs it over all
classes through ``common_cliques``; the other entry points are per class.

Cliques are represented as sorted tuples of concept names so that equality,
hashing, and report ordering are canonical without extra bookkeeping.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .dataset import Dataset
from .graph import CooccurrenceGraph

__all__ = [
    "Clique",
    "ClassCliqueSet",
    "Provenance",
    "CliqueFrequencyTable",
    "ImbalanceEntry",
    "enumerate_class_cliques",
    "common_clique_set",
    "common_cliques",
    "frequency_table",
    "cooccurrence_count",
    "imbalanced_cliques",
]

Clique = tuple[str, ...]


def _check_search(k_max: int, relax_fraction: float | None) -> None:
    """The one check of ``k_max`` (an int >= 1) and ``relax_fraction`` (None or a
    number in (0, 1]), neither a bool; every entry point and DiagnosisConfig run it."""
    if isinstance(k_max, bool) or not isinstance(k_max, int):
        raise ValueError(f"k_max must be an integer, got {k_max!r}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if relax_fraction is None:
        return
    if isinstance(relax_fraction, bool) or not isinstance(relax_fraction, (int, float)):
        raise ValueError(f"relax_fraction must be a number, got {relax_fraction!r}")
    if not 0.0 < relax_fraction <= 1.0:
        raise ValueError(f"relax_fraction must be in (0, 1], got {relax_fraction}")


def _search(
    graph: CooccurrenceGraph, labels: int, relax_fraction: float | None, k_max: int
) -> dict[int, tuple[Clique, ...]]:
    """Concept cliques adjacent to all n classes in the bitset ``labels``, or
    with ``relax_fraction`` f set (0 < f <= 1) to at least ceil(f * n) of them.

    Depth-first over concepts in sorted order; a branch carries the candidates
    and the classes adjacent to every member, and stops once too few remain.
    Each clique is produced once, and each level comes out sorted.
    """
    n = labels.bit_count()
    needed = n if relax_fraction is None else math.ceil(relax_fraction * n)
    adjacency = graph.adjacency
    concepts = graph.concepts
    offset = len(graph.classes)
    by_level: dict[int, list[Clique]] = {k: [] for k in range(1, k_max + 1)}

    def expand(clique: Clique, candidates: int, classes: int) -> None:
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            p = low.bit_length() - 1
            shared = classes & adjacency[p]
            if shared.bit_count() < needed:
                continue
            grown = clique + (concepts[p - offset],)
            by_level[len(grown)].append(grown)
            if len(grown) < k_max:
                expand(grown, candidates & adjacency[p], shared)

    expand((), ((1 << len(concepts)) - 1) << offset, labels)
    return {k: tuple(v) for k, v in by_level.items()}


@dataclass(frozen=True)
class ClassCliqueSet:
    """All concept cliques of one class, grouped by size.

    ``by_level[k]`` lists the size-k cliques in lexicographic order. Levels
    run from 1 to ``k_max`` inclusive; a level with no cliques is an empty
    tuple. Building one checks ``k_max`` as every entry point does and that
    ``label`` is one of the graph's classes, raising ValueError otherwise;
    ``by_level`` is computed from ``graph`` on first access.
    """

    label: str
    k_max: int
    graph: CooccurrenceGraph = field(repr=False)

    def __post_init__(self) -> None:
        _check_search(self.k_max, None)
        if self.label not in self.graph.classes:
            raise ValueError(f"unknown class: {self.label!r}")

    @cached_property
    def by_level(self) -> dict[int, tuple[Clique, ...]]:
        return _search(self.graph, 1 << self.graph.classes.index(self.label), None, self.k_max)

    def level(self, k: int) -> tuple[Clique, ...]:
        return self.by_level.get(k, ())

    @property
    def max_k(self) -> int:
        """Largest size with at least one clique; 0 when there are none."""
        return max((k for k, v in self.by_level.items() if v), default=0)


def enumerate_class_cliques(
    graph: CooccurrenceGraph, label: str, k_max: int
) -> ClassCliqueSet:
    """Concept cliques around one class, by size, up to k_max.

    The ``ClassCliqueSet`` checks the arguments when built; the cliques are
    listed when its ``by_level`` is first read.
    """
    return ClassCliqueSet(label=label, k_max=k_max, graph=graph)


def common_clique_set(
    per_class: list[ClassCliqueSet], relax_fraction: float | None = None
) -> dict[int, tuple[Clique, ...]]:
    """Cliques shared across classes, level by level.

    By default a clique must appear for every class. With ``relax_fraction``
    set (0 < f <= 1), appearing for at least ceil(f * n_classes) classes is
    enough; f = 1.0 reproduces the strict intersection. One search over the
    given classes finds them; no class's own clique list is computed.
    """
    if not per_class:
        raise ValueError("no class clique sets given")
    graph = per_class[0].graph
    if any(s.graph != graph for s in per_class):
        raise ValueError("class clique sets come from different graphs")
    k_maxes = {s.k_max for s in per_class}
    if len(k_maxes) > 1:
        raise ValueError(f"class clique sets have mixed k_max: {sorted(k_maxes)!r}")
    labels = [s.label for s in per_class]
    if len(set(labels)) < len(labels):
        raise ValueError("duplicate class in clique sets")
    _check_search(per_class[0].k_max, relax_fraction)
    bits = sum(1 << graph.classes.index(y) for y in labels)  # labels are distinct
    return _search(graph, bits, relax_fraction, per_class[0].k_max)


def common_cliques(
    graph: CooccurrenceGraph, k_max: int, relax_fraction: float | None = None
) -> dict[int, tuple[Clique, ...]]:
    """Cliques shared across all of the graph's classes, level by level: what
    ``common_clique_set`` finds over one set per class, without those sets."""
    _check_search(k_max, relax_fraction)
    return _search(graph, (1 << len(graph.classes)) - 1, relax_fraction, k_max)


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


def _not_str(clique: Clique) -> None:
    """Reject a str, which would otherwise be read as a clique of its characters."""
    if isinstance(clique, str):
        raise ValueError(f"a clique is a tuple of concept names, not a str: {clique!r}")


def cooccurrence_count(dataset: Dataset, label: str, clique: Clique) -> int:
    """Number of records with the given label containing every clique concept."""
    _not_str(clique)
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


@dataclass(frozen=True, slots=True)
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


def _uneven(level: dict[Clique, dict[str, int]]) -> Iterator[tuple[Clique, dict[str, int]]]:
    """The cliques of one level whose per-class counts differ, with those counts."""
    return ((q, per) for q, per in level.items() if len(set(per.values())) > 1)


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
        for q, per in _uneven(table.counts[k]):
            m = max(per.values())
            lo = min(per.values())
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
