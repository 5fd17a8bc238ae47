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

Cost model: ``frequency_table`` writes its counts into columns, per level the
clique tuple of ``common`` and one ``array`` of ``len(classes)`` counts per
clique (8 bytes a count), and builds no per-clique dict; the adjusted table
of ``rebalance_plan`` is held the same way. The cliques whose counts differ
are found in one pass over those arrays, made on each call of
``imbalanced_cliques`` or ``rebalance_plan``; ``diagnose`` makes it once and
hands it to both. The table's ``counts`` dicts are built only when read.
Once read, or when a table is built from dicts, the dicts are the counts:
each consumer derives its columns from them on every call, so a change made
to them shows in the next result.

The imbalance list is ordered by one sort of the uneven (level, position)
pairs, keyed on each count row, and ``ImbalanceEntry`` objects are built from
the rows in that order. ``diagnose`` keeps the columns and the scan instead
(``_Imbalances``) and builds the entries only when ``Diagnosis.imbalances`` is
read; the report reads each entry's counts straight from the rows.
"""

from __future__ import annotations

import enum
import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import ne, or_
from typing import NamedTuple

from .dataset import Dataset, _LazyField
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


# Per level: the cliques, and one array holding len(classes) counts per
# clique, in clique order and then in classes order.
_Levels = dict[int, tuple[tuple[Clique, ...], array]]


class _Counts(NamedTuple):
    """A table's counts as columns; no one mutates them once built."""

    levels: _Levels


def _row(counts: array, i: int, width: int) -> array:
    """A copy of row i of ``counts``: the ``width`` counts of clique i."""
    return counts[i * width : i * width + width]


def _view(classes: tuple[str, ...], source: _Counts) -> dict[int, dict[Clique, dict[str, int]]]:
    """The dict-of-dicts ``counts`` of a table held as ``source``."""
    c = len(classes)
    return {
        k: {q: dict(zip(classes, _row(counts, i, c))) for i, q in enumerate(cliques)}
        for k, (cliques, counts) in source.levels.items()
    }


def _uneven(counts: array, width: int) -> array:
    """Positions of the rows of ``width`` counts whose counts are not all equal."""
    if width < 2:
        return array("q")
    first = counts[::width]
    differ = map(ne, first, counts[1::width])
    for j in range(2, width):
        differ = map(or_, differ, map(ne, first, counts[j::width]))
    return array("q", compress(range(len(first)), differ))


@dataclass
class CliqueFrequencyTable:
    """Per-class record counts for each common clique, grouped by level.

    ``counts[k][clique][label]`` is the number of records of that class
    containing every concept in the clique. Every class has an entry for
    every clique (zero when no record matches). ``provenance`` starts as
    ORIGINAL; planned synthetic counts flip it to ADJUSTED.

    A table from ``frequency_table`` or ``rebalance_plan`` holds, per level,
    its cliques and one ``array`` of ``len(classes)`` counts per clique;
    ``imbalanced_cliques`` and ``rebalance_plan`` read those columns.
    ``counts`` builds one dict per clique on its first read and caches them.
    From then on, as for a table built with ``counts=`` dicts, the dicts are
    the table's counts: every consumer, ``copy()`` included, reads them again
    on each call, so a change made to them shows. ``==`` and ``repr`` read
    ``counts``.
    """

    classes: tuple[str, ...]
    # Given as dicts, they are kept; given as _Counts, the first read builds them.
    counts: dict[int, dict[Clique, dict[str, int]]] = _LazyField(
        _Counts, lambda table, source: _view(table.classes, source)
    )
    provenance: Provenance = field(default=Provenance.ORIGINAL)

    def _levels(self) -> _Levels:
        """The columns; derived from ``counts`` on each call once the table holds dicts."""
        state = self.__dict__
        # The source is read first: a racing first read of counts drops it only after caching them.
        source = state["_counts_source"]
        counts = state["_counts"]
        if counts is None:
            return source.levels
        return {
            k: (tuple(level), array("q", [per[y] for per in level.values() for y in self.classes]))
            for k, level in counts.items()
        }

    def levels(self) -> tuple[int, ...]:
        counts = self.__dict__["_counts"]
        return tuple(sorted(counts if counts is not None else self._levels()))

    def copy(self) -> "CliqueFrequencyTable":
        if self.__dict__["_counts"] is None:
            # Columns are never mutated, so the copy may share them.
            counts = _Counts(self._levels())
        else:
            counts = {k: {q: dict(per) for q, per in table.items()} for k, table in self.counts.items()}
        return CliqueFrequencyTable(classes=self.classes, counts=counts, provenance=self.provenance)


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
    ANDs its last concept onto the mask of its (k-1)-prefix, which
    consecutive cliques of a sorted level share, then takes one popcount per
    class over n-bit sets; a clique that no record holds gets a zero row and
    no popcount. The counts go straight into the table's columns, one
    ``array`` per level; no per-clique dict is built.
    """
    masks = dataset.masks
    class_masks = [masks[y] for y in dataset.classes]
    zero = array("q", bytes(8 * len(class_masks)))
    levels: _Levels = {}
    for k, cliques in common.items():
        counts = array("q")
        prefix: Clique | None = None
        for q in cliques:
            if q[:-1] != prefix:
                prefix, shared = q[:-1], ~0
                for c in prefix:
                    shared &= masks[c]
            mask = shared & masks[q[-1]] if q else shared
            counts.extend([(mask & m).bit_count() for m in class_masks] if mask else zero)
        levels[k] = (tuple(cliques), counts)
    return CliqueFrequencyTable(classes=dataset.classes, counts=_Counts(levels))


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


class _Imbalances(NamedTuple):
    """A table's uneven cliques: its columns and, per level that holds count
    rows, the positions its one scan found uneven. Read worst first, they are
    ``imbalanced_cliques``."""

    classes: tuple[str, ...]
    levels: _Levels
    uneven: dict[int, array]

    def worst_first(self) -> Iterator[tuple[int, int]]:
        """The uneven cliques as (level, position) pairs, worst first.

        A row's largest deficit is its max minus its min, so the key
        (min - max, size, clique) orders them by descending largest deficit,
        then ascending size, then clique. The sort holds one int per clique,
        its position times the number of levels plus its level's index.
        """
        c, levels, uneven = len(self.classes), self.levels, self.uneven
        keys = list(uneven)
        n = len(keys)

        def worst(flat: int) -> tuple[int, int, Clique]:
            cliques, counts = levels[keys[flat % n]]
            row = _row(counts, flat // n, c)
            q = cliques[flat // n]
            return min(row) - max(row), len(q), q

        order = sorted((i * n + at for at, k in enumerate(keys) for i in uneven[k]), key=worst)
        return ((keys[flat % n], flat // n) for flat in order)

    def rows(self) -> Iterator[tuple[Clique, dict[str, int], int, dict[str, int]]]:
        """Each uneven clique, worst first, with its per-class counts, their
        maximum and the per-class deficits; fresh dicts, one clique at a time."""
        classes, c = self.classes, len(self.classes)
        for k, i in self.worst_first():
            cliques, counts = self.levels[k]
            row = _row(counts, i, c)
            m = max(row)
            per = dict(zip(classes, row))
            yield cliques[i], per, m, {y: m - n for y, n in per.items() if n < m}

    def entries(self) -> tuple[ImbalanceEntry, ...]:
        entries = []
        for q, per, m, deficits in self.rows():
            lo = min(per.values())
            entries.append(ImbalanceEntry(q, per, m, deficits, tuple(sorted(y for y, n in per.items() if n == lo))))
        return tuple(entries)


def _imbalances(table: CliqueFrequencyTable) -> _Imbalances:
    """The uneven cliques of an ORIGINAL table, from one scan of its columns
    per level that holds count rows; no entry is built."""
    if table.provenance is not Provenance.ORIGINAL:
        raise ValueError("imbalance extraction needs a table with original provenance")
    levels = table._levels()
    c = len(table.classes)
    return _Imbalances(table.classes, levels, {k: _uneven(counts, c) for k, (_, counts) in levels.items() if counts})


def imbalanced_cliques(table: CliqueFrequencyTable) -> tuple[ImbalanceEntry, ...]:
    """Extract the cliques whose per-class counts differ, worst first.

    Order: descending maximum deficit, then ascending clique size, then
    lexicographic clique. Balanced cliques (all counts equal, including all
    zero) are omitted. The table must hold raw dataset counts; an adjusted
    table mixes in planned records and would report phantom balance.
    """
    return _imbalances(table).entries()
