"""Weighted co-occurrence graph over class and concept nodes.

A record "contains" its class label and each of its concepts. The graph has
one node per class and per concept; the weight of an undirected edge is the
number of records containing both endpoints. Class-class edges cannot occur
because every record has exactly one label. Edges with weight below
``min_support`` are dropped at build time.

A node is addressed by its name: class and concept names are disjoint, so a
name is a unique handle, and equal datasets yield equal graphs. Node positions
follow ``nodes()``: class names first, then concept names, each block in
lexicographic order; each node's neighbors are one ``int`` bitset over those
positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dataset import Dataset

__all__ = [
    "CooccurrenceGraph",
    "build_graph",
    "to_dot",
    "to_json_graph",
]


@dataclass(frozen=True)
class CooccurrenceGraph:
    """Immutable undirected weighted graph of classes and concepts.

    ``weights`` maps name pairs (a, b), with a before b in ``nodes()``, to
    positive counts, inserted in ``nodes()`` order; ``adjacency[p]`` is the
    bitset of the neighbors of the node at position p of ``nodes()`` (bit q
    set for the neighbor at position q). Instances are value objects:
    building twice from the same dataset gives equal graphs.
    """

    classes: tuple[str, ...]
    concepts: tuple[str, ...]
    weights: dict[tuple[str, str], int]
    adjacency: tuple[int, ...]
    min_support: int

    def nodes(self) -> tuple[str, ...]:
        return self.classes + self.concepts

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Name -> index in ``nodes()``, built on the first name lookup."""
        return {name: p for p, name in enumerate(self.nodes())}

    def _position(self, name: str) -> int:
        """Index of name in ``nodes()``; ValueError for a name not in the graph."""
        try:
            return self._positions[name]
        except KeyError:
            raise ValueError(f"unknown node: {name!r}") from None

    def weight(self, a: str, b: str) -> int:
        """Weight of edge {a, b}; 0 if absent. Symmetric in its arguments."""
        pa, pb = self._position(a), self._position(b)
        if pa == pb:
            raise ValueError(f"self-pair: {a!r}")
        return self.weights.get((a, b) if pa < pb else (b, a), 0)

    def neighbors(self, name: str) -> tuple[str, ...]:
        """Names sharing an edge with name, in ``nodes()`` order; empty if isolated."""
        bits = self.adjacency[self._position(name)]
        return tuple(n for p, n in enumerate(self.nodes()) if bits >> p & 1)

    def degree(self, name: str) -> int:
        return self.adjacency[self._position(name)].bit_count()


def _check_min_support(min_support: int) -> None:
    """The one check of ``min_support``, an int >= 1 and not a bool; ``build_graph``
    and DiagnosisConfig run it."""
    if isinstance(min_support, bool) or not isinstance(min_support, int):
        raise ValueError(f"min_support must be an integer, got {min_support!r}")
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")


def build_graph(dataset: Dataset, min_support: int = 1) -> CooccurrenceGraph:
    """Weigh each node pair by a popcount over the record bitsets ``dataset.masks``.

    Weight = ``(masks[a] & masks[b]).bit_count()``: C*(C-1)/2 popcounts over
    n-bit sets for C names and n records, however many concepts a record has.
    """
    _check_min_support(min_support)
    masks = dataset.masks
    nodes = [(name, masks[name]) for name in dataset.classes + dataset.concepts]
    weights: dict[tuple[str, str], int] = {}
    adjacency = [0] * len(nodes)
    for i, (a, mask_a) in enumerate(nodes):
        for j, (b, mask_b) in enumerate(nodes[i + 1 :], i + 1):  # a comes before b in nodes()
            w = (mask_a & mask_b).bit_count()
            if w >= min_support:
                weights[(a, b)] = w
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return CooccurrenceGraph(
        classes=dataset.classes,
        concepts=dataset.concepts,
        weights=weights,
        adjacency=tuple(adjacency),
        min_support=min_support,
    )


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: CooccurrenceGraph) -> str:
    """Render as Graphviz DOT: node attr kind=class|concept, edge attr weight."""
    lines = ["graph cooccurrence {"]
    for label in graph.classes:
        lines.append(f"  {_dot_quote(label)} [kind=class];")
    for name in graph.concepts:
        lines.append(f"  {_dot_quote(name)} [kind=concept];")
    for (a, b), w in graph.weights.items():
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)} [weight={w}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_graph(graph: CooccurrenceGraph) -> dict:
    """Plain-dict graph form: {"nodes": [{name, kind}], "edges": [{a, b, w}]}."""
    nodes = [{"name": label, "kind": "class"} for label in graph.classes]
    nodes += [{"name": name, "kind": "concept"} for name in graph.concepts]
    edges = [{"a": a, "b": b, "w": w} for (a, b), w in graph.weights.items()]
    return {"nodes": nodes, "edges": edges}
