"""Weighted co-occurrence graph over class and concept nodes.

A record "contains" its class label and each of its concepts. The graph has
one node per class and per concept; the weight of an undirected edge is the
number of records containing both endpoints. Class-class edges cannot occur
because every record has exactly one label. Edges with weight below
``min_support`` are dropped at build time.

Node identity is (kind, index) where index points into the dataset's sorted
class or concept list, so equal datasets yield equal graphs. Node positions
follow ``nodes()``: class nodes first, then concept nodes, each block in
lexicographic name order; each node's neighbors are one ``int`` bitset over
those positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .dataset import Dataset

__all__ = [
    "NodeKind",
    "NodeId",
    "CooccurrenceGraph",
    "build_graph",
    "to_dot",
    "to_json_graph",
]


class NodeKind(IntEnum):
    CLASS = 0
    CONCEPT = 1


@dataclass(frozen=True, order=True)
class NodeId:
    """Stable node handle: kind plus index into the sorted name list."""

    kind: NodeKind
    index: int


@dataclass(frozen=True)
class CooccurrenceGraph:
    """Immutable undirected weighted graph of classes and concepts.

    ``weights`` maps canonical pairs (a, b) with a < b to positive counts;
    ``adjacency[p]`` is the bitset of the neighbors of the node at position p
    of ``nodes()`` (bit q set for the neighbor at position q). Instances are
    value objects: building twice from the same dataset gives equal graphs.
    """

    classes: tuple[str, ...]
    concepts: tuple[str, ...]
    weights: dict[tuple[NodeId, NodeId], int]
    adjacency: tuple[int, ...]
    min_support: int

    def name(self, node: NodeId) -> str:
        pool = self.classes if node.kind == NodeKind.CLASS else self.concepts
        return pool[node.index]

    def class_node(self, label: str) -> NodeId:
        return NodeId(NodeKind.CLASS, self.classes.index(label))

    def concept_node(self, name: str) -> NodeId:
        return NodeId(NodeKind.CONCEPT, self.concepts.index(name))

    def nodes(self) -> tuple[NodeId, ...]:
        return tuple(
            [NodeId(NodeKind.CLASS, i) for i in range(len(self.classes))]
            + [NodeId(NodeKind.CONCEPT, i) for i in range(len(self.concepts))]
        )

    def _position(self, node: NodeId) -> int:
        """Index of node in ``nodes()``; ValueError for a node not in the graph."""
        pool = self.classes if node.kind == NodeKind.CLASS else self.concepts
        if not 0 <= node.index < len(pool):
            raise ValueError(f"unknown node: {node!r}")
        return node.index if node.kind == NodeKind.CLASS else len(self.classes) + node.index

    def weight(self, a: NodeId, b: NodeId) -> int:
        """Weight of edge {a, b}; 0 if absent. Symmetric in its arguments."""
        self._position(a)
        self._position(b)
        if a == b:
            raise ValueError(f"self-pair: {self.name(a)!r}")
        if b < a:
            a, b = b, a
        return self.weights.get((a, b), 0)

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Nodes sharing an edge with node, sorted; empty for isolated nodes."""
        bits = self.adjacency[self._position(node)]
        return tuple(n for p, n in enumerate(self.nodes()) if bits >> p & 1)

    def degree(self, node: NodeId) -> int:
        return self.adjacency[self._position(node)].bit_count()


def build_graph(dataset: Dataset, min_support: int = 1) -> CooccurrenceGraph:
    """Weigh each node pair by a popcount over the record bitsets ``dataset.masks``.

    Weight = ``(masks[a] & masks[b]).bit_count()``: C*(C-1)/2 popcounts over
    n-bit sets for C names and n records, however many concepts a record has.
    """
    if min_support < 1:
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    masks = dataset.masks
    nodes = [(NodeId(NodeKind.CLASS, i), masks[y]) for i, y in enumerate(dataset.classes)]
    nodes += [(NodeId(NodeKind.CONCEPT, i), masks[c]) for i, c in enumerate(dataset.concepts)]

    weights: dict[tuple[NodeId, NodeId], int] = {}
    adjacency = [0] * len(nodes)
    for i, (a, mask_a) in enumerate(nodes):
        for j, (b, mask_b) in enumerate(nodes[i + 1 :], i + 1):  # nodes is sorted, so a < b
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
    for (a, b), w in sorted(graph.weights.items()):
        lines.append(f"  {_dot_quote(graph.name(a))} -- {_dot_quote(graph.name(b))} [weight={w}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_graph(graph: CooccurrenceGraph) -> dict:
    """Plain-dict graph form: {"nodes": [{name, kind}], "edges": [{a, b, w}]}."""
    nodes = [{"name": label, "kind": "class"} for label in graph.classes]
    nodes += [{"name": name, "kind": "concept"} for name in graph.concepts]
    edges = [
        {"a": graph.name(a), "b": graph.name(b), "w": w}
        for (a, b), w in sorted(graph.weights.items())
    ]
    return {"nodes": nodes, "edges": edges}
