"""Weighted co-occurrence graph over class and concept nodes.

A record "contains" its class label and each of its concepts. The graph has
one node per class and per concept; the weight of an undirected edge is the
number of records containing both endpoints. Class-class edges cannot occur
because every record has exactly one label. Edges with weight below
``min_support`` are dropped at build time.

Node identity is (kind, index) where index points into the dataset's sorted
class or concept list, so equal datasets yield equal graphs. The adjacency
order is deterministic: class nodes first, then concept nodes, each block in
lexicographic name order.
"""

from __future__ import annotations

import hashlib
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
    ``adjacency`` holds each node's sorted neighbor tuple. Instances are
    value objects: building twice from the same dataset gives equal graphs.
    """

    classes: tuple[str, ...]
    concepts: tuple[str, ...]
    weights: dict[tuple[NodeId, NodeId], int]
    adjacency: dict[NodeId, tuple[NodeId, ...]]
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

    def _check_node(self, node: NodeId) -> None:
        pool = self.classes if node.kind == NodeKind.CLASS else self.concepts
        if not 0 <= node.index < len(pool):
            raise ValueError(f"unknown node: {node!r}")

    def weight(self, a: NodeId, b: NodeId) -> int:
        """Weight of edge {a, b}; 0 if absent. Symmetric in its arguments."""
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise ValueError(f"self-pair: {self.name(a)!r}")
        if b < a:
            a, b = b, a
        return self.weights.get((a, b), 0)

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        """Nodes sharing an edge with node, sorted; empty for isolated nodes."""
        self._check_node(node)
        return self.adjacency.get(node, ())

    def degree(self, node: NodeId) -> int:
        self._check_node(node)
        return len(self.adjacency.get(node, ()))

    def has_edge(self, a: NodeId, b: NodeId) -> bool:
        return self.weight(a, b) > 0

    def fingerprint(self) -> str:
        """sha256 over the canonical node and edge listing."""
        h = hashlib.sha256()
        h.update(repr((self.classes, self.concepts, self.min_support)).encode("utf-8"))
        for (a, b), w in sorted(self.weights.items()):
            h.update(f"{a.kind}:{a.index}-{b.kind}:{b.index}={w};".encode("ascii"))
        return h.hexdigest()


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
    adjacency: dict[NodeId, list[NodeId]] = {}
    for i, (a, mask_a) in enumerate(nodes):
        for b, mask_b in nodes[i + 1 :]:  # nodes is sorted, so a < b
            w = (mask_a & mask_b).bit_count()
            if w >= min_support:
                weights[(a, b)] = w
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
    return CooccurrenceGraph(
        classes=dataset.classes,
        concepts=dataset.concepts,
        weights=weights,
        adjacency={node: tuple(sorted(nbrs)) for node, nbrs in adjacency.items()},
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
