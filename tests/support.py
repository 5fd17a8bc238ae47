"""Shared fixtures-in-code: naive oracles, random dataset generators, strategies.

The oracles here deliberately reimplement the counting definitions by direct
per-record scans and exhaustive subset checks. They share no code with the
package beyond the record type, so agreement between the two is evidence,
not tautology.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations

from hypothesis import strategies as st

from coocbias.dataset import AnnotationRecord, Dataset

D4_RECORDS = (
    AnnotationRecord("r1", "A", ("x", "y")),
    AnnotationRecord("r2", "A", ("x",)),
    AnnotationRecord("r3", "B", ("y",)),
    AnnotationRecord("r4", "B", ("x", "y")),
)

D4_JSONL = (
    '{"id":"r1","label":"A","concepts":["x","y"]}\n'
    '{"id":"r2","label":"A","concepts":["x"]}\n'
    '{"id":"r3","label":"B","concepts":["y"]}\n'
    '{"id":"r4","label":"B","concepts":["x","y"]}\n'
)

D4_CSV = "id,label,concepts\nr1,A,x;y\nr2,A,x\nr3,B,y\nr4,B,x;y\n"


def d4_dataset() -> Dataset:
    return Dataset.from_records(D4_RECORDS)


def contains(record: AnnotationRecord, name: str) -> bool:
    """A record contains its own label and each of its concepts."""
    return record.label == name or name in record.concepts


def oracle_pair_weight(records, a: str, b: str) -> int:
    """Co-occurrence weight by direct scan; a and b are node names."""
    return sum(1 for r in records if contains(r, a) and contains(r, b))


def oracle_count(records, label: str, concepts) -> int:
    """Records of the class containing every named concept."""
    wanted = set(concepts)
    return sum(1 for r in records if r.label == label and wanted <= set(r.concepts))


def brute_force_class_cliques(
    records, label: str, k_max: int, min_support: int = 1
) -> dict[int, list[tuple[str, ...]]]:
    """Exhaustive clique listing: test every k-subset of concepts.

    A subset qualifies when each member co-occurs with the class at least
    min_support times and every member pair co-occurs at least min_support
    times. Concepts are scanned in sorted order so each level comes out
    lexicographic, matching the enumerator's contract.
    """
    concepts = sorted({c for r in records for c in r.concepts})
    if len(concepts) > 20:
        raise ValueError(f"oracle guard: {len(concepts)} concepts is too many")
    anchored = [c for c in concepts if oracle_pair_weight(records, label, c) >= min_support]
    out: dict[int, list[tuple[str, ...]]] = {}
    for k in range(1, k_max + 1):
        out[k] = [
            combo
            for combo in combinations(anchored, k)
            if all(
                oracle_pair_weight(records, a, b) >= min_support
                for a, b in combinations(combo, 2)
            )
        ]
    return out


def oracle_common_cliques(records, classes, k_max: int, min_support: int = 1):
    """Strict per-level intersection of the brute-force class clique sets."""
    per_class = [brute_force_class_cliques(records, y, k_max, min_support) for y in classes]
    out: dict[int, list[tuple[str, ...]]] = {}
    for k in range(1, k_max + 1):
        shared = set(per_class[0][k])
        for sets in per_class[1:]:
            shared &= set(sets[k])
        out[k] = sorted(shared)
    return out


def oracle_relaxed_common_cliques(records, classes, k_max: int, fraction: float, min_support: int = 1):
    """Brute-force cliques found for at least ceil(fraction * n_classes) classes."""
    needed = math.ceil(fraction * len(classes))
    per_class = [brute_force_class_cliques(records, y, k_max, min_support) for y in classes]
    out: dict[int, list[tuple[str, ...]]] = {}
    for k in range(1, k_max + 1):
        found = Counter(q for sets in per_class for q in sets[k])
        out[k] = sorted(q for q, n in found.items() if n >= needed)
    return out


def oracle_imbalances(records, classes, common):
    """Imbalance entries recomputed from scratch: counts, max, deficits, order."""
    entries = []
    for k in sorted(common):
        for q in common[k]:
            per = {y: oracle_count(records, y, q) for y in classes}
            if len(set(per.values())) <= 1:
                continue
            m = max(per.values())
            deficits = {y: m - n for y, n in per.items() if n < m}
            entries.append((tuple(q), per, m, deficits))
    entries.sort(key=lambda e: (-max(e[3].values()), len(e[0]), e[0]))
    return entries


def random_dataset(seed: int, max_classes: int = 3, max_concepts: int = 8, max_records: int = 50) -> Dataset:
    """Small seeded dataset for oracle-equivalence sweeps."""
    rng = random.Random(seed)
    classes = [f"class{i}" for i in range(rng.randint(2, max_classes))]
    concepts = [f"c{i:02d}" for i in range(rng.randint(1, max_concepts))]
    records = []
    for i in range(rng.randint(2, max_records)):
        label = rng.choice(classes)
        take = rng.randint(0, min(4, len(concepts)))
        picked = tuple(sorted(rng.sample(concepts, take)))
        records.append(AnnotationRecord(f"r{i}", label, picked))
    return Dataset.from_records(records)


@st.composite
def datasets(draw, max_classes: int = 3, max_concepts: int = 6, max_records: int = 25) -> Dataset:
    n_classes = draw(st.integers(2, max_classes))
    n_concepts = draw(st.integers(1, max_concepts))
    classes = [f"class{i}" for i in range(n_classes)]
    concepts = [f"c{i:02d}" for i in range(n_concepts)]
    n = draw(st.integers(1, max_records))
    records = []
    for i in range(n):
        label = draw(st.sampled_from(classes))
        picked = draw(
            st.sets(st.sampled_from(concepts), min_size=0, max_size=min(4, n_concepts))
        )
        records.append(AnnotationRecord(f"r{i}", label, tuple(sorted(picked))))
    return Dataset.from_records(records)
