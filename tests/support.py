"""Shared fixtures-in-code: naive oracles, random dataset generators, strategies.

The oracles here deliberately reimplement the counting definitions by direct
per-record scans and exhaustive subset checks. They share no code with the
package beyond the record type, so agreement between the two is evidence,
not tautology. ``reference_plan`` and ``reference_frequency_table`` are the
exceptions: they are the earlier per-query planner and dict-per-clique
counter, kept as the judges of ``rebalance_plan`` and ``frequency_table`` and
built from the package's own table, query and plan types. The synthetic generator and the JSONL
writers likewise keep their earlier one-draw-at-a-time and ``json``-encoder
versions here, as judges of the batched generator and the direct writers.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import pickle
import random
import re
import unicodedata
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import strategies as st

from coocbias.cliques import CliqueFrequencyTable, Provenance
from coocbias.dataset import AnnotationRecord, Dataset, ValidationReport
from coocbias.rebalance import (
    GenerationPlan,
    GenerationQuery,
    RebalanceConfig,
    render_prompt,
)
from coocbias.synth import BiasSpec

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


def pickled(obj):
    """``obj`` through ``pickle`` at every protocol; all copies must be equal."""
    copies = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(c == copies[0] for c in copies)
    return copies[0]


# Every way a frozen dataclass value gets copied.
COPIERS = pytest.mark.parametrize(
    "copier", [pickled, copy.copy, copy.deepcopy, dataclasses.replace], ids=["pickle", "copy", "deepcopy", "replace"]
)


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


def reference_clean(name: str) -> str:
    return unicodedata.normalize("NFC", name).strip()


def reference_parse(data: bytes, fmt: str, strict: bool = True, vocab=None):
    """Naive per-line parser: each line decoded, each record cleaned on its own.

    Follows the documented JSONL ("jsonl") and CSV ("csv") rules record by
    record, with no caching and no whole-file decode, and returns the same
    ``(dataset, report)`` pair as the package parsers.
    """
    report = ValidationReport()
    records = []

    def build(n, rid, label, concepts):
        rid, label = reference_clean(rid), reference_clean(label)
        if not rid:
            report.reject("", "empty-field", f"line {n}: empty id")
            return
        if not label:
            report.reject(rid, "empty-field", f"line {n}: empty label")
            return
        names = [reference_clean(c) for c in concepts]
        if "" in names:
            report.warn(rid, f"line {n}: empty concept name ignored")
            names = [c for c in names if c]
        if len(set(names)) < len(names):
            report.warn(rid, f"line {n}: duplicate concepts deduplicated")
        if not names:
            report.warn(rid, f"line {n}: record has no concepts")
        records.append((n, AnnotationRecord(rid, label, tuple(sorted(set(names))))))

    if fmt == "jsonl":
        lines = []
        for n, raw in enumerate(data.removeprefix(b"\xef\xbb\xbf").split(b"\n"), start=1):
            try:
                lines.append((n, raw.removesuffix(b"\r").decode("utf-8")))
            except UnicodeDecodeError:
                report.reject("", "encoding", f"line {n}: invalid UTF-8")
        for n, text in lines:
            if not text.strip():
                continue
            try:
                obj = json.loads(text)
            except ValueError as exc:
                report.reject("", "malformed-line", f"line {n}: invalid JSON: {exc.msg}")
                continue
            if not isinstance(obj, dict):
                report.reject("", "malformed-line", f"line {n}: not a JSON object")
                continue
            missing = [k for k in ("id", "label", "concepts") if k not in obj]
            if missing:
                report.reject("", "missing-field", f"line {n}: missing fields: {missing!r}")
                continue
            rid, label, concepts = obj["id"], obj["label"], obj["concepts"]
            if not isinstance(rid, str) or not isinstance(label, str):
                report.reject("", "bad-type", f"line {n}: id and label must be strings")
                continue
            if not isinstance(concepts, list) or not all(isinstance(c, str) for c in concepts):
                report.reject(rid, "bad-type", f"line {n}: concepts must be an array of strings")
                continue
            if re.search("[\ud800-\udfff]", "".join([rid, label, *concepts])):
                report.reject("", "encoding", f"line {n}: name is not valid Unicode (lone surrogate escape)")
                continue
            build(n, rid, label, concepts)
    else:
        reader = csv.reader(io.StringIO(data.decode("utf-8-sig")))
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if reader.line_num == 1:
                assert [cell.strip() for cell in row] == ["id", "label", "concepts"]
            elif len(row) != 3:
                report.reject("", "wrong-column-count", f"line {reader.line_num}: expected 3 columns, got {len(row)}")
            else:
                build(reader.line_num, row[0], row[1], row[2].split(";") if row[2].strip() else [])

    return reference_finalize(records, report, strict, vocab)


def reference_finalize(candidates, report, strict: bool, vocab=None, unit: str = "line"):
    """Record-by-record validation: duplicate ids, vocabulary, then collisions."""
    report.records_parsed = len(candidates)
    first_seen: dict[str, int] = {}
    kept = []
    for pos, rec in candidates:
        if rec.id in first_seen:
            report.reject(
                rec.id, "duplicate-id",
                f"{unit} {pos}: duplicate id {rec.id!r} (first seen on {unit} {first_seen[rec.id]})",
            )
        else:
            first_seen[rec.id] = pos
            kept.append((pos, rec))
    if vocab is not None:
        in_vocab = []
        for pos, rec in kept:
            unknown = [c for c in rec.concepts if c not in vocab.concepts]
            if rec.label not in vocab.classes:
                report.reject(rec.id, "unknown-class", f"{unit} {pos}: label {rec.label!r} not in vocabulary")
            elif unknown:
                report.reject(rec.id, "unknown-concept", f"{unit} {pos}: concepts not in vocabulary: {unknown!r}")
            else:
                in_vocab.append((pos, rec))
        kept = in_vocab
    first_label: dict[str, tuple[int, str]] = {}
    for pos, rec in kept:
        first_label.setdefault(rec.label, (pos, rec.id))
    survivors = []
    for pos, rec in kept:
        hits = [c for c in rec.concepts if c in first_label]
        if not hits:
            survivors.append(rec)
            continue
        other_pos, other_id = first_label[hits[0]]
        report.reject(
            rec.id, "class-concept-collision",
            f"{unit} {pos}: class/concept collision: {hits[0]!r} is a concept of "
            f"record {rec.id!r} and the label of record {other_id!r} ({unit} {other_pos})",
        )
    if not survivors:
        report.error("", "no-records", "no records")
    if (strict and report.errors) or not survivors:
        return None, report
    classes = tuple(sorted({r.label for r in survivors}))
    concepts = tuple(sorted(vocab.concepts if vocab is not None else {c for r in survivors for c in r.concepts}))
    return Dataset(records=tuple(survivors), classes=classes, concepts=concepts), report


# Reference frequency table: the earlier counter, which builds one dict per
# clique and ANDs every concept of every clique again; the judge of the
# column-built table, its key order included.
def reference_frequency_table(dataset: Dataset, common) -> CliqueFrequencyTable:
    masks = dataset.masks
    counts = {}
    for k, cliques in common.items():
        level = {}
        for q in cliques:
            mask = ~0
            for c in q:
                mask &= masks[c]
            level[q] = {y: (mask & masks[y]).bit_count() for y in dataset.classes}
        counts[k] = level
    return CliqueFrequencyTable(classes=dataset.classes, counts=counts)


# Reference planner: renders the prompt and looks up the lower-level subsets
# again for every query, the direct reading of the planning rule.
def reference_plan(
    table: CliqueFrequencyTable, config: RebalanceConfig = RebalanceConfig()
) -> tuple[GenerationPlan, CliqueFrequencyTable, tuple]:
    """Plan the synthetic records that even out every clique's class counts.

    Returns the plan and the adjusted table (original + planned counts,
    provenance ADJUSTED). The input table must be ORIGINAL and is not
    modified. A second pass over the adjusted counts would find every clique
    balanced, so re-planning yields nothing; the cap, when hit, breaks that
    guarantee and is flagged on the query and the plan.

    Also returns the plan's totals, summed here as the queries are made:
    ``(total_count, truncated, per_class items, per_level items)``, the items
    in query order.
    """
    if table.provenance is Provenance.ADJUSTED:
        raise ValueError("already balanced: the table's counts include planned records")

    adjusted = table.copy()
    queries: list[GenerationQuery] = []
    truncated = False
    levels = sorted(adjusted.counts, reverse=True)
    for k in levels:
        for q in sorted(adjusted.counts[k]):
            per = adjusted.counts[k][q]
            m = max(per.values(), default=0)
            for label in sorted(per):
                need = m - per[label]
                if need <= 0:
                    continue
                capped = config.per_query_cap is not None and need > config.per_query_cap
                count = config.per_query_cap if capped else need
                truncated = truncated or capped
                queries.append(
                    GenerationQuery(
                        label=label,
                        concepts=q,
                        count=count,
                        prompt=render_prompt(config.template, label, q),
                        clip_threshold=config.clip_threshold,
                        capped=capped,
                    )
                )
                per[label] += count
                # A planned record holds every concept of q, so each proper
                # subset present at a lower level gains the same records.
                for size in range(1, k):
                    lower = adjusted.counts.get(size)
                    if not lower:
                        continue
                    for sub in itertools.combinations(q, size):
                        if sub in lower:
                            lower[sub][label] += count

    adjusted.provenance = Provenance.ADJUSTED
    per_class: dict[str, int] = {}
    per_level: dict[int, int] = {}
    for query in queries:
        per_class[query.label] = per_class.get(query.label, 0) + query.count
        size = len(query.concepts)
        per_level[size] = per_level.get(size, 0) + query.count
    totals = (sum(query.count for query in queries), truncated, list(per_class.items()), list(per_level.items()))
    return GenerationPlan(queries=tuple(queries)), adjusted, totals


# Reference generator and writers: the one-draw-at-a-time SplitMix64 and the
# json-encoder writers that the batched generator and direct writers replaced.
_MASK = (1 << 64) - 1

_encode_json = json.JSONEncoder(ensure_ascii=False).encode


class ReferenceSplitMix64:
    """Minimal 64-bit mixing RNG (public-domain constants).

    State advances by the golden-ratio increment; output runs through two
    xor-shift-multiply rounds. Tiny state, full 2^64 period, and completely
    reproducible across platforms, which is all the generator needs.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n) by rejection, no modulo bias."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def sample(self, items: list[str], k: int) -> list[str]:
        """k distinct items, partial Fisher-Yates over a copy."""
        if k > len(items):
            raise ValueError(f"sample size {k} exceeds population {len(items)}")
        pool = list(items)
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


def reference_generate(spec: BiasSpec, seed: int) -> Dataset:
    """Produce the dataset a BiasSpec describes, deterministically from seed.

    Records are emitted class by class (classes in sorted order), ids
    "<label>-<i>" with i counting from 0. Per record the generator draws, in
    a fixed order: the bias coin, the cross-group pick when the coin says so,
    the record size, then the concept sample. Fixed order keeps one stream of
    randomness reproducible regardless of outcome.
    """
    rng = ReferenceSplitMix64(seed)
    labels = sorted(spec.groups)
    lo, hi = spec.concepts_per_record
    records: list[AnnotationRecord] = []
    for label in labels:
        own = list(spec.groups[label])
        other_labels = [y for y in labels if y != label]
        for i in range(spec.per_class_n):
            tied = rng.random() < spec.rho
            pick = rng.randrange(len(other_labels))
            size = lo + rng.randrange(hi - lo + 1)
            pool = own if tied else list(spec.groups[other_labels[pick]])
            concepts = rng.sample(pool, min(size, len(pool)))
            records.append(
                AnnotationRecord(
                    id=f"{label}-{i}",
                    label=label,
                    concepts=tuple(sorted(concepts)),
                )
            )
    return Dataset.from_records(records)


def reference_serialize_jsonl(dataset: Dataset) -> str:
    """Render a dataset back to JSONL; parse_jsonl round-trips the result."""
    lines = [_encode_json({"id": r.id, "label": r.label, "concepts": list(r.concepts)}) for r in dataset.records]
    return "\n".join(lines) + "\n"


def reference_plan_jsonl(plan: GenerationPlan) -> str:
    """One JSON object per query, plan order, stable field order."""
    lines = []
    for q in plan.queries:
        obj = {
            "class": q.label,
            "concepts": list(q.concepts),
            "count": q.count,
            "prompt": q.prompt,
            "clip_threshold": q.clip_threshold,
        }
        if q.capped:
            obj["capped"] = True
        lines.append(_encode_json(obj))
    return "\n".join(lines) + "\n" if lines else ""
