"""Workload definitions and seeded input generation.

Every input has the shape of ``scripts/benchmark.py``: one disjoint concept
group per class, rho 0.9, one to three concepts per record. Each workload is
generated from the benchmark's ``--seed`` with the package's own
``coocbias.synth.generate``; the program under test only ever sees the file.
README.md in this directory records why each workload was chosen.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    classes: int
    concepts: int
    fmt: str  # "jsonl" or "csv"
    k_max: int
    relax: float | None
    loop: bool  # False: one ``coocbias diagnose`` CLI call; True: the library loop in op.py


WORKLOADS = {
    w.name: w
    for w in (
        Workload("records-heavy", 100_000, 4, 50, "jsonl", 4, None, False),
        Workload("clique-dense", 10_000, 4, 120, "jsonl", 3, None, False),
        Workload("rebalance-loop", 10_000, 8, 80, "csv", 3, 0.5, True),
    )
}

# Same shapes, scaled down so the benchmark's own tests finish in seconds.
SMOKE = {
    "records-heavy": Workload("records-heavy", 2_000, 4, 16, "jsonl", 4, None, False),
    "clique-dense": Workload("clique-dense", 400, 4, 24, "jsonl", 3, None, False),
    "rebalance-loop": Workload("rebalance-loop", 800, 8, 24, "csv", 3, 0.5, True),
}

def bias_spec(w: Workload):
    from coocbias import BiasSpec

    base, extra = divmod(w.concepts, w.classes)
    groups = {}
    for i in range(w.classes):
        size = base + (1 if i < extra else 0)
        groups[f"class{i}"] = tuple(f"g{i}c{j:02d}" for j in range(size))
    return BiasSpec(
        groups=groups, rho=0.9, per_class_n=w.records // w.classes, concepts_per_record=(1, 3)
    )


def to_csv(dataset) -> str:
    """CSV in the parser's format (header id,label,concepts; ';'-joined concepts).

    The package serializes JSONL only, so the CSV carrier is written here.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "label", "concepts"))
    for r in dataset.records:
        writer.writerow((r.id, r.label, ";".join(r.concepts)))
    return buf.getvalue()


@dataclass(frozen=True)
class Setup:
    data: bytes
    setup_s: float
    generate_s: float
    serialize_s: float


def set_up(w: Workload, seed: int, path: Path) -> Setup:
    """Generate, serialize and write the input once, timing each step."""
    from coocbias import generate, serialize_jsonl

    t0 = time.perf_counter()
    dataset = generate(bias_spec(w), seed)
    t1 = time.perf_counter()
    text = serialize_jsonl(dataset) if w.fmt == "jsonl" else to_csv(dataset)
    t2 = time.perf_counter()
    path.write_text(text, encoding="utf-8", newline="\n")
    t3 = time.perf_counter()
    return Setup(data=text.encode("utf-8"), setup_s=t3 - t0, generate_s=t1 - t0, serialize_s=t2 - t1)
