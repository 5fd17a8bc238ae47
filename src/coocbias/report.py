"""End-to-end diagnosis pipeline and canonical report serialization.

``diagnose`` wires the stages together: graph build, the common-clique
search (one search over all classes; no class's own clique list is built),
frequency counting, imbalance extraction, and a plan drawn from the
resulting table. Reports and plans serialize to byte-stable JSON (sorted
keys, two-space indent, LF line endings, trailing newline) so that repeated
runs over the same input are byte-identical and diff cleanly. File writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .cliques import (
    CliqueFrequencyTable,
    ImbalanceEntry,
    common_clique_set,
    enumerate_class_cliques,
    frequency_table,
    imbalanced_cliques,
)
from .dataset import Dataset, _encode_json
from .graph import CooccurrenceGraph, build_graph
from .rebalance import GenerationPlan, RebalanceConfig, rebalance_plan

__all__ = [
    "DiagnosisConfig",
    "Diagnosis",
    "diagnose",
    "report_dict",
    "canonical_json",
    "plan_jsonl",
    "write_text",
    "sha256_hex",
]


@dataclass(frozen=True)
class DiagnosisConfig:
    """Everything that influences a diagnosis, echoed into the report."""

    min_support: int = 1
    k_max: int = 4
    relax_fraction: float | None = None
    rebalance: RebalanceConfig = RebalanceConfig()

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {self.min_support}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.relax_fraction is not None and not 0.0 < self.relax_fraction <= 1.0:
            raise ValueError(f"relax_fraction must be in (0, 1], got {self.relax_fraction}")


@dataclass(frozen=True)
class Diagnosis:
    """All intermediate and final artifacts of one diagnosis run."""

    config: DiagnosisConfig
    graph: CooccurrenceGraph
    common: dict[int, tuple[tuple[str, ...], ...]]
    table: CliqueFrequencyTable
    imbalances: tuple[ImbalanceEntry, ...]
    plan: GenerationPlan
    adjusted: CliqueFrequencyTable


def diagnose(dataset: Dataset, config: DiagnosisConfig = DiagnosisConfig()) -> Diagnosis:
    """Run the full pipeline on a dataset and return every stage's output."""
    graph = build_graph(dataset, min_support=config.min_support)
    per_class = [
        enumerate_class_cliques(graph, label, config.k_max) for label in dataset.classes
    ]
    common = common_clique_set(per_class, relax_fraction=config.relax_fraction)
    table = frequency_table(dataset, common)
    imbalances = imbalanced_cliques(table)
    plan, adjusted = rebalance_plan(table, config.rebalance)
    return Diagnosis(
        config=config,
        graph=graph,
        common=common,
        table=table,
        imbalances=imbalances,
        plan=plan,
        adjusted=adjusted,
    )


def report_dict(diagnosis: Diagnosis, dataset: Dataset, input_digest: str) -> dict:
    """Flatten a diagnosis into the JSON report shape.

    Keys at the top level: config, dataset, common_cliques, imbalances,
    plan_summary, tool_version, input_digest. Imbalance entries carry exactly
    concepts, per_class, max, deficits.
    """
    cfg = diagnosis.config
    common = {str(k): [list(q) for q in cliques] for k, cliques in diagnosis.common.items()}
    imbalances = [
        {
            "concepts": list(e.concepts),
            "per_class": dict(e.per_class),
            "max": e.max_count,
            "deficits": dict(e.deficits),
        }
        for e in diagnosis.imbalances
    ]
    return {
        "config": {
            "min_support": cfg.min_support,
            "k_max": cfg.k_max,
            "relax_fraction": cfg.relax_fraction,
            "template": cfg.rebalance.template.value,
            "clip_threshold": cfg.rebalance.clip_threshold,
            "per_query_cap": cfg.rebalance.per_query_cap,
        },
        "dataset": {
            "records": dataset.n,
            "classes": len(dataset.classes),
            "concepts": len(dataset.concepts),
        },
        "common_cliques": common,
        "imbalances": imbalances,
        "plan_summary": {
            "queries": len(diagnosis.plan.queries),
            "total_count": diagnosis.plan.total_count,
            "truncated": diagnosis.plan.truncated,
        },
        "tool_version": __version__,
        "input_digest": input_digest,
    }


def canonical_json(payload: dict) -> str:
    """Byte-stable JSON text: sorted keys, indent 2, LF, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def plan_jsonl(plan: GenerationPlan) -> str:
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


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_text(path: Path, text: str) -> None:
    """Write atomically: temp file in the target directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
