"""Concept co-occurrence bias diagnosis and rebalance planning.

Given a labeled dataset whose records list the concepts visible in each
image, the package builds a weighted co-occurrence graph over classes and
concepts, enumerates the concept cliques every class shares, measures how
unevenly each clique is covered across classes, and plans the synthetic
records (as text-to-image generation queries) that would even things out.
"""

__version__ = "0.1.0"

from .cliques import (
    ClassCliqueSet,
    Clique,
    CliqueFrequencyTable,
    ImbalanceEntry,
    Provenance,
    common_clique_set,
    cooccurrence_count,
    enumerate_class_cliques,
    frequency_table,
    imbalanced_cliques,
)
from .dataset import (
    AnnotationRecord,
    Dataset,
    ValidationReport,
    Vocabulary,
    load_vocabulary,
    parse_csv,
    parse_jsonl,
    serialize_jsonl,
)
from .graph import CooccurrenceGraph, build_graph, to_dot, to_json_graph
from .rebalance import (
    GenerationPlan,
    GenerationQuery,
    PromptTemplate,
    RebalanceConfig,
    apply_virtual,
    rebalance_plan,
    render_prompt,
)
from .report import Diagnosis, DiagnosisConfig, canonical_json, diagnose, plan_jsonl, report_dict
from .synth import BiasSpec, SplitMix64, generate

__all__ = [
    "__version__",
    "AnnotationRecord",
    "Dataset",
    "ValidationReport",
    "Vocabulary",
    "load_vocabulary",
    "parse_jsonl",
    "parse_csv",
    "serialize_jsonl",
    "CooccurrenceGraph",
    "build_graph",
    "to_dot",
    "to_json_graph",
    "Clique",
    "ClassCliqueSet",
    "CliqueFrequencyTable",
    "ImbalanceEntry",
    "Provenance",
    "enumerate_class_cliques",
    "common_clique_set",
    "frequency_table",
    "cooccurrence_count",
    "imbalanced_cliques",
    "PromptTemplate",
    "GenerationQuery",
    "GenerationPlan",
    "RebalanceConfig",
    "render_prompt",
    "rebalance_plan",
    "apply_virtual",
    "Diagnosis",
    "DiagnosisConfig",
    "diagnose",
    "report_dict",
    "canonical_json",
    "plan_jsonl",
    "BiasSpec",
    "SplitMix64",
    "generate",
]
