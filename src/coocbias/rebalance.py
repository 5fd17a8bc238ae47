"""Rebalance planning: turn clique imbalances into a generation worklist.

The planner walks the frequency table from the largest clique size down to
singletons. At each level it tops every class up to the level's current
maximum for each clique, then credits those planned records to every proper
subset of the clique at the lower levels, since a synthetic record containing
a clique's concepts also contains each subset. Descending order therefore
never over-produces: singleton gaps still open after the larger cliques are
settled are exactly the remainder.

Each query carries a ready-to-use text prompt naming the class and the
clique's concepts, plus a similarity threshold for filtering generated images
downstream. ``apply_virtual`` appends the planned records to a dataset so
the closed loop (diagnose, plan, apply, re-diagnose) can be checked without
any image model in sight.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace

from .cliques import Clique, CliqueFrequencyTable, Provenance
from .dataset import AnnotationRecord, Dataset

__all__ = [
    "PromptTemplate",
    "render_prompt",
    "GenerationQuery",
    "GenerationPlan",
    "RebalanceConfig",
    "rebalance_plan",
    "apply_virtual",
]

DEFAULT_CLIP_THRESHOLD = 0.6


class PromptTemplate(enum.Enum):
    """Supported phrasing families for generation prompts."""

    PHOTO = "photo"
    IMAGE = "image"


def render_prompt(template: PromptTemplate, label: str, concepts: Clique) -> str:
    """Phrase one generation request in plain English.

    PHOTO:  "a photo of sky", "a photo of sky and tree",
            "a photo of grass, sky, and tree" (serial comma from three on).
    IMAGE:  "An image of a sky", "An image of a ocean and a beach",
            "An image of a ocean and a beach, a boat" (each extra concept
            appended as ", a <name>"). The article is always "a"; no
            euphonic adjustment is attempted.

    The class label never appears in the prompt; concepts are rendered in
    canonical (sorted) order. No trailing period.
    """
    names = tuple(sorted(concepts))
    if not names:
        raise ValueError("cannot render a prompt for an empty concept set")
    if template is PromptTemplate.PHOTO:
        if len(names) == 1:
            body = names[0]
        elif len(names) == 2:
            body = f"{names[0]} and {names[1]}"
        else:
            body = ", ".join(names[:-1]) + f", and {names[-1]}"
        return f"a photo of {body}"
    if len(names) == 1:
        return f"An image of a {names[0]}"
    head = f"An image of a {names[0]} and a {names[1]}"
    return head + "".join(f", a {n}" for n in names[2:])


@dataclass(frozen=True)
class GenerationQuery:
    """One unit of generation work: make ``count`` images of ``label``
    exhibiting every concept in ``concepts``."""

    label: str
    concepts: Clique
    count: int
    prompt: str
    clip_threshold: float
    capped: bool = False


@dataclass(frozen=True)
class GenerationPlan:
    """Ordered query list plus bookkeeping totals.

    Queries are sorted by descending clique size, then clique, then class,
    which coincides with the order the planner emits them in. ``truncated``
    is set when any query hit the per-query cap; the per-class and per-level
    totals (level = clique size) summarize the plan for reporting.
    """

    queries: tuple[GenerationQuery, ...]
    total_count: int
    truncated: bool
    per_class: dict[str, int]
    per_level: dict[int, int]


@dataclass(frozen=True)
class RebalanceConfig:
    """Planner knobs; defaults match the common single-shot diagnosis run."""

    template: PromptTemplate = PromptTemplate.PHOTO
    clip_threshold: float = DEFAULT_CLIP_THRESHOLD
    per_query_cap: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.clip_threshold <= 1.0:
            raise ValueError(f"clip_threshold out of range: {self.clip_threshold} (expected 0 to 1)")
        if self.per_query_cap is not None and self.per_query_cap < 1:
            raise ValueError(f"per_query_cap must be >= 1, got {self.per_query_cap}")


def rebalance_plan(
    table: CliqueFrequencyTable, config: RebalanceConfig = RebalanceConfig()
) -> tuple[GenerationPlan, CliqueFrequencyTable]:
    """Plan the synthetic records that even out every clique's class counts.

    Returns the plan and the adjusted table (original + planned counts,
    provenance ADJUSTED). The input table must be ORIGINAL and is not
    modified. A second pass over the adjusted counts would find every clique
    balanced, so re-planning yields nothing; the cap, when hit, breaks that
    guarantee and is flagged on the query and the plan.
    """
    if table.provenance is Provenance.ADJUSTED:
        raise ValueError("already balanced: the table's counts include planned records")

    adjusted = table.copy()
    cap = config.per_query_cap
    queries: list[GenerationQuery] = []
    per_class: dict[str, int] = {}
    per_level: dict[int, int] = {}
    total = 0
    truncated = False
    levels = sorted(adjusted.counts, reverse=True)
    for k in levels:
        for q in sorted(adjusted.counts[k]):
            per = adjusted.counts[k][q]
            m = max(per.values(), default=0)
            short = [(label, m - per[label]) for label in sorted(per) if per[label] < m]
            if not short:
                continue
            # The prompt names only the concepts, so one serves every class.
            prompt = render_prompt(config.template, short[0][0], q)
            # A planned record holds every concept of q, so each proper
            # subset present at a lower level gains the same records.
            subsets = []
            for size in range(1, k):
                lower = adjusted.counts.get(size, {})
                subsets += [lower[sub] for sub in itertools.combinations(q, size) if sub in lower]
            for label, need in short:
                capped = cap is not None and need > cap
                count = cap if capped else need
                truncated = truncated or capped
                queries.append(
                    GenerationQuery(
                        label=label,
                        concepts=q,
                        count=count,
                        prompt=prompt,
                        clip_threshold=config.clip_threshold,
                        capped=capped,
                    )
                )
                per_class[label] = per_class.get(label, 0) + count
                per_level[len(q)] = per_level.get(len(q), 0) + count
                total += count
                per[label] += count
                for sub_per in subsets:
                    sub_per[label] += count

    adjusted.provenance = Provenance.ADJUSTED
    plan = GenerationPlan(
        queries=tuple(queries),
        total_count=total,
        truncated=truncated,
        per_class=per_class,
        per_level=per_level,
    )
    return plan, adjusted


def apply_virtual(dataset: Dataset, plan: GenerationPlan) -> Dataset:
    """Append the plan's records to a dataset as if generation had run.

    Synthetic ids are "synthetic-<seq>" with seq counting from 1 in plan
    order; ids already present are skipped, not reused. Each synthetic record
    carries exactly its query's concepts. Classes and the concept vocabulary
    are unchanged because plans only reference existing names; a query naming
    anything else is rejected.
    """
    classes = set(dataset.classes)
    concepts = set(dataset.concepts)
    for query in plan.queries:
        if query.label not in classes:
            raise ValueError(f"query references unknown class: {query.label!r}")
        unknown = set(query.concepts) - concepts
        if unknown:
            raise ValueError(f"query references unknown concepts: {sorted(unknown)!r}")
    # Only an id with the "synthetic-" prefix can collide with a fresh one.
    existing = {r.id for r in dataset.records if r.id.startswith("synthetic-")}
    new: list[AnnotationRecord] = []
    seq = 0
    for query in plan.queries:
        label = query.label
        concepts = tuple(sorted(query.concepts))
        for _ in range(query.count):
            # Fresh ids increase, so only ids already present can collide.
            seq += 1
            rid = f"synthetic-{seq}"
            while rid in existing:
                seq += 1
                rid = f"synthetic-{seq}"
            new.append(AnnotationRecord(rid, label, concepts))
    return replace(dataset, records=dataset.records + tuple(new))
