"""Rebalance planning: turn clique imbalances into a generation worklist.

The planner walks the frequency table from the largest clique size down to
singletons. At each level it tops every class up to the level's current
maximum for each clique, then credits those planned records to every proper
subset of the clique at the lower levels, since a synthetic record containing
a clique's concepts also contains each subset. Descending order therefore
never over-produces: singleton gaps still open after the larger cliques are
settled are exactly the remainder.

The walk visits only the cliques that can need records: those whose original
counts differ and those a planned superset credited, in the same order. The
plan owns a copy of the per-class counts of each clique it changes, made from
the input table on first use; the adjusted table is each input level with
those copies laid over it. Every other clique's dict is shared with the input
table, so callers who mutate the adjusted counts work on ``.copy()``.

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
from functools import cached_property

from .cliques import Clique, CliqueFrequencyTable, Provenance, _not_str, _uneven
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
    canonical (sorted) order. No trailing period. A str is not a concept set
    and raises ValueError.
    """
    _not_str(concepts)
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
    if template is not PromptTemplate.IMAGE:
        raise ValueError(f"unknown prompt template: {template!r}")
    if len(names) == 1:
        return f"An image of a {names[0]}"
    head = f"An image of a {names[0]} and a {names[1]}"
    return head + "".join(f", a {n}" for n in names[2:])


@dataclass(frozen=True, slots=True)
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
    """Ordered query list; every total is read from the queries.

    Queries are sorted by descending clique size, then clique, then class,
    which coincides with the order the planner emits them in. A plan compares
    and hashes by its queries. ``truncated`` is set when any query hit the
    per-query cap; the per-class and per-level totals (level = clique size)
    summarize the plan for reporting, keyed in order of first appearance.
    Each total is computed on first read.
    """

    queries: tuple[GenerationQuery, ...]

    @cached_property
    def total_count(self) -> int:
        return sum(q.count for q in self.queries)

    @cached_property
    def truncated(self) -> bool:
        return any(q.capped for q in self.queries)

    @cached_property
    def per_class(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for q in self.queries:
            totals[q.label] = totals.get(q.label, 0) + q.count
        return totals

    @cached_property
    def per_level(self) -> dict[int, int]:
        totals: dict[int, int] = {}
        for q in self.queries:
            totals[len(q.concepts)] = totals.get(len(q.concepts), 0) + q.count
        return totals


@dataclass(frozen=True)
class RebalanceConfig:
    """Planner knobs; defaults match the common single-shot diagnosis run.

    Building one checks each field's type and range: ``template`` a
    ``PromptTemplate``, ``clip_threshold`` a number (not a bool) in [0, 1],
    ``per_query_cap`` None or an int (not a bool) >= 1. A bad field raises
    ValueError naming it.
    """

    template: PromptTemplate = PromptTemplate.PHOTO
    clip_threshold: float = DEFAULT_CLIP_THRESHOLD
    per_query_cap: int | None = None

    def __post_init__(self) -> None:
        template, clip, cap = self.template, self.clip_threshold, self.per_query_cap
        if not isinstance(template, PromptTemplate):
            raise ValueError(f"template must be a PromptTemplate, got {template!r}")
        if isinstance(clip, bool) or not isinstance(clip, (int, float)):
            raise ValueError(f"clip_threshold must be a number, got {clip!r}")
        if not 0.0 <= clip <= 1.0:
            raise ValueError(f"clip_threshold out of range: {clip} (expected 0 to 1)")
        if cap is None:
            return
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ValueError(f"per_query_cap must be an integer, got {cap!r}")
        if cap < 1:
            raise ValueError(f"per_query_cap must be >= 1, got {cap}")


def rebalance_plan(
    table: CliqueFrequencyTable, config: RebalanceConfig = RebalanceConfig()
) -> tuple[GenerationPlan, CliqueFrequencyTable]:
    """Plan the synthetic records that even out every clique's class counts.

    Returns the plan and the adjusted table (original + planned counts,
    provenance ADJUSTED). The input table must be ORIGINAL and is not
    modified. A second pass over the adjusted counts would find every clique
    balanced, so re-planning yields nothing; the cap, when hit, breaks that
    guarantee and is flagged on the query and the plan.

    Each level of the adjusted table is the input level, in the same order,
    with the plan's copies of the cliques it changes laid over it; a clique
    the plan leaves unchanged keeps the input table's per-class dict:
    ``adjusted.counts[k][q] is table.counts[k][q]``. A caller that mutates the
    adjusted counts should work on ``adjusted.copy()``.
    """
    if table.provenance is Provenance.ADJUSTED:
        raise ValueError("already balanced: the table's counts include planned records")

    original = table.counts
    # Per level, the plan's own copies of the cliques it changes.
    owned: dict[int, dict[Clique, dict[str, int]]] = {k: {} for k in original}

    def own(k: int, q: Clique) -> dict[str, int]:
        """The plan's copy of clique q's counts, made from the input on first use."""
        per = owned[k].get(q)
        if per is None:
            per = owned[k][q] = dict(original[k][q])
        return per

    cap = config.per_query_cap
    queries: list[GenerationQuery] = []
    for k in sorted(original, reverse=True):
        # Only a clique whose original counts differ, or one a planned
        # superset credited, can need records; the plan owns both kinds.
        for q in sorted(owned[k].keys() | (q for q, _ in _uneven(original[k]))):
            per = own(k, q)
            m = max(per.values(), default=0)
            short = [(label, m - per[label]) for label in sorted(per) if per[label] < m]
            if not short:
                continue
            # The prompt names only the concepts, so one serves every class.
            prompt = render_prompt(config.template, short[0][0], q)
            # A planned record holds every concept of q, so each proper
            # subset present at a lower level gains the same records.
            subsets = [
                own(size, sub)
                for size in range(1, k)
                if original.get(size)
                for sub in itertools.combinations(q, size)
                if sub in original[size]
            ]
            for label, need in short:
                capped = cap is not None and need > cap
                count = cap if capped else need
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
                per[label] += count
                for sub_per in subsets:
                    sub_per[label] += count

    # owned[k] holds only keys of original[k], so the overlay keeps its key order.
    counts = {k: level | owned[k] for k, level in original.items()}
    adjusted = CliqueFrequencyTable(classes=table.classes, counts=counts, provenance=Provenance.ADJUSTED)
    return GenerationPlan(tuple(queries)), adjusted


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
