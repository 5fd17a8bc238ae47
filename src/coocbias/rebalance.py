"""Rebalance planning: turn clique imbalances into a generation worklist.

The planner walks the frequency table from the largest clique size down to
singletons. At each level it tops every class up to the level's current
maximum for each clique, then credits those planned records to every proper
subset of the clique at the lower levels, since a synthetic record containing
a clique's concepts also contains each subset. Descending order therefore
never over-produces: singleton gaps still open after the larger cliques are
settled are exactly the remainder.

The walk visits only the cliques that can need records: those whose original
counts differ, which one scan of the table found, and those a planned
superset credited, in the same order. It copies each level's count column
once and writes the top-ups and credits into the copies, which become the
adjusted table's columns; a level with no clique keeps no state and shares
its empty column.

The plan records each query as its clique, class index, count and capped
flag, in columns (``_Queries``), and builds its ``GenerationQuery`` tuple on
the first read of ``queries``, rendering one prompt per clique; the report's
query count, ``total_count`` and ``truncated`` are read from the columns.

Each query carries a ready-to-use text prompt naming the clique's concepts,
plus a similarity threshold for filtering generated images downstream.
``apply_virtual`` appends the planned records to a dataset so the closed
loop (diagnose, plan, apply, re-diagnose) can be checked without any image
model in sight.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .cliques import Clique, CliqueFrequencyTable, Provenance, _Counts, _Imbalances, _imbalances, _not_str
from .dataset import Dataset, _Columns, _LazyField

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


_NO_CONCEPTS = "cannot render a prompt for an empty concept set"


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
        raise ValueError(_NO_CONCEPTS)
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


class _Queries(NamedTuple):
    """A plan's queries as columns, in plan order: per query its clique, the
    index of its class, its count and whether the cap clamped it; and what
    every query shares. No one mutates them once the plan is built."""

    classes: tuple[str, ...]
    template: PromptTemplate
    clip_threshold: float
    cliques: list[Clique]
    labels: array
    counts: array
    capped: bytearray

    def build(self) -> tuple[GenerationQuery, ...]:
        """The queries, with one prompt per clique."""
        classes, template, clip = self.classes, self.template, self.clip_threshold
        queries = []
        last = None
        for q, j, count, capped in zip(self.cliques, self.labels, self.counts, self.capped):
            if q is not last:
                # The prompt names only the concepts, so one serves every class.
                last, prompt = q, render_prompt(template, classes[j], q)
            queries.append(GenerationQuery(classes[j], q, count, prompt, clip, capped == 1))
        return tuple(queries)


@dataclass(frozen=True)
class GenerationPlan:
    """Ordered query list and its totals.

    Queries are sorted by descending clique size, then clique, then class,
    which coincides with the order the planner emits them in. A plan compares
    and hashes by its queries. ``truncated`` is set when any query hit the
    per-query cap; the per-class and per-level totals (level = clique size)
    summarize the plan for reporting, keyed in order of first appearance.
    Each total is computed on first read.

    A plan from ``rebalance_plan`` holds its queries as columns (``_Queries``)
    and builds the ``GenerationQuery`` tuple on the first read of ``queries``,
    rendering one prompt per clique, and then drops the columns; until then
    ``total_count``, ``truncated`` and the query count of the report read the
    columns and build no query. A plan built with a ``queries=`` tuple keeps
    it and reads every total from it.
    """

    queries: tuple[GenerationQuery, ...] = _LazyField(_Queries, lambda _, columns: columns.build())

    def _columns(self) -> _Queries | None:
        """The columns the queries are built from; None once they are built or given."""
        return self.__dict__["_queries_source"]

    def _size(self) -> int:
        """The number of queries."""
        columns = self._columns()
        return len(self.queries) if columns is None else len(columns.counts)

    @cached_property
    def total_count(self) -> int:
        columns = self._columns()
        return sum(q.count for q in self.queries) if columns is None else sum(columns.counts)

    @cached_property
    def truncated(self) -> bool:
        columns = self._columns()
        return any(q.capped for q in self.queries) if columns is None else any(columns.capped)

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

    The adjusted table holds its own count columns, one per level, with the
    input's cliques in the same order; its ``counts`` dicts are built when
    first read and share nothing with the input table.
    """
    if table.provenance is Provenance.ADJUSTED:
        raise ValueError("already balanced: the table's counts include planned records")
    return _plan(_imbalances(table), config)


def _plan(imbalances: _Imbalances, config: RebalanceConfig) -> tuple[GenerationPlan, CliqueFrequencyTable]:
    """``rebalance_plan`` on a table's columns and their uneven positions."""
    classes, levels, uneven = imbalances
    c = len(classes)
    by_label = sorted(range(c), key=classes.__getitem__)
    # Only the levels that hold count rows, the keys of uneven, need state.
    filled = sorted(uneven, reverse=True)
    # Each lower level's cliques by position, to find the subsets a plan credits.
    where = {k: {q: i for i, q in enumerate(levels[k][0])} for k in filled[1:]}
    # Per level, the plan's copy of the counts, and the positions a planned superset credited.
    counts_of = {k: array("q", levels[k][1]) for k in filled}
    credited: dict[int, set[int]] = {k: set() for k in filled}

    cap = config.per_query_cap
    # The queries as columns: clique, class index, count and capped flag.
    query_cliques: list[Clique] = []
    query_labels, query_counts, query_capped = array("q"), array("q"), bytearray()
    for k in filled:
        cliques, counts = levels[k][0], counts_of[k]
        # Only a clique whose original counts differ, or one a planned
        # superset credited, can need records.
        for i in sorted(credited[k] | set(uneven[k]), key=cliques.__getitem__):
            at = i * c
            per = counts[at : at + c]
            m = max(per, default=0)
            short = [(j, m - per[j]) for j in by_label if per[j] < m]
            if not short:
                continue
            q = cliques[i]
            if not q:
                raise ValueError(_NO_CONCEPTS)  # as the query's prompt would
            # A planned record holds every concept of q, so each proper
            # subset present at a lower level gains the same records.
            subsets = []
            for size in range(1, k):
                index = where.get(size, {})
                for sub in itertools.combinations(q, size):
                    if (sub_i := index.get(sub)) is not None:
                        credited[size].add(sub_i)
                        subsets.append((counts_of[size], sub_i * c))
            for j, need in short:
                capped = cap is not None and need > cap
                count = cap if capped else need
                query_cliques.append(q)
                query_labels.append(j)
                query_counts.append(count)
                query_capped.append(capped)
                counts[at + j] += count
                for sub_counts, sub_at in subsets:
                    sub_counts[sub_at + j] += count

    adjusted = CliqueFrequencyTable(
        classes=classes,
        # An empty level's empty column is shared: no one mutates columns.
        counts=_Counts({k: (cliques, counts_of.get(k, counts)) for k, (cliques, counts) in levels.items()}),
        provenance=Provenance.ADJUSTED,
    )
    columns = _Queries(
        classes, config.template, config.clip_threshold, query_cliques, query_labels, query_counts, query_capped
    )
    return GenerationPlan(columns), adjusted


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
    ids, labels, lists = dataset._columns
    # Only an id with the "synthetic-" prefix can collide with a fresh one.
    existing = {rid for rid in ids if rid.startswith("synthetic-")}
    grown = _Columns(list(ids), list(labels), list(lists))
    ids, labels, lists = grown
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
            ids.append(rid)
            labels.append(label)
            lists.append(concepts)
    return Dataset(records=grown, classes=dataset.classes, concepts=dataset.concepts)
