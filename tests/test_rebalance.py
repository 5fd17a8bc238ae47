"""Prompt rendering, plan construction, the update step, virtual application."""

import copy
import dataclasses
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias.cliques import (
    CliqueFrequencyTable,
    Provenance,
    common_clique_set,
    cooccurrence_count,
    enumerate_class_cliques,
    frequency_table,
    imbalanced_cliques,
)
from coocbias.dataset import AnnotationRecord, Dataset, parse_jsonl, serialize_jsonl
from coocbias.graph import build_graph
from coocbias.rebalance import (
    GenerationPlan,
    GenerationQuery,
    PromptTemplate,
    RebalanceConfig,
    apply_virtual,
    rebalance_plan,
    render_prompt,
)
from coocbias.report import DiagnosisConfig, diagnose
from support import COPIERS, datasets, random_dataset, reference_plan

PROPERTY_SETTINGS = settings(max_examples=75, deadline=None)


def diagnose_table(ds, k_max=3, min_support=1):
    g = build_graph(ds, min_support=min_support)
    per = [enumerate_class_cliques(g, y, k_max) for y in ds.classes]
    return frequency_table(ds, common_clique_set(per))


def check_against_reference(table, config=RebalanceConfig()):
    """Assert that ``rebalance_plan`` gives ``reference_plan``'s plan, adjusted
    table and totals, keys in the same order; return the plan and table."""
    plan, adjusted = rebalance_plan(table, config)
    ref_plan, ref_adjusted, totals = reference_plan(table, config)
    assert (plan, adjusted) == (ref_plan, ref_adjusted)
    assert (plan.total_count, plan.truncated, list(plan.per_class.items()), list(plan.per_level.items())) == totals
    return plan, adjusted


class TestPrompts:
    def test_photo_family(self):
        assert render_prompt(PromptTemplate.PHOTO, "Y", ("forest",)) == "a photo of forest"
        assert (
            render_prompt(PromptTemplate.PHOTO, "Y", ("forest", "tree"))
            == "a photo of forest and tree"
        )
        assert (
            render_prompt(PromptTemplate.PHOTO, "Y", ("a", "b", "c"))
            == "a photo of a, b, and c"
        )
        assert (
            render_prompt(PromptTemplate.PHOTO, "Y", ("a", "b", "c", "d"))
            == "a photo of a, b, c, and d"
        )

    def test_image_family(self):
        assert render_prompt(PromptTemplate.IMAGE, "Y", ("forest",)) == "An image of a forest"
        assert (
            render_prompt(PromptTemplate.IMAGE, "Y", ("beach", "ocean"))
            == "An image of a beach and a ocean"
        )
        assert (
            render_prompt(PromptTemplate.IMAGE, "Y", ("beach", "boat", "ocean"))
            == "An image of a beach and a boat, a ocean"
        )

    def test_concepts_sorted_regardless_of_input_order(self):
        assert render_prompt(PromptTemplate.PHOTO, "Y", ("tree", "forest")) == render_prompt(
            PromptTemplate.PHOTO, "Y", ("forest", "tree")
        )

    def test_label_absent_and_no_trailing_period(self):
        p = render_prompt(PromptTemplate.PHOTO, "waterbird", ("ocean",))
        assert "waterbird" not in p
        assert not p.endswith(".")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            render_prompt(PromptTemplate.PHOTO, "Y", ())

    @pytest.mark.parametrize("template", list(PromptTemplate))
    def test_str_concepts_rejected(self, template):
        # "xy" would otherwise read as the concepts x and y.
        with pytest.raises(ValueError, match="^a clique is a tuple of concept names, not a str: 'xy'$"):
            render_prompt(template, "Y", "xy")

    @pytest.mark.parametrize("template", ["photo", "image", None])
    def test_non_member_template_rejected(self, template):
        with pytest.raises(ValueError, match="template"):
            render_prompt(template, "Y", ("x",))
        with pytest.raises(ValueError, match="^template must be a PromptTemplate"):
            RebalanceConfig(template=template)


class TestPlanOnD4:
    def test_queries(self, d4):
        table = diagnose_table(d4, k_max=2)
        plan, adjusted = rebalance_plan(table)
        assert [(q.label, q.concepts, q.count) for q in plan.queries] == [
            ("B", ("x",), 1),
            ("A", ("y",), 1),
        ]
        assert plan.queries[0].prompt == "a photo of x"
        assert plan.queries[1].prompt == "a photo of y"
        assert plan.total_count == 2
        assert plan.per_class == {"A": 1, "B": 1}
        assert plan.per_level == {1: 2}
        assert not plan.truncated

    def test_adjusted_counts(self, d4):
        table = diagnose_table(d4, k_max=2)
        _, adjusted = rebalance_plan(table)
        assert adjusted.counts[1][("x",)] == {"A": 2, "B": 2}
        assert adjusted.counts[1][("y",)] == {"A": 2, "B": 2}
        assert adjusted.counts[2][("x", "y")] == {"A": 1, "B": 1}
        assert adjusted.provenance is Provenance.ADJUSTED

    def test_input_table_untouched(self, d4):
        table = diagnose_table(d4, k_max=2)
        before = table.copy()
        rebalance_plan(table)
        assert table.counts == before.counts
        assert table.provenance is Provenance.ORIGINAL


class TestPlanIsItsQueries:
    QUERIES = (
        GenerationQuery("B", ("x", "y"), 2, "a photo of x and y", 0.6, capped=True),
        GenerationQuery("A", ("x",), 1, "a photo of x", 0.6),
        GenerationQuery("B", ("y",), 3, "a photo of y", 0.6),
    )

    def test_totals_read_from_queries_in_query_order(self):
        plan = GenerationPlan(queries=self.QUERIES)
        assert [f.name for f in dataclasses.fields(plan)] == ["queries"]
        assert plan.total_count == 6
        assert plan.truncated
        assert list(plan.per_class.items()) == [("B", 5), ("A", 1)]
        assert list(plan.per_level.items()) == [(2, 2), (1, 4)]
        empty = GenerationPlan(queries=())
        assert (empty.total_count, empty.truncated, empty.per_class, empty.per_level) == (0, False, {}, {})

    @COPIERS
    def test_compares_and_hashes_by_queries(self, copier):
        plan = GenerationPlan(queries=self.QUERIES)
        assert plan.per_class  # a cached total does not take part
        twin = copier(plan)
        assert twin == GenerationPlan(queries=self.QUERIES) == plan
        assert hash(twin) == hash(plan)
        assert plan != GenerationPlan(queries=self.QUERIES[:2])


class TestUpdateStep:
    def two_level_table(self):
        return CliqueFrequencyTable(
            classes=("A", "B"),
            counts={
                2: {("p", "q"): {"A": 3, "B": 1}},
                1: {("p",): {"A": 3, "B": 1}, ("q",): {"A": 3, "B": 1}},
            },
        )

    def test_single_query_no_overgeneration(self):
        plan, adjusted = rebalance_plan(self.two_level_table())
        assert [(q.label, q.concepts, q.count) for q in plan.queries] == [("B", ("p", "q"), 2)]
        assert adjusted.counts[1][("p",)] == {"A": 3, "B": 3}
        assert adjusted.counts[1][("q",)] == {"A": 3, "B": 3}
        assert adjusted.counts[2][("p", "q")] == {"A": 3, "B": 3}

    def test_update_only_touches_subsets(self):
        table = CliqueFrequencyTable(
            classes=("A", "B"),
            counts={
                2: {("p", "q"): {"A": 3, "B": 1}},
                1: {
                    ("p",): {"A": 3, "B": 1},
                    ("q",): {"A": 3, "B": 1},
                    ("r",): {"A": 2, "B": 2},
                },
            },
        )
        plan, adjusted = rebalance_plan(table)
        assert adjusted.counts[1][("r",)] == {"A": 2, "B": 2}
        assert [(q.label, q.concepts) for q in plan.queries] == [("B", ("p", "q"))]

    def test_residual_gap_still_filled(self):
        # level-2 top-up leaves {p} short by 1 for B; level 1 must finish the job
        table = CliqueFrequencyTable(
            classes=("A", "B"),
            counts={
                2: {("p", "q"): {"A": 3, "B": 1}},
                1: {("p",): {"A": 6, "B": 3}, ("q",): {"A": 3, "B": 1}},
            },
        )
        plan, adjusted = rebalance_plan(table)
        assert [(q.label, q.concepts, q.count) for q in plan.queries] == [
            ("B", ("p", "q"), 2),
            ("B", ("p",), 1),
        ]
        assert adjusted.counts[1][("p",)] == {"A": 6, "B": 6}

    def test_already_uniform_flips_provenance_only(self):
        table = CliqueFrequencyTable(
            classes=("A", "B"), counts={1: {("p",): {"A": 2, "B": 2}}}
        )
        plan, adjusted = rebalance_plan(table)
        assert plan.queries == ()
        assert adjusted.counts == table.counts
        assert adjusted.provenance is Provenance.ADJUSTED

    def test_adjusted_input_rejected(self):
        table = self.two_level_table()
        table.provenance = Provenance.ADJUSTED
        with pytest.raises(ValueError, match="already balanced"):
            rebalance_plan(table)


class TestCap:
    def test_cap_clamps_and_flags(self):
        table = CliqueFrequencyTable(
            classes=("A", "B"), counts={1: {("p",): {"A": 10, "B": 1}}}
        )
        plan, adjusted = rebalance_plan(table, RebalanceConfig(per_query_cap=4))
        (q,) = plan.queries
        assert q.count == 4
        assert q.capped
        assert plan.truncated
        assert adjusted.counts[1][("p",)] == {"A": 10, "B": 5}

    def test_cap_unset_never_flags(self):
        for seed in range(20):
            table = diagnose_table(random_dataset(seed))
            plan, _ = rebalance_plan(table)
            assert not plan.truncated
            assert all(not q.capped for q in plan.queries)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="per_query_cap"):
            RebalanceConfig(per_query_cap=0)
        with pytest.raises(ValueError, match="clip_threshold"):
            RebalanceConfig(clip_threshold=1.5)


class TestPlanProperties:
    def test_order(self):
        for seed in range(30):
            table = diagnose_table(random_dataset(seed))
            plan, _ = rebalance_plan(table)
            keys = [(-len(q.concepts), q.concepts, q.label) for q in plan.queries]
            assert keys == sorted(keys)

    def test_counts_positive_and_exact_topup(self):
        # When clique C is processed, its effective count is the original plus
        # everything already planned on strict supersets of C. Each query must
        # lift its class exactly to the maximum of those effective counts.
        for seed in range(30):
            table = diagnose_table(random_dataset(seed))
            plan, _ = rebalance_plan(table)
            for q in plan.queries:
                assert q.count >= 1
                original = table.counts[len(q.concepts)][q.concepts]

                def effective(label, clique=q.concepts):
                    from_supersets = sum(
                        other.count
                        for other in plan.queries
                        if other.label == label
                        and set(clique) < set(other.concepts)
                    )
                    return original[label] + from_supersets

                pre = {y: effective(y) for y in original}
                assert pre[q.label] < max(pre.values())
                assert q.count == max(pre.values()) - pre[q.label]

    def test_adjusted_balanced_everywhere(self):
        for seed in range(40):
            table = diagnose_table(random_dataset(seed))
            _, adjusted = rebalance_plan(table)
            for level in adjusted.counts.values():
                for per in level.values():
                    assert len(set(per.values())) == 1

    def test_replan_on_reset_adjusted_is_empty(self):
        for seed in range(40):
            table = diagnose_table(random_dataset(seed))
            _, adjusted = rebalance_plan(table)
            again = adjusted.copy()
            again.provenance = Provenance.ORIGINAL
            plan2, _ = rebalance_plan(again)
            assert plan2.queries == ()

    def test_conservation(self):
        for seed in range(30):
            table = diagnose_table(random_dataset(seed))
            plan, adjusted = rebalance_plan(table)
            for k, level in table.counts.items():
                for q, per in level.items():
                    for y, n in per.items():
                        received = sum(
                            query.count
                            for query in plan.queries
                            if query.label == y and set(q) <= set(query.concepts)
                        )
                        assert adjusted.counts[k][q][y] == n + received

    def test_top_level_two_class_gap(self):
        # before any updates, a top-level query's count is the raw count gap
        for seed in range(30):
            ds = random_dataset(seed, max_classes=2)
            table = diagnose_table(ds)
            if not table.counts:
                continue
            top = max(table.levels())
            plan, _ = rebalance_plan(table)
            for q in plan.queries:
                if len(q.concepts) != top:
                    continue
                per = table.counts[top][q.concepts]
                assert q.count == max(per.values()) - per[q.label]

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_property_adjusted_balanced(self, ds):
        table = diagnose_table(ds)
        _, adjusted = rebalance_plan(table)
        for level in adjusted.counts.values():
            for per in level.values():
                assert len(set(per.values())) == 1


class TestAgainstReferencePlan:
    @pytest.mark.parametrize("relax", [None, 0.5], ids=["strict", "relax-0.5"])
    @pytest.mark.parametrize("cap", [None, 1, 3], ids=["no-cap", "cap-1", "cap-3"])
    @PROPERTY_SETTINGS
    @given(ds=datasets())
    def test_plan_and_adjusted_table_match(self, ds, cap, relax):
        g = build_graph(ds)
        per = [enumerate_class_cliques(g, y, 4) for y in ds.classes]
        table = frequency_table(ds, common_clique_set(per, relax_fraction=relax))
        for template in PromptTemplate:
            config = RebalanceConfig(template=template, per_query_cap=cap)
            check_against_reference(table, config)


class TestCopyOnWrite:
    """The planner writes into its own copy of the counts, never the input's."""

    def test_credit_can_unbalance_a_balanced_clique(self):
        # {p} starts balanced; the B records planned for {p, q} lift B above A
        # on {p}, so {p} must be planned for A even though it was balanced.
        table = CliqueFrequencyTable(
            classes=("A", "B"),
            counts={
                2: {("p", "q"): {"A": 3, "B": 1}},
                1: {("p",): {"A": 3, "B": 3}, ("q",): {"A": 3, "B": 1}},
            },
        )
        assert {e.concepts for e in imbalanced_cliques(table)} == {("p", "q"), ("q",)}
        plan, adjusted = rebalance_plan(table)
        assert [(q.label, q.concepts, q.count) for q in plan.queries] == [
            ("B", ("p", "q"), 2),
            ("A", ("p",), 2),
        ]
        assert adjusted.counts[1][("p",)] == {"A": 5, "B": 5}
        check_against_reference(table)

    @PROPERTY_SETTINGS
    @given(datasets(max_concepts=5))
    def test_input_dicts_never_mutated(self, ds):
        table = diagnose_table(ds, k_max=4)
        levels = {k: (level, dict(level)) for k, level in table.counts.items()}
        dicts = {(k, q): (per, dict(per)) for k, level in table.counts.items() for q, per in level.items()}
        for cap in (None, 1):
            rebalance_plan(table, RebalanceConfig(per_query_cap=cap))
        assert table.provenance is Provenance.ORIGINAL
        for k, (level, before) in levels.items():
            assert table.counts[k] is level and level == before
        for (k, q), (per, before) in dicts.items():
            assert table.counts[k][q] is per and per == before

    @PROPERTY_SETTINGS
    @given(datasets(max_concepts=5))
    def test_adjusted_levels_keep_the_input_keys(self, ds):
        table = diagnose_table(ds, k_max=4)
        plan, adjusted = rebalance_plan(table)
        assert adjusted.counts.keys() == table.counts.keys()
        for k, level in table.counts.items():
            assert adjusted.counts[k] is not level
            assert adjusted.counts[k].keys() == level.keys()
        # A copy of the adjusted table can be mutated without touching the input.
        mutable = adjusted.copy()
        for level in mutable.counts.values():
            for per in level.values():
                for label in per:
                    per[label] = -1
        assert all(n >= 0 for level in table.counts.values() for per in level.values() for n in per.values())


CONCEPTS = "pqrst"


@st.composite
def hand_built_tables(draw):
    """Tables no dataset yields: levels in any order or missing, cliques whose
    subsets are absent from their levels, classes in no sorted order."""
    classes = draw(st.lists(st.sampled_from("DCBA"), max_size=4, unique=True))
    counts = {}
    for k in draw(st.lists(st.integers(1, 4), max_size=4, unique=True)):
        cliques = draw(st.lists(st.sampled_from(list(itertools.combinations(CONCEPTS, k))), max_size=5, unique=True))
        counts[k] = {q: {y: draw(st.integers(0, 4)) for y in draw(st.permutations(classes))} for q in cliques}
    return CliqueFrequencyTable(classes=tuple(classes), counts=counts)


class TestHandBuiltTables:
    """The planner's branches for a missing lower level and an absent subset."""

    @settings(max_examples=300, deadline=None)
    @given(hand_built_tables())
    def test_matches_reference_and_keeps_the_input_keys(self, table):
        before = copy.deepcopy(table.counts)
        levels = {k: (level, list(level.items())) for k, level in table.counts.items()}
        for cap in (None, 2):
            config = RebalanceConfig(per_query_cap=cap)
            plan, adjusted = check_against_reference(table, config)
            assert list(adjusted.counts) == list(table.counts)
            for k, level in table.counts.items():
                assert list(adjusted.counts[k]) == list(level)
        assert table.counts == before and table.provenance is Provenance.ORIGINAL
        for k, (level, items) in levels.items():
            assert table.counts[k] is level
            assert all(level[q] is per for q, per in items)


def assert_adjusted_counts_are_independent(table):
    """Mutating the adjusted counts in place, with no ``copy()``, leaves the
    input table's counts and imbalances as they were; the input's counts are
    read only at the end, so a table from ``frequency_table`` is checked on
    its columns."""
    before, entries = copy.deepcopy(table), imbalanced_cliques(table)
    _, adjusted = rebalance_plan(table)
    for level in adjusted.counts.values():
        for q, per in level.items():
            for label in per:
                per[label] = -1
            level[q] = {}
        level[("new",)] = {}
    adjusted.counts[99] = {}
    assert imbalanced_cliques(table) == entries
    assert table.counts == before.counts


class TestIndependentAdjustedTable:
    """The adjusted table's counts share nothing with the input table's."""

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_on_datasets(self, ds):
        assert_adjusted_counts_are_independent(diagnose_table(ds, k_max=4))

    @settings(max_examples=300, deadline=None)
    @given(hand_built_tables())
    def test_on_hand_built_tables(self, table):
        assert_adjusted_counts_are_independent(table)


class TestSlottedQuery:
    """A generation query is a slotted frozen dataclass that behaves as a value."""

    QUERY = GenerationQuery("B", ("x", "y"), 2, "a photo of x and y", 0.6)

    def test_no_instance_dict_and_value_semantics(self):
        q = self.QUERY
        assert not hasattr(q, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.count = 3
        same = GenerationQuery(
            label="B", concepts=("x", "y"), count=2, prompt="a photo of x and y", clip_threshold=0.6, capped=False
        )
        assert q == same and hash(q) == hash(same)
        assert q != dataclasses.replace(q, capped=True)
        assert repr(q) == (
            "GenerationQuery(label='B', concepts=('x', 'y'), count=2, "
            "prompt='a photo of x and y', clip_threshold=0.6, capped=False)"
        )

    @COPIERS
    def test_round_trips(self, copier):
        twin = copier(self.QUERY)
        assert type(twin) is GenerationQuery
        assert twin == self.QUERY and hash(twin) == hash(self.QUERY)

    @COPIERS
    def test_plan_round_trips(self, d4, copier):
        plan, _ = rebalance_plan(diagnose_table(d4, k_max=2))
        twin = copier(plan)
        assert twin.queries == plan.queries


class TestApplyVirtual:
    @pytest.mark.parametrize("relax", [None, 0.5], ids=["strict", "relax-0.5"])
    def test_grown_dataset_round_trips_through_jsonl(self, relax):
        for seed in range(200):
            ds = random_dataset(seed)
            grown = apply_virtual(ds, diagnose(ds, DiagnosisConfig(k_max=3, relax_fraction=relax)).plan)
            parsed, report = parse_jsonl(serialize_jsonl(grown))
            assert report.ok, (seed, report.errors)
            assert parsed == grown, seed

    def test_d4_round_trip(self, d4):
        table = diagnose_table(d4, k_max=2)
        plan, _ = rebalance_plan(table)
        ds2 = apply_virtual(d4, plan)
        assert ds2.n == 6
        new = [r for r in ds2.records if r.id.startswith("synthetic-")]
        assert [(r.id, r.label, r.concepts) for r in new] == [
            ("synthetic-1", "B", ("x",)),
            ("synthetic-2", "A", ("y",)),
        ]
        assert imbalanced_cliques(diagnose_table(ds2, k_max=2)) == ()

    def test_empty_plan_unchanged(self, d4):
        table = CliqueFrequencyTable(classes=("A", "B"), counts={})
        plan, _ = rebalance_plan(table)
        assert apply_virtual(d4, plan) == d4

    def test_count_three_adds_three(self, d4):
        table = CliqueFrequencyTable(
            classes=("A", "B"), counts={1: {("x",): {"A": 3, "B": 0}}}
        )
        plan, _ = rebalance_plan(table)
        ds2 = apply_virtual(d4, plan)
        assert ds2.n == d4.n + 3

    def test_id_collision_skipped(self):
        ds = Dataset.from_records(
            [
                AnnotationRecord("synthetic-1", "A", ("x",)),
                AnnotationRecord("r2", "B", ()),
            ]
        )
        table = CliqueFrequencyTable(
            classes=("A", "B"), counts={1: {("x",): {"A": 1, "B": 0}}}
        )
        plan, _ = rebalance_plan(table)
        ds2 = apply_virtual(ds, plan)
        ids = [r.id for r in ds2.records]
        assert ids.count("synthetic-1") == 1
        assert "synthetic-2" in ids

    def test_unknown_names_rejected(self, d4):
        table = CliqueFrequencyTable(
            classes=("A", "Q"), counts={1: {("x",): {"A": 1, "Q": 0}}}
        )
        plan, _ = rebalance_plan(table)
        with pytest.raises(ValueError, match="unknown class"):
            apply_virtual(d4, plan)
        table2 = CliqueFrequencyTable(
            classes=("A", "B"), counts={1: {("zz",): {"A": 1, "B": 0}}}
        )
        plan2, _ = rebalance_plan(table2)
        with pytest.raises(ValueError, match="unknown concepts"):
            apply_virtual(d4, plan2)

    def test_post_balance_uniformity(self):
        # the common cliques of the ORIGINAL diagnosis end up with equal
        # per-class counts in the extended dataset
        for seed in range(40):
            ds = random_dataset(seed)
            g = build_graph(ds)
            per = [enumerate_class_cliques(g, y, 3) for y in ds.classes]
            common = common_clique_set(per)
            table = frequency_table(ds, common)
            plan, _ = rebalance_plan(table)
            ds2 = apply_virtual(ds, plan)
            for k, cliques in common.items():
                for q in cliques:
                    counts = {y: cooccurrence_count(ds2, y, q) for y in ds.classes}
                    assert len(set(counts.values())) == 1, (seed, q, counts)


class TestApplyVirtualIds:
    def test_ids_skip_existing_synthetic_ids(self):
        ds = Dataset.from_records(
            [
                AnnotationRecord("synthetic-1", "A", ("x",)),
                AnnotationRecord("synthetic-3", "B", ("y",)),
                AnnotationRecord("r3", "B", ("x",)),
            ]
        )
        table = CliqueFrequencyTable(
            classes=("A", "B"),
            counts={1: {("x",): {"A": 1, "B": 4}, ("y",): {"A": 0, "B": 2}}},
        )
        plan, _ = rebalance_plan(table)
        grown = apply_virtual(ds, plan)
        assert [(r.id, r.label, r.concepts) for r in grown.records[ds.n :]] == [
            ("synthetic-2", "A", ("x",)),
            ("synthetic-4", "A", ("x",)),
            ("synthetic-5", "A", ("x",)),
            ("synthetic-6", "A", ("y",)),
            ("synthetic-7", "A", ("y",)),
        ]

    def test_ids_skip_synthetic_ids_of_a_parsed_dataset(self):
        # A parsed dataset holds its rows as columns; the id scan reads those.
        ds, report = parse_jsonl(
            '{"id": "synthetic-2", "label": "A", "concepts": ["x"]}\n'
            '{"id": "synthetic-3", "label": "B", "concepts": ["x"]}\n'
            '{"id": "r3", "label": "B", "concepts": ["x"]}\n'
        )
        assert report.ok
        table = CliqueFrequencyTable(classes=("A", "B"), counts={1: {("x",): {"A": 1, "B": 4}}})
        plan, _ = rebalance_plan(table)
        grown = apply_virtual(ds, plan)
        assert [(r.id, r.label, r.concepts) for r in grown.records] == [
            ("synthetic-2", "A", ("x",)),
            ("synthetic-3", "B", ("x",)),
            ("r3", "B", ("x",)),
            ("synthetic-1", "A", ("x",)),
            ("synthetic-4", "A", ("x",)),
            ("synthetic-5", "A", ("x",)),
        ]
        assert grown == Dataset.from_records(grown.records)
