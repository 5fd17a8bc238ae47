"""The clique frequency table held as count columns, and its dict view."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias import cliques
from coocbias.cli import main
from coocbias.cliques import (
    CliqueFrequencyTable,
    Provenance,
    common_cliques,
    frequency_table,
    imbalanced_cliques,
)
from coocbias.dataset import parse_jsonl, serialize_jsonl
from coocbias.graph import build_graph
from coocbias.rebalance import RebalanceConfig, apply_virtual, rebalance_plan
from coocbias.report import DiagnosisConfig, canonical_chunks, diagnose, plan_jsonl, report_dict
from coocbias.synth import BiasSpec, generate
from support import COPIERS, datasets, reference_frequency_table

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def key_order(table):
    """Every key of ``counts``, in order: levels, cliques, classes."""
    return [(k, [(q, list(per)) for q, per in level.items()]) for k, level in table.counts.items()]


def common_of(ds, k_max=4, relax=None):
    return common_cliques(build_graph(ds), k_max, relax)


class TestAgainstReferenceTable:
    @PROPERTY_SETTINGS
    @given(datasets(max_concepts=6), st.sampled_from([None, 0.5]))
    def test_counts_and_key_order_match_the_dict_counter(self, ds, relax):
        common = common_of(ds, relax=relax)
        table = frequency_table(ds, common)
        reference = reference_frequency_table(ds, common)
        assert table.classes == reference.classes and table.provenance is Provenance.ORIGINAL
        assert table.counts == reference.counts
        assert key_order(table) == key_order(reference)

    def test_unsorted_levels_and_an_empty_clique(self, d4):
        # Consecutive cliques that share no prefix, and the empty clique,
        # which every record contains.
        common = {2: (("x", "y"),), 1: (("y",), ("x",), ())}
        table = frequency_table(d4, common)
        assert key_order(table) == key_order(reference_frequency_table(d4, common))
        assert table.counts == reference_frequency_table(d4, common).counts


class TestColumnAndDictTablesAgree:
    """A table built from columns and one built from equal dicts give equal results."""

    @staticmethod
    def results(table):
        """Everything read from a table, computed before its counts are read."""
        plans = [rebalance_plan(table, RebalanceConfig(per_query_cap=cap)) for cap in (None, 1)]
        copies = [table.copy()] + [adjusted.copy() for _, adjusted in plans]
        return imbalanced_cliques(table), plans, copies

    @PROPERTY_SETTINGS
    @given(datasets(max_concepts=6), st.sampled_from([None, 0.5]))
    def test_equal_results(self, ds, relax):
        common = common_of(ds, relax=relax)
        columns = frequency_table(ds, common)
        dicts = CliqueFrequencyTable(classes=ds.classes, counts=reference_frequency_table(ds, common).counts)
        got, expected = self.results(columns), self.results(dicts)
        assert got[0] == expected[0]
        assert all(list(e.per_class) == list(ds.classes) for e in got[0])
        for (plan, adjusted), (ref_plan, ref_adjusted) in zip(got[1], expected[1]):
            assert plan == ref_plan
            assert adjusted.provenance is ref_adjusted.provenance is Provenance.ADJUSTED
            assert key_order(adjusted) == key_order(ref_adjusted) and adjusted.counts == ref_adjusted.counts
        for twin, ref_twin in zip(got[2], expected[2]):
            assert twin == ref_twin and key_order(twin) == key_order(ref_twin)
        assert columns == dicts and key_order(columns) == key_order(dicts)

    @PROPERTY_SETTINGS
    @given(datasets(max_concepts=5))
    def test_copy_of_adjusted_replans_to_nothing(self, ds):
        # The adjusted table's columns are the plan's copy of the base's, topped up.
        plan, adjusted = rebalance_plan(frequency_table(ds, common_of(ds)))
        again = adjusted.copy()
        assert again.provenance is Provenance.ADJUSTED
        again.provenance = Provenance.ORIGINAL
        assert imbalanced_cliques(again) == ()
        assert rebalance_plan(again)[0].queries == ()
        assert again.counts == adjusted.counts


class TestUnreadTablesCopy:
    @COPIERS
    def test_round_trips_before_counts_are_read(self, d4, copier):
        table = frequency_table(d4, {1: (("x",), ("y",)), 2: (("x", "y"),)})
        _, adjusted = rebalance_plan(table)
        twins = copier(table), copier(adjusted)
        assert [twin.provenance for twin in twins] == [Provenance.ORIGINAL, Provenance.ADJUSTED]
        assert twins == (table, adjusted)


class TestReadCountsAreTheTruth:
    """Once a table's counts are read, its consumers read those dicts on each call."""

    def test_mutated_counts_reach_every_consumer(self, d4):
        table = frequency_table(d4, {1: (("x",), ("y",)), 2: (("x", "y"),)})
        assert [e.concepts for e in imbalanced_cliques(table)] == [("x",), ("y",)]
        counts = table.counts
        counts[2][("x", "y")]["A"] = 3  # uneven now
        counts[1][("x",)]["B"] = 2  # balanced now
        assert [(e.concepts, e.per_class) for e in imbalanced_cliques(table)] == [
            (("x", "y"), {"A": 3, "B": 1}),
            (("y",), {"A": 1, "B": 2}),
        ]
        plan, adjusted = rebalance_plan(table)
        assert [(q.label, q.concepts, q.count) for q in plan.queries] == [
            ("B", ("x", "y"), 2),
            ("A", ("x",), 2),
            ("A", ("y",), 3),
        ]
        assert adjusted.counts == {
            1: {("x",): {"A": 4, "B": 4}, ("y",): {"A": 4, "B": 4}},
            2: {("x", "y"): {"A": 3, "B": 3}},
        }
        twin = table.copy()
        assert twin.counts == counts and twin.counts[2][("x", "y")] is not counts[2][("x", "y")]
        assert table.counts is counts

    def test_mutated_adjusted_counts_reach_its_copy(self, d4):
        _, adjusted = rebalance_plan(frequency_table(d4, {1: (("x",), ("y",))}))
        adjusted.counts[1][("x",)]["A"] = 7
        again = adjusted.copy()
        again.provenance = Provenance.ORIGINAL
        assert [(e.concepts, e.deficits) for e in imbalanced_cliques(again)] == [(("x",), {"B": 5})]

    def test_assigned_counts_replace_the_columns(self, d4):
        table = frequency_table(d4, {1: (("x",), ("y",))})
        assert len(imbalanced_cliques(table)) == 2
        table.counts = {1: {("x",): {"A": 1, "B": 1}}}
        assert imbalanced_cliques(table) == ()
        assert table.levels() == (1,)


class TestCountsBuiltOnlyWhenRead:
    """The CLI and the library loop build no table's or adjusted table's dicts."""

    @pytest.fixture
    def built(self, monkeypatch):
        """How many dict views were built since the fixture started."""
        count = [0]
        view = cliques._view

        def counting_view(*args):
            count[0] += 1
            return view(*args)

        monkeypatch.setattr(cliques, "_view", counting_view)
        return count

    @pytest.fixture
    def input_path(self, tmp_path):
        groups = {"cat": ("sofa", "rug", "lamp"), "dog": ("grass", "ball", "tree"), "owl": ("moon", "branch", "barn")}
        spec = BiasSpec(groups=groups, rho=0.7, per_class_n=40)
        path = tmp_path / "input.jsonl"
        path.write_text(serialize_jsonl(generate(spec, 3)), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "args",
        [["diagnose"], ["diagnose", "--relax", "0.5"], ["diagnose", "--cap", "3"], ["sample"], ["sample", "--cap", "3"]],
        ids=["diagnose", "diagnose-relax", "diagnose-cap", "sample", "sample-cap"],
    )
    def test_cli_builds_no_counts(self, built, input_path, capsys, args):
        assert main([args[0], "--input", str(input_path), *args[1:]]) == 0
        assert capsys.readouterr().out
        assert built == [0]

    def test_library_loop_builds_no_counts(self, built, input_path):
        dataset, _ = parse_jsonl(input_path)
        config = DiagnosisConfig(k_max=3, relax_fraction=0.5)
        diagnosis = diagnose(dataset, config)
        assert diagnosis.imbalances and diagnosis.plan.queries
        assert "".join(canonical_chunks(report_dict(diagnosis, dataset, "0" * 64)))
        assert plan_jsonl(diagnosis.plan)
        again = diagnose(apply_virtual(dataset, diagnosis.plan), config)
        assert again.imbalances == ()
        assert built == [0]
        # The adjusted table and the base table hold their own columns: one view each.
        assert diagnosis.adjusted.counts and diagnosis.table.counts and diagnosis.adjusted.counts
        assert built == [2]


class TestOneScanPerDiagnosis:
    """A diagnosis scans each level's counts for uneven cliques once, and
    hands that scan to the planner; a lone ``rebalance_plan`` scans once too."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """How many level scans ran since the fixture started."""
        count = [0]
        uneven = cliques._uneven

        def counting_uneven(*args):
            count[0] += 1
            return uneven(*args)

        monkeypatch.setattr(cliques, "_uneven", counting_uneven)
        return count

    def test_diagnose_and_a_lone_plan_scan_each_level_once(self, scans):
        groups = {"cat": ("sofa", "rug", "lamp"), "dog": ("grass", "ball", "tree"), "owl": ("moon", "branch", "barn")}
        dataset = generate(BiasSpec(groups=groups, rho=0.7, per_class_n=40), 3)
        diagnosis = diagnose(dataset, DiagnosisConfig(k_max=3, relax_fraction=0.5))
        assert len(diagnosis.table.levels()) == 3 and scans == [3]
        assert diagnosis.imbalances and diagnosis.plan.queries
        assert "".join(canonical_chunks(report_dict(diagnosis, dataset, "0" * 64)))
        assert scans == [3]
        plan, adjusted = rebalance_plan(diagnosis.table)
        assert scans == [6]
        assert (plan, adjusted) == (diagnosis.plan, diagnosis.adjusted)
