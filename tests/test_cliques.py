"""Clique enumeration, intersection, frequency counting, imbalance extraction."""

import dataclasses
import weakref

import pytest
from hypothesis import given, settings

from coocbias.cliques import (
    ImbalanceEntry,
    Provenance,
    common_clique_set,
    cooccurrence_count,
    enumerate_class_cliques,
    frequency_table,
    imbalanced_cliques,
)
from coocbias.dataset import AnnotationRecord, Dataset
from coocbias.graph import build_graph
from coocbias.report import DiagnosisConfig, diagnose
from support import (
    COPIERS,
    brute_force_class_cliques,
    datasets,
    oracle_common_cliques,
    oracle_imbalances,
    oracle_relaxed_common_cliques,
    random_dataset,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)


class TestClassCliques:
    def test_d4_class_a(self, d4):
        g = build_graph(d4)
        s = enumerate_class_cliques(g, "A", 2)
        assert s.level(1) == (("x",), ("y",))
        assert s.level(2) == (("x", "y"),)
        assert s.max_k == 2

    def test_d4_without_xy_edge(self):
        # remove r1 and r4 so x,y never co-occur; A keeps both singletons
        ds = Dataset.from_records(
            [
                AnnotationRecord("r1", "A", ("x",)),
                AnnotationRecord("r2", "A", ("y",)),
                AnnotationRecord("r3", "B", ("x",)),
            ]
        )
        g = build_graph(ds)
        s = enumerate_class_cliques(g, "A", 2)
        assert s.level(1) == (("x",), ("y",))
        assert s.level(2) == ()

    def test_class_with_no_neighbors(self):
        ds = Dataset.from_records(
            [AnnotationRecord("r1", "A", ()), AnnotationRecord("r2", "B", ("x",))]
        )
        g = build_graph(ds)
        s = enumerate_class_cliques(g, "A", 3)
        assert s.level(1) == ()
        assert s.max_k == 0

    def test_unknown_class_rejected(self, d4):
        g = build_graph(d4)
        with pytest.raises(ValueError, match="unknown class"):
            enumerate_class_cliques(g, "x", 2)
        with pytest.raises(ValueError, match="k_max"):
            enumerate_class_cliques(g, "A", 0)

    def test_levels_lexicographic_and_sized(self):
        for seed in range(30):
            ds = random_dataset(seed)
            g = build_graph(ds)
            for y in ds.classes:
                s = enumerate_class_cliques(g, y, 3)
                for k in (1, 2, 3):
                    level = s.level(k)
                    assert list(level) == sorted(level)
                    assert all(len(q) == k for q in level)
                    assert all(tuple(sorted(q)) == q for q in level)

    def test_downward_closure(self):
        from itertools import combinations

        for seed in range(30):
            ds = random_dataset(seed)
            g = build_graph(ds)
            for y in ds.classes:
                s = enumerate_class_cliques(g, y, 3)
                for k in (2, 3):
                    below = set(s.level(k - 1))
                    for q in s.level(k):
                        for sub in combinations(q, k - 1):
                            assert sub in below

    def test_matches_brute_force(self):
        for seed in range(60):
            ds = random_dataset(seed)
            g = build_graph(ds)
            for y in ds.classes:
                s = enumerate_class_cliques(g, y, 3)
                expected = brute_force_class_cliques(ds.records, y, 3)
                for k in (1, 2, 3):
                    assert list(s.level(k)) == expected[k], (seed, y, k)

    def test_matches_brute_force_with_min_support(self):
        for seed in range(30):
            ds = random_dataset(seed)
            g = build_graph(ds, min_support=2)
            for y in ds.classes:
                s = enumerate_class_cliques(g, y, 3)
                expected = brute_force_class_cliques(ds.records, y, 3, min_support=2)
                for k in (1, 2, 3):
                    assert list(s.level(k)) == expected[k], (seed, y, k)

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_property_matches_brute_force(self, ds):
        g = build_graph(ds)
        for y in ds.classes:
            s = enumerate_class_cliques(g, y, 3)
            expected = brute_force_class_cliques(ds.records, y, 3)
            for k in (1, 2, 3):
                assert list(s.level(k)) == expected[k]


class TestCommonCliques:
    def test_d4(self, d4):
        g = build_graph(d4)
        per = [enumerate_class_cliques(g, y, 2) for y in d4.classes]
        common = common_clique_set(per)
        assert common[1] == (("x",), ("y",))
        assert common[2] == (("x", "y"),)

    def test_single_class_is_identity(self):
        ds = Dataset.from_records(
            [AnnotationRecord("r1", "A", ("x", "y")), AnnotationRecord("r2", "A", ("x",))]
        )
        g = build_graph(ds)
        s = enumerate_class_cliques(g, "A", 2)
        common = common_clique_set([s])
        assert common[1] == s.level(1)
        assert common[2] == s.level(2)

    def test_disjoint_neighborhoods_empty(self):
        ds = Dataset.from_records(
            [AnnotationRecord("r1", "A", ("x",)), AnnotationRecord("r2", "B", ("y",))]
        )
        g = build_graph(ds)
        per = [enumerate_class_cliques(g, y, 2) for y in ds.classes]
        common = common_clique_set(per)
        assert common == {1: (), 2: ()}

    def test_mixed_graphs_rejected(self, d4):
        g1 = build_graph(d4)
        g2 = build_graph(d4, min_support=2)
        a = enumerate_class_cliques(g1, "A", 2)
        b = enumerate_class_cliques(g2, "B", 2)
        with pytest.raises(ValueError, match="different graphs"):
            common_clique_set([a, b])

    def test_mixed_k_max_rejected(self, d4):
        g = build_graph(d4)
        a = enumerate_class_cliques(g, "A", 2)
        b = enumerate_class_cliques(g, "B", 3)
        with pytest.raises(ValueError, match="k_max"):
            common_clique_set([a, b])

    def test_sets_from_separate_equal_builds_accepted(self, d4):
        a = enumerate_class_cliques(build_graph(d4), "A", 2)
        b = enumerate_class_cliques(build_graph(d4), "B", 2)
        assert common_clique_set([a, b]) == {1: (("x",), ("y",)), 2: (("x", "y"),)}

    def test_class_lists_computed_only_when_read(self, d4):
        g = build_graph(d4)
        per = [enumerate_class_cliques(g, y, 2) for y in d4.classes]
        common_clique_set(per)
        common_clique_set(per, relax_fraction=0.5)
        assert all("by_level" not in s.__dict__ for s in per)
        assert per[0].level(2) == (("x", "y"),)
        assert "by_level" in per[0].__dict__

    def test_duplicate_class_rejected(self, d4):
        g = build_graph(d4)
        a = enumerate_class_cliques(g, "A", 2)
        with pytest.raises(ValueError, match="duplicate"):
            common_clique_set([a, a])

    def test_relax_fraction(self):
        # three classes; concept "c00" is adjacent to all three, "c01" to two
        ds = Dataset.from_records(
            [
                AnnotationRecord("r1", "A", ("c00", "c01")),
                AnnotationRecord("r2", "B", ("c00", "c01")),
                AnnotationRecord("r3", "C", ("c00",)),
            ]
        )
        g = build_graph(ds)
        per = [enumerate_class_cliques(g, y, 1) for y in ds.classes]
        strict = common_clique_set(per)
        assert strict[1] == (("c00",),)
        relaxed = common_clique_set(per, relax_fraction=0.6)
        assert relaxed[1] == (("c00",), ("c01",))
        assert common_clique_set(per, relax_fraction=1.0) == strict
        with pytest.raises(ValueError, match="relax_fraction"):
            common_clique_set(per, relax_fraction=1.5)

    def test_matches_oracle(self):
        for seed in range(60):
            ds = random_dataset(seed)
            g = build_graph(ds)
            per = [enumerate_class_cliques(g, y, 3) for y in ds.classes]
            common = common_clique_set(per)
            expected = oracle_common_cliques(ds.records, ds.classes, 3)
            for k in (1, 2, 3):
                assert list(common[k]) == expected[k], (seed, k)

    def test_diagnose_relaxed_matches_oracle(self):
        for seed in range(60):
            ds = random_dataset(seed)
            for fraction in (0.34, 0.5, 0.75):
                for min_support in (1, 2):
                    config = DiagnosisConfig(min_support=min_support, k_max=3, relax_fraction=fraction)
                    common = diagnose(ds, config).common
                    expected = oracle_relaxed_common_cliques(ds.records, ds.classes, 3, fraction, min_support)
                    for k in (1, 2, 3):
                        assert list(common[k]) == expected[k], (seed, fraction, min_support, k)

    def test_diagnose_strict_min_support_matches_oracle(self):
        for seed in range(60):
            ds = random_dataset(seed)
            common = diagnose(ds, DiagnosisConfig(min_support=2, k_max=3)).common
            expected = oracle_common_cliques(ds.records, ds.classes, 3, min_support=2)
            for k in (1, 2, 3):
                assert list(common[k]) == expected[k], (seed, k)

    def test_subset_of_every_class(self):
        for seed in range(30):
            ds = random_dataset(seed)
            g = build_graph(ds)
            per = [enumerate_class_cliques(g, y, 3) for y in ds.classes]
            common = common_clique_set(per)
            for s in per:
                for k in (1, 2, 3):
                    assert set(common[k]) <= set(s.level(k))


class TestFrequencyTable:
    def test_d4(self, d4):
        g = build_graph(d4)
        per = [enumerate_class_cliques(g, y, 2) for y in d4.classes]
        table = frequency_table(d4, common_clique_set(per))
        assert table.counts[1][("x",)] == {"A": 2, "B": 1}
        assert table.counts[1][("y",)] == {"A": 1, "B": 2}
        assert table.counts[2][("x", "y")] == {"A": 1, "B": 1}
        assert table.provenance is Provenance.ORIGINAL

    def test_zero_counts_keep_class_key(self):
        ds = Dataset.from_records(
            [
                AnnotationRecord("r1", "A", ("x",)),
                AnnotationRecord("r2", "B", ("x",)),
                AnnotationRecord("r3", "B", ()),
            ]
        )
        table = frequency_table(ds, {1: (("x",),)})
        assert table.counts[1][("x",)] == {"A": 1, "B": 1}
        ds2 = Dataset.from_records(
            [AnnotationRecord("r1", "A", ("x",)), AnnotationRecord("r2", "B", ())]
        )
        table2 = frequency_table(ds2, {1: (("x",),)})
        assert table2.counts[1][("x",)] == {"A": 1, "B": 0}

    def test_idempotent(self, d4):
        common = {1: (("x",), ("y",))}
        t1 = frequency_table(d4, common)
        t2 = frequency_table(d4, common)
        assert t1.counts == t2.counts

    def test_matches_single_queries(self):
        for seed in range(40):
            ds = random_dataset(seed)
            g = build_graph(ds)
            per = [enumerate_class_cliques(g, y, 3) for y in ds.classes]
            table = frequency_table(ds, common_clique_set(per))
            for k, level in table.counts.items():
                for q, per_class in level.items():
                    for y, n in per_class.items():
                        assert n == cooccurrence_count(ds, y, q), (seed, k, q, y)

    def test_anti_monotone_across_levels(self):
        for seed in range(30):
            ds = random_dataset(seed)
            g = build_graph(ds)
            per = [enumerate_class_cliques(g, y, 3) for y in ds.classes]
            table = frequency_table(ds, common_clique_set(per))
            levels = table.levels()
            for k in levels:
                if k + 1 not in table.counts:
                    continue
                for q_big, per_big in table.counts[k + 1].items():
                    for q_small, per_small in table.counts[k].items():
                        if set(q_small) <= set(q_big):
                            for y in ds.classes:
                                assert per_small[y] >= per_big[y]


class TestImbalances:
    def test_d4(self, d4):
        g = build_graph(d4)
        per = [enumerate_class_cliques(g, y, 2) for y in d4.classes]
        table = frequency_table(d4, common_clique_set(per))
        entries = imbalanced_cliques(table)
        assert [(e.concepts, e.max_count, e.deficits) for e in entries] == [
            (("x",), 2, {"B": 1}),
            (("y",), 2, {"A": 1}),
        ]
        assert entries[0].under_represented == ("B",)

    def test_balanced_table_empty(self):
        ds = Dataset.from_records(
            [AnnotationRecord("r1", "A", ("x",)), AnnotationRecord("r2", "B", ("x",))]
        )
        table = frequency_table(ds, {1: (("x",),)})
        assert imbalanced_cliques(table) == ()

    def test_three_class_max_rule(self):
        records = (
            [AnnotationRecord(f"a{i}", "A", ("x",)) for i in range(5)]
            + [AnnotationRecord(f"b{i}", "B", ("x",)) for i in range(5)]
            + [AnnotationRecord(f"c{i}", "C", ("x",)) for i in range(2)]
        )
        table = frequency_table(Dataset.from_records(records), {1: (("x",),)})
        (entry,) = imbalanced_cliques(table)
        assert entry.max_count == 5
        assert entry.deficits == {"C": 3}
        assert entry.under_represented == ("C",)

    def test_adjusted_table_rejected(self, d4):
        table = frequency_table(d4, {1: (("x",),)})
        table.provenance = Provenance.ADJUSTED
        with pytest.raises(ValueError, match="original provenance"):
            imbalanced_cliques(table)

    def test_matches_oracle(self):
        for seed in range(60):
            ds = random_dataset(seed)
            g = build_graph(ds)
            per = [enumerate_class_cliques(g, y, 3) for y in ds.classes]
            common = common_clique_set(per)
            entries = imbalanced_cliques(frequency_table(ds, common))
            expected = oracle_imbalances(ds.records, ds.classes, common)
            got = [(e.concepts, e.per_class, e.max_count, e.deficits) for e in entries]
            assert got == expected, seed

    def test_sort_order(self):
        records = (
            [AnnotationRecord(f"a{i}", "A", ("p", "q")) for i in range(5)]
            + [AnnotationRecord(f"b{i}", "B", ("q",)) for i in range(2)]
            + [AnnotationRecord("b9", "B", ("p", "q"))]
        )
        ds = Dataset.from_records(records)
        g = build_graph(ds)
        per = [enumerate_class_cliques(g, y, 2) for y in ds.classes]
        table = frequency_table(ds, common_clique_set(per))
        entries = imbalanced_cliques(table)
        deficits = [max(e.deficits.values()) for e in entries]
        assert deficits == sorted(deficits, reverse=True)
        for first, second in zip(entries, entries[1:]):
            if max(first.deficits.values()) == max(second.deficits.values()):
                key1 = (len(first.concepts), first.concepts)
                key2 = (len(second.concepts), second.concepts)
                assert key1 <= key2


class TestSlottedImbalanceEntry:
    """An imbalance entry is a slotted frozen dataclass that compares by value."""

    def entry(self, d4):
        return diagnose(d4, DiagnosisConfig(k_max=2)).imbalances[0]

    def test_no_instance_dict_and_value_semantics(self, d4):
        entry = self.entry(d4)
        assert not hasattr(entry, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(entry)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.max_count = 3
        same = ImbalanceEntry(
            concepts=("x",), per_class={"A": 2, "B": 1}, max_count=2, deficits={"B": 1}, under_represented=("B",)
        )
        assert entry == same
        assert entry != dataclasses.replace(same, max_count=3)
        assert repr(entry) == (
            "ImbalanceEntry(concepts=('x',), per_class={'A': 2, 'B': 1}, max_count=2, "
            "deficits={'B': 1}, under_represented=('B',))"
        )

    def test_unhashable_because_of_its_dicts(self, d4):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(self.entry(d4))

    @COPIERS
    def test_round_trips(self, d4, copier):
        entry = self.entry(d4)
        twin = copier(entry)
        assert type(twin) is ImbalanceEntry
        assert twin == entry
