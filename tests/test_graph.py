"""Co-occurrence graph construction and queries against naive oracles."""

import pytest
from hypothesis import given, settings

from coocbias.cliques import cooccurrence_count
from coocbias.dataset import AnnotationRecord, Dataset, load_vocabulary, parse_jsonl
from coocbias.graph import build_graph, to_dot, to_json_graph
from support import D4_RECORDS, d4_dataset, datasets, oracle_count, oracle_pair_weight, random_dataset

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


class TestBuildGraph:
    def test_d4_edge_list(self, d4):
        g = build_graph(d4)
        assert g.weight("A", "x") == 2
        assert g.weight("A", "y") == 1
        assert g.weight("B", "x") == 1
        assert g.weight("B", "y") == 2
        assert g.weight("x", "y") == 2
        assert g.weight("A", "B") == 0
        assert len(g.weights) == 5

    def test_single_record(self):
        ds = Dataset.from_records([AnnotationRecord("r1", "A", ("x",))])
        g = build_graph(ds)
        assert len(g.weights) == 1
        assert g.weight("A", "x") == 1

    def test_d4_without_r4(self):
        ds = Dataset.from_records(D4_RECORDS[:3])
        g = build_graph(ds)
        assert g.weight("B", "x") == 0
        assert g.weight("x", "y") == 1

    def test_no_class_class_edges(self):
        for seed in range(20):
            g = build_graph(random_dataset(seed))
            for a, b in g.weights:
                assert not (a in g.classes and b in g.classes)

    def test_min_support_prunes(self, d4):
        g = build_graph(d4, min_support=2)
        assert g.weight("A", "x") == 2
        assert g.weight("A", "y") == 0  # weight 1 pruned
        assert len(g.weights) == 3

    def test_min_support_validation(self, d4):
        with pytest.raises(ValueError, match="min_support"):
            build_graph(d4, min_support=0)

    def test_empty_concept_records_contribute_no_edges(self):
        ds = Dataset.from_records(
            [AnnotationRecord("r1", "A", ()), AnnotationRecord("r2", "B", ())]
        )
        g = build_graph(ds)
        assert g.weights == {}
        assert len(g.nodes()) == 2


class TestAccessors:
    def test_weight_symmetric(self, d4):
        g = build_graph(d4)
        assert g.weight("A", "x") == g.weight("x", "A") == 2

    def test_self_pair_rejected(self, d4):
        g = build_graph(d4)
        with pytest.raises(ValueError, match="self-pair"):
            g.weight("x", "x")

    def test_unknown_node_rejected(self, d4):
        g = build_graph(d4)
        with pytest.raises(ValueError, match="unknown node: 'q'"):
            g.weight("q", "A")
        with pytest.raises(ValueError, match="unknown node: 'q'"):
            g.neighbors("q")

    def test_neighbors_d4(self, d4):
        g = build_graph(d4)
        assert g.neighbors("A") == ("x", "y")
        assert g.neighbors("x") == ("A", "B", "y")

    def test_isolated_vocabulary_concept_has_no_neighbors(self):
        vocab = load_vocabulary({"classes": ["A", "B"], "concepts": ["x", "z"]})
        ds, rep = parse_jsonl(
            '{"id":"r1","label":"A","concepts":["x"]}\n'
            '{"id":"r2","label":"B","concepts":["x"]}\n',
            vocabulary=vocab,
        )
        assert rep.ok
        g = build_graph(ds)
        assert g.neighbors("z") == ()
        assert g.degree("z") == 0

    def test_adjacency_sorted_classes_before_concepts(self):
        for seed in range(10):
            g = build_graph(random_dataset(seed))
            for node in g.nodes():
                nbrs = g.neighbors(node)
                assert list(nbrs) == sorted(nbrs, key=g.nodes().index)

    def test_fingerprint_stable_and_sensitive(self, d4):
        # a graph is a value: equality stands in for a fingerprint
        g1 = build_graph(d4)
        g2 = build_graph(d4)
        assert g1 == g2
        g3 = build_graph(d4, min_support=2)
        assert g1 != g3


class TestOracleEquivalence:
    def test_seeded_sweep(self):
        for seed in range(60):
            ds = random_dataset(seed)
            g = build_graph(ds)
            names = list(ds.classes) + list(ds.concepts)
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    assert g.weight(a, b) == oracle_pair_weight(ds.records, a, b), (
                        seed,
                        a,
                        b,
                    )

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_weights_match_oracle(self, ds):
        g = build_graph(ds)
        names = list(ds.classes) + list(ds.concepts)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert g.weight(a, b) == oracle_pair_weight(ds.records, a, b)

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_weight_bounded_by_occurrences(self, ds):
        g = build_graph(ds)
        occurrences = {}
        for name in list(ds.classes) + list(ds.concepts):
            occurrences[name] = sum(
                1 for r in ds.records if r.label == name or name in r.concepts
            )
        for (a, b), w in g.weights.items():
            assert 1 <= w <= min(occurrences[a], occurrences[b]) <= ds.n


class TestGeneralizedCounts:
    def test_d4_pair(self, d4):
        assert cooccurrence_count(d4, "A", ("x", "y")) == 1
        assert cooccurrence_count(d4, "B", ("x",)) == 1

    def test_singleton_equals_edge_weight(self, d4):
        g = build_graph(d4)
        for y in d4.classes:
            for c in d4.concepts:
                assert cooccurrence_count(d4, y, (c,)) == g.weight(y, c)

    def test_unknown_names_rejected(self, d4):
        with pytest.raises(ValueError, match="unknown concepts"):
            cooccurrence_count(d4, "A", ("x", "y", "z"))
        with pytest.raises(ValueError, match="unknown class"):
            cooccurrence_count(d4, "Q", ("x",))
        with pytest.raises(ValueError, match="empty"):
            cooccurrence_count(d4, "A", ())

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_matches_oracle(self, ds):
        import itertools

        for y in ds.classes:
            for k in (1, 2):
                for combo in itertools.combinations(ds.concepts[:5], k):
                    assert cooccurrence_count(ds, y, combo) == oracle_count(
                        ds.records, y, combo
                    )

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_class_partition(self, ds):
        # summed over classes, the count is just "records containing Q"
        import itertools

        for combo in itertools.combinations(ds.concepts[:4], 2):
            total = sum(cooccurrence_count(ds, y, combo) for y in ds.classes)
            wanted = set(combo)
            assert total == sum(1 for r in ds.records if wanted <= set(r.concepts))

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_anti_monotone(self, ds):
        if len(ds.concepts) < 2:
            return
        q = (ds.concepts[0],)
        bigger = (ds.concepts[0], ds.concepts[1])
        for y in ds.classes:
            assert cooccurrence_count(ds, y, bigger) <= cooccurrence_count(ds, y, q)


class TestExports:
    def test_json_export_d4(self, d4):
        payload = to_json_graph(build_graph(d4))
        assert len(payload["nodes"]) == 4
        assert len(payload["edges"]) == 5
        assert payload["nodes"][0] == {"name": "A", "kind": "class"}
        assert payload["edges"][0] == {"a": "A", "b": "x", "w": 2}

    def test_dot_export_d4(self, d4):
        dot = to_dot(build_graph(d4))
        assert dot.startswith("graph cooccurrence {")
        assert dot.rstrip().endswith("}")
        assert dot.count("[weight=") == 5
        assert '"A" [kind=class];' in dot
        assert '"x" [kind=concept];' in dot
        assert '"A" -- "x" [weight=2];' in dot

    def test_dot_escapes_quotes(self):
        ds = Dataset.from_records(
            [
                AnnotationRecord("r1", "A", ('say "hi"',)),
                AnnotationRecord("r2", "B", ('say "hi"',)),
            ]
        )
        dot = to_dot(build_graph(ds))
        assert '"say \\"hi\\""' in dot

    def test_edges_export_in_node_order_not_name_order(self):
        # class "zebra" sorts after both concepts, yet its edges come first
        ds = Dataset.from_records(
            [
                AnnotationRecord("r1", "zebra", ("apple", "mango")),
                AnnotationRecord("r2", "zebra", ("mango",)),
            ]
        )
        g = build_graph(ds)
        assert to_dot(g) == (
            "graph cooccurrence {\n"
            '  "zebra" [kind=class];\n'
            '  "apple" [kind=concept];\n'
            '  "mango" [kind=concept];\n'
            '  "zebra" -- "apple" [weight=1];\n'
            '  "zebra" -- "mango" [weight=2];\n'
            '  "apple" -- "mango" [weight=1];\n'
            "}\n"
        )
        assert to_json_graph(g)["edges"] == [
            {"a": "zebra", "b": "apple", "w": 1},
            {"a": "zebra", "b": "mango", "w": 2},
            {"a": "apple", "b": "mango", "w": 1},
        ]

    def test_empty_concept_dataset_exports_nodes_only(self):
        ds = Dataset.from_records(
            [AnnotationRecord("r1", "A", ()), AnnotationRecord("r2", "B", ())]
        )
        payload = to_json_graph(build_graph(ds))
        assert [n["name"] for n in payload["nodes"]] == ["A", "B"]
        assert payload["edges"] == []
