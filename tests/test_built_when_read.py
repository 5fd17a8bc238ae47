"""Imbalance entries and plan queries are held as columns and built only when read."""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias.cli import main
from coocbias.cliques import (
    CliqueFrequencyTable,
    ImbalanceEntry,
    common_cliques,
    frequency_table,
    imbalanced_cliques,
)
from coocbias.dataset import Dataset, parse_jsonl, serialize_jsonl
from coocbias.graph import build_graph
from coocbias.rebalance import GenerationPlan, GenerationQuery, RebalanceConfig, apply_virtual, rebalance_plan
from coocbias.report import (
    Diagnosis,
    DiagnosisConfig,
    canonical_json,
    diagnose,
    plan_jsonl,
    report_chunks,
    report_dict,
)
from coocbias.synth import BiasSpec, generate
from support import COPIERS, datasets, reference_plan

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def counting(monkeypatch, cls) -> list[int]:
    """How many ``cls`` objects were constructed since the call."""
    count = [0]
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return count


@pytest.fixture
def built(monkeypatch):
    """Constructions since the fixture started: [entries], [queries]."""
    entries, queries = counting(monkeypatch, ImbalanceEntry), counting(monkeypatch, GenerationQuery)
    ImbalanceEntry(("x",), {"A": 1}, 1, {}, ("A",))
    GenerationQuery("A", ("x",), 1, "a photo of x", 0.6)
    assert (entries, queries) == ([1], [1])  # the wrappers see every construction
    entries[0] = queries[0] = 0
    return entries, queries


@pytest.fixture
def input_path(tmp_path):
    groups = {"cat": ("sofa", "rug", "lamp"), "dog": ("grass", "ball", "tree"), "owl": ("moon", "branch", "barn")}
    spec = BiasSpec(groups=groups, rho=0.7, per_class_n=40)
    path = tmp_path / "input.jsonl"
    path.write_text(serialize_jsonl(generate(spec, 3)), encoding="utf-8")
    return path


class TestBuiltOnlyWhenRead:
    @pytest.mark.parametrize(
        "args",
        [["diagnose"], ["diagnose", "--relax", "0.5"], ["diagnose", "--cap", "3"]],
        ids=["diagnose", "diagnose-relax", "diagnose-cap"],
    )
    def test_diagnose_builds_no_entry_and_no_query(self, built, input_path, capsys, args):
        assert main([args[0], "--input", str(input_path), *args[1:]]) == 0
        report = capsys.readouterr().out
        assert '"imbalances": [\n    {' in report and '"queries": 0' not in report
        assert built == ([0], [0])

    @pytest.mark.parametrize("args", [["sample"], ["sample", "--cap", "3"]], ids=["sample", "sample-cap"])
    def test_sample_builds_queries_but_no_entry(self, built, input_path, capsys, args):
        assert main([args[0], "--input", str(input_path), *args[1:]]) == 0
        lines = capsys.readouterr().out.splitlines()
        entries, queries = built
        assert entries == [0] and queries == [len(lines)] and lines

    def test_library_loop_builds_entries_once(self, built, input_path):
        entries, queries = built
        dataset, _ = parse_jsonl(input_path)
        result = diagnose(dataset, DiagnosisConfig(k_max=3))
        assert "".join(report_chunks(result, dataset, "0" * 64))
        assert built == ([0], [0])
        first = result.imbalances
        assert entries == [len(first)] and first
        assert result.imbalances is first and entries == [len(first)]
        assert first == imbalanced_cliques(result.table)
        assert plan_jsonl(result.plan) and result.plan.queries is result.plan.queries
        assert queries == [len(result.plan.queries)]
        apply_virtual(dataset, result.plan)
        assert queries == [len(result.plan.queries)]

    def test_entries_come_from_the_table_at_diagnosis(self, input_path):
        # As if built when diagnosed: a later change to the table's counts does not show.
        dataset, _ = parse_jsonl(input_path)
        result = diagnose(dataset)
        expected = imbalanced_cliques(result.table)
        for per in result.table.counts[1].values():
            per.update(dict.fromkeys(per, 0))
        assert result.imbalances == expected
        assert imbalanced_cliques(result.table) != expected


class TestLazyPlan:
    @PROPERTY_SETTINGS
    @given(datasets(max_concepts=6), st.sampled_from([None, 0.5]), st.sampled_from([None, 1, 2]))
    def test_figures_and_queries(self, ds, relax, cap):
        table = frequency_table(ds, common_cliques(build_graph(ds), 4, relax))
        config = RebalanceConfig(per_query_cap=cap)
        plan, _ = rebalance_plan(table, config)
        figures = plan._size(), plan.total_count, plan.truncated
        assert plan.__dict__["_queries"] is None  # no query built for the figures
        queries = plan.queries
        assert plan._columns() is None  # the built queries replace the columns
        assert figures == (len(queries), sum(q.count for q in queries), any(q.capped for q in queries))
        given_plan = GenerationPlan(queries)
        assert (given_plan._size(), given_plan.total_count, given_plan.truncated) == figures
        ref_plan, _, totals = reference_plan(table, config)
        assert queries == ref_plan.queries
        assert (plan.total_count, plan.truncated) == totals[:2]
        assert (list(plan.per_class.items()), list(plan.per_level.items())) == totals[2:]

    def test_racing_first_reads_agree(self, input_path):
        dataset, _ = parse_jsonl(input_path)
        expected = diagnose(dataset).plan.queries
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                plan = diagnose(dataset).plan
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(lambda: plan.queries) for _ in range(8)]
                    assert all(f.result(timeout=60) == expected for f in futures)
        finally:
            sys.setswitchinterval(switch)

    def test_a_given_tuple_is_kept(self):
        queries = (GenerationQuery("A", ("x",), 2, "a photo of x", 0.5, capped=True),)
        plan = GenerationPlan(queries=queries)
        assert plan.queries is queries
        assert (plan._size(), plan.total_count, plan.truncated) == (1, 2, True)

    def test_an_empty_clique_fails_when_planned(self):
        # The planner rejects the query whose prompt could not be rendered.
        table = CliqueFrequencyTable(classes=("A", "B"), counts={1: {(): {"A": 2, "B": 1}}})
        with pytest.raises(ValueError, match="empty concept set"):
            rebalance_plan(table)


class TestCopies:
    @staticmethod
    def diagnosis(d4) -> Diagnosis:
        return diagnose(d4, DiagnosisConfig(rebalance=RebalanceConfig(per_query_cap=1)))

    @COPIERS
    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_diagnosis(self, d4, copier, read):
        result = self.diagnosis(d4)
        if read:
            assert result.imbalances and result.plan.queries
        twin = copier(result)
        assert twin == result and repr(twin) == repr(result)
        assert twin.imbalances == imbalanced_cliques(result.table)
        report = canonical_json(report_dict(result, d4, "0" * 64))
        assert "".join(report_chunks(twin, d4, "0" * 64)) == report

    @COPIERS
    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_plan(self, d4, copier, read):
        plan = self.diagnosis(d4).plan
        if read:
            assert plan.queries
        twin = copier(plan)
        assert twin == plan and hash(twin) == hash(plan) and repr(twin) == repr(plan)
        assert (twin._size(), twin.total_count, twin.truncated) == (plan._size(), plan.total_count, plan.truncated)

    def test_replace_with_a_new_tuple(self, d4):
        result = self.diagnosis(d4)
        twin = dataclasses.replace(result, imbalances=())
        assert twin.imbalances == () and result.imbalances
        assert '"imbalances": [],' in canonical_json(report_dict(twin, d4, "0" * 64))


class TestRequiredFields:
    @pytest.mark.parametrize(
        "cls, name",
        [(Dataset, "records"), (CliqueFrequencyTable, "counts"), (Diagnosis, "imbalances"), (GenerationPlan, "queries")],
    )
    def test_lazy_field_has_no_default(self, cls, name):
        with pytest.raises(AttributeError):
            getattr(cls, name)
        field = {f.name: f for f in dataclasses.fields(cls)}[name]
        assert field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING

    def test_plan_needs_its_queries(self):
        with pytest.raises(TypeError):
            GenerationPlan()
