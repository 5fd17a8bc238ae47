"""The diagnosis path: diagnose searches the common cliques directly."""

import math

import pytest

import coocbias.cliques
from coocbias.cliques import common_clique_set, common_cliques, enumerate_class_cliques
from coocbias.graph import build_graph
from coocbias.report import DiagnosisConfig, diagnose
from support import d4_dataset, oracle_common_cliques, oracle_relaxed_common_cliques, random_dataset


@pytest.mark.parametrize("relax", [None, 0.5])
@pytest.mark.parametrize("make", [d4_dataset, lambda: random_dataset(7)], ids=["d4", "seed-7"])
def test_diagnose_builds_no_class_clique_set(monkeypatch, make, relax):
    def refuse(*args, **kwargs):
        raise AssertionError("diagnose built a ClassCliqueSet")

    ds = make()
    monkeypatch.setattr(coocbias.cliques, "ClassCliqueSet", refuse)
    result = diagnose(ds, DiagnosisConfig(k_max=3, relax_fraction=relax))
    if relax is None:
        expected = oracle_common_cliques(ds.records, ds.classes, 3)
    else:
        expected = oracle_relaxed_common_cliques(ds.records, ds.classes, 3, relax)
    assert {k: list(v) for k, v in result.common.items()} == expected


@pytest.mark.parametrize("min_support", [1, 2])
@pytest.mark.parametrize("relax", [None, 0.34, 0.5, 0.75, 1.0])
def test_common_cliques_equals_common_clique_set(min_support, relax):
    for seed in range(60):
        ds = random_dataset(seed)
        graph = build_graph(ds, min_support=min_support)
        per_class = [enumerate_class_cliques(graph, y, 3) for y in ds.classes]
        assert common_cliques(graph, 3, relax) == common_clique_set(per_class, relax), seed


@pytest.mark.parametrize(
    "k_max, relax",
    [(0, None), (3, 0.0), (3, 1.5), (3, math.nan)],
    ids=["k_max-0", "relax-0", "relax-1.5", "relax-nan"],
)
def test_common_cliques_rejects_what_the_config_rejects(k_max, relax):
    graph = build_graph(d4_dataset())
    with pytest.raises(ValueError) as config_error:
        DiagnosisConfig(k_max=k_max, relax_fraction=relax)
    with pytest.raises(ValueError) as search_error:
        common_cliques(graph, k_max, relax)
    assert str(search_error.value) == str(config_error.value)
