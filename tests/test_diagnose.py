"""The diagnosis path: diagnose searches the common cliques directly."""

import hashlib
import math

import pytest

import coocbias.cliques
from coocbias.cli import main
from coocbias.cliques import common_clique_set, common_cliques, enumerate_class_cliques
from coocbias.dataset import parse_jsonl
from coocbias.graph import build_graph
from coocbias.rebalance import RebalanceConfig
from coocbias.report import DiagnosisConfig, diagnose, report_dict
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


def _d4_graph():
    return build_graph(d4_dataset())


# Per field, every config class and stage function that takes it.
TAKERS = {
    "min_support": {
        "DiagnosisConfig": lambda v: DiagnosisConfig(min_support=v),
        "build_graph": lambda v: build_graph(d4_dataset(), min_support=v),
    },
    "k_max": {
        "DiagnosisConfig": lambda v: DiagnosisConfig(k_max=v),
        "enumerate_class_cliques": lambda v: enumerate_class_cliques(_d4_graph(), "A", v),
        "common_cliques": lambda v: common_cliques(_d4_graph(), v),
    },
    "relax_fraction": {
        "DiagnosisConfig": lambda v: DiagnosisConfig(relax_fraction=v),
        "common_clique_set": lambda v: common_clique_set(
            [enumerate_class_cliques(_d4_graph(), y, 2) for y in ("A", "B")], v
        ),
        "common_cliques": lambda v: common_cliques(_d4_graph(), 2, v),
    },
    "rebalance": {"DiagnosisConfig": lambda v: DiagnosisConfig(rebalance=v)},
    "template": {"RebalanceConfig": lambda v: RebalanceConfig(template=v)},
    "clip_threshold": {"RebalanceConfig": lambda v: RebalanceConfig(clip_threshold=v)},
    "per_query_cap": {"RebalanceConfig": lambda v: RebalanceConfig(per_query_cap=v)},
}
BAD_TYPES = {
    "min_support": [1.5, True, "2"],
    "k_max": [2.5, True, None],
    "relax_fraction": ["0.5", True],
    "rebalance": [None],
    "template": ["photo"],
    "clip_threshold": [True, "0.6", None],
    "per_query_cap": [2.5, True],
}


@pytest.mark.parametrize(
    "take, field, value",
    [
        pytest.param(take, field, value, id=f"{where}-{field}={value!r}")
        for field, values in BAD_TYPES.items()
        for value in values
        for where, take in TAKERS[field].items()
    ],
)
def test_wrong_type_is_a_value_error_naming_the_field(take, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        take(value)


# Three records whose cliques x, y and (x, y) are uneven; every level above 2 is empty.
THREE_RECORDS = "".join(
    f'{{"id": "r{i}", "label": "{label}", "concepts": ["x", "y"]}}\n' for i, label in enumerate("AAB")
)


class TestEmptyLevels:
    """Levels no clique reaches are listed but cost no scan and no planner state."""

    def test_only_filled_levels_are_scanned(self, monkeypatch, tmp_path):
        scanned = []
        uneven = coocbias.cliques._uneven

        def counted(counts, width):
            scanned.append(len(counts))
            return uneven(counts, width)

        monkeypatch.setattr(coocbias.cliques, "_uneven", counted)
        path = tmp_path / "three.jsonl"
        path.write_text(THREE_RECORDS, encoding="utf-8")
        ds, _ = parse_jsonl(path)
        result = diagnose(ds, DiagnosisConfig(k_max=500))
        assert scanned == [4, 2]  # two count rows at level 1, one at level 2
        levels = tuple(range(1, 501))
        assert result.table.levels() == result.adjusted.levels() == levels
        assert all(result.adjusted.counts[k] == {} for k in levels[2:])
        assert result.adjusted.counts[2] == {("x", "y"): {"A": 2, "B": 2}}
        report = report_dict(result, ds, "0" * 64)
        assert list(report["common_cliques"]) == [str(k) for k in levels]
        assert len(report["imbalances"]) == 3 and report["plan_summary"]["queries"] == 1

    def test_report_bytes(self, tmp_path, capsys):
        # sha256 of the report taken before empty levels were skipped.
        path = tmp_path / "three.jsonl"
        path.write_text(THREE_RECORDS, encoding="utf-8")
        assert main(["diagnose", "--input", str(path), "--k-max", "2000"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == "3db0bd95b57d5dd6a65bbcb527a7d0df7ae0eedc8dc37edbdeea2a207e2633a1"
