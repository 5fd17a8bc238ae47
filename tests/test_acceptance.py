"""Acceptance gate: seven end-to-end criteria, one verdict line each.

Each test prints "[criterion N] name: PASS|FAIL" straight to the terminal
(bypassing capture) and then asserts, so a plain ``pytest`` run shows the
scoreboard. Criteria with runtime ceilings measure wall-clock with
time.perf_counter and fail on overrun rather than skip.
"""

import itertools
import json
import resource
import time

from coocbias.cli import main
from coocbias.cliques import (
    CliqueFrequencyTable,
    Provenance,
    common_clique_set,
    enumerate_class_cliques,
    frequency_table,
    imbalanced_cliques,
)
from coocbias.dataset import parse_jsonl
from coocbias.graph import build_graph
from coocbias.rebalance import PromptTemplate, apply_virtual, rebalance_plan, render_prompt
from coocbias.report import DiagnosisConfig, diagnose
from coocbias.synth import BiasSpec, generate
from support import (
    D4_JSONL,
    brute_force_class_cliques,
    oracle_common_cliques,
    oracle_count,
    oracle_imbalances,
    oracle_pair_weight,
    random_dataset,
)


def verdict(capsys, num, name, problems):
    ok = not problems
    with capsys.disabled():
        print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): " + " | ".join(problems[:8])


def test_criterion_1_d4_golden_run(tmp_path, capsys):
    problems = []
    data = tmp_path / "d4.jsonl"
    data.write_text(D4_JSONL, encoding="utf-8")
    reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
    plans = [tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"]

    started = time.perf_counter()
    for report, plan in zip(reports, plans):
        if main(["diagnose", "--input", str(data), "--out", str(report)]) != 0:
            problems.append("diagnose exited nonzero")
        if main(["sample", "--input", str(data), "--out", str(plan)]) != 0:
            problems.append("sample exited nonzero")
    elapsed = time.perf_counter() - started
    capsys.readouterr()  # drop the sample summaries

    payload = json.loads(reports[0].read_text(encoding="utf-8"))
    expected_imbalances = [
        {"concepts": ["x"], "per_class": {"A": 2, "B": 1}, "max": 2, "deficits": {"B": 1}},
        {"concepts": ["y"], "per_class": {"A": 1, "B": 2}, "max": 2, "deficits": {"A": 1}},
    ]
    if payload["imbalances"] != expected_imbalances:
        problems.append(f"imbalances diverged: {payload['imbalances']}")

    queries = [json.loads(l) for l in plans[0].read_text(encoding="utf-8").splitlines()]
    expected_queries = [
        {"class": "B", "concepts": ["x"], "count": 1, "prompt": "a photo of x", "clip_threshold": 0.6},
        {"class": "A", "concepts": ["y"], "count": 1, "prompt": "a photo of y", "clip_threshold": 0.6},
    ]
    if queries != expected_queries:
        problems.append(f"plan diverged: {queries}")

    if reports[0].read_bytes() != reports[1].read_bytes():
        problems.append("reports not byte-identical")
    if plans[0].read_bytes() != plans[1].read_bytes():
        problems.append("plans not byte-identical")
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, limit 1s")

    verdict(capsys, 1, "D4 golden run", problems)


def test_criterion_2_oracle_equivalence(capsys):
    problems = []
    started = time.perf_counter()
    for seed in range(120):
        ds = random_dataset(seed)
        g = build_graph(ds)
        names = list(ds.classes) + list(ds.concepts)

        for a, b in itertools.combinations(names, 2):
            if g.weight(a, b) != oracle_pair_weight(ds.records, a, b):
                problems.append(f"seed {seed}: weight({a},{b}) diverged")

        from coocbias.cliques import cooccurrence_count

        for y in ds.classes:
            for k in (1, 2):
                for combo in itertools.combinations(ds.concepts, k):
                    if cooccurrence_count(ds, y, combo) != oracle_count(ds.records, y, combo):
                        problems.append(f"seed {seed}: count({y},{combo}) diverged")

        per_class = []
        for y in ds.classes:
            s = enumerate_class_cliques(g, y, 3)
            per_class.append(s)
            expected = brute_force_class_cliques(ds.records, y, 3)
            for k in (1, 2, 3):
                if list(s.level(k)) != expected[k]:
                    problems.append(f"seed {seed}: clique set ({y}, k={k}) diverged")

        common = common_clique_set(per_class)
        expected_common = oracle_common_cliques(ds.records, ds.classes, 3)
        for k in (1, 2, 3):
            if list(common[k]) != expected_common[k]:
                problems.append(f"seed {seed}: common cliques k={k} diverged")

        entries = imbalanced_cliques(frequency_table(ds, common))
        got = [(e.concepts, e.per_class, e.max_count, e.deficits) for e in entries]
        if got != oracle_imbalances(ds.records, ds.classes, common):
            problems.append(f"seed {seed}: imbalance entries diverged")

        if problems:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, limit 30s")
    verdict(capsys, 2, "oracle equivalence, 120 seeds", problems)


def test_criterion_3_post_balance_closure(capsys):
    problems = []
    started = time.perf_counter()
    config = DiagnosisConfig(k_max=3)
    for seed in range(200, 320):
        ds = random_dataset(seed)
        first = diagnose(ds, config)
        extended = apply_virtual(ds, first.plan)
        second = diagnose(extended, config)
        if second.imbalances != ():
            problems.append(f"seed {seed}: {len(second.imbalances)} imbalances survive")
        reset = first.adjusted.copy()
        reset.provenance = Provenance.ORIGINAL
        replan, _ = rebalance_plan(reset)
        if replan.queries != ():
            problems.append(f"seed {seed}: re-plan emitted {len(replan.queries)} queries")
        if problems:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, limit 60s")
    verdict(capsys, 3, "post-balance closure, 120 seeds", problems)


def test_criterion_4_synthetic_recovery(capsys):
    problems = []
    land = ("bamboo", "field", "forest", "grass", "tree")
    water = ("beach", "boat", "dock", "lake", "ocean")
    spec = BiasSpec(
        groups={"landbird": land, "waterbird": water},
        rho=0.95,
        per_class_n=1000,
        concepts_per_record=(1, 3),
    )
    started = time.perf_counter()
    ds = generate(spec, seed=7)
    result = diagnose(ds, DiagnosisConfig(k_max=3))
    elapsed = time.perf_counter() - started

    by_clique = {e.concepts: e for e in result.imbalances}
    for concept, starved in [(c, "landbird") for c in water] + [(c, "waterbird") for c in land]:
        entry = by_clique.get((concept,))
        if entry is None:
            problems.append(f"singleton {concept} not flagged")
        elif entry.under_represented != (starved,):
            problems.append(f"singleton {concept} blamed {entry.under_represented}")

    groups = {"landbird": set(land), "waterbird": set(water)}
    for e in result.imbalances:
        if len(e.concepts) < 2:
            continue
        members = set(e.concepts)
        if members <= groups["landbird"]:
            starved = "waterbird"
        elif members <= groups["waterbird"]:
            starved = "landbird"
        else:
            # mixed-group cliques require a record straddling groups, which
            # the generator never emits; reaching here means a real bug
            problems.append(f"impossible mixed clique {e.concepts}")
            continue
        if e.under_represented != (starved,):
            problems.append(f"clique {e.concepts} blamed {e.under_represented}")

    for e in result.imbalances:
        truth = {y: oracle_count(ds.records, y, e.concepts) for y in ds.classes}
        m = max(truth.values())
        if e.max_count != m:
            problems.append(f"clique {e.concepts}: max {e.max_count} != {m}")
        for y, deficit in e.deficits.items():
            if deficit != m - truth[y]:
                problems.append(f"clique {e.concepts}: deficit[{y}] {deficit} != {m - truth[y]}")

    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, limit 5s")
    verdict(capsys, 4, "synthetic bias recovery", problems)


def test_criterion_5_update_step(capsys):
    problems = []
    table = CliqueFrequencyTable(
        classes=("A", "B"),
        counts={
            2: {("p", "q"): {"A": 3, "B": 1}},
            1: {("p",): {"A": 3, "B": 1}, ("q",): {"A": 3, "B": 1}},
        },
    )
    plan, adjusted = rebalance_plan(table)
    got = [(q.label, q.concepts, q.count) for q in plan.queries]
    if got != [("B", ("p", "q"), 2)]:
        problems.append(f"queries: {got}")
    if any(len(q.concepts) == 1 for q in plan.queries):
        problems.append("level-1 queries emitted")
    if adjusted.counts[1][("p",)] != {"A": 3, "B": 3}:
        problems.append(f"{{p}} not updated: {adjusted.counts[1][('p',)]}")
    if adjusted.counts[1][("q",)] != {"A": 3, "B": 3}:
        problems.append(f"{{q}} not updated: {adjusted.counts[1][('q',)]}")
    verdict(capsys, 5, "update step prevents over-generation", problems)


def test_criterion_6_performance(capsys):
    problems = []
    sizes = (13, 13, 12, 12)
    groups = {
        f"class{gi}": tuple(f"g{gi}c{j:02d}" for j in range(size))
        for gi, size in enumerate(sizes)
    }
    spec = BiasSpec(groups=groups, rho=0.9, per_class_n=2500, concepts_per_record=(1, 3))
    ds = generate(spec, seed=11)
    if ds.n != 10_000 or len(ds.concepts) != 50 or len(ds.classes) != 4:
        problems.append(f"generator shape off: n={ds.n}")

    started = time.perf_counter()
    result3 = diagnose(ds, DiagnosisConfig(k_max=3))
    elapsed3 = time.perf_counter() - started
    if elapsed3 >= 10.0:
        problems.append(f"k_max=3 took {elapsed3:.1f}s, limit 10s")
    if not result3.plan.queries:
        problems.append("k_max=3 produced no plan on a biased dataset")

    started = time.perf_counter()
    diagnose(ds, DiagnosisConfig(k_max=4))
    elapsed4 = time.perf_counter() - started
    if elapsed4 >= 60.0:
        problems.append(f"k_max=4 took {elapsed4:.1f}s, limit 60s")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak_kb >= 1024 * 1024:
        problems.append(f"peak memory {peak_kb / 1024:.0f} MiB, limit 1 GiB")

    verdict(capsys, 6, "performance at 10k records / 50 concepts", problems)


def test_criterion_7_prompt_bit_exactness(capsys):
    problems = []
    golden = [
        (PromptTemplate.PHOTO, ("forest",), "a photo of forest"),
        (PromptTemplate.PHOTO, ("forest", "tree"), "a photo of forest and tree"),
        (PromptTemplate.PHOTO, ("grass", "sky", "tree"), "a photo of grass, sky, and tree"),
        (
            PromptTemplate.PHOTO,
            ("bamboo", "field", "grass", "tree"),
            "a photo of bamboo, field, grass, and tree",
        ),
        (PromptTemplate.IMAGE, ("forest",), "An image of a forest"),
        (PromptTemplate.IMAGE, ("beach", "ocean"), "An image of a beach and a ocean"),
        (
            PromptTemplate.IMAGE,
            ("beach", "boat", "ocean"),
            "An image of a beach and a boat, a ocean",
        ),
        # input order must not matter; rendering follows the sorted clique
        (PromptTemplate.PHOTO, ("tree", "forest"), "a photo of forest and tree"),
        (PromptTemplate.IMAGE, ("ocean", "beach"), "An image of a beach and a ocean"),
    ]
    for template, concepts, expected in golden:
        got = render_prompt(template, "whatever", concepts)
        if got != expected:
            problems.append(f"{template.value}{concepts}: {got!r} != {expected!r}")
    verdict(capsys, 7, "prompt bit-exactness", problems)


def test_synth_cli_round_trip_and_recovery(tmp_path, capsys):
    # end-to-end through the CLI: synth -> diagnose report flags the planted
    # directions; synth output parses with zero errors
    spec = {
        "concept_groups": {
            "landbird": ["tree", "forest", "grass", "bamboo", "field"],
            "waterbird": ["ocean", "beach", "lake", "boat", "dock"],
        },
        "rho": 0.95,
        "per_class_n": 600,
        "concepts_per_image": [1, 3],
        "seed": 7,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    data = tmp_path / "ds.jsonl"
    assert main(["synth", str(spec_path), "--out", str(data)]) == 0
    capsys.readouterr()

    ds, report = parse_jsonl(data)
    assert report.ok and ds.n == 1200

    out = tmp_path / "report.json"
    assert main(["diagnose", "--input", str(data), "--k-max", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    flagged = {tuple(e["concepts"]): e for e in payload["imbalances"]}
    for c in spec["concept_groups"]["waterbird"]:
        assert (c,) in flagged
        assert list(flagged[(c,)]["deficits"]) == ["landbird"]
    for c in spec["concept_groups"]["landbird"]:
        assert (c,) in flagged
        assert list(flagged[(c,)]["deficits"]) == ["waterbird"]
