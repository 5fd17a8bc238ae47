"""Command-line behavior: exit codes, output formats, determinism."""

import contextlib
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias import BiasSpec, generate
from coocbias.cli import main
from coocbias.dataset import parse_jsonl, serialize_jsonl
from coocbias.report import _BATCH
from support import D4_CSV, D4_JSONL

SPEC = {
    "classes": ["landbird", "waterbird"],
    "concept_groups": {
        "landbird": ["tree", "forest", "grass", "bamboo", "field"],
        "waterbird": ["ocean", "beach", "lake", "boat", "dock"],
    },
    "rho": 0.95,
    "per_class_n": 200,
    "concepts_per_image": [1, 3],
    "seed": 7,
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC), encoding="utf-8")
    return path


class TestDiagnose:
    def test_d4_report(self, d4_jsonl, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["diagnose", "--input", str(d4_jsonl), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["imbalances"] == [
            {"concepts": ["x"], "per_class": {"A": 2, "B": 1}, "max": 2, "deficits": {"B": 1}},
            {"concepts": ["y"], "per_class": {"A": 1, "B": 2}, "max": 2, "deficits": {"A": 1}},
        ]
        assert report["common_cliques"]["1"] == [["x"], ["y"]]
        assert report["common_cliques"]["2"] == [["x", "y"]]
        assert report["config"]["k_max"] == 4
        assert report["tool_version"]
        assert len(report["input_digest"]) == 64

    def test_byte_identical_reruns(self, d4_jsonl, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["diagnose", "--input", str(d4_jsonl), "--out", str(a)]) == 0
        assert main(["diagnose", "--input", str(d4_jsonl), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k_max_1_limits_levels(self, d4_jsonl, tmp_path):
        out = tmp_path / "r.json"
        assert main(["diagnose", "--input", str(d4_jsonl), "--k-max", "1", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert list(report["common_cliques"]) == ["1"]

    def test_level_keys_sort_as_strings(self, d4_jsonl, tmp_path):
        out = tmp_path / "r.json"
        assert main(["diagnose", "--input", str(d4_jsonl), "--k-max", "12", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert list(report["common_cliques"]) == ["1", "10", "11", "12", "2", "3", "4", "5", "6", "7", "8", "9"]

    def test_collision_exits_1_without_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"r1","label":"tree","concepts":["tree"]}\n', encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["diagnose", "--input", str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        assert "collision" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["stats"], ["diagnose", "--out", "r.json"], ["export-graph", "--out", "g.json"]],
        ids=["stats", "diagnose", "export-graph"],
    )
    def test_lone_surrogate_name_exits_1(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text(r'{"id":"r1","label":"A","concepts":["\ud800"]}' + "\n")
        assert main(command + ["--input", "bad.jsonl"]) == 1
        assert "surrogate" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["diagnose", "--input", str(tmp_path / "nope.jsonl")]) == 2

    def test_unwritable_output_exits_2(self, d4_jsonl, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(["diagnose", "--input", str(d4_jsonl), "--out", str(out)]) == 2

    def test_json_errors_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        code = main(["diagnose", "--input", str(bad), "--json-errors"])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["code"] == "validation"
        assert payload["error"]["details"]

    def test_csv_format_auto(self, d4_csv, tmp_path):
        out = tmp_path / "r.json"
        assert main(["diagnose", "--input", str(d4_csv), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["dataset"]["records"] == 4

    def test_stdout_when_no_out(self, d4_jsonl, capsys):
        assert main(["diagnose", "--input", str(d4_jsonl)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dataset"]["records"] == 4

    def test_stdin_input(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(D4_JSONL.encode("utf-8")))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["diagnose", "--input", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dataset"]["records"] == 4

    def test_lenient_flag(self, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(D4_JSONL + "garbage\n", encoding="utf-8")
        assert main(["diagnose", "--input", str(mixed)]) == 1
        capsys.readouterr()
        assert main(["diagnose", "--input", str(mixed), "--lenient", "--out", str(tmp_path / "r.json")]) == 0
        assert "skipped" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("diagnose", "--k-max"),
            ("diagnose", "--min-support"),
            ("diagnose", "--relax"),
            ("sample", "--cap"),
            ("export-graph", "--min-support"),
        ],
        ids=["k-max", "min-support", "relax", "cap", "export-graph-min-support"],
    )
    def test_bad_k_max_exits_1(self, d4_jsonl, command, flag, capsys):
        assert main([command, "--input", str(d4_jsonl), flag, "0"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "name, data",
        [
            ("nested.jsonl", b"[" * 100_000),
            ("big.csv", b"id,label,concepts\na,b," + b"x" * 200_000),
        ],
        ids=["nested-json", "oversized-csv-cell"],
    )
    def test_unparseable_input_exits_1(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["diagnose", "--input", str(path)]) == 1
        assert "malformed-line" in capsys.readouterr().err

    def test_vocab_flag(self, d4_jsonl, tmp_path):
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"classes": ["A", "B"], "concepts": ["x", "y", "z"]}))
        out = tmp_path / "r.json"
        assert main(["diagnose", "--input", str(d4_jsonl), "--vocab", str(vocab), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["dataset"]["concepts"] == 3


def rendered(fmt, n):
    """``n`` valid records over classes A, B and concepts x, y, as JSONL or CSV text."""
    rows = [(f"r{i}", "AB"[i % 2], ("x", "y", "x;y")[i % 3]) for i in range(n)]
    if fmt == "jsonl":
        return "".join(json.dumps({"id": i, "label": y, "concepts": c.split(";")}) + "\n" for i, y, c in rows)
    return "id,label,concepts\n" + "".join(f"{i},{y},{c}\n" for i, y, c in rows)


class TestInput:
    @pytest.mark.parametrize("via", ["file", "stdin"])
    @pytest.mark.parametrize("n", [4, 5000], ids=["small", "many-chunks"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_input_digest_is_sha256_of_the_input_bytes(self, tmp_path, monkeypatch, capsys, fmt, bom, eol, n, via):
        data = (bom + rendered(fmt, n).replace("\n", eol)).encode("utf-8")
        if via == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            source = "-"
        else:
            source = tmp_path / f"input.{fmt}"
            source.write_bytes(data)
        assert main(["diagnose", "--input", str(source), "--format", fmt]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dataset"]["records"] == n
        assert report["input_digest"] == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize(
        "command",
        [["diagnose", "--input", "-"], ["diagnose", "--input", "{d4}", "--vocab", "-"], ["synth", "-"]],
        ids=["input", "vocab", "synth"],
    )
    def test_closed_stdin_exits_2(self, d4_jsonl, monkeypatch, capsys, command):
        monkeypatch.setattr(sys, "stdin", None)  # what Python sets when fd 0 is closed
        assert main([arg.format(d4=d4_jsonl) for arg in command]) == 2
        assert capsys.readouterr().err == "error: cannot read -: stdin is closed\n"

    def test_input_and_vocab_cannot_both_read_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(D4_JSONL.encode("utf-8"))))
        assert main(["diagnose", "--input", "-", "--vocab", "-"]) == 1
        assert capsys.readouterr().err == "error: --input and --vocab cannot both read stdin\n"

    def test_missing_input_is_reported_before_a_bad_vocabulary(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.json"
        vocab.write_text("not json", encoding="utf-8")
        assert main(["diagnose", "--input", str(tmp_path / "nope.jsonl"), "--vocab", str(vocab)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path / 'nope.jsonl'}: ")


class TestSample:
    def test_d4_plan(self, d4_jsonl, tmp_path, capsys):
        out = tmp_path / "plan.jsonl"
        assert main(["sample", "--input", str(d4_jsonl), "--out", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert lines == [
            {"class": "B", "concepts": ["x"], "count": 1, "prompt": "a photo of x", "clip_threshold": 0.6},
            {"class": "A", "concepts": ["y"], "count": 1, "prompt": "a photo of y", "clip_threshold": 0.6},
        ]
        summary = capsys.readouterr().out
        assert "2 queries" in summary
        assert "A: 1" in summary and "B: 1" in summary

    def test_balanced_dataset_empty_plan(self, tmp_path):
        balanced = tmp_path / "balanced.jsonl"
        balanced.write_text(
            '{"id":"r1","label":"A","concepts":["x"]}\n'
            '{"id":"r2","label":"B","concepts":["x"]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "plan.jsonl"
        assert main(["sample", "--input", str(balanced), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_clip_threshold_out_of_range(self, d4_jsonl, capsys):
        assert main(["sample", "--input", str(d4_jsonl), "--clip-threshold", "1.5"]) == 1
        assert "threshold out of range" in capsys.readouterr().err

    def test_image_template(self, d4_jsonl, tmp_path):
        out = tmp_path / "plan.jsonl"
        assert main(["sample", "--input", str(d4_jsonl), "--template", "image", "--out", str(out)]) == 0
        first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert first["prompt"] == "An image of a x"

    def test_cap_flag(self, tmp_path, capsys):
        skewed = tmp_path / "skew.jsonl"
        skewed.write_text(
            "".join(f'{{"id":"a{i}","label":"A","concepts":["x"]}}\n' for i in range(9))
            + '{"id":"b0","label":"B","concepts":["x"]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "plan.jsonl"
        assert main(["sample", "--input", str(skewed), "--cap", "3", "--out", str(out)]) == 0
        (line,) = out.read_text(encoding="utf-8").splitlines()
        q = json.loads(line)
        assert q["count"] == 3
        assert q["capped"] is True
        assert "clamped" in capsys.readouterr().out

    def test_plan_to_stdout(self, d4_jsonl, capsys):
        assert main(["sample", "--input", str(d4_jsonl)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(json.loads(l)["count"] == 1 for l in lines)

    def test_byte_identical_reruns(self, d4_jsonl, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["sample", "--input", str(d4_jsonl), "--out", str(a)]) == 0
        assert main(["sample", "--input", str(d4_jsonl), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExportGraph:
    def test_json_d4(self, d4_jsonl, tmp_path):
        out = tmp_path / "g.json"
        assert main(["export-graph", "--input", str(d4_jsonl), "--graph-format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["nodes"]) == 4
        assert len(payload["edges"]) == 5
        weights = {(e["a"], e["b"]): e["w"] for e in payload["edges"]}
        assert weights[("A", "x")] == 2
        assert weights[("x", "y")] == 2

    def test_dot_d4(self, d4_jsonl, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export-graph", "--input", str(d4_jsonl), "--graph-format", "dot", "--out", str(out)]) == 0
        dot = out.read_text(encoding="utf-8")
        assert dot.count("[weight=") == 5
        assert dot.count("kind=class") == 2
        assert dot.count("kind=concept") == 2

    def test_concept_free_dataset(self, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_text(
            '{"id":"r1","label":"A","concepts":[]}\n{"id":"r2","label":"B","concepts":[]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "g.json"
        assert main(["export-graph", "--input", str(data), "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [n["kind"] for n in payload["nodes"]] == ["class", "class"]
        assert payload["edges"] == []


@pytest.fixture(scope="module")
def shared_cliques_jsonl(tmp_path_factory):
    """800 records whose report and graph hold lists longer than one batch."""
    groups = {f"class{i}": tuple(f"g{i}c{j:02d}" for j in range(10)) for i in range(4)}
    spec = BiasSpec(groups=groups, rho=0.6, per_class_n=200, concepts_per_record=(2, 4))
    path = tmp_path_factory.mktemp("shared") / "shared.jsonl"
    path.write_text(serialize_jsonl(generate(spec, 3)), encoding="utf-8")
    return path


class TestStreamedOutput:
    """The chunked report and graph writers give the same bytes on stdout and in a file."""

    @pytest.mark.parametrize(
        "command, longest",
        [
            (["diagnose", "--k-max", "3"], lambda p: len(p["imbalances"])),
            (["diagnose", "--k-max", "3", "--relax", "0.5"], lambda p: len(p["common_cliques"]["3"])),
            (["export-graph", "--graph-format", "json"], lambda p: len(p["edges"])),
        ],
        ids=["diagnose", "diagnose-relax", "export-graph"],
    )
    def test_stdout_and_file_bytes_equal(self, shared_cliques_jsonl, tmp_path, capsys, command, longest):
        args = command + ["--input", str(shared_cliques_jsonl)]
        out = tmp_path / "out.json"
        assert main(args + ["--out", "-"]) == 0
        streamed = capsys.readouterr().out.encode("utf-8")
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == streamed
        payload = json.loads(streamed)
        assert longest(payload) > _BATCH
        oracle = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert streamed == oracle.encode("utf-8")


class TestSynth:
    def test_round_trip(self, spec_file, tmp_path):
        out = tmp_path / "ds.jsonl"
        assert main(["synth", str(spec_file), "--out", str(out)]) == 0
        ds, rep = parse_jsonl(out)
        assert rep.ok
        assert ds.n == 400
        assert ds.classes == ("landbird", "waterbird")

    def test_deterministic(self, spec_file, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["synth", str(spec_file), "--out", str(a)]) == 0
        assert main(["synth", str(spec_file), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, spec_file, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["synth", str(spec_file), "--out", str(a)]) == 0
        assert main(["synth", str(spec_file), "--seed", "99", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("rho", [0.3, 10**400], ids=["out-of-range", "too-large-for-float"])
    def test_invalid_rho_field_message(self, tmp_path, capsys, rho):
        spec = dict(SPEC, rho=rho)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", str(path)]) == 1
        assert "rho" in capsys.readouterr().err

    def test_missing_field_message(self, tmp_path, capsys):
        spec = {k: v for k, v in SPEC.items() if k != "per_class_n"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", str(path)]) == 1
        assert "per_class_n" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1.5, True, "7"], ids=repr)
    def test_non_integer_seed_exits_1(self, tmp_path, capsys, seed):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(SPEC, seed=seed)), encoding="utf-8")
        assert main(["synth", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: spec: seed must be an integer, got {seed!r}\n")

    def test_classes_mismatch_rejected(self, tmp_path, capsys):
        spec = dict(SPEC, classes=["landbird"])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["synth", str(path)]) == 1
        assert "classes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, raw",
        [("rho", "9" * 5001), ("concept_groups", "[" * 100_000 + "]" * 100_000)],
        ids=["integer-over-digit-limit", "nested-too-deep"],
    )
    def test_hostile_spec_is_not_valid_json(self, tmp_path, capsys, field, raw):
        text = json.dumps(dict(SPEC, **{field: "HOSTILE"})).replace('"HOSTILE"', raw)
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        assert main(["synth", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spec file is not valid JSON: ")
        assert "Traceback" not in err


class TestStats:
    def test_d4(self, d4_jsonl, capsys):
        assert main(["stats", "--input", str(d4_jsonl)]) == 0
        out = capsys.readouterr().out
        assert "records: 4" in out
        assert "  A: 2" in out and "  B: 2" in out
        pair_lines = out.split("top class-concept pairs:")[1].strip().splitlines()
        assert pair_lines[0].strip() == "(A, x): 2"
        assert pair_lines[1].strip() == "(B, y): 2"

    def test_empty_file_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["stats", "--input", str(empty)]) == 1
        assert "no records" in capsys.readouterr().err

    def test_vocab_superset_rows(self, d4_jsonl, tmp_path, capsys):
        concepts = ["x", "y"] + [f"extra{i:02d}" for i in range(15)]
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps({"classes": ["A", "B"], "concepts": concepts}))
        assert main(["stats", "--input", str(d4_jsonl), "--vocab", str(vocab)]) == 0
        out = capsys.readouterr().out
        section = out.split("concept histogram:")[1].split("top class-concept")[0]
        rows = [l for l in section.strip().splitlines()]
        assert len(rows) == 17


class TestEntrypoint:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "coocbias" in capsys.readouterr().out


# Names the parser keeps as they are, plus a lone surrogate. The parser strips
# and NFC-normalizes names, so a spec name such as "b " could come back as a
# class name; such names are left out here.
spec_names = st.text(st.sampled_from(["a", "b", "c", "é", "\ud800"]), min_size=1, max_size=2)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | spec_names,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(spec_names, children, max_size=3),
    max_leaves=8,
)


def capped(value):
    """A JSON value whose integers ask for at most 40 records per class."""
    return value % 41 if isinstance(value, int) and value > 40 else value


# Per spec key, values near the valid ones; any key may also hold any JSON value.
near_values = {
    "concept_groups": st.dictionaries(spec_names, st.lists(spec_names, max_size=3), max_size=4),
    "rho": st.floats(0.4, 1.1) | st.integers(0, 2),
    "per_class_n": st.integers(-1, 40),
    "concepts_per_image": st.lists(st.integers(0, 4), max_size=3),
    "classes": st.lists(spec_names, max_size=3),
    "seed": st.integers(),
}


@st.composite
def spec_objects(draw):
    """The test SPEC with some keys dropped and others given other values."""
    obj = dict(SPEC, per_class_n=draw(st.integers(1, 40)))
    for key in draw(st.sets(st.sampled_from(sorted(near_values)))):
        value = draw(st.none() | st.tuples(near_values[key] | json_values))
        if value is None:
            del obj[key]
        else:
            obj[key] = capped(value[0]) if key == "per_class_n" else value[0]
    return obj


# Raw names, a fifth to a quarter of them ones the parser trims, NFC-normalizes
# or drops; no class name equals a concept name until cleaned ("b" and "b ").
CLASS_NAMES = ["a", "b", "c", "\u00e9"] * 3 + ["a ", "e\u0301", ""]
CONCEPT_NAMES = ["x", "y", "z", "\u00f6"] * 3 + [" x", "y\t", "b ", "o\u0308"]


@st.composite
def rewritable_groups(draw):
    """Concept groups BiasSpec accepts: disjoint, one or two names per class."""
    classes = draw(st.lists(st.sampled_from(CLASS_NAMES), min_size=2, max_size=3, unique=True))
    pool = draw(st.lists(st.sampled_from(CONCEPT_NAMES), min_size=len(classes), max_size=2 * len(classes), unique=True))
    return {label: pool[i :: len(classes)] for i, label in enumerate(classes)}


class TestSynthSpecDecoding:
    @settings(max_examples=300, deadline=None)
    @given(spec_objects() | json_values)
    def test_any_spec_exits_0_or_1(self, tmp_path_factory, obj):
        tmp = tmp_path_factory.mktemp("spec")
        spec, out = tmp / "spec.json", tmp / "ds.jsonl"
        spec.write_text(json.dumps(obj), encoding="utf-8")
        code = main(["synth", str(spec), "--out", str(out)])
        assert code in (0, 1)
        if code == 1:
            assert not out.exists()
            return
        ds, rep = parse_jsonl(out)
        assert rep.ok, rep.errors
        assert ds.n == obj["per_class_n"] * len(obj["concept_groups"])

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_lone_surrogate_name_exits_1(self, tmp_path, capsys, to_file):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SPEC).replace('"tree"', '"tree\\ud800"'), encoding="utf-8")
        out = tmp_path / "ds.jsonl"
        assert main(["synth", str(spec)] + (["--out", str(out)] if to_file else [])) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: spec: names must be valid Unicode (lone surrogate escape)\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "groups, name",
        [
            ({"a": ["b "], "b": ["c"]}, "b "),  # "b " parses as the class "b"
            ({"a ": ["x"], "a": ["y"]}, "a "),  # the two classes parse as one
            ({"a": ["x"], "": ["y"]}, ""),
            ({"a": ["e\u0301"], "b": ["y"]}, "e\u0301"),  # parses as "\u00e9"
        ],
        ids=["concept-is-class", "classes-merge", "empty", "not-nfc"],
    )
    def test_name_the_parser_rewrites_exits_1(self, tmp_path, capsys, groups, name):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"concept_groups": groups, "rho": 0.9, "per_class_n": 2, "concepts_per_image": [1, 1]}), encoding="utf-8")
        out = tmp_path / "ds.jsonl"
        assert main(["synth", str(spec), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: spec: names must be non-empty, trimmed and NFC-normalized as parsed; got {name!r}\n"
        )
        assert not out.exists()

    @settings(max_examples=150, deadline=None)
    @given(rewritable_groups())
    def test_exits_0_exactly_when_names_parse_back_unchanged(self, tmp_path_factory, groups):
        tmp = tmp_path_factory.mktemp("spec")
        spec, out = tmp / "spec.json", tmp / "ds.jsonl"
        obj = {"concept_groups": groups, "rho": 0.9, "per_class_n": 3, "concepts_per_image": [1, 1]}
        spec.write_text(json.dumps(obj), encoding="utf-8")
        names = [*groups, *(c for group in groups.values() for c in group)]
        kept = all(name and unicodedata.normalize("NFC", name).strip() == name for name in names)
        assert main(["synth", str(spec), "--out", str(out)]) == (0 if kept else 1)
        if kept:
            ds, rep = parse_jsonl(out)
            assert rep.ok, rep.errors
            assert ds == generate(BiasSpec(groups, 0.9, 3, (1, 1)), 0)

    def test_lists_and_tuples_give_the_same_dataset(self, spec_file, tmp_path):
        out = tmp_path / "ds.jsonl"
        assert main(["synth", str(spec_file), "--out", str(out)]) == 0
        spec = BiasSpec(
            groups={y: tuple(g) for y, g in SPEC["concept_groups"].items()},
            rho=SPEC["rho"],
            per_class_n=SPEC["per_class_n"],
            concepts_per_record=tuple(SPEC["concepts_per_image"]),
        )
        assert out.read_text(encoding="utf-8") == serialize_jsonl(generate(spec, SPEC["seed"]))


# Input pieces for the whole-CLI property, valid ones first and then broken
# ones: rows each parser keeps (one with a warning), rows it rejects, flag
# values argparse or the config dataclasses accept, and ones they reject.
JSONL_ROWS = D4_JSONL.splitlines() + ['{"id": "r9", "label": "A", "concepts": ["x", "x", " "]}', ""]
JSONL_BAD_ROWS = [
    '{"id": "r1", "label": "x", "concepts": ["A"]}',
    '{"id": 1, "label": "A", "concepts": []}',
    '{"id": "r8", "label": "A"}',
    r'{"id": "r7", "label": "A", "concepts": ["\ud800"]}',
    "[1, 2]",
    "not json",
]
CSV_HEADER, *CSV_ROWS = D4_CSV.splitlines() + ["r9,A,x;;x; ", '"r7",B,"x;y"', ""]
CSV_BAD_ROWS = ["r1,x,A", "r8,A", "id,label"]
VOCABS = ['{"classes": ["A", "B"], "concepts": ["x", "y", "z"]}']
BAD_VOCABS = ['{"classes": ["A"], "concepts": ["x"]}', '{"classes": ["x"], "concepts": ["x"]}', '{"classes": "AB", "concepts": []}', "[]"]
FLAGS = {
    "--format": (["auto"], ["jsonl", "csv", "xml"]),
    "--k-max": (["1", "3", "12"], ["0", "-1", "2.5", "x"]),
    "--min-support": (["1", "2"], ["0", "-3", "y"]),
    "--relax": (["0.5", "1"], ["0", "1.5", "nan", "inf", "x"]),
    "--template": (["photo", "image"], ["video"]),
    "--clip-threshold": (["0.6", "0", "1"], ["2", "-0.1", "nan", "x"]),
    "--cap": (["1", "3"], ["0", "-2", "x"]),
    "--graph-format": (["json", "dot"], ["svg"]),
    "--seed": (["0", "7", "-1"], ["x"]),
}
DATASET_FLAGS = ["--format", "--lenient"]
DIAGNOSIS_FLAGS = ["--k-max", "--min-support", "--relax", "--template", "--clip-threshold", "--cap", "--out"]
COMMAND_FLAGS = {
    "diagnose": DATASET_FLAGS + DIAGNOSIS_FLAGS,
    "sample": DATASET_FLAGS + DIAGNOSIS_FLAGS,
    "export-graph": DATASET_FLAGS + ["--min-support", "--graph-format", "--out"],
    "stats": DATASET_FLAGS,
    "synth": ["--seed", "--out"],
}


@st.composite
def cli_runs(draw):
    """One command line of any subcommand, with the bytes of each file it reads.

    In half of the runs every flag value and input row is a valid one; in the
    other half any of them may be broken, and a file may be arbitrary bytes.
    """
    broken = draw(st.booleans())

    def pick(valid, bad, noise=st.nothing()):
        return st.sampled_from(valid + bad) | noise if broken else st.sampled_from(valid)

    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command] + draw(st.sampled_from([[], ["--json-errors"]]))
    for name in COMMAND_FLAGS[command]:
        if draw(st.booleans()):
            argv += [name] if name == "--lenient" else [name, "out" if name == "--out" else draw(pick(*FLAGS[name]))]
    noise = st.binary(max_size=40) if broken else st.nothing()
    if command == "synth":
        spec = draw(spec_objects() | json_values if broken else spec_objects())
        files = {"spec.json": draw(st.just(json.dumps(spec).encode()) | noise)}
        return argv + ["spec.json"], files
    name, header, rows, bad = draw(
        st.sampled_from([("in.csv", [CSV_HEADER], CSV_ROWS, CSV_BAD_ROWS), ("in.jsonl", [], JSONL_ROWS, JSONL_BAD_ROWS)])
    )
    lines = draw(st.lists(pick(rows, bad, st.text(max_size=12)), min_size=0 if broken else 2, max_size=8, unique=not broken))
    text = "\n".join(header + lines if not broken or draw(st.booleans()) else lines)
    files = {name: draw(st.just(text.encode("utf-8", "surrogatepass")) | noise)}
    argv += ["--input", name]
    vocab = draw(st.none() | pick(VOCABS, BAD_VOCABS).map(str.encode) | noise)
    if vocab is not None:
        files["vocab.json"] = vocab
        argv += ["--vocab", "vocab.json"]
    return argv, files


class TestWholeCliFuzz:
    @settings(max_examples=500, deadline=None)
    @given(cli_runs())
    def test_any_run_exits_0_1_or_2_without_traceback(self, tmp_path_factory, run):
        argv, files = run
        tmp = tmp_path_factory.mktemp("cli")
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        argv = [str(tmp / a) if a in files or a == "out" else a for a in argv]
        # Text streams that encode as a real stdout and stderr do.
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the usage
                code = exc.code
        err.flush()
        stderr = err.buffer.getvalue().decode("utf-8")
        assert code in (0, 1, 2), (argv, stderr)
        assert "Traceback" not in stderr


ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def cli(*args):
    return [sys.executable, "-m", "coocbias", *map(str, args)]


class TestRealProcesses:
    @pytest.fixture
    def dense_jsonl(self, tmp_path):
        """Input whose diagnosis report is about 1.3 MB and plan about 0.6 MB."""
        groups = {y: tuple(f"{y}{i}" for i in range(16)) for y in ("a", "b")}
        spec = BiasSpec(groups=groups, rho=0.6, per_class_n=200, concepts_per_record=(4, 12))
        path = tmp_path / "dense.jsonl"
        path.write_text(serialize_jsonl(generate(spec, 3)), encoding="utf-8")
        return path

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["diagnose", "sample", "synth"])
    def test_closed_stdout_exits_2_without_traceback(self, tmp_path, dense_jsonl, command, unbuffered):
        if command == "synth":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(dict(SPEC, per_class_n=20_000)), encoding="utf-8")
            args = cli("synth", spec)
        else:
            args = cli(command, "--input", dense_jsonl)
        # Every output here is far larger than a pipe buffer, so the writer
        # still has bytes to write when the reader goes away.
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, env=dict(ENV, PYTHONUNBUFFERED=unbuffered))
            assert proc.stdout.read(100)
            proc.stdout.close()
            assert proc.wait(timeout=60) == 2
        stderr = (tmp_path / "stderr").read_text(encoding="utf-8")
        assert stderr.startswith("error: cannot write stdout")
        assert "Traceback" not in stderr and "Exception ignored" not in stderr

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_dev_mode_run_leaves_no_stream_open(self, d4_jsonl, via):
        # -X dev -W error turns a stream left open into an "Exception ignored" line on stderr.
        args = [sys.executable, "-X", "dev", "-W", "error", *cli("diagnose", "--input", "-" if via == "stdin" else d4_jsonl)[1:]]
        with open(d4_jsonl, "rb") as stdin:
            proc = subprocess.run(args, stdin=stdin, capture_output=True, env=ENV, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["dataset"]["records"] == 4

    def test_synth_piped_into_diagnose(self, spec_file, tmp_path):
        synth = subprocess.Popen(cli("synth", spec_file), stdout=subprocess.PIPE, env=ENV)
        diagnosed = subprocess.run(cli("diagnose", "--input", "-"), stdin=synth.stdout, capture_output=True, env=ENV, timeout=60)
        synth.stdout.close()
        assert synth.wait(timeout=60) == 0
        assert diagnosed.returncode == 0, diagnosed.stderr
        dataset, report = tmp_path / "ds.jsonl", tmp_path / "report.json"
        assert main(["synth", str(spec_file), "--out", str(dataset)]) == 0
        assert main(["diagnose", "--input", str(dataset), "--out", str(report)]) == 0
        assert diagnosed.stdout == report.read_bytes()


STDOUT_WRITERS = {
    "diagnose": ["diagnose", "--input", "{d4}"],
    "sample": ["sample", "--input", "{d4}"],
    "export-graph": ["export-graph", "--input", "{d4}"],
    "synth": ["synth", "{spec}"],
    "stats": ["stats", "--input", "{d4}"],
    "sample-summary": ["sample", "--input", "{d4}", "--out", "{out}"],
    "synth-summary": ["synth", "{spec}", "--out", "{out}"],
}


class TestStreamFailures:
    """Real processes whose stdin or stdout fails or is closed: exit 2, one error line, no traceback."""

    @pytest.fixture
    def fill(self, tmp_path, d4_jsonl, spec_file):
        def fill(command):
            return cli(*(arg.format(d4=d4_jsonl, spec=spec_file, out=tmp_path / "out") for arg in command))

        return fill

    @staticmethod
    def assert_fails(proc, message):
        assert (proc.returncode, proc.stderr.decode("utf-8")) == (2, f"error: {message}\n")

    @pytest.mark.parametrize(
        "command",
        [["synth", "-"], ["diagnose", "--input", "{d4}", "--vocab", "-"], ["diagnose", "--input", "-"]],
        ids=["synth", "vocab", "input"],
    )
    def test_write_only_stdin_exits_2(self, tmp_path, fill, command):
        with open(tmp_path / "sink", "wb") as stdin:
            proc = subprocess.run(fill(command), stdin=stdin, capture_output=True, env=ENV, timeout=60)
        self.assert_fails(proc, "cannot read -: Bad file descriptor")

    def test_non_blocking_stdin_without_data_exits_2(self):
        # The writer has sent two of four records and paused; the input is not at its end.
        lines = D4_JSONL.splitlines(keepends=True)
        assert len(lines) == 4
        r, w = os.pipe()
        try:
            os.set_blocking(r, False)
            os.write(w, "".join(lines[:2]).encode("utf-8"))
            proc = subprocess.run(cli("diagnose", "--input", "-"), stdin=r, capture_output=True, env=ENV, timeout=60)
        finally:
            os.close(r)
            os.close(w)
        self.assert_fails(proc, "cannot read -: Resource temporarily unavailable")
        assert proc.stdout == b""

    @pytest.mark.parametrize("sent", [b"", json.dumps(SPEC).encode("utf-8")[:20]], ids=["no-data", "partial"])
    @pytest.mark.parametrize(
        "command", [["synth", "-"], ["diagnose", "--input", "{d4}", "--vocab", "-"]], ids=["synth", "vocab"]
    )
    def test_non_blocking_stdin_read_whole_exits_2(self, fill, command, sent):
        # The spec and the vocabulary are read whole; a paused writer is a failed read, not a short file.
        r, w = os.pipe()
        try:
            os.set_blocking(r, False)
            os.write(w, sent)
            proc = subprocess.run(fill(command), stdin=r, capture_output=True, env=ENV, timeout=60)
        finally:
            os.close(r)
            os.close(w)
        self.assert_fails(proc, "cannot read -: Resource temporarily unavailable")
        assert proc.stdout == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", STDOUT_WRITERS.values(), ids=STDOUT_WRITERS.keys())
    def test_stdout_on_a_full_device_exits_2(self, tmp_path, fill, command):
        with open("/dev/full", "wb") as stdout:
            proc = subprocess.run(fill(command), stdout=stdout, stderr=subprocess.PIPE, env=ENV, timeout=60)
        self.assert_fails(proc, "cannot write stdout: No space left on device")
        assert (tmp_path / "out").exists() == ("--out" in command)

    @pytest.mark.parametrize("command", STDOUT_WRITERS.values(), ids=STDOUT_WRITERS.keys())
    def test_closed_stdout_exits_2(self, tmp_path, fill, command):
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *fill(command)], capture_output=True, env=ENV, timeout=60)
        self.assert_fails(proc, "cannot write stdout: stdout is closed")
        assert (tmp_path / "out").exists() == ("--out" in command)

    def test_closed_stdout_with_out_file_exits_0(self, tmp_path, d4_jsonl):
        out, expected = tmp_path / "report.json", tmp_path / "expected.json"
        args = cli("diagnose", "--input", d4_jsonl, "--out", out)
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *args], capture_output=True, env=ENV, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert main(["diagnose", "--input", str(d4_jsonl), "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()


class TestOutputPaths:
    def test_fifo_is_written_in_place(self, tmp_path, d4_jsonl):
        fifo, expected = tmp_path / "fifo", tmp_path / "expected.json"
        os.mkfifo(fifo)
        # A reader opened without blocking lets the writer open the FIFO at once;
        # the report is far smaller than a pipe buffer, so the writer never waits.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            proc = subprocess.run(cli("diagnose", "--input", d4_jsonl, "--out", fifo), capture_output=True, env=ENV, timeout=60)
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert main(["diagnose", "--input", str(d4_jsonl), "--out", str(expected)]) == 0
        assert received == expected.read_bytes()

    @pytest.mark.parametrize("existing", [True, False], ids=["target-exists", "dangling"])
    def test_symlink_target_is_written_and_link_kept(self, tmp_path, d4_jsonl, existing):
        (tmp_path / "reports").mkdir()
        target, link, expected = tmp_path / "reports" / "report.json", tmp_path / "link.json", tmp_path / "expected.json"
        if existing:
            target.write_text("stale\n", encoding="utf-8")
        link.symlink_to(Path("reports") / "report.json")
        assert main(["diagnose", "--input", str(d4_jsonl), "--out", str(link)]) == 0
        assert main(["diagnose", "--input", str(d4_jsonl), "--out", str(expected)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(Path("reports") / "report.json")
        assert target.read_bytes() == expected.read_bytes()
        assert sorted(p.name for p in (tmp_path / "reports").iterdir()) == ["report.json"]
