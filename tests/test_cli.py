"""Command-line behavior: exit codes, output formats, determinism."""

import io
import json
import sys

import pytest

from coocbias.cli import main
from coocbias.dataset import parse_jsonl
from support import D4_JSONL

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
