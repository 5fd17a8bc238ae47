"""Parsing, validation, and normalization."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias import dataset
from coocbias.cli import main
from coocbias.dataset import (
    AnnotationRecord,
    Dataset,
    ErrorEntry,
    load_vocabulary,
    parse_csv,
    parse_jsonl,
    ValidationReport,
    Vocabulary,
    serialize_jsonl,
)
from coocbias.rebalance import apply_virtual
from coocbias.report import DiagnosisConfig, canonical_chunks, diagnose, plan_jsonl, report_dict
from coocbias.synth import BiasSpec, generate
from support import COPIERS, D4_CSV, D4_JSONL, contains, datasets, reference_finalize, reference_parse

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def line(rid="r1", label="A", concepts=("x",)):
    return json.dumps({"id": rid, "label": label, "concepts": list(concepts)})


class TestParseJsonl:
    def test_two_lines(self):
        ds, rep = parse_jsonl(line("r1", "A", ["x", "y"]) + "\n" + line("r2", "A", ["x"]))
        assert rep.ok
        assert ds.n == 2
        assert ds.classes == ("A",)
        assert ds.concepts == ("x", "y")

    def test_d4(self):
        ds, rep = parse_jsonl(D4_JSONL)
        assert rep.ok
        assert ds.n == 4
        assert [r.id for r in ds.records] == ["r1", "r2", "r3", "r4"]

    def test_duplicate_concepts_dedup_with_warning(self):
        ds, rep = parse_jsonl(line(concepts=["x", "x", "y"]))
        assert ds.records[0].concepts == ("x", "y")
        assert any("dedup" in w.message for w in rep.warnings)

    def test_class_concept_collision_is_error(self):
        text = line("r1", "tree", ["tree"])
        ds, rep = parse_jsonl(text)
        assert ds is None
        assert any(e.rule == "class-concept-collision" for e in rep.errors)

    def test_collision_across_lines_names_both_records(self):
        text = line("r1", "A", ["x"]) + "\n" + line("r2", "B", ["A"])
        ds, rep = parse_jsonl(text)
        assert ds is None
        err = next(e for e in rep.errors if e.rule == "class-concept-collision")
        assert "r1" in err.message and "r2" in err.message

    def test_malformed_json_cites_line_number(self):
        text = line() + "\n{not json}\n"
        ds, rep = parse_jsonl(text)
        assert ds is None
        assert any("line 2" in e.message for e in rep.errors)

    def test_missing_field(self):
        ds, rep = parse_jsonl('{"id":"r1","label":"A"}')
        assert ds is None
        assert any(e.rule == "missing-field" for e in rep.errors)

    def test_duplicate_id(self):
        text = line("r1") + "\n" + line("r1", "B", ["y"])
        ds, rep = parse_jsonl(text)
        assert ds is None
        assert any(e.rule == "duplicate-id" for e in rep.errors)

    def test_lenient_drops_offenders_keeps_rest(self):
        text = line("r1") + "\nnot json\n" + line("r2", "B", ["y"]) + "\n" + line("r2", "B", ["y"])
        ds, rep = parse_jsonl(text, strict=False)
        assert ds is not None
        assert ds.n == 2
        assert rep.records_rejected == 2
        assert rep.records_parsed == 3  # three structurally valid lines

    def test_lenient_collision_drops_concept_side(self):
        text = line("r1", "A", ["x"]) + "\n" + line("r2", "B", ["A"])
        ds, rep = parse_jsonl(text, strict=False)
        assert ds is not None
        assert [r.id for r in ds.records] == ["r1"]
        assert ds.classes == ("A",)  # B labels only the dropped record

    def test_empty_concepts_accepted_with_warning(self):
        ds, rep = parse_jsonl(line(concepts=[]))
        assert ds is not None
        assert ds.records[0].concepts == ()
        assert any("no concepts" in w.message for w in rep.warnings)

    def test_blank_lines_skipped(self):
        ds, rep = parse_jsonl(line() + "\n\n\n" + line("r2") + "\n")
        assert ds.n == 2
        assert rep.ok

    def test_bom_and_crlf(self):
        text = "﻿" + line() + "\r\n" + line("r2") + "\r\n"
        ds, rep = parse_jsonl(text.encode("utf-8"))
        assert rep.ok
        assert ds.n == 2

    def test_nfc_normalization_and_trim(self):
        # e + combining acute normalizes to the precomposed character
        decomposed = "café"
        composed = "café"
        ds, _ = parse_jsonl(line("r1", " A ", [f"  {decomposed} "]))
        assert ds.records[0].label == "A"
        assert ds.records[0].concepts == (composed,)

    def test_lone_surrogate_name_is_encoding_error(self):
        bad = r'{"id":"r2","label":"A","concepts":["\ud800"]}'
        ds, rep = parse_jsonl(line() + "\n" + bad)
        assert ds is None
        assert [(e.rule, e.message.split(":")[0]) for e in rep.errors] == [("encoding", "line 2")]
        ds, rep = parse_jsonl(line() + "\n" + bad + "\n" + line("r3", "B", ["\u00e9"]), strict=False)
        assert [r.concepts for r in ds.records] == [("x",), ("\u00e9",)]
        assert rep.records_rejected == 1

    @pytest.mark.parametrize("wrap", [str, io.StringIO], ids=["str", "stringio"])
    def test_lone_surrogate_character_in_str_source_is_encoding_error(self, wrap):
        bad = '{"id":"r2","label":"A","concepts":["\ud800"]}'  # a real surrogate, not an escape
        ds, rep = parse_jsonl(wrap(bad))
        assert ds is None
        assert [(e.rule, e.message) for e in rep.errors][0] == ("encoding", "line 1: invalid UTF-8")
        ds, rep = parse_jsonl(wrap(line() + "\n" + bad + "\n" + line("r3", "B")), strict=False)
        assert [r.id for r in ds.records] == ["r1", "r3"]
        assert [(e.rule, e.message) for e in rep.errors] == [("encoding", "line 2: invalid UTF-8")]
        assert rep.records_rejected == 1

    def test_line_separators_inside_names_stay_on_their_line(self):
        # U+2028 and U+0085 end a line for str.splitlines, but not in JSONL.
        text = "\n".join(
            json.dumps({"id": rid, "label": "A", "concepts": [name]}, ensure_ascii=False)
            for rid, name in [("r1", "x\u2028y"), ("r2", "x\x85y"), ("r3", "x")]
        )
        ds, rep = parse_jsonl(text.encode("utf-8"))
        assert rep.ok
        assert [r.concepts for r in ds.records] == [("x\u2028y",), ("x\x85y",), ("x",)]

    def test_invalid_utf8_line_in_crlf_file(self):
        lines = [line("r1").encode(), b'{"id":"r2","label":"A","concepts":["\xff"]}', line("r3", "B").encode(), b'{"id": "r4']
        data = b"\r\n".join(lines) + b"\r\n"
        errors = [
            ("encoding", "line 2: invalid UTF-8"),
            ("malformed-line", "line 4: invalid JSON: Unterminated string starting at"),
        ]
        ds, rep = parse_jsonl(data)
        assert ds is None
        assert [(e.rule, e.message) for e in rep.errors] == errors
        ds, rep = parse_jsonl(data, strict=False)
        assert [r.id for r in ds.records] == ["r1", "r3"]
        assert [(e.rule, e.message) for e in rep.errors] == errors
        assert rep.records_rejected == 2

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("final_eol", [True, False], ids=["final-eol", "no-final-eol"])
    def test_encoding_errors_come_before_errors_of_earlier_lines(self, bom, eol, final_eol):
        data = bom + line(rid="").encode() + eol + b"\xff" + (eol if final_eol else b"")
        ds, rep = parse_jsonl(data, strict=False)
        assert ds is None
        assert [(e.rule, e.message) for e in rep.errors] == [
            ("encoding", "line 2: invalid UTF-8"),
            ("empty-field", "line 1: empty id"),
            ("no-records", "no records"),
        ]
        assert rep.records_rejected == 2

    def test_bad_types_rejected(self):
        ds, rep = parse_jsonl('{"id":1,"label":"A","concepts":["x"]}')
        assert ds is None
        ds, rep = parse_jsonl('{"id":"r1","label":"A","concepts":"x"}')
        assert ds is None
        assert any(e.rule == "bad-type" for e in rep.errors)

    def test_empty_input_is_no_records_error(self):
        ds, rep = parse_jsonl("")
        assert ds is None
        assert any(e.rule == "no-records" for e in rep.errors)

    def test_accepts_path_and_file_object(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(line(), encoding="utf-8")
        ds1, _ = parse_jsonl(p)
        with open(p, "rb") as fh:
            ds2, _ = parse_jsonl(fh)
        ds3, _ = parse_jsonl(io.StringIO(line()))
        assert ds1 == ds2 == ds3


class TestParseCsv:
    def test_basic(self):
        ds, rep = parse_csv("id,label,concepts\nr1,A,x;y\nr2,B,y\n")
        assert rep.ok
        assert ds.n == 2
        assert ds.classes == ("A", "B")
        assert ds.concepts == ("x", "y")

    def test_empty_concepts_cell(self):
        ds, rep = parse_csv("id,label,concepts\nr1,A,\n")
        assert ds.records[0].concepts == ()
        assert any("no concepts" in w.message for w in rep.warnings)

    def test_dedup_warning(self):
        ds, rep = parse_csv("id,label,concepts\nr1,A,x;x\n")
        assert ds.records[0].concepts == ("x",)
        assert any("dedup" in w.message for w in rep.warnings)

    def test_wrong_column_count(self):
        ds, rep = parse_csv("id,label,concepts\nr1,A\n")
        assert ds is None
        assert any(e.rule == "wrong-column-count" for e in rep.errors)

    def test_bad_header(self):
        ds, rep = parse_csv("identifier,label,concepts\nr1,A,x\n")
        assert ds is None
        assert any(e.rule == "bad-header" for e in rep.errors)

    def test_matches_jsonl_on_d4(self):
        ds_csv, _ = parse_csv(D4_CSV)
        ds_jsonl, _ = parse_jsonl(D4_JSONL)
        assert ds_csv == ds_jsonl

    def test_quoted_cells(self):
        ds, rep = parse_csv('id,label,concepts\nr1,"A","x;y"\n')
        assert rep.ok
        assert ds.records[0].concepts == ("x", "y")


    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("wrap", [str, io.StringIO], ids=["str", "stringio"])
    def test_lone_surrogate_character_in_str_source_is_encoding_error(self, wrap, strict):
        ds, rep = parse_csv(wrap("id,label,concepts\nr1,A,x\nr2,B,\ud800\n"), strict=strict)
        assert ds is None
        assert [(e.rule, e.message) for e in rep.errors] == [("encoding", "file is not valid UTF-8")]

    def test_oversized_cell_is_a_line_error(self):
        data = "id,label,concepts\na,b," + "x" * 200_000 + "\nc,d,e\n"
        ds, rep = parse_csv(data)
        assert ds is None
        assert [(e.rule, e.message.split(":")[0]) for e in rep.errors] == [("malformed-line", "line 2")]
        ds, rep = parse_csv(data, strict=False)
        assert [r.id for r in ds.records] == ["c"]
        assert rep.records_rejected == 1


class TestVocabularyFile:
    def test_superset_concepts_allowed(self):
        vocab = load_vocabulary({"classes": ["A"], "concepts": ["x", "y", "z"]})
        ds, rep = parse_jsonl(line(), vocabulary=vocab)
        assert rep.ok
        assert ds.concepts == ("x", "y", "z")  # z is isolated but present

    def test_unknown_concept_rejected(self):
        vocab = load_vocabulary({"classes": ["A"], "concepts": ["x"]})
        ds, rep = parse_jsonl(line(concepts=["x", "q"]), vocabulary=vocab)
        assert ds is None
        assert any(e.rule == "unknown-concept" for e in rep.errors)

    def test_unknown_class_rejected(self):
        vocab = load_vocabulary({"classes": ["B"], "concepts": ["x"]})
        ds, rep = parse_jsonl(line(), vocabulary=vocab)
        assert ds is None
        assert any(e.rule == "unknown-class" for e in rep.errors)

    def test_overlapping_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            load_vocabulary({"classes": ["x"], "concepts": ["x"]})

    @pytest.mark.parametrize("strict", [True, False])
    def test_directly_built_overlapping_vocabulary_is_reported(self, strict):
        # Building the Vocabulary is the one overlap check, so no parse sees one.
        with pytest.raises(ValueError, match=r"vocabulary: classes and concepts overlap: \['A'\]"):
            parse_jsonl(line(), strict=strict, vocabulary=Vocabulary(classes=("A",), concepts=("A", "x")))

    def test_directly_built_vocabulary_with_lone_surrogate_rejected(self):
        with pytest.raises(ValueError, match="vocabulary: names must be valid Unicode"):
            Vocabulary(classes=("A",), concepts=("x", "\udfff"))

    @pytest.mark.parametrize(
        "classes, concepts, key",
        [("AB", ("x",), "classes"), ((1,), (), "classes"), (("A",), "x", "concepts"), (("A",), [None], "concepts")],
        ids=["str-classes", "int-class", "str-concepts", "none-concept"],
    )
    def test_directly_built_vocabulary_type_checked(self, classes, concepts, key):
        with pytest.raises(ValueError, match=rf"^vocabulary\.{key}: expected a tuple or list of strings$"):
            Vocabulary(classes=classes, concepts=concepts)
        assert Vocabulary(classes=["A"], concepts=["x"]).classes == ["A"]

    def test_lone_surrogate_name_rejected(self):
        with pytest.raises(ValueError, match="surrogate"):
            load_vocabulary(rb'{"classes": ["A"], "concepts": ["\udfff"]}')

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            load_vocabulary({"classes": "A", "concepts": []})

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ValueError, match="recursion depth"):
            load_vocabulary(b"[" * 100_000)


class TestHostileJsonl:
    @pytest.mark.parametrize(
        "text", [b"[" * 100_000, b'{"id": ' + b"1" * 5000 + b"}"], ids=["nested", "long-int"]
    )
    def test_undecodable_line_is_malformed(self, text):
        ds, rep = parse_jsonl(D4_JSONL.encode() + text + b"\n")
        assert ds is None
        assert [(e.rule, e.message.split(":")[0]) for e in rep.errors] == [("malformed-line", "line 5")]
        ds, rep = parse_jsonl(D4_JSONL.encode() + text + b"\n", strict=False)
        assert ds.n == 4


# Arbitrary bytes, text over the characters JSONL and CSV parsing reacts to,
# and array nesting past the JSON decoder's recursion limit.
HOSTILE_BYTES = st.one_of(
    st.binary(),
    st.text('{}[]",:;\\\r\n\x00 \ufeffidlabelconcepts0').map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.integers(0, 100_000).map(lambda n: b"[" * n),
)


# Fixed lines, each either a record or one kind of rejection; "A" and "B" are
# labels that the collision line and the duplicate ids refer to.
COUNTED_LINES = [
    b'{"id":"g1","label":"A","concepts":["x","y"]}',
    b'{"id":"g2","label":"B","concepts":["y"]}',
    b'{"id":"g1","label":"B","concepts":["z"]}',  # duplicate id when g1 came first
    b'{"id":"c1","label":"B","concepts":["A"]}',  # collision when an A record survives
    b'{"id":"e1","label":" ","concepts":["x"]}',
    b'{"id":"s1","label":"A","concepts":["\\ud800"]}',
    b'{"id":1,"label":"A","concepts":[]}',
    b'{"id":"m1","label":"A"}',
    b"{not json",
    b"\xff\xfe",
    b"   ",
]


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(COUNTED_LINES), max_size=12))
    def test_lenient_counts_every_line(self, lines):
        ds, rep = parse_jsonl(b"\n".join(lines), strict=False)
        assert (ds.n if ds else 0) + rep.records_rejected == sum(1 for l in lines if l.strip())

    @settings(max_examples=300, deadline=None)
    @given(HOSTILE_BYTES, st.booleans(), st.sampled_from([parse_jsonl, parse_csv]))
    def test_parsers_only_report(self, data, strict, parse):
        ds, rep = parse(data, strict=strict)
        assert isinstance(rep, ValidationReport)
        assert isinstance(ds, Dataset) or (ds is None and rep.errors)

    @settings(max_examples=300, deadline=None)
    @given(HOSTILE_BYTES)
    def test_load_vocabulary_only_raises_value_error(self, data):
        try:
            assert isinstance(load_vocabulary(data), Vocabulary)
        except ValueError:
            pass


# Names a cache could conflate: padded, NFC and NFD spellings of one name,
# empty and blank names, and a concept spelled like a label ("cat").
# Multi-character names, because CPython shares every one-character string.
LABEL_SPELLINGS = ["cat", " cat", "cat ", "dog", "caf\u00e9", "cafe\u0301", ""]
CONCEPT_SPELLINGS = ["sky", " sky", "sky ", "sea", "caf\u00e9", "cafe\u0301 ", "", " ", "cat"]
# A few whole lists, so that lists repeat, some spelled differently.
CONCEPT_LISTS = [["sky", "sea"], ["sea", "sky"], [" sky", "sea "], ["sky", "sky"], [], [""], ["cafe\u0301 "]]
REFERENCE_VOCAB = load_vocabulary({"classes": ["cat", "dog"], "concepts": ["sky", "sea", "sun"]})
ROWS = st.lists(
    st.tuples(
        st.sampled_from(["r1", "r2", " r3 ", "r\u00e9", ""]) | st.integers(10, 40).map(lambda i: f"r{i}"),
        st.sampled_from(LABEL_SPELLINGS),
        st.sampled_from(CONCEPT_LISTS) | st.lists(st.sampled_from(CONCEPT_SPELLINGS), max_size=4),
    ),
    max_size=15,
)
# Lines that are not records, each rejected by one JSONL rule.
BAD_JSONL_LINES = [b"{not json", b"[1]", b'{"id":"q","label":"cat"}', b'{"id":"q","label":"cat","concepts":["sky",1]}', b"\xff"]


def render_jsonl(rows, bad, eol, ascii_only):
    lines = [json.dumps({"id": i, "label": l, "concepts": c}, ensure_ascii=ascii_only).encode() for i, l, c in rows]
    for pos, text in bad:
        lines.insert(pos % (len(lines) + 1), text)
    return eol.join(lines) + eol


def render_csv(rows, eol):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=eol.decode())
    writer.writerow(["id", "label", "concepts"])
    writer.writerows([i, l, ";".join(c)] for i, l, c in rows)
    return buf.getvalue().encode()


class TestReferenceParser:
    """parse_jsonl, parse_csv and from_records against the naive reference in support.py."""

    @settings(max_examples=400, deadline=None)
    @given(
        ROWS,
        st.lists(st.tuples(st.integers(0, 15), st.sampled_from(BAD_JSONL_LINES)), max_size=2),
        st.sampled_from([b"\n", b"\r\n"]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([None, REFERENCE_VOCAB]),
    )
    def test_parsers_match_reference(self, rows, bad, eol, ascii_only, strict, vocab):
        for fmt, data, parse in [
            ("jsonl", render_jsonl(rows, bad, eol, ascii_only), parse_jsonl),
            ("csv", render_csv(rows, eol), parse_csv),
        ]:
            ds, rep = parse(data, strict=strict, vocabulary=vocab)
            assert (ds, rep) == reference_parse(data, fmt, strict, vocab)
            # Records with equal raw lists or labels share one cleaned object.
            records = ds.records if ds else ()
            assert len({id(r.concepts) for r in records}) <= len({tuple(c) for _, _, c in rows})
            assert len({id(r.label) for r in records}) <= len({l for _, l, _ in rows})

    @settings(max_examples=300, deadline=None)
    @given(ROWS, st.sampled_from([None, REFERENCE_VOCAB]))
    def test_from_records_matches_reference(self, rows, vocab):
        records = [AnnotationRecord(i, l, tuple(sorted(set(c)))) for i, l, c in rows]
        if any(not r.id or not r.label for r in records):
            with pytest.raises(ValueError, match="empty id or label"):
                Dataset.from_records(records, vocab)
            return
        expected, rep = reference_finalize(list(enumerate(records, start=1)), ValidationReport(), True, vocab, "record")
        if expected is None:
            with pytest.raises(ValueError) as exc:
                Dataset.from_records(records, vocab)
            assert str(exc.value) == rep.errors[0].message
        else:
            assert Dataset.from_records(records, vocab) == expected


class ChunkedRaw(io.RawIOBase):
    """A raw stream that hands out ``data`` a few bytes per read, cycling through ``sizes``."""

    def __init__(self, data: bytes, sizes=(1, 7, 3)):
        self.data = data
        self.pos = 0
        self.sizes = itertools.cycle(sizes)

    def readable(self):
        return True

    def readinto(self, buffer):
        n = min(next(self.sizes), len(buffer), len(self.data) - self.pos)
        buffer[:n] = self.data[self.pos : self.pos + n]
        self.pos += n
        return n


def streamed_sources(data, path, sizes=(1, 7, 3)):
    """``data`` as whole bytes and as each kind of binary stream a parser reads lazily."""
    path.write_bytes(data)
    return {
        "bytes": data,
        "bytesio": io.BytesIO(data),
        "path": path,
        "raw": ChunkedRaw(data, sizes),
        "buffered": io.BufferedReader(ChunkedRaw(data, sizes)),
    }


ENCODING_ONLY = ValidationReport(errors=[ErrorEntry("", "encoding", "file is not valid UTF-8")])
STRAY_CR = (
    "unreadable CSV row (a carriage return outside quotes, a field over the csv module's size limit, "
    "or a NUL on Python 3.10)"
)


class TestStreamedParse:
    """Every source, read as a stream a few bytes at a time, parses as its whole bytes do."""

    @settings(max_examples=200, deadline=None)
    @given(
        ROWS,
        st.lists(st.tuples(st.integers(0, 15), st.sampled_from(BAD_JSONL_LINES)), max_size=2),
        st.sampled_from([b"\n", b"\r\n"]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sampled_from([None, REFERENCE_VOCAB]),
        st.lists(st.integers(1, 7), min_size=1, max_size=6),
    )
    def test_streamed_sources_match_reference(self, tmp_path_factory, rows, bad, eol, bom, ascii_only, strict, vocab, sizes):
        folder = tmp_path_factory.mktemp("streamed")
        prefix = b"\xef\xbb\xbf" if bom else b""
        for fmt, data, parse in [
            ("jsonl", prefix + render_jsonl(rows, bad, eol, ascii_only), parse_jsonl),
            ("csv", prefix + render_csv(rows, eol), parse_csv),
        ]:
            expected = reference_parse(data, fmt, strict, vocab)
            for kind, source in streamed_sources(data, folder / f"input.{fmt}", sizes).items():
                assert parse(source, strict=strict, vocabulary=vocab) == expected, kind
                # The parser leaves a stream it was handed open.
                assert not getattr(source, "closed", False), kind

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "data",
        [
            b"foo,bar\n\xff\n",
            # Well past the first chunk the decoder reads, after warnings and records.
            b"id,label,concepts\n" + b"".join(b"r%d,A,x;x\n" % i for i in range(2000)) + b"r,B,\xff\n",
        ],
        ids=["after-bad-header", "after-warned-lines"],
    )
    def test_csv_invalid_byte_is_the_only_error(self, tmp_path, data, strict):
        for kind, source in streamed_sources(data, tmp_path / "input.csv").items():
            assert parse_csv(source, strict=strict) == (None, ENCODING_ONLY), kind

    @pytest.mark.parametrize(
        "data, kept, error",
        [
            (b"id,label,concepts\nr1,A,x\rr2,B,y\nr3,B,z\n", [("r3", ("z",))], "line 2: " + STRAY_CR),
            (b'id,label,concepts\r\nr1,A,"x\ry"\r\nr2,B,y\rz\r\n', [("r1", ("x\ry",))], "line 3: " + STRAY_CR),
        ],
        ids=["unquoted", "quoted-then-unquoted"],
    )
    def test_csv_stray_cr_splits_no_line(self, tmp_path, data, kept, error):
        for kind, source in streamed_sources(data, tmp_path / "input.csv").items():
            ds, rep = parse_csv(source, strict=False)
            assert [(r.id, r.concepts) for r in ds.records] == kept, kind
            assert [(e.rule, e.message) for e in rep.errors] == [("malformed-line", error)], kind

    @pytest.mark.parametrize("opened", [False, True], ids=["path", "open-file"])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_streamed_parse_holds_far_less_than_the_input(self, tmp_path, fmt, opened):
        # 20k long lines but small records: every record shares one padded
        # concept list, which is cleaned once.
        n, concepts = 20_000, ["sky" + " " * 500, "sea"]
        if fmt == "jsonl":
            lines = (json.dumps({"id": f"r{i}", "label": ("cat", "dog")[i % 2], "concepts": concepts}) for i in range(n))
        else:
            lines = itertools.chain(["id,label,concepts"], (f"r{i},{('cat', 'dog')[i % 2]},{';'.join(concepts)}" for i in range(n)))
        path = tmp_path / f"input.{fmt}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        size = path.stat().st_size
        parse = parse_jsonl if fmt == "jsonl" else parse_csv
        with path.open("rb") if opened else contextlib.nullcontext(path) as source:
            tracemalloc.start()
            try:
                ds, rep = parse(source)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert rep.ok and ds.n == n
        # What a parse adds on top of what it keeps is mostly the id check's buckets.
        assert peak < kept + size / 2, f"traced peak {peak} B with {kept} B kept, on a {size} B input"


class TestRecordMasks:
    @PROPERTY_SETTINGS
    @given(datasets())
    def test_bit_per_record_and_name(self, ds):
        assert set(ds.masks) == set(ds.classes) | set(ds.concepts)
        for name, mask in ds.masks.items():
            bits = [pos for pos, r in enumerate(ds.records) if contains(r, name)]
            assert mask == sum(1 << pos for pos in bits)

    def test_replace_builds_its_own_index(self, d4):
        before = dict(d4.masks)
        grown = dataclasses.replace(d4, records=d4.records + (AnnotationRecord("r5", "A", ("y",)),))
        assert grown.masks["A"] == before["A"] | 1 << 4
        assert grown.masks["y"] == before["y"] | 1 << 4
        assert grown.masks["x"] == before["x"]
        assert d4.masks == before

    def test_vocabulary_only_concept_maps_to_zero(self):
        vocab = load_vocabulary({"classes": ["A"], "concepts": ["x", "z"]})
        ds, _ = parse_jsonl(line(), vocabulary=vocab)
        assert ds.masks == {"A": 1, "x": 1, "z": 0}


class TestSlottedRecord:
    """A record is a slotted frozen dataclass that behaves as a value."""

    def test_no_instance_dict_and_value_semantics(self):
        rec = AnnotationRecord("r1", "A", ("x", "y"))
        assert not hasattr(rec, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(rec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.id = "r2"
        same = AnnotationRecord(id="r1", label="A", concepts=("x", "y"))
        assert rec == same and hash(rec) == hash(same)
        assert rec != AnnotationRecord("r1", "A", ("x",))
        assert repr(rec) == "AnnotationRecord(id='r1', label='A', concepts=('x', 'y'))"

    @COPIERS
    def test_record_round_trips(self, copier):
        rec = AnnotationRecord("r1", "A", ("x", "y"))
        twin = copier(rec)
        assert type(twin) is AnnotationRecord
        assert twin == rec and hash(twin) == hash(rec)

    @COPIERS
    def test_parsed_dataset_round_trips(self, copier):
        ds, _ = parse_jsonl(D4_JSONL)
        before = copier(ds)  # copied before the masks are cached
        assert before == ds
        assert before.masks == ds.masks
        after = copier(ds)  # copied with the masks cached
        assert after == ds
        assert after.masks == ds.masks


class TestDatasetInvariants:
    def test_from_records_rejects_empty(self):
        with pytest.raises(ValueError, match="no records"):
            Dataset.from_records([])

    def test_from_records_rejects_duplicate_id(self):
        recs = [AnnotationRecord("r1", "A", ("x",)), AnnotationRecord("r1", "B", ())]
        with pytest.raises(ValueError, match="duplicate id"):
            Dataset.from_records(recs)

    def test_from_records_rejects_collision(self):
        recs = [AnnotationRecord("r1", "A", ("B",)), AnnotationRecord("r2", "B", ())]
        with pytest.raises(ValueError, match="collision"):
            Dataset.from_records(recs)

    def test_from_records_rejects_unsorted_concepts(self):
        with pytest.raises(ValueError, match="sorted"):
            Dataset.from_records([AnnotationRecord("r1", "A", ("y", "x"))])

    @pytest.mark.parametrize(
        "record, message",
        [
            (AnnotationRecord(1, "A", ("x",)), "record id and label must be strings: AnnotationRecord(id=1, "),
            (AnnotationRecord("r2", None, ("x",)), "record id and label must be strings: AnnotationRecord(id='r2', "),
            (AnnotationRecord("r2", "A", ["x", "y"]), "record 'r2': concepts must be a tuple of strings"),
            (AnnotationRecord("r2", "A", ["x"]), "record 'r2': concepts must be a tuple of strings"),
            (AnnotationRecord("r2", "A", (1,)), "record 'r2': concepts must be a tuple of strings"),
            (AnnotationRecord("r2", "A", (["x"],)), "record 'r2': concepts must be a tuple of strings"),
        ],
        ids=["int-id", "none-label", "sorted-list", "list-of-a-checked-tuple", "int-concept", "unhashable-concept"],
    )
    def test_from_records_rejects_wrong_types(self, record, message):
        # The first record puts ("x",) among the concept tuples already checked.
        with pytest.raises(ValueError) as exc:
            Dataset.from_records([AnnotationRecord("r1", "B", ("x",)), record])
        assert str(exc.value).startswith(message)

    def test_from_records_checks_vocabulary(self):
        vocab = Vocabulary(classes=("A",), concepts=("x", "z"))
        ds = Dataset.from_records([AnnotationRecord("r1", "A", ("x",))], vocabulary=vocab)
        assert ds.concepts == ("x", "z")
        for label, concept, word in [("B", "x", "label"), ("A", "q", "concept")]:
            with pytest.raises(ValueError, match=f"{word}.*not in vocabulary") as exc:
                Dataset.from_records([AnnotationRecord("r1", label, (concept,))], vocabulary=vocab)
            assert "line" not in str(exc.value)

    def test_vocabulary_accessor(self, d4):
        assert (d4.classes, d4.concepts) == (("A", "B"), ("x", "y"))

    def test_concept_cardinality_64(self):
        # vocabularies of this size parse and report exactly, nothing clipped
        recs = [
            AnnotationRecord(f"r{i}", "A" if i % 2 else "B", (f"c{i:02d}",))
            for i in range(64)
        ]
        ds = Dataset.from_records(recs)
        assert len(ds.concepts) == 64
        assert ds.concepts == tuple(sorted(f"c{i:02d}" for i in range(64)))


class TestRoundTrip:
    def test_d4_round_trip(self, d4):
        ds2, rep = parse_jsonl(serialize_jsonl(d4))
        assert rep.ok
        assert ds2 == d4

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_serialize_parse_round_trip(self, ds):
        ds2, rep = parse_jsonl(serialize_jsonl(ds))
        assert rep.ok
        assert ds2.classes == ds.classes
        assert ds2.concepts == ds.concepts
        assert ds2.n == ds.n
        assert {(r.id, r.label, r.concepts) for r in ds2.records} == {
            (r.id, r.label, r.concepts) for r in ds.records
        }

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_csv_jsonl_equivalence(self, ds):
        csv_text = "id,label,concepts\n" + "".join(
            f"{r.id},{r.label},{';'.join(r.concepts)}\n" for r in ds.records
        )
        ds_csv, rep = parse_csv(csv_text)
        assert rep.ok
        assert ds_csv == ds


def _made_three_ways(ds):
    """``ds`` parsed back from its JSONL, through ``from_records``, and built directly from records."""
    records = ds.records
    parsed, rep = parse_jsonl(serialize_jsonl(ds))
    assert rep.ok
    return {
        "parsed": parsed,
        "from_records": Dataset.from_records(records),
        "direct": Dataset(records=records, classes=ds.classes, concepts=ds.concepts),
    }


class TestColumnBackedDataset:
    """Rows held as columns or as the records they were built from make the same value."""

    @PROPERTY_SETTINGS
    @given(datasets())
    def test_every_construction_agrees(self, ds):
        made = _made_three_ways(ds)
        first = made["direct"]
        for kind, other in made.items():
            assert other == first and hash(other) == hash(first) and repr(other) == repr(first), kind
            assert (other.n, other.masks) == (first.n, first.masks), kind
            assert [f.name for f in dataclasses.fields(other)] == ["records", "classes", "concepts"], kind
            assert dataclasses.replace(other) == other, kind
            assert dataclasses.replace(other, classes=other.classes).masks == other.masks, kind

    @COPIERS
    @settings(max_examples=40, deadline=None)
    @given(ds=datasets())
    def test_copies_before_and_after_reads(self, copier, ds):
        for kind, made in _made_three_ways(ds).items():
            before = copier(made)  # nothing read or cached yet
            made.records, made.masks
            after = copier(made)
            assert before == made == after, kind
            assert before.n == made.n == after.n, kind
            assert before.masks == made.masks == after.masks, kind

    def test_records_is_built_once(self):
        parsed, _ = parse_jsonl(D4_JSONL)
        assert parsed.records is parsed.records
        given_records = parsed.records
        direct = Dataset(records=given_records, classes=parsed.classes, concepts=parsed.concepts)
        assert direct.records is given_records

    def test_records_field_stays_required_and_frozen(self):
        with pytest.raises(TypeError, match="records"):
            Dataset(classes=("A",), concepts=("x",))
        parsed, _ = parse_jsonl(D4_JSONL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            parsed.records = ()


class TestColumnsHeldFromConstruction:
    """A dataset given records splits them into columns once, as it is built, and never again."""

    @pytest.fixture
    def splits(self, monkeypatch):
        """How many times ``dataset._split`` ran since the fixture started."""
        count = [0]
        split = dataset._split

        def counting_split(records):
            count[0] += 1
            return split(records)

        monkeypatch.setattr(dataset, "_split", counting_split)
        return count

    @pytest.mark.parametrize("parse", [parse_jsonl, parse_csv])
    def test_given_records_are_split_once(self, splits, parse):
        parsed, _ = parse(D4_CSV if parse is parse_csv else D4_JSONL)
        plan = diagnose(parsed).plan
        grown = apply_virtual(parsed, plan)
        assert grown.n > parsed.n and parsed.masks and serialize_jsonl(parsed)
        assert splits == [0]  # a parse and apply_virtual hand over columns
        given = parsed.records
        direct = Dataset(records=given, classes=parsed.classes, concepts=parsed.concepts)
        assert splits == [1]
        assert direct.n == parsed.n
        assert direct.masks == parsed.masks
        assert direct.records is given
        assert serialize_jsonl(direct) == serialize_jsonl(parsed)
        assert apply_virtual(direct, plan) == grown
        assert splits == [1]


class TestRecordsBuiltOnlyWhenRead:
    """The CLI subcommands that read a dataset and the library loop build no AnnotationRecord."""

    @pytest.fixture
    def built(self, monkeypatch):
        """How many AnnotationRecords were constructed since the fixture started."""
        count = [0]
        init = AnnotationRecord.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(AnnotationRecord, "__init__", counting_init)
        AnnotationRecord("r0", "A", ())
        assert count == [1]  # the wrapper sees every construction
        count[0] = 0
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
        [
            ["diagnose", "--relax", "0.5"],
            ["sample", "--cap", "3"],
            ["stats"],
            ["export-graph", "--graph-format", "dot"],
            ["export-graph"],
        ],
        ids=["diagnose", "sample", "stats", "export-graph-dot", "export-graph-json"],
    )
    def test_cli_builds_no_record(self, built, input_path, capsys, args):
        assert main([args[0], "--input", str(input_path), *args[1:]]) == 0
        assert capsys.readouterr().out
        assert built == [0]

    def test_library_loop_builds_no_record(self, built, input_path):
        dataset, _ = parse_jsonl(input_path)
        diagnosis = diagnose(dataset, DiagnosisConfig(k_max=3, relax_fraction=0.5))
        assert "".join(canonical_chunks(report_dict(diagnosis, dataset, "0" * 64)))
        assert plan_jsonl(diagnosis.plan)
        grown = apply_virtual(dataset, diagnosis.plan)
        assert grown.n > dataset.n
        diagnose(grown, DiagnosisConfig(k_max=3, relax_fraction=0.5))
        assert serialize_jsonl(grown)
        assert built == [0]
        assert len(grown.records) == grown.n  # reading records is what builds them
        assert built == [grown.n]
