"""Parsing, validation, and normalization of concept-annotated datasets.

A record pairs an image id and a class label with the set of concept names
annotated as present in that image. Two carriers are supported:

* JSONL: one object per line with string fields ``id`` and ``label`` and a
  string array ``concepts``.
* CSV: header row ``id,label,concepts`` where the concepts cell is a
  ``;``-separated list.

Both parsers normalize names (Unicode NFC, surrounding whitespace trimmed,
case preserved), deduplicate concepts per record, and enforce that class and
concept name spaces never overlap. Parsing is single-threaded per stream; a
constructed :class:`Dataset` is immutable and safe for concurrent reads.
"""

from __future__ import annotations

import csv
import io
import json
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Union

__all__ = [
    "AnnotationRecord",
    "Dataset",
    "ErrorEntry",
    "WarningEntry",
    "ValidationReport",
    "Vocabulary",
    "load_vocabulary",
    "parse_jsonl",
    "parse_csv",
    "serialize_jsonl",
    "vocabulary",
]

Source = Union[bytes, str, Path, IO[bytes], IO[str]]

CSV_HEADER = ("id", "label", "concepts")


def _clean(name: str) -> str:
    return unicodedata.normalize("NFC", name).strip()


@dataclass(frozen=True)
class AnnotationRecord:
    """One image's metadata: opaque id, class label, concepts present.

    ``concepts`` is duplicate-free and sorted lexicographically; presence is
    all that matters, multiplicity in the source is collapsed.
    """

    id: str
    label: str
    concepts: tuple[str, ...]


@dataclass(frozen=True)
class Dataset:
    """An immutable, validated collection of annotation records.

    ``classes`` is the sorted set of labels observed in ``records``;
    ``concepts`` is the sorted union of record concept sets, or the
    (super)set supplied by an explicit vocabulary. The two name spaces are
    disjoint by construction.
    """

    records: tuple[AnnotationRecord, ...]
    classes: tuple[str, ...]
    concepts: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.records)

    @cached_property
    def masks(self) -> dict[str, int]:
        """Record bitset per class and concept name, built on first access.

        Bit i is set when record i has that label or concept, so a popcount
        of ANDed masks counts records; an unused name maps to 0. A copy made
        with ``dataclasses.replace`` builds its own.
        """
        size = (len(self.records) + 7) // 8
        bits = {name: bytearray(size) for name in self.classes + self.concepts}
        for pos, rec in enumerate(self.records):
            byte, bit = pos >> 3, 1 << (pos & 7)
            bits[rec.label][byte] |= bit
            for c in rec.concepts:
                bits[c][byte] |= bit
        return {name: int.from_bytes(buf, "little") for name, buf in bits.items()}

    @classmethod
    def from_records(
        cls,
        records: Iterable[AnnotationRecord],
        vocabulary: Vocabulary | None = None,
    ) -> "Dataset":
        """Build a dataset from already-normalized records.

        Raises ValueError on any invariant violation (empty input, duplicate
        ids, class/concept collision, record names outside an explicit
        vocabulary). Parsers report these problems per line instead; this
        constructor is the strict programmatic entry point.
        """
        recs = tuple(records)
        if not recs:
            raise ValueError("no records")
        seen: set[str] = set()
        for r in recs:
            if not r.id or not r.label:
                raise ValueError(f"record with empty id or label: {r!r}")
            if r.id in seen:
                raise ValueError(f"duplicate id: {r.id!r}")
            seen.add(r.id)
            if tuple(sorted(set(r.concepts))) != r.concepts:
                raise ValueError(f"record {r.id!r}: concepts must be sorted and duplicate-free")
        classes = tuple(sorted({r.label for r in recs}))
        observed = sorted(set().union(*(set(r.concepts) for r in recs)))
        if vocabulary is not None:
            class_set = set(vocabulary.classes)
            concept_set = set(vocabulary.concepts)
            for r in recs:
                if r.label not in class_set:
                    raise ValueError(f"record {r.id!r}: label {r.label!r} not in vocabulary")
                for c in r.concepts:
                    if c not in concept_set:
                        raise ValueError(f"record {r.id!r}: concept {c!r} not in vocabulary")
            concepts = tuple(sorted(concept_set))
        else:
            concepts = tuple(observed)
        collisions = set(classes) & set(concepts)
        if collisions:
            raise ValueError(f"class/concept collision: {sorted(collisions)!r}")
        return cls(records=recs, classes=classes, concepts=concepts)


@dataclass(frozen=True)
class Vocabulary:
    """Optional explicit name lists; record names must be members."""

    classes: tuple[str, ...]
    concepts: tuple[str, ...]


def load_vocabulary(data: Source | dict) -> Vocabulary:
    """Load a vocabulary from a JSON object ``{"classes": [...], "concepts": [...]}``."""
    if not isinstance(data, dict):
        try:
            data = json.loads(_source_text(data))
        except RecursionError as exc:
            raise ValueError(f"vocabulary: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("vocabulary: expected a JSON object")
    for key in ("classes", "concepts"):
        values = data.get(key)
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise ValueError(f"vocabulary.{key}: expected an array of strings")
    classes = tuple(sorted({_clean(v) for v in data["classes"]} - {""}))
    concepts = tuple(sorted({_clean(v) for v in data["concepts"]} - {""}))
    overlap = set(classes) & set(concepts)
    if overlap:
        raise ValueError(f"vocabulary: classes and concepts overlap: {sorted(overlap)!r}")
    return Vocabulary(classes=classes, concepts=concepts)


@dataclass(frozen=True)
class ErrorEntry:
    record_id: str
    rule: str
    message: str


@dataclass(frozen=True)
class WarningEntry:
    record_id: str
    message: str


@dataclass
class ValidationReport:
    """Outcome of one parse: errors, warnings, and summary counts.

    ``records_parsed`` counts lines that yielded a structurally valid record;
    ``records_rejected`` counts malformed lines plus parsed records dropped by
    validation. In strict mode any error prevents dataset construction; in
    lenient mode offending records are dropped and the rest survive.
    """

    errors: list[ErrorEntry] = field(default_factory=list)
    warnings: list[WarningEntry] = field(default_factory=list)
    records_parsed: int = 0
    records_rejected: int = 0
    distinct_classes: int = 0
    distinct_concepts: int = 0

    def error(self, record_id: str, rule: str, message: str) -> None:
        self.errors.append(ErrorEntry(record_id, rule, message))

    def warn(self, record_id: str, message: str) -> None:
        self.warnings.append(WarningEntry(record_id, message))

    @property
    def ok(self) -> bool:
        return not self.errors


def _source_bytes(source: Source) -> bytes:
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    if isinstance(source, str):
        return source.encode("utf-8")
    if isinstance(source, Path):
        return source.read_bytes()
    data = source.read()
    if isinstance(data, str):
        return data.encode("utf-8")
    return data


def _source_text(source: Source) -> str:
    # utf-8-sig drops a leading BOM if present
    return _source_bytes(source).decode("utf-8-sig")


def _decoded_lines(data: bytes, report: ValidationReport) -> list[tuple[int, str]]:
    """Split into (1-based line number, text) pairs; LF or CRLF accepted."""
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    out: list[tuple[int, str]] = []
    for line_no, raw in enumerate(data.split(b"\n"), start=1):
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        try:
            out.append((line_no, raw.decode("utf-8")))
        except UnicodeDecodeError:
            report.error("", "encoding", f"line {line_no}: invalid UTF-8")
            report.records_rejected += 1
    return out


def _build_record(
    rid: str,
    label: str,
    concept_items: list[str],
    line_no: int,
    report: ValidationReport,
) -> AnnotationRecord | None:
    rid = _clean(rid)
    label = _clean(label)
    if not rid:
        report.error("", "empty-field", f"line {line_no}: empty id")
        return None
    if not label:
        report.error(rid, "empty-field", f"line {line_no}: empty label")
        return None
    cleaned = [_clean(c) for c in concept_items]
    if any(c == "" for c in cleaned):
        report.warn(rid, f"line {line_no}: empty concept name ignored")
        cleaned = [c for c in cleaned if c]
    if len(set(cleaned)) < len(cleaned):
        report.warn(rid, f"line {line_no}: duplicate concepts deduplicated")
    concepts = tuple(sorted(set(cleaned)))
    if not concepts:
        report.warn(rid, f"line {line_no}: record has no concepts")
    return AnnotationRecord(id=rid, label=label, concepts=concepts)


def _finalize(
    candidates: list[tuple[int, AnnotationRecord]],
    report: ValidationReport,
    strict: bool,
    vocab: Vocabulary | None,
) -> tuple[Dataset | None, ValidationReport]:
    report.records_parsed = len(candidates)

    deduped: list[tuple[int, AnnotationRecord]] = []
    first_line: dict[str, int] = {}
    for line_no, rec in candidates:
        if rec.id in first_line:
            report.error(
                rec.id,
                "duplicate-id",
                f"line {line_no}: duplicate id {rec.id!r} (first seen on line {first_line[rec.id]})",
            )
            report.records_rejected += 1
            continue
        first_line[rec.id] = line_no
        deduped.append((line_no, rec))

    if vocab is not None:
        in_vocab: list[tuple[int, AnnotationRecord]] = []
        class_set = set(vocab.classes)
        concept_set = set(vocab.concepts)
        for line_no, rec in deduped:
            unknown = [c for c in rec.concepts if c not in concept_set]
            if rec.label not in class_set:
                report.error(rec.id, "unknown-class", f"line {line_no}: label {rec.label!r} not in vocabulary")
                report.records_rejected += 1
            elif unknown:
                report.error(rec.id, "unknown-concept", f"line {line_no}: concepts not in vocabulary: {unknown!r}")
                report.records_rejected += 1
            else:
                in_vocab.append((line_no, rec))
        deduped = in_vocab

    # Class/concept collision is a file-level check: a name may not be used
    # both as a label and as a concept anywhere. In lenient mode the records
    # using the name as a concept are dropped, keeping the label side intact.
    label_source: dict[str, tuple[int, str]] = {}
    for line_no, rec in deduped:
        label_source.setdefault(rec.label, (line_no, rec.id))
    survivors: list[AnnotationRecord] = []
    for line_no, rec in deduped:
        hits = [c for c in rec.concepts if c in label_source]
        if hits:
            other_line, other_id = label_source[hits[0]]
            report.error(
                rec.id,
                "class-concept-collision",
                f"line {line_no}: class/concept collision: {hits[0]!r} is a concept of "
                f"record {rec.id!r} and the label of record {other_id!r} (line {other_line})",
            )
            report.records_rejected += 1
            continue
        survivors.append(rec)

    if not survivors:
        report.error("", "no-records", "no records")
    if (strict and report.errors) or not survivors:
        return None, report

    dataset = Dataset.from_records(survivors, vocabulary=vocab)
    report.distinct_classes = len(dataset.classes)
    report.distinct_concepts = len(dataset.concepts)
    return dataset, report


def parse_jsonl(
    source: Source,
    *,
    strict: bool = True,
    vocabulary: Vocabulary | None = None,
) -> tuple[Dataset | None, ValidationReport]:
    """Parse JSONL annotations into a validated Dataset.

    Returns ``(dataset, report)``; the dataset is None when errors block
    construction. Blank lines are skipped; record order follows file order.
    """
    report = ValidationReport()
    candidates: list[tuple[int, AnnotationRecord]] = []
    for line_no, text in _decoded_lines(_source_bytes(source), report):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            report.error("", "malformed-line", f"line {line_no}: invalid JSON: {getattr(exc, 'msg', exc)}")
            report.records_rejected += 1
            continue
        if not isinstance(obj, dict):
            report.error("", "malformed-line", f"line {line_no}: not a JSON object")
            report.records_rejected += 1
            continue
        missing = [k for k in ("id", "label", "concepts") if k not in obj]
        if missing:
            report.error("", "missing-field", f"line {line_no}: missing fields: {missing!r}")
            report.records_rejected += 1
            continue
        rid, label, concepts = obj["id"], obj["label"], obj["concepts"]
        if not isinstance(rid, str) or not isinstance(label, str):
            report.error("", "bad-type", f"line {line_no}: id and label must be strings")
            report.records_rejected += 1
            continue
        if not isinstance(concepts, list) or not all(isinstance(c, str) for c in concepts):
            report.error(rid, "bad-type", f"line {line_no}: concepts must be an array of strings")
            report.records_rejected += 1
            continue
        rec = _build_record(rid, label, concepts, line_no, report)
        if rec is None:
            report.records_rejected += 1
            continue
        candidates.append((line_no, rec))
    return _finalize(candidates, report, strict, vocabulary)


def parse_csv(
    source: Source,
    *,
    strict: bool = True,
    vocabulary: Vocabulary | None = None,
) -> tuple[Dataset | None, ValidationReport]:
    """Parse CSV annotations (header ``id,label,concepts``) into a Dataset.

    The concepts cell is a ``;``-separated list; quoting follows standard CSV
    rules. Produces a dataset identical to :func:`parse_jsonl` on semantically
    equal content.
    """
    report = ValidationReport()
    try:
        text = _source_text(source)
    except UnicodeDecodeError:
        report.error("", "encoding", "file is not valid UTF-8")
        return None, report

    reader = csv.reader(io.StringIO(text))
    header: list[str] | None = None
    candidates: list[tuple[int, AnnotationRecord]] = []
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            report.error("", "malformed-line", f"line {reader.line_num}: {exc}")
            report.records_rejected += 1
            continue
        line_no = reader.line_num
        if not row or not any(cell.strip() for cell in row):
            continue
        if header is None:
            header = [cell.strip() for cell in row]
            if tuple(header) != CSV_HEADER:
                report.error("", "bad-header", f"line {line_no}: expected header id,label,concepts, got {','.join(header)!r}")
                return None, report
            continue
        if len(row) != 3:
            report.error("", "wrong-column-count", f"line {line_no}: expected 3 columns, got {len(row)}")
            report.records_rejected += 1
            continue
        rid, label, cell = row
        items = cell.split(";") if cell.strip() else []
        rec = _build_record(rid, label, items, line_no, report)
        if rec is None:
            report.records_rejected += 1
            continue
        candidates.append((line_no, rec))
    if header is None:
        report.error("", "bad-header", "empty file: missing header row")
        return None, report
    return _finalize(candidates, report, strict, vocabulary)


def serialize_jsonl(dataset: Dataset) -> str:
    """Render a dataset back to JSONL; parse_jsonl round-trips the result."""
    lines = [
        json.dumps(
            {"id": r.id, "label": r.label, "concepts": list(r.concepts)},
            ensure_ascii=False,
        )
        for r in dataset.records
    ]
    return "\n".join(lines) + "\n"


def vocabulary(dataset: Dataset) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Return the dataset's (classes, concepts), each in lexicographic order."""
    return dataset.classes, dataset.concepts
