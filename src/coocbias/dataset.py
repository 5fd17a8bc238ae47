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

Cost model: both parsers build records through one builder that cleans each
distinct raw name and each distinct raw concept list once per parse, so the
per-record work is a few dict lookups, and records share one ``str`` per raw
name and one tuple per raw concept list. A JSONL input is decoded line by line,
so a parse peaks at the input bytes plus the kept (slotted) records and the id
set. Validation checks whole sets first and walks the records only when a set
check finds a duplicate id, a vocabulary miss or a class/concept collision.
"""

from __future__ import annotations

import csv
import io
import json
import re
import unicodedata
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

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
]

Source = Union[bytes, str, Path, IO[bytes], IO[str]]

CSV_HEADER = ("id", "label", "concepts")

# A lone surrogate cannot be encoded for output; only a JSON \u escape makes one.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _clean(name: str) -> str:
    return unicodedata.normalize("NFC", name).strip()


@dataclass(frozen=True, slots=True)
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

        The strict programmatic entry point: after checking what parsing
        guarantees (a non-empty ``str`` id and label, concepts a sorted
        duplicate-free tuple of ``str``), it runs the parsers' validation in
        strict mode and raises ValueError with the first error, citing 1-based
        record positions.
        """
        records = list(records)
        checked: set[tuple[str, ...]] = set()
        for r in records:
            if not isinstance(r.id, str) or not isinstance(r.label, str):
                raise ValueError(f"record id and label must be strings: {r!r}")
            if not r.id or not r.label:
                raise ValueError(f"record with empty id or label: {r!r}")
            try:
                if r.concepts in checked:
                    continue
            except TypeError:  # a list, or a tuple holding an unhashable concept
                pass
            if not isinstance(r.concepts, tuple) or not all(isinstance(c, str) for c in r.concepts):
                raise ValueError(f"record {r.id!r}: concepts must be a tuple of strings")
            if tuple(sorted(set(r.concepts))) != r.concepts:
                raise ValueError(f"record {r.id!r}: concepts must be sorted and duplicate-free")
            checked.add(r.concepts)
        dataset, report = _finalize(records, range(1, len(records) + 1), ValidationReport(), True, vocabulary, "record")
        if dataset is None:
            raise ValueError(report.errors[0].message)
        return dataset


@dataclass(frozen=True)
class Vocabulary:
    """Optional explicit name lists; record names must be members.

    Building one is its one check: each list is a tuple or list of ``str``
    (a ``str`` itself is not), the two lists share no name, and no name holds
    a lone surrogate. Names are used as given; ``load_vocabulary`` cleans them
    first.
    """

    classes: tuple[str, ...]
    concepts: tuple[str, ...]

    def __post_init__(self) -> None:
        for key, names in (("classes", self.classes), ("concepts", self.concepts)):
            if not isinstance(names, (tuple, list)) or not all(isinstance(v, str) for v in names):
                raise ValueError(f"vocabulary.{key}: expected a tuple or list of strings")
        overlap = set(self.classes) & set(self.concepts)
        if overlap:
            raise ValueError(f"vocabulary: classes and concepts overlap: {sorted(overlap)!r}")
        if _SURROGATE.search("".join([*self.classes, *self.concepts])):
            raise ValueError("vocabulary: names must be valid Unicode (lone surrogate escape)")


def load_vocabulary(data: Source | dict) -> Vocabulary:
    """Load a vocabulary from a JSON object ``{"classes": [...], "concepts": [...]}``.

    Decodes the object and cleans each name as the parsers do, dropping empty
    ones; the ``Vocabulary`` it builds checks the names.
    """
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

    def error(self, record_id: str, rule: str, message: str) -> None:
        self.errors.append(ErrorEntry(record_id, rule, message))

    def reject(self, record_id: str, rule: str, message: str) -> None:
        """Record an error that drops one line or record."""
        self.error(record_id, rule, message)
        self.records_rejected += 1

    def warn(self, record_id: str, message: str) -> None:
        self.warnings.append(WarningEntry(record_id, message))

    @property
    def ok(self) -> bool:
        return not self.errors


def _source_bytes(source: Source) -> bytes:
    # surrogatepass: a lone surrogate in a str becomes bytes the decode rejects
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    if isinstance(source, str):
        return source.encode("utf-8", "surrogatepass")
    if isinstance(source, Path):
        return source.read_bytes()
    data = source.read()
    if isinstance(data, str):
        return data.encode("utf-8", "surrogatepass")
    return data


def _source_text(source: Source) -> str:
    # utf-8-sig drops a leading BOM if present
    return _source_bytes(source).decode("utf-8-sig")


def _decoded_lines(data: bytes, report: ValidationReport) -> Iterator[tuple[int, str]]:
    """Yield ``(line_no, text)`` per line, LF or CRLF, each line decoded on its own.

    No UTF-8 sequence holds an LF byte, and a raw U+2028 or U+0085 is legal in a
    JSON string, so lines split on LF alone. An undecodable line is skipped; its
    ``encoding`` error goes ahead of all other errors once the input is used up.
    """
    stream = io.BytesIO(data)  # shares ``data``'s buffer: no copy
    if data.startswith(b"\xef\xbb\xbf"):
        stream.seek(3)
    invalid: list[ErrorEntry] = []
    for line_no, raw in enumerate(stream, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            invalid.append(ErrorEntry("", "encoding", f"line {line_no}: invalid UTF-8"))
            continue
        yield line_no, text.removesuffix("\n").removesuffix("\r")
    report.errors[:0] = invalid
    report.records_rejected += len(invalid)


class _RecordBuilder:
    """Cleans and checks the records of one parse, each distinct input once.

    Every distinct raw name is cleaned once and every distinct raw concept list
    is cleaned, sorted and de-duplicated once, so records with equal raw names
    or lists share one ``str`` or tuple. ``split`` turns a raw concept list,
    the cache key, into its raw names. Warnings are still emitted per record.
    """

    def __init__(self, report: ValidationReport, split: Callable[[object], Iterable[str]]) -> None:
        self.report = report
        self.split = split
        self.names: dict[str, str] = {}
        self.lists: dict[object, tuple[str, ...]] = {}
        # (had_empty, had_duplicate) of the lists that hold either, kept out of
        # ``lists``: a value tuple that holds a new tuple stays tracked by the
        # garbage collector and costs extra full collections when lists
        # rarely repeat.
        self.flagged: dict[object, tuple[bool, bool]] = {}
        self.records: list[AnnotationRecord] = []
        self.positions = array("q")  # line number of each record

    def _name(self, raw: str) -> str:
        name = self.names.get(raw)
        if name is None:
            name = self.names[raw] = _clean(raw)
        return name

    def _concepts(self, key: object) -> tuple[str, ...]:
        cleaned = [self._name(c) for c in self.split(key)]
        had_empty = "" in cleaned
        if had_empty:
            cleaned = [c for c in cleaned if c]
        unique = set(cleaned)
        had_duplicate = len(unique) < len(cleaned)
        if had_empty or had_duplicate:
            self.flagged[key] = (had_empty, had_duplicate)
        return tuple(sorted(unique))

    def add(self, line_no: int, rid: str, label: str, key: object) -> None:
        report = self.report
        # NFC leaves ASCII unchanged; ids are unique, so caching them gains nothing.
        rid = rid.strip() if rid.isascii() else _clean(rid)
        if not rid:
            report.reject("", "empty-field", f"line {line_no}: empty id")
            return
        label = self._name(label)
        if not label:
            report.reject(rid, "empty-field", f"line {line_no}: empty label")
            return
        concepts = self.lists.get(key)
        if concepts is None:
            concepts = self.lists[key] = self._concepts(key)
        had_empty, had_duplicate = self.flagged.get(key, (False, False))
        if had_empty:
            report.warn(rid, f"line {line_no}: empty concept name ignored")
        if had_duplicate:
            report.warn(rid, f"line {line_no}: duplicate concepts deduplicated")
        if not concepts:
            report.warn(rid, f"line {line_no}: record has no concepts")
        self.records.append(AnnotationRecord(rid, label, concepts))
        self.positions.append(line_no)


def _split_cell(cell: str) -> list[str]:
    return cell.split(";") if cell.strip() else []


def _finalize(
    records: list[AnnotationRecord],
    positions: Sequence[int],
    report: ValidationReport,
    strict: bool,
    vocab: Vocabulary | None,
    unit: str = "line",
) -> tuple[Dataset | None, ValidationReport]:
    """Validate records and build the Dataset: the one path of both parsers and from_records.

    ``positions[i]`` is the 1-based position of ``records[i]``, cited as
    ``"<unit> <n>"``. Duplicate ids, names outside ``vocab`` and class/concept
    collisions reject records. Classes come from the survivors' labels,
    concepts from ``vocab`` or else the survivors.
    """
    report.records_parsed = len(records)

    # Each check tests the sets of all records first, and walks the records, each
    # paired with its position, only when that finds something.
    labels = {rec.label for rec in records}
    concept_names = set().union(*{rec.concepts for rec in records})
    if len({rec.id for rec in records}) < len(records):
        first_seen: dict[str, int] = {}
        for pos, rec in zip(positions, records):
            first = first_seen.setdefault(rec.id, pos)
            if first != pos:
                report.reject(rec.id, "duplicate-id", f"{unit} {pos}: duplicate id {rec.id!r} (first seen on {unit} {first})")
        records = [rec for pos, rec in zip(positions, records) if first_seen[rec.id] == pos]
        positions = list(first_seen.values())  # the kept positions, in order

    if vocab is not None and not (labels <= set(vocab.classes) and concept_names <= set(vocab.concepts)):
        class_set, concept_set = set(vocab.classes), set(vocab.concepts)
        kept: list[AnnotationRecord] = []
        kept_at: list[int] = []
        for pos, rec in zip(positions, records):
            unknown = [c for c in rec.concepts if c not in concept_set]
            if rec.label not in class_set:
                report.reject(rec.id, "unknown-class", f"{unit} {pos}: label {rec.label!r} not in vocabulary")
            elif unknown:
                report.reject(rec.id, "unknown-concept", f"{unit} {pos}: concepts not in vocabulary: {unknown!r}")
            else:
                kept.append(rec)
                kept_at.append(pos)
        records, positions = kept, kept_at

    # Class/concept collision is a file-level check: a name may not be used
    # both as a label and as a concept anywhere. In lenient mode the records
    # using the name as a concept are dropped, keeping the label side intact.
    if not labels.isdisjoint(concept_names):
        label_source: dict[str, tuple[int, str]] = {}
        for pos, rec in zip(positions, records):
            label_source.setdefault(rec.label, (pos, rec.id))
        kept = []
        for pos, rec in zip(positions, records):
            if label_source.keys().isdisjoint(rec.concepts):
                kept.append(rec)
                continue
            hit = next(c for c in rec.concepts if c in label_source)
            other_pos, other_id = label_source[hit]
            report.reject(
                rec.id,
                "class-concept-collision",
                f"{unit} {pos}: class/concept collision: {hit!r} is a concept of "
                f"record {rec.id!r} and the label of record {other_id!r} ({unit} {other_pos})",
            )
        records = kept
    if len(records) < report.records_parsed:
        labels = {rec.label for rec in records}
        concept_names = set().union(*{rec.concepts for rec in records})

    if not records:
        report.error("", "no-records", "no records")
    if (strict and report.errors) or not records:
        return None, report

    classes = tuple(sorted(labels))
    concepts = tuple(sorted(set(vocab.concepts) if vocab is not None else concept_names))
    return Dataset(records=tuple(records), classes=classes, concepts=concepts), report


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
    builder = _RecordBuilder(report, split=tuple)
    for line_no, text in _decoded_lines(_source_bytes(source), report):
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            report.reject("", "malformed-line", f"line {line_no}: invalid JSON: {getattr(exc, 'msg', exc)}")
            continue
        if not isinstance(obj, dict):
            report.reject("", "malformed-line", f"line {line_no}: not a JSON object")
            continue
        try:
            rid, label, concepts = obj["id"], obj["label"], obj["concepts"]
        except KeyError:
            missing = [k for k in ("id", "label", "concepts") if k not in obj]
            report.reject("", "missing-field", f"line {line_no}: missing fields: {missing!r}")
            continue
        if not isinstance(rid, str) or not isinstance(label, str):
            report.reject("", "bad-type", f"line {line_no}: id and label must be strings")
            continue
        if not isinstance(concepts, list) or not all(isinstance(c, str) for c in concepts):
            report.reject(rid, "bad-type", f"line {line_no}: concepts must be an array of strings")
            continue
        # A lone surrogate can only come from a \u escape.
        if "\\u" in text and _SURROGATE.search("".join([rid, label, *concepts])):
            report.reject("", "encoding", f"line {line_no}: name is not valid Unicode (lone surrogate escape)")
            continue
        builder.add(line_no, rid, label, tuple(concepts))
    return _finalize(builder.records, builder.positions, report, strict, vocabulary)


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
    builder = _RecordBuilder(report, split=_split_cell)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            report.reject("", "malformed-line", f"line {reader.line_num}: {exc}")
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
            report.reject("", "wrong-column-count", f"line {line_no}: expected 3 columns, got {len(row)}")
            continue
        builder.add(line_no, *row)
    if header is None:
        report.error("", "bad-header", "empty file: missing header row")
        return None, report
    return _finalize(builder.records, builder.positions, report, strict, vocabulary)


def serialize_jsonl(dataset: Dataset) -> str:
    """Render a dataset back to JSONL; parse_jsonl round-trips the result.

    Each line is the text ``json.dumps(..., ensure_ascii=False)`` writes for
    ``{"id", "label", "concepts"}``, written directly with json's C string
    escaper; each label and each distinct concept tuple is encoded once.
    """
    labels: dict[str, str] = {}
    lists: dict[tuple[str, ...], str] = {}
    lines = []
    for r in dataset.records:
        label = labels.get(r.label)
        if label is None:
            label = labels[r.label] = encode_basestring(r.label)
        concepts = lists.get(r.concepts)
        if concepts is None:
            concepts = lists[r.concepts] = "[" + ", ".join(map(encode_basestring, r.concepts)) + "]"
        lines.append(f'{{"id": {encode_basestring(r.id)}, "label": {label}, "concepts": {concepts}}}')
    return "\n".join(lines) + "\n"
