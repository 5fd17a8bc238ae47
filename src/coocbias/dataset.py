"""Parsing, validation, and normalization of concept-annotated datasets.

A record pairs an image id and a class label with the set of concept names
annotated as present in that image. Two carriers are supported:

* JSONL: one object per line with string fields ``id`` and ``label`` and a
  string array ``concepts``.
* CSV: header row ``id,label,concepts`` where the concepts cell is a
  ``;``-separated list.

Both parsers normalize names (Unicode NFC, surrounding whitespace trimmed,
case preserved), deduplicate concepts per record, and enforce that class and
concept name spaces never overlap. ``Dataset.from_records`` runs the same
validation, after a per-row check, on records made outside the package; a
:class:`Dataset` itself checks nothing, so ``synth.generate`` and
``rebalance.apply_virtual`` hand over rows they made themselves. Parsing is
single-threaded per stream; a constructed :class:`Dataset` is immutable and
safe for concurrent reads. Its first read of ``records`` (when built from
columns) or ``masks`` builds and caches a value; threads that race on that
first read each build an equal value and one of them is kept.

Cost model: a :class:`Dataset` holds its rows as three columns, the ids, the
labels and the concept tuples, from construction, splitting a given records
tuple once, and otherwise builds :class:`AnnotationRecord` objects only when
``records`` is read. Both parsers fill those columns through one
builder that cleans each distinct raw name and each distinct raw concept list
once per parse, so the per-row work is a few dict lookups, and rows share one
``str`` per raw name and one tuple per raw concept list. Both read their
source as a binary stream one line at a time: a binary file object, such as
``open(path, "rb")`` or ``sys.stdin.buffer``, and a ``Path``, which the parser
opens and closes, are streamed, so a parse peaks at one line (or one buffered
chunk) of input plus the kept columns and the id check's buckets (about one
pointer per id). ``bytes``, a ``str`` and a text stream are held whole, as
the caller already holds them. Validation checks whole sets first and walks
the rows only when a set check finds a duplicate id, a vocabulary miss or a
class/concept collision.
"""

from __future__ import annotations

import csv
import io
import json
import re
import unicodedata
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, Union

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


class _Columns(NamedTuple):
    """A dataset's rows as three parallel lists; no one mutates them once built.

    Rows with equal concept sets share one tuple, as the producers build them.
    """

    ids: Sequence[str]
    labels: Sequence[str]
    concepts: Sequence[tuple[str, ...]]


def _split(records: Iterable[AnnotationRecord]) -> _Columns:
    """Records as columns, in one pass."""
    rows = _Columns([], [], [])
    ids, labels, concepts = rows
    for r in records:
        ids.append(r.id)
        labels.append(r.label)
        concepts.append(r.concepts)
    return rows


class _LazyField:
    """A dataclass field given either as its value or as a source to build it from.

    ``__init__`` sets it either to its value, which is kept, or to an instance
    of ``kind``, which is kept in ``_<field name>_source``. The first read
    builds the value with ``build(obj, source)``, caches it in
    ``_<field name>`` (None until then) and drops the source: the built value
    replaces its source, for every field. Read on the class it raises
    AttributeError, so the dataclass field has no default and stays required.
    """

    def __init__(self, kind: type, build: Callable) -> None:
        self.kind, self.build = kind, build

    def __set_name__(self, owner: type, name: str) -> None:
        self.name, self.cache, self.source = name, "_" + name, f"_{name}_source"

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        state = obj.__dict__
        # The source is read first: a racing first read drops it only after caching the value.
        source = state[self.source]
        value = state[self.cache]
        if value is None:
            value = state[self.cache] = self.build(obj, source)
            state[self.source] = None
        return value

    def __set__(self, obj, value) -> None:
        state = obj.__dict__
        if isinstance(value, self.kind):
            state[self.cache], state[self.source] = None, value
        else:
            state[self.cache], state[self.source] = value, None


@dataclass(frozen=True)
class Dataset:
    """An immutable, validated collection of annotation records.

    ``classes`` is the sorted set of labels observed in ``records``;
    ``concepts`` is the sorted union of record concept sets, or the
    (super)set supplied by an explicit vocabulary. The two name spaces are
    disjoint by construction.

    The rows are held as columns (ids, labels, shared concept tuples) from
    construction: given columns, the dataset keeps them; given records, it
    splits them once as it is built and keeps the tuple as ``records``.
    ``n``, ``masks`` and the package's own stages read the columns. Given
    columns, ``records`` is built from them on its first read and cached, one
    slotted record per row, at about 0.16 s and 6 MiB per 100k rows (CPython
    3.11, 2-vCPU VM); ``==``, ``hash``, ``repr`` and ``dataclasses.replace``
    read it.

    Construction checks nothing. The parsers and ``from_records``, the check
    for records made elsewhere, validate rows before they build a dataset;
    ``generate`` and ``apply_virtual`` hand over rows they made themselves.
    """

    records: tuple[AnnotationRecord, ...] = _LazyField(
        _Columns, lambda _, columns: tuple(map(AnnotationRecord, *columns))
    )
    classes: tuple[str, ...]
    concepts: tuple[str, ...]

    def __post_init__(self) -> None:
        columns = self._records_source
        self.__dict__["_columns"] = _split(self._records) if columns is None else columns

    @property
    def n(self) -> int:
        return len(self._columns.ids)

    @cached_property
    def masks(self) -> dict[str, int]:
        """Record bitset per class and concept name, built on first access.

        Bit i is set when record i has that label or concept, so a popcount
        of ANDed masks counts records; an unused name maps to 0. A copy made
        with ``dataclasses.replace`` builds its own.
        """
        _, labels, concepts = self._columns
        size = (len(labels) + 7) // 8
        bits = {name: bytearray(size) for name in self.classes + self.concepts}
        for pos, (label, names) in enumerate(zip(labels, concepts)):
            byte, bit = pos >> 3, 1 << (pos & 7)
            bits[label][byte] |= bit
            for c in names:
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
        rows = _split(records)
        checked: set[tuple[str, ...]] = set()
        for rid, label, concepts in zip(*rows):
            if not isinstance(rid, str) or not isinstance(label, str):
                raise ValueError(f"record id and label must be strings: {AnnotationRecord(rid, label, concepts)!r}")
            if not rid or not label:
                raise ValueError(f"record with empty id or label: {AnnotationRecord(rid, label, concepts)!r}")
            try:
                if concepts in checked:
                    continue
            except TypeError:  # a list, or a tuple holding an unhashable concept
                pass
            if not isinstance(concepts, tuple) or not all(isinstance(c, str) for c in concepts):
                raise ValueError(f"record {rid!r}: concepts must be a tuple of strings")
            if tuple(sorted(set(concepts))) != concepts:
                raise ValueError(f"record {rid!r}: concepts must be sorted and duplicate-free")
            checked.add(concepts)
        dataset, report = _finalize(rows, range(1, len(rows.ids) + 1), ValidationReport(), True, vocabulary, "record")
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
            with _byte_stream(data) as stream:
                data = json.loads(stream.read().decode("utf-8-sig"))
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


@contextmanager
def _byte_stream(source: Source) -> Iterator[IO[bytes]]:
    """``source`` as a binary stream: the one way a parser or ``load_vocabulary`` reads.

    A binary stream (``io.RawIOBase``/``io.BufferedIOBase``) is read as it is
    and left open; a ``Path`` is opened here and closed on exit. ``bytes``, a
    ``str`` and any other stream, a text stream included, are read whole and
    wrapped in a ``BytesIO``; a ``str`` is encoded with ``surrogatepass``, so a
    lone surrogate becomes bytes the decode rejects.
    """
    if isinstance(source, Path):
        with source.open("rb") as stream:
            yield stream
        return
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        yield source
        return
    data = source if isinstance(source, (bytes, bytearray, str)) else source.read()
    yield io.BytesIO(data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data)


def _decoded_lines(stream: IO[bytes], report: ValidationReport) -> Iterator[tuple[int, str]]:
    """Yield ``(line_no, text)`` per line, LF or CRLF, each line decoded on its own.

    No UTF-8 sequence holds an LF byte, and a raw U+2028 or U+0085 is legal in a
    JSON string, so lines split on LF alone. A BOM is dropped from the first
    line. An undecodable line is skipped; its ``encoding`` error goes ahead of
    all other errors once the stream is used up.
    """
    invalid: list[ErrorEntry] = []
    for line_no, raw in enumerate(stream, start=1):
        if line_no == 1:
            raw = raw.removeprefix(b"\xef\xbb\xbf")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            invalid.append(ErrorEntry("", "encoding", f"line {line_no}: invalid UTF-8"))
            continue
        yield line_no, text.removesuffix("\n").removesuffix("\r")
    report.errors[:0] = invalid
    report.records_rejected += len(invalid)


class _RecordBuilder:
    """Cleans and checks the records of one parse, each distinct input once, into columns.

    Every distinct raw name is cleaned once and every distinct raw concept list
    is cleaned, sorted and de-duplicated once, so rows with equal raw names
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
        self.rows = _Columns([], [], [])
        self.positions = array("q")  # line number of each row

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
        ids, labels, lists = self.rows
        ids.append(rid)
        labels.append(label)
        lists.append(concepts)
        self.positions.append(line_no)


def _split_cell(cell: str) -> list[str]:
    return cell.split(";") if cell.strip() else []


def _has_duplicate(ids: Iterable[str]) -> bool:
    """Whether any id repeats, without one hash set of every id.

    The ids go into 256 buckets by hash and each bucket is tested with its own
    small set, so the check stays linear and its largest transient is the
    buckets' pointers: a set of 100k ids grows to a 4 MiB table.
    """
    buckets: list[list[str]] = [[] for _ in range(256)]
    for rid in ids:
        buckets[hash(rid) & 255].append(rid)
    return any(len(set(bucket)) < len(bucket) for bucket in buckets)


def _finalize(
    rows: _Columns,
    positions: Sequence[int],
    report: ValidationReport,
    strict: bool,
    vocab: Vocabulary | None,
    unit: str = "line",
) -> tuple[Dataset | None, ValidationReport]:
    """Validate rows and build the Dataset: the one path of both parsers and from_records.

    ``positions[i]`` is the 1-based position of row i, cited as
    ``"<unit> <n>"``. Duplicate ids, names outside ``vocab`` and class/concept
    collisions reject rows. Classes come from the survivors' labels,
    concepts from ``vocab`` or else the survivors.
    """
    ids, labels, concepts = rows
    report.records_parsed = len(ids)

    def keep(flags: list[bool]) -> None:
        nonlocal ids, labels, concepts, positions
        ids, labels, concepts, positions = (list(compress(col, flags)) for col in (ids, labels, concepts, positions))

    # Each check tests the sets of all rows first, and walks the rows, each
    # paired with its position, only when that finds something.
    label_set = set(labels)
    concept_names = set().union(*set(concepts))
    if _has_duplicate(ids):
        first_seen: dict[str, int] = {}
        for pos, rid in zip(positions, ids):
            first = first_seen.setdefault(rid, pos)
            if first != pos:
                report.reject(rid, "duplicate-id", f"{unit} {pos}: duplicate id {rid!r} (first seen on {unit} {first})")
        keep([first_seen[rid] == pos for pos, rid in zip(positions, ids)])

    if vocab is not None and not (label_set <= set(vocab.classes) and concept_names <= set(vocab.concepts)):
        class_set, concept_set = set(vocab.classes), set(vocab.concepts)
        flags = []
        for pos, rid, label, names in zip(positions, ids, labels, concepts):
            unknown = [c for c in names if c not in concept_set]
            if label not in class_set:
                report.reject(rid, "unknown-class", f"{unit} {pos}: label {label!r} not in vocabulary")
            elif unknown:
                report.reject(rid, "unknown-concept", f"{unit} {pos}: concepts not in vocabulary: {unknown!r}")
            flags.append(label in class_set and not unknown)
        keep(flags)

    # Class/concept collision is a file-level check: a name may not be used
    # both as a label and as a concept anywhere. In lenient mode the rows
    # using the name as a concept are dropped, keeping the label side intact.
    if not label_set.isdisjoint(concept_names):
        label_source: dict[str, tuple[int, str]] = {}
        for pos, rid, label in zip(positions, ids, labels):
            label_source.setdefault(label, (pos, rid))
        flags = []
        for pos, rid, names in zip(positions, ids, concepts):
            hit = next((c for c in names if c in label_source), None)
            flags.append(hit is None)
            if hit is not None:
                other_pos, other_id = label_source[hit]
                report.reject(
                    rid,
                    "class-concept-collision",
                    f"{unit} {pos}: class/concept collision: {hit!r} is a concept of "
                    f"record {rid!r} and the label of record {other_id!r} ({unit} {other_pos})",
                )
        keep(flags)
    if len(ids) < report.records_parsed:
        label_set = set(labels)
        concept_names = set().union(*set(concepts))

    if not ids:
        report.error("", "no-records", "no records")
    if (strict and report.errors) or not ids:
        return None, report

    classes = tuple(sorted(label_set))
    vocabulary = tuple(sorted(set(vocab.concepts) if vocab is not None else concept_names))
    return Dataset(records=_Columns(ids, labels, concepts), classes=classes, concepts=vocabulary), report


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
    with _byte_stream(source) as stream:
        for line_no, text in _decoded_lines(stream, report):
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
    return _finalize(builder.rows, builder.positions, report, strict, vocabulary)


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
    builder = _RecordBuilder(report, split=_split_cell)
    try:
        with _byte_stream(source) as stream:
            # newline="\n" splits lines as a StringIO of the whole text would;
            # the csv module handles CRLF and quoted newlines itself.
            text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="\n")
            try:
                has_header = _read_csv(text, builder)
            finally:
                text.detach()  # a caller's stream stays open
    except UnicodeDecodeError:
        # Any invalid byte, wherever it is, is the file's one error.
        report = ValidationReport()
        report.error("", "encoding", "file is not valid UTF-8")
        return None, report
    if not has_header:
        return None, report
    return _finalize(builder.rows, builder.positions, report, strict, vocabulary)


_CSV_UNREADABLE = (
    "unreadable CSV row (a carriage return outside quotes, a field over the csv module's size limit, "
    "or a NUL on Python 3.10)"
)


def _read_csv(text: io.TextIOWrapper, builder: _RecordBuilder) -> bool:
    """Read the header and every row into ``builder``; False on a missing or bad header.

    Reads to the end of ``text`` in every case, so that an invalid byte after a
    bad header still raises.
    """
    report = builder.report
    reader = csv.reader(text)
    header: list[str] | None = None
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            # The csv module's own text differs between Python versions and
            # advises on opening files in Python, so every csv.Error reads the same.
            report.reject("", "malformed-line", f"line {reader.line_num}: {_CSV_UNREADABLE}")
            continue
        line_no = reader.line_num
        if not row or not any(cell.strip() for cell in row):
            continue
        if header is None:
            header = [cell.strip() for cell in row]
            if tuple(header) != CSV_HEADER:
                report.error("", "bad-header", f"line {line_no}: expected header id,label,concepts, got {','.join(header)!r}")
                while text.read(1 << 16):
                    pass
                return False
            continue
        if len(row) != 3:
            report.reject("", "wrong-column-count", f"line {line_no}: expected 3 columns, got {len(row)}")
            continue
        builder.add(line_no, *row)
    if header is None:
        report.error("", "bad-header", "empty file: missing header row")
        return False
    return True


def serialize_jsonl(dataset: Dataset) -> str:
    """Render a dataset back to JSONL.

    ``parse_jsonl`` reads the result back to the same rows only when every
    name is one the parser keeps as it is: non-empty, trimmed, NFC and free
    of lone surrogates. The parsers clean every name so; ``generate`` and
    ``Dataset(...)`` take any ``str``, and the parser rewrites or rejects a
    row holding a name of another kind.

    Each line is the text ``json.dumps(..., ensure_ascii=False)`` writes for
    ``{"id", "label", "concepts"}``, written directly with json's C string
    escaper; each label and each distinct concept tuple is encoded once.
    """
    labels: dict[str, str] = {}
    lists: dict[tuple[str, ...], str] = {}
    lines = []
    for rid, name, names in zip(*dataset._columns):
        label = labels.get(name)
        if label is None:
            label = labels[name] = encode_basestring(name)
        concepts = lists.get(names)
        if concepts is None:
            concepts = lists[names] = "[" + ", ".join(map(encode_basestring, names)) + "]"
        lines.append(f'{{"id": {encode_basestring(rid)}, "label": {label}, "concepts": {concepts}}}')
    return "\n".join(lines) + "\n"
