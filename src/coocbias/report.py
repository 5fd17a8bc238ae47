"""End-to-end diagnosis pipeline and canonical report serialization.

``diagnose`` wires the stages together: graph build, ``common_cliques`` (one
search over all classes; no per-class clique set is built), frequency
counting, the uneven-clique scan, and a plan drawn from that scan;
the imbalance entries and the plan's queries are built when first read.
Reports and plans serialize to byte-stable JSON (sorted keys, two-space
indent, LF line endings, trailing newline) so that repeated runs over the
same input are byte-identical and diff cleanly; ``report_dict`` passes the
common cliques as the pipeline's own tuples and makes each imbalance entry's
dicts from the table's count rows. ``report_chunks``, which ``coocbias
diagnose`` writes, is the same text in pieces: while the entries are unbuilt
it writes each entry's text straight from its count row, one batch at a
time, and makes no entry dict. Writes go through a temp file and a rename;
the file gets the mode a plain ``open`` would give it. A FIFO or a device is
written in place, and a symlink's target is replaced, not the link.

``canonical_chunks`` yields the text ``json.dumps`` would write with those
settings, in pieces, without ``json.dumps``: once an indent is set, CPython
serves that call only from its pure-Python encoder, which runs a generator
chain per value and gathers every chunk into one list before joining. Here
each container joins its children's finished text once, and a list of plain
strings is one join over json's C string escaper. The pieces walk every dict
that holds lists or dicts and cut a list longer than ``_BATCH`` items into
batches (``_list_chunks``, which also cuts the streamed entries), so a
writer fed by them holds one batch's text at a time, not the report. A
batch of non-empty tuples of plain strings, such as a level of common
cliques, is one join per tuple over a memo that escapes each name once per
call (``_Escaped``); the entries share that memo. ``canonical_json`` joins
the same pieces into one string.
"""

from __future__ import annotations

import hashlib
import math
import os
import stat
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path

from . import __version__
from .cliques import (
    CliqueFrequencyTable,
    ImbalanceEntry,
    _check_search,
    _imbalances,
    _Imbalances,
    common_cliques,
    frequency_table,
)
from .dataset import Dataset, _LazyField
from .graph import CooccurrenceGraph, _check_min_support, build_graph
from .rebalance import GenerationPlan, RebalanceConfig, _plan

__all__ = [
    "DiagnosisConfig",
    "Diagnosis",
    "diagnose",
    "report_dict",
    "report_chunks",
    "canonical_chunks",
    "canonical_json",
    "plan_jsonl",
    "write_text",
    "sha256_hex",
]


@dataclass(frozen=True)
class DiagnosisConfig:
    """Everything that influences a diagnosis, echoed into the report.

    Building one runs the stages' own checks of ``min_support`` (``graph``)
    and of ``k_max`` and ``relax_fraction`` (``cliques``); ``rebalance`` must
    be a ``RebalanceConfig``. A bad field raises ValueError naming it.
    """

    min_support: int = 1
    k_max: int = 4
    relax_fraction: float | None = None
    rebalance: RebalanceConfig = RebalanceConfig()

    def __post_init__(self) -> None:
        _check_min_support(self.min_support)
        _check_search(self.k_max, self.relax_fraction)
        if not isinstance(self.rebalance, RebalanceConfig):
            raise ValueError(f"rebalance must be a RebalanceConfig, got {self.rebalance!r}")


@dataclass(frozen=True)
class Diagnosis:
    """All intermediate and final artifacts of one diagnosis run.

    ``table`` and ``adjusted`` each hold their own count columns; neither
    builds its per-clique ``counts`` dicts until they are read, and
    ``diagnose`` reads neither.

    From ``diagnose``, ``imbalances`` is built on its first read, from the
    columns and uneven positions that ``table`` held when diagnosed, and
    cached; ``plan`` builds its queries the same way. ``report_dict`` and
    ``report_chunks`` read neither: they take each imbalance entry from the
    table's columns and the plan's three figures from the plan's columns. A
    ``Diagnosis`` given an ``imbalances`` tuple keeps it, and the report
    reads that tuple.
    """

    config: DiagnosisConfig
    graph: CooccurrenceGraph
    common: dict[int, tuple[tuple[str, ...], ...]]
    table: CliqueFrequencyTable
    imbalances: tuple[ImbalanceEntry, ...] = _LazyField(_Imbalances, lambda _, source: source.entries())
    plan: GenerationPlan
    adjusted: CliqueFrequencyTable


def diagnose(dataset: Dataset, config: DiagnosisConfig = DiagnosisConfig()) -> Diagnosis:
    """Run the full pipeline on a dataset and return every stage's output."""
    graph = build_graph(dataset, min_support=config.min_support)
    common = common_cliques(graph, config.k_max, config.relax_fraction)
    table = frequency_table(dataset, common)
    imbalances = _imbalances(table)  # the entries are built when first read
    plan, adjusted = _plan(imbalances, config.rebalance)  # from the same scan
    return Diagnosis(
        config=config,
        graph=graph,
        common=common,
        table=table,
        imbalances=imbalances,
        plan=plan,
        adjusted=adjusted,
    )


def report_dict(diagnosis: Diagnosis, dataset: Dataset, input_digest: str) -> dict:
    """Flatten a diagnosis into the JSON report shape.

    Keys at the top level: config, dataset, common_cliques, imbalances,
    plan_summary, tool_version, input_digest. Imbalance entries carry exactly
    concepts, per_class, max, deficits.
    """
    return _report(diagnosis, dataset, input_digest, list(_entry_dicts(diagnosis)))


def report_chunks(diagnosis: Diagnosis, dataset: Dataset, input_digest: str) -> Iterator[str]:
    """The text of ``canonical_json(report_dict(diagnosis, dataset, input_digest))``, in pieces.

    While ``diagnosis.imbalances`` is unbuilt, each entry's text is written
    straight from its count row and no entry dict is made; otherwise the entry
    dicts are made one batch of ``_BATCH`` at a time, written and dropped. A
    writer fed by the pieces never holds every entry.
    """
    state = diagnosis.__dict__
    source = state["_imbalances_source"]  # read first, as _LazyField does
    if state["_imbalances"] is None:
        entries = _Stream(source.worst_first(), partial(_entry_text, source))
    else:
        entries = _Stream(_entry_dicts(diagnosis))
    return canonical_chunks(_report(diagnosis, dataset, input_digest, entries))


def _entry_dicts(diagnosis: Diagnosis) -> Iterator[dict]:
    """The report's imbalance entries in order, as dicts, one at a time: read
    from the table's columns while ``diagnosis.imbalances`` is unbuilt, else
    from it."""
    state = diagnosis.__dict__
    if state["_imbalances"] is None:
        rows = state["_imbalances_source"].rows()
    else:
        rows = ((e.concepts, e.per_class, e.max_count, e.deficits) for e in state["_imbalances"])
    for concepts, per_class, m, deficits in rows:
        yield {"concepts": concepts, "per_class": per_class, "max": m, "deficits": deficits}


def _entry_text(imbalances: _Imbalances, inner: str, escaped: _Escaped) -> Callable[[list], str]:
    """The writer of a batch of ``imbalances.worst_first()`` pairs as report
    entries at indent ``inner``: each entry's text straight from its count row."""
    classes, levels = imbalances.classes, imbalances.levels
    c = len(classes)
    # Of equal names the last index, as the entry dict's dict(zip(classes, row)) keeps.
    index = dict(zip(classes, range(c)))
    names = sorted(index)
    in_key_order = itemgetter(*[index[y] for y in names])  # rows have two or more counts
    keys = [escaped[y] + ": " for y in names]
    one, two = inner + "  ", inner + "    "
    sep = "," + two
    per_class = sep.join(key.replace("%", "%%") + "%d" for key in keys)
    entry = (
        "{" + one + '"concepts": [' + two + "%s" + one + "]," + one + '"deficits": {' + two + "%s" + one + "},"
        + one + '"max": %d,' + one + '"per_class": {' + two + per_class + one + "}" + inner + "}"
    )
    join = ("," + inner).join

    def text(batch: list) -> str:
        entries = []
        for k, i in batch:
            cliques, counts = levels[k]
            row = counts[i * c : i * c + c]
            m = max(row)
            row = in_key_order(row)
            deficits = sep.join([key + str(m - n) for key, n in zip(keys, row) if n < m])
            entries.append(entry % (sep.join(map(escaped.__getitem__, cliques[i])), deficits, m, *row))
        return join(entries)

    return text


def _report(diagnosis: Diagnosis, dataset: Dataset, input_digest: str, imbalances) -> dict:
    """The report, with ``imbalances`` as its list of entries."""
    cfg = diagnosis.config
    plan = diagnosis.plan
    return {
        "config": {
            "min_support": cfg.min_support,
            "k_max": cfg.k_max,
            "relax_fraction": cfg.relax_fraction,
            "template": cfg.rebalance.template.value,
            "clip_threshold": cfg.rebalance.clip_threshold,
            "per_query_cap": cfg.rebalance.per_query_cap,
        },
        "dataset": {
            "records": dataset.n,
            "classes": len(dataset.classes),
            "concepts": len(dataset.concepts),
        },
        # String level keys: canonical_json would sort int keys numerically.
        "common_cliques": {str(k): cliques for k, cliques in diagnosis.common.items()},
        "imbalances": imbalances,
        "plan_summary": {
            "queries": plan._size(),
            "total_count": plan.total_count,
            "truncated": plan.truncated,
        },
        "tool_version": __version__,
        "input_digest": input_digest,
    }


def canonical_chunks(payload) -> Iterator[str]:
    """Byte-stable JSON text in pieces: sorted keys, indent 2, LF, trailing newline.

    Joined, the pieces are exactly ``json.dumps(payload, sort_keys=True,
    indent=2, ensure_ascii=False) + "\\n"``, including the ``TypeError`` for a
    value or key that ``json`` cannot encode (raised when the generator
    reaches it, after the pieces before it). Payloads are trees: a container
    that holds itself exhausts the recursion limit instead of raising
    ``json``'s ``ValueError``.

    A dict that holds containers is walked item by item, a list longer than
    ``_BATCH`` items comes out one batch of items at a time, and anything else
    is one piece from ``_text``.
    """
    yield from _chunks(payload, "\n", _Escaped())
    yield "\n"


def canonical_json(payload: dict) -> str:
    """The text of ``canonical_chunks(payload)`` as one string."""
    return "".join(canonical_chunks(payload))


# Items per piece of a long list: large enough that the per-piece overhead
# does not show, small enough that a batch of report entries is tens of KiB.
_BATCH = 256


class _Escaped(dict):
    """The JSON text of each string looked up, escaped on its first lookup;
    one per ``canonical_chunks`` call."""

    def __missing__(self, name: str) -> str:
        text = self[name] = encode_basestring(name)
        return text


def _items(inner: str, escaped: _Escaped) -> Callable[[list], str]:
    """The writer of a batch of list items at indent ``inner``, joined.

    A batch of non-empty tuples or lists of exact ``str`` is one join per item
    over ``escaped``; any other batch goes through ``_text``.
    """
    join = ("," + inner).join
    two = inner + "  "
    names = ("," + two).join
    head, between, tail = "[" + two, inner + "]," + inner + "[" + two, inner + "]"

    def text(batch: list) -> str:
        if set(map(type, batch)) <= {tuple, list} and all(batch) and set(map(type, chain.from_iterable(batch))) == {str}:
            return head + between.join([names(map(escaped.__getitem__, q)) for q in batch]) + tail
        return join([_text(v, inner) for v in batch])

    return text


class _Stream:
    """A list given as an iterator of its items, which ``_chunks`` renders one
    batch at a time with ``writer(inner, escaped)``; only the package's own
    writers build one."""

    __slots__ = ("items", "writer")

    def __init__(self, items: Iterable, writer: Callable = _items) -> None:
        self.items, self.writer = items, writer


def _chunks(value, newline: str, escaped: _Escaped) -> Iterator[str]:
    """The text of ``_text(value, newline)``, in pieces."""
    if isinstance(value, dict) and any(isinstance(v, (dict, list, tuple, _Stream)) for v in value.values()):
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(value.items()):
            yield sep + _key(k) + ": "
            yield from _chunks(v, inner, escaped)
            sep = "," + inner
        yield newline + "}"
    elif isinstance(value, _Stream):
        yield from _list_chunks(value.items, newline, value.writer(newline + "  ", escaped))
    elif isinstance(value, (list, tuple)) and len(value) > _BATCH:
        yield from _list_chunks(value, newline, _items(newline + "  ", escaped))
    else:
        yield _text(value, newline)


def _list_chunks(items: Iterable, newline: str, text: Callable[[list], str]) -> Iterator[str]:
    """A list's text: one piece per ``_BATCH`` of its items, written by
    ``text``, then one to close it."""
    inner = newline + "  "
    sep = "[" + inner
    items = iter(items)
    while batch := list(islice(items, _BATCH)):
        yield sep + text(batch)
        sep = "," + inner
    yield "[]" if sep[0] == "[" else newline + "]"


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# Keyed by exact type; a subclass of str, int or float is encoded like its
# base, as json does, through the isinstance fallback in _text.
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _text(value, newline: str) -> str:
    """JSON text of ``value``; ``newline`` is "\\n" plus the indent of its line.

    Each container joins its children's finished text once, and a list of
    plain strings goes straight through the C string escaper.
    """
    encode = _SCALARS.get(type(value))
    if encode is not None:
        return encode(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_key(k) + ": " + _text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if all(type(v) is str for v in value):
            items = map(encode_basestring, value)
        else:
            items = [_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALARS[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring(key)
    if key is None or isinstance(key, (int, float)):
        # The text of a number or constant needs no escaping inside quotes.
        return '"' + _text(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def plan_jsonl(plan: GenerationPlan) -> str:
    """One JSON object per query, plan order, stable field order.

    Each line is the text ``json.dumps(..., ensure_ascii=False)`` writes for
    the query's fields, written directly: strings through json's C escaper,
    ``count`` and ``clip_threshold`` through the scalar text of ``_text``.
    """
    lines = []
    for q in plan.queries:
        concepts = ", ".join(map(encode_basestring, q.concepts))
        line = (
            f'{{"class": {encode_basestring(q.label)}, "concepts": [{concepts}], '
            f'"count": {_text(q.count, "")}, "prompt": {encode_basestring(q.prompt)}, '
            f'"clip_threshold": {_text(q.clip_threshold, "")}'
        )
        lines.append(line + ', "capped": true}' if q.capped else line + "}")
    return "\n".join(lines) + "\n" if lines else ""


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or an iterable of pieces, atomically.

    The pieces go to a temp file in the directory of the file ``path`` names
    once links are followed, which is then renamed onto that file, so a
    symlink stays a link; on any error the temp file is removed. The file gets
    mode 0o666 less the umask, as a plain ``open`` would give it. A path that
    exists and is not a regular file, such as a FIFO or a device, is opened
    and written in place, never replaced.
    """
    target = Path(os.path.realpath(path))
    pieces = (text,) if isinstance(text, str) else text
    try:
        in_place = not stat.S_ISREG(target.stat().st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with target.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        return
    # os.open applies the umask to the mode; tempfile.mkstemp would fix 0o600.
    tmp = target.parent / f"tmp{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
