"""Output checks, run outside the timed region after every op.

The recount is a naive scan over the records as the benchmark itself reads
them from the input file; it shares no code with coocbias or its tests.
Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

from op import sample_indices

Records = list[tuple[str, frozenset]]


def read_records(data: bytes, fmt: str) -> Records:
    """(label, concept set) per record, straight from the input bytes."""
    text = data.decode("utf-8")
    if fmt == "jsonl":
        objs = (json.loads(line) for line in text.splitlines() if line.strip())
        return [(o["label"], frozenset(o["concepts"])) for o in objs]
    rows = csv.reader(io.StringIO(text))
    next(rows)
    return [(label, frozenset(c for c in cell.split(";") if c)) for _, label, cell in rows]


def recount(records: Records, concepts: list[str], classes: list[str]) -> dict[str, int]:
    wanted = frozenset(concepts)
    counts = dict.fromkeys(classes, 0)
    for label, present in records:
        if wanted <= present:
            counts[label] += 1
    return counts


def check_entries(entries: list, records: Records, what: str) -> list[str]:
    """Every entry's per-class counts match a recount; max and deficits agree."""
    classes = sorted({label for label, _ in records})
    problems = []
    for entry in entries:
        per_class = entry["per_class"]
        expected = recount(records, entry["concepts"], classes)
        if per_class != expected:
            problems.append(f"{what} {entry['concepts']}: counts {per_class} != recount {expected}")
            continue
        top = max(per_class.values())
        deficits = {y: top - n for y, n in per_class.items() if n < top}
        if entry["max"] != top or entry["deficits"] != deficits or not deficits:
            problems.append(f"{what} {entry['concepts']}: max or deficits inconsistent")
    return problems


def _sampled(entries: list) -> list:
    return [entries[i] for i in sample_indices(len(entries))]


def check_report(text: str, data: bytes, records: Records) -> list[str]:
    """A diagnose report: parses, covers the whole input, counts recount."""
    try:
        report = json.loads(text)
        n = report["dataset"]["records"]
        imbalances = report["imbalances"]
        digest = report["input_digest"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]
    problems = []
    if n != len(records):
        problems.append(f"report has {n} records, input has {len(records)}")
    if digest != hashlib.sha256(data).hexdigest():
        problems.append("report input_digest is not the input's sha256")
    if not imbalances:
        problems.append("report has no imbalances to check")
    return problems + check_entries(_sampled(imbalances), records, "imbalance")


def check_loop(plan_text: str, summary_text: str, data: bytes, records: Records) -> list[str]:
    """The loop's plan and summary: parse, cover the input, counts recount.

    Residual entries are recounted over the input plus the planned records,
    which is the grown dataset apply_virtual builds.
    """
    try:
        summary = json.loads(summary_text)
        queries = [json.loads(line) for line in plan_text.splitlines()]
        planned = [(q["class"], frozenset(q["concepts"]), q["count"]) for q in queries]
        if not all(isinstance(q["prompt"], str) and "clip_threshold" in q for q in queries):
            raise ValueError("query without prompt or clip_threshold")
        n, grown_n = summary["records"], summary["grown_records"]
        sample, residual = summary["sample"], summary["residual_sample"]
        n_imbalances, n_residual = summary["imbalances"], summary["residual_imbalances"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"plan or summary does not parse: {exc!r}"]
    problems = []
    if n != len(records):
        problems.append(f"summary has {n} records, input has {len(records)}")
    if summary.get("input_digest") != hashlib.sha256(data).hexdigest():
        problems.append("summary input_digest is not the input's sha256")
    total = sum(count for _, _, count in planned)
    if grown_n != n + total:
        problems.append(f"grown dataset has {grown_n} records, input + plan is {n + total}")
    if not queries or not sample:
        problems.append("loop planned nothing; there is nothing to check")
    if len(sample) != len(sample_indices(n_imbalances)):
        problems.append("imbalance sample has the wrong size")
    if len(residual) != len(sample_indices(n_residual)):
        problems.append("residual sample has the wrong size")
    problems += check_entries(sample, records, "imbalance")
    if residual:
        grown = records + [(label, concepts) for label, concepts, count in planned for _ in range(count)]
        problems += check_entries(residual, grown, "residual imbalance")
    return problems
