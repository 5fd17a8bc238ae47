"""One benchmark op, run by run.py in a fresh child process.

    python perfbench/op.py loop --input IN.csv --out PLAN --summary SUMMARY [--k-max K] [--relax F]
    python perfbench/op.py loop ... --spans SPANS
    python perfbench/op.py diagnose --input IN --out REPORT [--k-max K] [--relax F] --spans SPANS

``loop`` is the library loop of the README: parse -> diagnose -> plan_jsonl
and write_text -> apply_virtual -> diagnose the grown dataset -> count the
imbalances that remain. It writes the plan and a JSON summary that the
benchmark checks.

``--spans`` turns tracing on. Every call into a coocbias module is then
wrapped in a span, and instead of calling ``coocbias.diagnose`` the stages
are composed here in the order ``report.diagnose`` runs them. ``diagnose``
replays ``coocbias diagnose`` (``cli.cmd_diagnose``) that way and exists
only traced: the untraced diagnose op is the CLI itself. Spans stay in
memory; when the op ends they are written to SPANS with the counts taken at
the same boundaries and fingerprints of the composed diagnosis, which run.py
compares with ``diagnose()`` to catch a replay that no longer matches it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from coocbias import (
    DiagnosisConfig,
    apply_virtual,
    build_graph,
    common_clique_set,
    diagnose,
    enumerate_class_cliques,
    frequency_table,
    imbalanced_cliques,
    parse_csv,
    parse_jsonl,
    rebalance_plan,
)
from coocbias.report import Diagnosis, canonical_json, plan_jsonl, report_dict, sha256_hex, write_text

SAMPLE_SIZE = 8


class Tracer:
    """In-memory spans (name, parent index, start, end) and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self._open[-1] if self._open else None, time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else nullcontext()


def sample_indices(n: int) -> list[int]:
    """A fixed, spread-out sample of positions in a list of length n."""
    if n <= SAMPLE_SIZE:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLE_SIZE - 1)) for i in range(SAMPLE_SIZE)})


def entry_dict(entry) -> dict:
    """An ImbalanceEntry in the report's shape."""
    return {
        "concepts": list(entry.concepts),
        "per_class": dict(sorted(entry.per_class.items())),
        "max": entry.max_count,
        "deficits": dict(sorted(entry.deficits.items())),
    }


def fingerprint(diag: Diagnosis) -> dict[str, str]:
    """sha256 of the common cliques, the imbalances and the plan queries."""
    parts = {
        "common": {str(k): [list(q) for q in v] for k, v in sorted(diag.common.items())},
        "imbalances": [entry_dict(e) for e in diag.imbalances],
        "queries": [
            [q.label, list(q.concepts), q.count, q.prompt, q.clip_threshold, q.capped]
            for q in diag.plan.queries
        ],
    }
    return {
        name: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        for name, value in parts.items()
    }


def staged_diagnose(dataset, config: DiagnosisConfig, tracer: Tracer) -> Diagnosis:
    """report.diagnose, one span per stage."""
    with tracer.span("graph.build"):
        graph = build_graph(dataset, min_support=config.min_support)
    with tracer.span("cliques.enumerate"):
        per_class = [enumerate_class_cliques(graph, y, config.k_max) for y in dataset.classes]
    with tracer.span("cliques.intersect"):
        common = common_clique_set(per_class, relax_fraction=config.relax_fraction)
    with tracer.span("cliques.count"):
        table = frequency_table(dataset, common)
    with tracer.span("cliques.imbalance"):
        imbalances = imbalanced_cliques(table)
    with tracer.span("rebalance.plan"):
        plan, adjusted = rebalance_plan(table, config.rebalance)
    tracer.add("graph.edges", len(graph.weights))
    tracer.add(
        "graph.pair_increments",
        sum(len(r.concepts) * (len(r.concepts) + 1) // 2 for r in dataset.records),
    )
    tracer.add("cliques.per_class_cliques", sum(len(v) for s in per_class for v in s.by_level.values()))
    tracer.add("cliques.common_cliques", sum(len(v) for v in common.values()))
    tracer.add("cliques.imbalanced", len(imbalances))
    tracer.add("rebalance.queries", len(plan.queries))
    tracer.add("rebalance.planned_records", plan.total_count)
    return Diagnosis(
        config=config,
        graph=graph,
        common=common,
        table=table,
        imbalances=imbalances,
        plan=plan,
        adjusted=adjusted,
    )


def _load(path: Path, tracer: Tracer | None):
    with _span(tracer, "dataset.parse"):
        raw = path.read_bytes()
        parse = parse_csv if path.suffix == ".csv" else parse_jsonl
        dataset, report = parse(raw)
    if dataset is None:
        first = report.errors[0].message if report.errors else "no records"
        raise SystemExit(f"input rejected: {first}")
    if tracer:
        tracer.add("dataset.records_parsed", report.records_parsed)
        tracer.add("dataset.records_rejected", report.records_rejected)
        tracer.add("dataset.input_bytes", len(raw))
    with _span(tracer, "report.digest"):
        digest = sha256_hex(raw)
    return dataset, digest


def _emit(text: str, path: Path, tracer: Tracer | None) -> None:
    with _span(tracer, "report.write"):
        write_text(path, text)
    if tracer:
        tracer.add("report.output_bytes", len(text.encode("utf-8")))


def run_diagnose(args: argparse.Namespace, config: DiagnosisConfig, tracer: Tracer) -> Diagnosis:
    """cli.cmd_diagnose: load and digest, diagnose, render, write."""
    dataset, digest = _load(args.input, tracer)
    diag = staged_diagnose(dataset, config, tracer)
    with tracer.span("report.render"):
        text = canonical_json(report_dict(diag, dataset, digest))
    _emit(text, args.out, tracer)
    return diag


def run_loop(args: argparse.Namespace, config: DiagnosisConfig, tracer: Tracer | None) -> Diagnosis:
    """The README library loop, plus a summary of what it found."""

    def diagnose_once(dataset):
        return staged_diagnose(dataset, config, tracer) if tracer else diagnose(dataset, config)

    dataset, digest = _load(args.input, tracer)
    diag = diagnose_once(dataset)
    with _span(tracer, "report.render"):
        text = plan_jsonl(diag.plan)
    _emit(text, args.out, tracer)
    with _span(tracer, "rebalance.apply"):
        grown = apply_virtual(dataset, diag.plan)
    again = diagnose_once(grown)
    summary = {
        "records": dataset.n,
        "input_digest": digest,
        "imbalances": len(diag.imbalances),
        "sample": [entry_dict(diag.imbalances[i]) for i in sample_indices(len(diag.imbalances))],
        "grown_records": grown.n,
        "residual_imbalances": len(again.imbalances),
        "residual_sample": [
            entry_dict(again.imbalances[i]) for i in sample_indices(len(again.imbalances))
        ],
    }
    write_text(args.summary, canonical_json(summary))
    return diag


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=["diagnose", "loop"])
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--summary", type=Path)
    parser.add_argument("--k-max", type=int, default=4)
    parser.add_argument("--relax", type=float, default=None)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if args.kind == "loop" and args.summary is None:
        parser.error("loop needs --summary")
    if args.kind == "diagnose" and args.spans is None:
        parser.error("diagnose is the traced replay and needs --spans; the untraced op is the CLI")

    config = DiagnosisConfig(k_max=args.k_max, relax_fraction=args.relax)
    tracer = Tracer() if args.spans else None
    with _span(tracer, "op"):
        if args.kind == "loop":
            diag = run_loop(args, config, tracer)
        else:
            diag = run_diagnose(args, config, tracer)
    if tracer:
        payload = {"spans": tracer.spans, "counts": tracer.counts, "fingerprint": fingerprint(diag)}
        args.spans.write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    main()
