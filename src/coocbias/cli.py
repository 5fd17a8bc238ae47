"""Command-line interface.

Subcommands:

* ``diagnose``      full bias diagnosis, canonical JSON report
* ``sample``        diagnosis plus rebalance plan as JSONL
* ``export-graph``  co-occurrence graph as DOT or JSON
* ``synth``         seeded biased-dataset generator
* ``stats``         quick dataset overview

Exit codes: 0 success, 1 validation problem (bad data or out-of-range
values), 2 I/O failure. Argparse itself still exits 2 on malformed usage,
the conventional overlap. With ``--json-errors`` the error report on stderr
is a single JSON object instead of prose.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .dataset import Dataset, Vocabulary, load_vocabulary, parse_csv, parse_jsonl, serialize_jsonl
from .graph import build_graph, to_dot, to_json_graph
from .rebalance import DEFAULT_CLIP_THRESHOLD, PromptTemplate, RebalanceConfig
from .report import (
    Diagnosis,
    DiagnosisConfig,
    canonical_json,
    diagnose,
    plan_jsonl,
    report_dict,
    sha256_hex,
    write_text,
)
from .synth import BiasSpec, generate

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


_ERROR_CODES = {EXIT_VALIDATION: "validation", EXIT_IO: "io"}


class CliError(Exception):
    """Carries the exit code and a machine-friendly error payload."""

    def __init__(self, exit_code: int, message: str, details: list[dict] | None = None):
        super().__init__(message)
        self.exit_code = exit_code
        self.code = _ERROR_CODES[exit_code]
        self.details = details or []


def _emit_error(err: CliError, json_errors: bool) -> None:
    if json_errors:
        payload = {"error": {"code": err.code, "message": str(err), "details": err.details}}
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True), file=sys.stderr)
        return
    print(f"error: {err}", file=sys.stderr)
    for d in err.details:
        print(f"  [{d['rule']}] {d['record_id'] or '-'}: {d['message']}", file=sys.stderr)


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        write_text(Path(path), text)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}") from exc


@contextmanager
def _validation(prefix: str = ""):
    """Report a ValueError raised inside the block as a validation error (exit 1)."""
    try:
        yield
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, f"{prefix}{exc}") from exc


def _load_vocab(path: str | None) -> Vocabulary | None:
    if path is None:
        return None
    raw = _read_bytes(path)
    with _validation("invalid vocabulary file: "):
        return load_vocabulary(raw)


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, str]:
    """Read, parse, and validate the input; return (dataset, content digest)."""
    raw = _read_bytes(args.input)
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if args.input.lower().endswith(".csv") else "jsonl"
    vocab = _load_vocab(args.vocab)
    parse = parse_csv if fmt == "csv" else parse_jsonl
    dataset, report = parse(raw, strict=not args.lenient, vocabulary=vocab)
    for w in report.warnings:
        print(f"warning: {w.record_id or '-'}: {w.message}", file=sys.stderr)
    if dataset is not None and report.errors:
        for e in report.errors:
            print(f"warning: skipped {e.record_id or '-'}: {e.message}", file=sys.stderr)
    if dataset is None:
        details = [
            {"record_id": e.record_id, "rule": e.rule, "message": e.message}
            for e in report.errors
        ]
        first = report.errors[0].message if report.errors else "no records"
        raise CliError(EXIT_VALIDATION, first, details)
    return dataset, sha256_hex(raw)


def _diagnose(args: argparse.Namespace) -> tuple[Dataset, str, Diagnosis]:
    """Load the input, build the config from the flags, and diagnose."""
    dataset, digest = _load_dataset(args)
    with _validation():
        config = DiagnosisConfig(
            min_support=args.min_support,
            k_max=args.k_max,
            relax_fraction=args.relax,
            rebalance=RebalanceConfig(
                template=PromptTemplate(args.template),
                clip_threshold=args.clip_threshold,
                per_query_cap=args.cap,
            ),
        )
    return dataset, digest, diagnose(dataset, config)


def cmd_diagnose(args: argparse.Namespace) -> int:
    dataset, digest, result = _diagnose(args)
    _write_output(args.out, canonical_json(report_dict(result, dataset, digest)))
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    _, _, result = _diagnose(args)
    _write_output(args.out, plan_jsonl(result.plan))
    if args.out is None or args.out == "-":
        return EXIT_OK
    print(f"plan: {len(result.plan.queries)} queries, {result.plan.total_count} samples")
    for label in sorted(result.plan.per_class):
        print(f"  {label}: {result.plan.per_class[label]}")
    if result.plan.truncated:
        print("note: some queries were clamped by --cap; counts will not fully balance")
    return EXIT_OK


def cmd_export_graph(args: argparse.Namespace) -> int:
    dataset, _ = _load_dataset(args)
    with _validation():
        graph = build_graph(dataset, min_support=args.min_support)
    if args.graph_format == "dot":
        _write_output(args.out, to_dot(graph))
    else:
        _write_output(args.out, canonical_json(to_json_graph(graph)))
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    raw = _read_bytes(args.spec)
    try:
        obj = json.loads(raw.decode("utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge integers, deep nesting
        raise CliError(EXIT_VALIDATION, f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(EXIT_VALIDATION, "spec file: expected a JSON object")

    def fail(field: str, message: str) -> CliError:
        return CliError(EXIT_VALIDATION, f"spec.{field}: {message}")

    groups_raw = obj.get("concept_groups")
    if not isinstance(groups_raw, dict) or not groups_raw:
        raise fail("concept_groups", "expected a non-empty object mapping class to concept list")
    groups: dict[str, tuple[str, ...]] = {}
    for label, concepts in groups_raw.items():
        if not isinstance(concepts, list) or not all(isinstance(c, str) for c in concepts):
            raise fail(f"concept_groups.{label}", "expected an array of strings")
        groups[label] = tuple(concepts)
    classes = obj.get("classes")
    if classes is not None:
        if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
            raise fail("classes", "expected an array of strings")
        if sorted(classes) != sorted(groups):
            raise fail("classes", "must match the keys of concept_groups")
    rho = obj.get("rho")
    # abs(rho) <= max also rejects NaN and integers too large for float()
    if not isinstance(rho, (int, float)) or isinstance(rho, bool) or not abs(rho) <= sys.float_info.max:
        raise fail("rho", "expected a number in (0.5, 1.0]")
    per_class_n = obj.get("per_class_n")
    if not isinstance(per_class_n, int) or isinstance(per_class_n, bool):
        raise fail("per_class_n", "expected a positive integer")
    cpr = obj.get("concepts_per_image", [1, 3])
    if (
        not isinstance(cpr, list)
        or len(cpr) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in cpr)
    ):
        raise fail("concepts_per_image", "expected [lo, hi] integers")
    seed = args.seed if args.seed is not None else obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise fail("seed", "expected an integer")

    with _validation("spec: "):
        spec = BiasSpec(
            groups=groups,
            rho=float(rho),
            per_class_n=per_class_n,
            concepts_per_record=(cpr[0], cpr[1]),
        )

    dataset = generate(spec, seed)
    _write_output(args.out, serialize_jsonl(dataset))
    if args.out and args.out != "-":
        print(f"wrote {dataset.n} records to {args.out} (rng splitmix64, seed {seed})")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    dataset, _ = _load_dataset(args)
    masks = dataset.masks
    print(f"records: {dataset.n}")
    print(f"classes: {len(dataset.classes)}")
    print(f"concepts: {len(dataset.concepts)}")
    print()
    print("class histogram:")
    for y in dataset.classes:
        print(f"  {y}: {masks[y].bit_count()}")
    print()
    print("concept histogram:")
    for c in dataset.concepts:
        print(f"  {c}: {masks[c].bit_count()}")
    pairs = [
        (label, concept, (masks[label] & masks[concept]).bit_count())
        for label in dataset.classes
        for concept in dataset.concepts
    ]
    pairs = [(y, c, w) for y, c, w in pairs if w > 0]
    pairs.sort(key=lambda t: (-t[2], t[0], t[1]))
    print()
    print("top class-concept pairs:")
    for y, c, w in pairs[:20]:
        print(f"  ({y}, {c}): {w}")
    return EXIT_OK


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="dataset file (JSONL or CSV)")
    p.add_argument(
        "--format",
        choices=["auto", "jsonl", "csv"],
        default="auto",
        help="input format; auto picks csv for .csv, jsonl otherwise",
    )
    p.add_argument("--vocab", default=None, help="optional vocabulary JSON file")
    p.add_argument(
        "--lenient",
        action="store_true",
        help="drop invalid records instead of rejecting the whole file",
    )


def _add_diagnosis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-max", type=int, default=4, help="largest clique size to enumerate")
    p.add_argument("--min-support", type=int, default=1, help="minimum edge weight to keep")
    p.add_argument(
        "--relax",
        type=float,
        default=None,
        metavar="FRACTION",
        help="keep cliques shared by at least this fraction of classes (default: all classes)",
    )
    p.add_argument(
        "--template",
        choices=[t.value for t in PromptTemplate],
        default="photo",
        help="prompt phrasing family",
    )
    p.add_argument(
        "--clip-threshold",
        type=float,
        default=DEFAULT_CLIP_THRESHOLD,
        help="similarity threshold recorded on each query",
    )
    p.add_argument("--cap", type=int, default=None, help="upper bound per generation query")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coocbias",
        description="Diagnose class-concept co-occurrence bias and plan rebalancing generation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-errors", action="store_true", help="JSON error objects on stderr")

    p = sub.add_parser("diagnose", parents=[common], help="write a full diagnosis report (JSON)")
    _add_dataset_flags(p)
    _add_diagnosis_flags(p)
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("sample", parents=[common], help="write a rebalance generation plan (JSONL)")
    _add_dataset_flags(p)
    _add_diagnosis_flags(p)
    p.add_argument("--out", default=None, help="plan path (default: stdout, summary suppressed)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("export-graph", parents=[common], help="write the co-occurrence graph")
    _add_dataset_flags(p)
    p.add_argument("--min-support", type=int, default=1, help="minimum edge weight to keep")
    p.add_argument("--graph-format", choices=["dot", "json"], default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("synth", parents=[common], help="generate a biased dataset from a spec file")
    p.add_argument("spec", help="BiasSpec JSON file")
    p.add_argument("--out", default=None, help="dataset path (default: stdout)")
    p.add_argument("--seed", type=int, default=None, help="override the spec file's seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stats", parents=[common], help="print a dataset overview")
    _add_dataset_flags(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        _emit_error(err, args.json_errors)
        return err.exit_code


def entrypoint() -> None:
    sys.exit(main())
