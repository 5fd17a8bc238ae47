"""Command-line interface.

Subcommands:

* ``diagnose``      full bias diagnosis, canonical JSON report
* ``sample``        diagnosis plus rebalance plan as JSONL
* ``export-graph``  co-occurrence graph as DOT or JSON
* ``synth``         seeded biased-dataset generator
* ``stats``         quick dataset overview

Exit codes: 0 success, 1 validation problem (bad data or out-of-range
values), 2 I/O failure. Any failed read of an input or write of an output
exits 2 with one ``error: cannot read|write NAME: reason`` line, stdin and
stdout included, whether they fail or are closed: ``_reading`` opens every
input and the stdout branch of ``_write_output`` is the one writer of stdout.
Argparse itself still exits 2 on malformed usage, the conventional overlap.
With ``--json-errors`` the error report on stderr is a single JSON object
instead of prose. ``synth`` leaves every check of a spec field, and of the
seed, to ``BiasSpec`` and ``generate``.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from itertools import chain
from pathlib import Path
from typing import IO

from . import __version__
from .dataset import _SURROGATE, Dataset, Vocabulary, _clean, load_vocabulary, parse_csv, parse_jsonl, serialize_jsonl
from .graph import build_graph, to_dot, to_json_graph
from .rebalance import DEFAULT_CLIP_THRESHOLD, PromptTemplate, RebalanceConfig
from .report import (
    Diagnosis,
    DiagnosisConfig,
    canonical_chunks,
    diagnose,
    plan_jsonl,
    report_chunks,
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


@contextmanager
def _reading(path: str, digest: hashlib._Hash | None = None) -> Iterator[IO[bytes]]:
    """Yield ``path``, or stdin for ``-``, as a buffered binary stream.

    Every byte read is fed to ``digest`` when one is given. An OSError raised
    while the stream is open exits 2 naming ``path``; so does a non-blocking
    stdin that has no data yet.
    """
    try:
        if path == "-" and sys.stdin is None:  # the process started with file descriptor 0 closed
            raise CliError(EXIT_IO, "cannot read -: stdin is closed")
        with open(path, "rb") if path != "-" else nullcontext(sys.stdin.buffer) as source:
            with io.BufferedReader(_CheckedReader(source, digest)) as stream:
                yield stream
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}") from exc


class _CheckedReader(io.RawIOBase):
    """A raw stream over ``source`` that feeds every byte it reads to ``digest``, if any.

    A non-blocking source with no data yet returns None, which a
    BufferedReader would take for the end of the input and ``read()`` would
    return; here it raises EAGAIN.
    """

    def __init__(self, source: IO[bytes], digest: hashlib._Hash | None) -> None:
        self.source = source
        self.digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.source.readinto(buffer)
        if n is None:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        if self.digest is not None:
            self.digest.update(memoryview(buffer)[:n])
        return n


def _write_output(path: str, text: str | Iterable[str]) -> None:
    """Write one string or an iterable of pieces to ``path``, or to stdout for ``-``.

    This is the one writer of stdout; it flushes, so a failed write exits 2 here.
    """
    if path != "-":
        try:
            write_text(Path(path), text)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}") from exc
        return
    if sys.stdout is None:  # the process started with file descriptor 1 closed
        raise CliError(EXIT_IO, "cannot write stdout: stdout is closed")
    # An unbuffered stdout (python -u) drops the rest of a write to a closed
    # pipe without an error; in 64 KiB pieces, the next piece raises.
    pieces = (text[i : i + 65536] for i in range(0, len(text), 65536)) if isinstance(text, str) else text
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except OSError as exc:
        # What is still buffered goes to devnull at shutdown instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise CliError(EXIT_IO, f"cannot write stdout: {exc.strerror or exc}") from exc


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
    with _reading(path) as stream, _validation("invalid vocabulary file: "):
        return load_vocabulary(stream)


def _load_dataset(args: argparse.Namespace) -> tuple[Dataset, str]:
    """Parse and validate the input as it is read; return (dataset, content digest).

    The input is opened before the vocabulary is loaded, so a missing input is
    reported first, and the digest is taken from the bytes the parser reads.
    """
    if args.input == "-" and args.vocab == "-":
        raise CliError(EXIT_VALIDATION, "--input and --vocab cannot both read stdin")
    fmt = args.format
    if fmt == "auto":
        fmt = "csv" if args.input.lower().endswith(".csv") else "jsonl"
    parse = parse_csv if fmt == "csv" else parse_jsonl
    digest = hashlib.sha256()
    with _reading(args.input, digest) as stream:
        vocab = _load_vocab(args.vocab)
        dataset, report = parse(stream, strict=not args.lenient, vocabulary=vocab)
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
    return dataset, digest.hexdigest()


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
    _write_output(args.out, report_chunks(result, dataset, digest))
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    _, _, result = _diagnose(args)
    plan = result.plan
    _write_output(args.out, plan_jsonl(plan))
    if args.out == "-":
        return EXIT_OK
    lines = [f"plan: {len(plan.queries)} queries, {plan.total_count} samples"]
    lines += [f"  {label}: {plan.per_class[label]}" for label in sorted(plan.per_class)]
    if plan.truncated:
        lines.append("note: some queries were clamped by --cap; counts will not fully balance")
    _write_output("-", "".join(f"{line}\n" for line in lines))
    return EXIT_OK


def cmd_export_graph(args: argparse.Namespace) -> int:
    dataset, _ = _load_dataset(args)
    with _validation():
        graph = build_graph(dataset, min_support=args.min_support)
    if args.graph_format == "dot":
        _write_output(args.out, to_dot(graph))
    else:
        _write_output(args.out, canonical_chunks(to_json_graph(graph)))
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    with _reading(args.spec) as stream:
        raw = stream.read()
    try:
        obj = json.loads(raw.decode("utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, huge integers, deep nesting
        raise CliError(EXIT_VALIDATION, f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(EXIT_VALIDATION, "spec file: expected a JSON object")

    # BiasSpec checks its own fields; only two spec keys are named differently.
    with _validation("spec: "):
        spec = BiasSpec(
            groups=obj.get("concept_groups"),
            rho=obj.get("rho"),
            per_class_n=obj.get("per_class_n"),
            concepts_per_record=obj.get("concepts_per_image", (1, 3)),
        )
        # The library takes any str, but a lone surrogate cannot be written out,
        # and a name the parsers would clean differently reads back as another.
        names = [*spec.groups, *chain.from_iterable(spec.groups.values())]
        if _SURROGATE.search("".join(names)):
            raise ValueError("names must be valid Unicode (lone surrogate escape)")
        rewritten = next((name for name in names if not name or _clean(name) != name), None)
        if rewritten is not None:
            raise ValueError(f"names must be non-empty, trimmed and NFC-normalized as parsed; got {rewritten!r}")
    classes = obj.get("classes")
    if classes is not None and not (
        isinstance(classes, list) and all(isinstance(c, str) for c in classes) and sorted(classes) == sorted(spec.groups)
    ):
        raise CliError(EXIT_VALIDATION, "spec.classes: expected an array of the keys of concept_groups")
    seed = args.seed if args.seed is not None else obj.get("seed", 0)
    with _validation("spec: "):
        dataset = generate(spec, seed)
    _write_output(args.out, serialize_jsonl(dataset))
    if args.out != "-":
        _write_output("-", f"wrote {dataset.n} records to {args.out} (rng splitmix64, seed {seed})\n")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    dataset, _ = _load_dataset(args)
    masks = dataset.masks
    lines = [f"records: {dataset.n}", f"classes: {len(dataset.classes)}", f"concepts: {len(dataset.concepts)}"]
    lines += ["", "class histogram:", *(f"  {y}: {masks[y].bit_count()}" for y in dataset.classes)]
    lines += ["", "concept histogram:", *(f"  {c}: {masks[c].bit_count()}" for c in dataset.concepts)]
    pairs = [
        (label, concept, (masks[label] & masks[concept]).bit_count())
        for label in dataset.classes
        for concept in dataset.concepts
    ]
    pairs = [(y, c, w) for y, c, w in pairs if w > 0]
    pairs.sort(key=lambda t: (-t[2], t[0], t[1]))
    lines += ["", "top class-concept pairs:", *(f"  ({y}, {c}): {w}" for y, c, w in pairs[:20])]
    _write_output("-", "".join(f"{line}\n" for line in lines))
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
    p.add_argument("--out", default="-", help="report path (default: stdout)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("sample", parents=[common], help="write a rebalance generation plan (JSONL)")
    _add_dataset_flags(p)
    _add_diagnosis_flags(p)
    p.add_argument("--out", default="-", help="plan path (default: stdout, summary suppressed)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("export-graph", parents=[common], help="write the co-occurrence graph")
    _add_dataset_flags(p)
    p.add_argument("--min-support", type=int, default=1, help="minimum edge weight to keep")
    p.add_argument("--graph-format", choices=["dot", "json"], default="json")
    p.add_argument("--out", default="-", help="output path (default: stdout)")
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("synth", parents=[common], help="generate a biased dataset from a spec file")
    p.add_argument("spec", help="BiasSpec JSON file")
    p.add_argument("--out", default="-", help="dataset path (default: stdout)")
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
