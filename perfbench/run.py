#!/usr/bin/env python3
"""coocbias benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload records-heavy --seed 1 --seconds 40 --trace 0

Run it from the root of a coocbias checkout; it imports the package from
./src and builds nothing. The workload's op runs again and again, each
time in a fresh child process and one at a time (a closed loop with one
client). The run lasts --seconds, set-ups included, give or take half an
op, and at least three ops run. Before each of the first three ops, and
before later ones while set-ups stay under a tenth of the run, the input
is generated from --seed and written anew; setup_s is the median of those
set-ups. Every op's output is checked outside the timed region. Scratch
files live under ./.perfbench_work and are removed at exit.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 does
the same untraced ops, then one traced op (op.py --spans) and the CLI and
drift measurements, and reports the per-layer metrics instead. The last
line of stdout is the result object; the line before it holds details that
are not metrics: op times, output sha256, residual imbalances, problems.
--smoke swaps in tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_OPS = 3
MIN_SETUPS = 3
SETUP_SHARE = 0.1
OP_TIMEOUT_S = 120
STARTUP_REPEATS = 5
MIB = float(1 << 20)
STAGE_SPANS = (
    "dataset.parse",
    "graph.build",
    "cliques.enumerate",
    "cliques.intersect",
    "cliques.count",
    "cliques.imbalance",
    "rebalance.plan",
    "report.digest",
    "report.render",
    "report.write",
)


def run_child(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int, str]:
    """Run argv through spawn.py: (wall s, peak RSS MiB, exit code, last stderr line)."""
    spawn = [sys.executable, str(HERE / "spawn.py"), str(OP_TIMEOUT_S), str(stderr_path), "--"]
    proc = subprocess.run(spawn + argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=OP_TIMEOUT_S + 30)
    result = json.loads(proc.stdout)
    lines = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return result["wall_s"], result["maxrss_kib"] / 1024, result["code"], lines[-1] if lines else ""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload run: files, child environment, and what went wrong."""

    def __init__(self, root: Path, workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.input = work / f"input.{workload.fmt}"
        # One fixed hash seed for every child, so that the per-process hash
        # salt cannot add to the spread (README.md, "Steadiness and noise").
        self.env = dict(
            os.environ,
            PYTHONHASHSEED="0",
            PYTHONPATH=os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p),
        )
        self.problems: list[str] = []
        self.flags = ["--k-max", str(workload.k_max)]
        if workload.relax is not None:
            self.flags += ["--relax", str(workload.relax)]

    def outputs(self, tag: str) -> dict[str, Path]:
        names = ("plan.jsonl", "summary.json") if self.w.loop else ("report.json",)
        return {name: self.work / f"{tag}-{name}" for name in names}

    def op_argv(self, outs: dict[str, Path], spans: Path | None = None) -> list[str]:
        """The untraced diagnose op is the CLI; every other op is op.py."""
        if self.w.loop:
            program = [str(HERE / "op.py"), "loop", "--summary", str(outs["summary.json"])]
        elif spans is None:
            program = ["-m", "coocbias", "diagnose"]
        else:
            program = [str(HERE / "op.py"), "diagnose"]
        out = outs["plan.jsonl" if self.w.loop else "report.json"]
        argv = [sys.executable, *program, "--input", str(self.input), "--out", str(out), *self.flags]
        return argv + (["--spans", str(spans)] if spans else [])

    def check(self, outs: dict[str, Path], data: bytes, records) -> list[str]:
        from check import check_loop, check_report

        try:
            texts = {name: path.read_text(encoding="utf-8") for name, path in outs.items()}
        except OSError as exc:
            return [f"output missing: {exc}"]
        if self.w.loop:
            return check_loop(texts["plan.jsonl"], texts["summary.json"], data, records)
        return check_report(texts["report.json"], data, records)


def measure_ops(run: Run, seconds: float) -> dict:
    """Closed loop: one op at a time for `seconds` in all, and at least MIN_OPS ops.

    An op starts only while the run's elapsed time plus half the median op
    so far stays within `seconds`, so a run lasts `seconds` give or take
    half an op, however slow the program is. A set-up precedes each of the
    first MIN_SETUPS ops, and every later op while set-ups have taken at
    most SETUP_SHARE of the run so far: a cheap set-up is then repeated
    throughout the run, and one that costs about half an op (records-heavy)
    does not crowd out the ops. Each set-up must write the bytes the first
    wrote. The first correct op's outputs are kept as the reference; every
    later op must reproduce them byte for byte.
    """
    from check import read_records
    from workloads import set_up

    start = time.perf_counter()
    walls, rss, failed = [], [], 0
    setup_times: dict[str, list[float]] = {"setup_s": [], "generate_s": [], "serialize_s": []}
    data = records = None
    reference: dict[str, Path] | None = None
    digests: dict[str, str] | None = None
    while len(walls) < MIN_OPS or time.perf_counter() - start + statistics.median(walls) / 2 <= seconds:
        elapsed = time.perf_counter() - start
        if len(walls) < MIN_SETUPS or sum(setup_times["setup_s"]) <= SETUP_SHARE * elapsed:
            setup = set_up(run.w, run.seed, run.input)
            for key, times in setup_times.items():
                times.append(getattr(setup, key))
            if data is None:
                data, records = setup.data, read_records(setup.data, run.w.fmt)
                if len(records) != run.w.records:
                    run.problems.append(f"input has {len(records)} records, workload states {run.w.records}")
            elif setup.data != data:
                run.problems.append(f"set-up {len(walls)} wrote other bytes than the first")
        outs = run.outputs(f"op{len(walls)}")
        wall, peak, code, tail = run_child(run.op_argv(outs), run.env, run.work / "stderr.txt")
        walls.append(wall)
        rss.append(peak)
        problems = [f"exit code {code}: {tail}"] if code else run.check(outs, data, records)
        if not problems:
            mine = {name: sha256_file(path) for name, path in outs.items()}
            if reference is None:
                reference, digests = outs, mine
            elif mine != digests:
                problems.append("output differs from the first op's")
            else:
                for path in outs.values():
                    path.unlink()
        if problems:
            failed += 1
            run.problems += [f"op {len(walls) - 1}: {p}" for p in problems[:5]]
            if len(walls) >= MIN_OPS:
                break
    return {"walls": walls, "rss": rss, "failed": failed, "sha256": digests, "outs": reference,
            "data": data, "records": records, "setups": len(setup_times["setup_s"]),
            **{key: statistics.median(times) for key, times in setup_times.items()}}


def cli_startup_s(run: Run) -> float:
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "coocbias", "--version"], env=run.env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced(run: Run, ops: dict) -> dict[str, float]:
    """Per-layer metrics: one traced op, CLI timings, drift check, apply."""
    from coocbias import DiagnosisConfig, apply_virtual, cli, diagnose, parse_csv, parse_jsonl
    from op import fingerprint

    outs = run.outputs("traced")
    spans_path = run.work / "spans.json"
    traced_wall, _, code, tail = run_child(run.op_argv(outs, spans_path), run.env, run.work / "stderr.txt")
    if code:
        raise RuntimeError(f"traced op failed with exit code {code}: {tail}")
    payload = json.loads(spans_path.read_text(encoding="utf-8"))
    if ops["sha256"] != {name: sha256_file(path) for name, path in outs.items()}:
        run.problems.append("drift: the traced op's output differs from the untraced op's")
    run.problems += [f"traced op: {p}" for p in run.check(outs, ops["data"], ops["records"])]

    busy: dict[str, float] = {}
    for name, _, start, end in payload["spans"]:
        busy[name] = busy.get(name, 0.0) + end - start
    expected = STAGE_SPANS + (("rebalance.apply",) if run.w.loop else ())
    missing = [name for name in expected if name not in busy]
    if missing:
        run.problems.append(f"drift: the traced op recorded no span for {missing}")
    m = {f"{name}_s": busy.get(name, 0.0) for name in expected}

    command = "sample" if run.w.loop else "diagnose"
    cli_out = run.work / f"cli-{command}.out"
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli.main([command, "--input", str(run.input), "--out", str(cli_out), *run.flags])
    m["cli.main_s"] = time.perf_counter() - start
    reference = ops["outs"]["plan.jsonl" if run.w.loop else "report.json"]
    if code or cli_out.read_bytes() != reference.read_bytes():
        run.problems.append(f"coocbias {command} in-process does not reproduce the op's output")
    m["cli.startup_s"] = cli_startup_s(run)

    # The stages op.py composes must still be what diagnose() does.
    parse = parse_csv if run.w.fmt == "csv" else parse_jsonl
    dataset, _ = parse(ops["data"])
    diag = diagnose(dataset, DiagnosisConfig(k_max=run.w.k_max, relax_fraction=run.w.relax))
    drifted = [k for k, v in fingerprint(diag).items() if payload["fingerprint"][k] != v]
    if drifted:
        run.problems.append(f"drift: staged replay and diagnose() disagree on {drifted}")
    if not run.w.loop:
        # Not part of the op: the closure step a user runs next on its plan.
        start = time.perf_counter()
        apply_virtual(dataset, diag.plan)
        m["rebalance.apply_s"] = time.perf_counter() - start

    counts = payload["counts"]
    for key in ("dataset.records_parsed", "dataset.records_rejected", "graph.edges",
                "graph.pair_increments", "cliques.per_class_cliques", "cliques.common_cliques",
                "cliques.imbalanced", "rebalance.queries", "rebalance.planned_records"):
        m[key] = counts[key]
    m["dataset.input_mib"] = counts["dataset.input_bytes"] / MIB
    m["report.output_mib"] = counts["report.output_bytes"] / MIB
    m["cliques.kept_ratio"] = counts["cliques.common_cliques"] / max(1, counts["cliques.per_class_cliques"])
    m["synth.generate_s"] = ops["generate_s"]
    m["synth.serialize_s"] = ops["serialize_s"]
    m["trace.overhead_s"] = traced_wall - statistics.median(ops["walls"])
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "coocbias" / "__init__.py").is_file():
        print("perfbench: src/coocbias not found; run from the root of a coocbias checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))
    from workloads import SMOKE, WORKLOADS

    catalog = SMOKE if args.smoke else WORKLOADS
    if args.workload not in catalog:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(catalog)}")
    w = catalog[args.workload]

    scratch = root / ".perfbench_work"
    work = scratch / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(root, w, args.seed, work)
        ops = measure_ops(run, args.seconds)
        records = ops["records"]
        wall = statistics.median(ops["walls"])
        if args.trace:
            metrics = traced(run, ops)
            kind = "per_layer"
        else:
            metrics = {
                "wall_s": wall,
                "records_per_s": len(records) / wall,
                "peak_rss_mib": statistics.median(ops["rss"]),
                "setup_s": ops["setup_s"],
            }
            kind = "end_to_end"
        residual = None
        if w.loop and ops["outs"]:
            summary = json.loads(ops["outs"]["summary.json"].read_text(encoding="utf-8"))
            residual = summary["residual_imbalances"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(metrics))} are not both declared and measured")
    attempted, failed = len(ops["walls"]), ops["failed"]
    print(json.dumps({
        "workload": w.name,
        "seed": args.seed,
        "records": len(records),
        "op_wall_s": ops["walls"],
        "setups": ops["setups"],
        "ops_failed": failed / attempted,
        "output_sha256": ops["sha256"],
        "residual_imbalances": residual,
        "problems": run.problems[:20],
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
