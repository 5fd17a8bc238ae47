#!/usr/bin/env python3
"""Wall-clock scaling of the diagnosis pipeline.

Sweeps record count and clique-size cap on synthetic datasets and prints a
small table of timings: ``gen s`` is the time ``generate`` took to build the
row's dataset, ``seconds`` the time ``diagnose`` took on it, and ``render s``
the time to join ``report_chunks`` for that diagnosis, the report text that
``coocbias diagnose`` writes. Clique enumeration grows combinatorially with
k_max and concept connectivity, so the cap dominates beyond small values.

    python scripts/benchmark.py --records 1000 10000 --k-max 2 3 4
"""

import argparse
import time

from coocbias import BiasSpec, DiagnosisConfig, diagnose, generate
from coocbias.report import report_chunks


def build_dataset(n_records: int, n_classes: int, n_concepts: int, seed: int):
    base = n_concepts // n_classes
    remainder = n_concepts % n_classes
    groups = {}
    for i in range(n_classes):
        size = base + (1 if i < remainder else 0)
        groups[f"class{i}"] = tuple(f"g{i}c{j:02d}" for j in range(size))
    spec = BiasSpec(
        groups=groups,
        rho=0.9,
        per_class_n=max(1, n_records // n_classes),
        concepts_per_record=(1, 3),
    )
    return generate(spec, seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, nargs="+", default=[1000, 10_000])
    parser.add_argument("--k-max", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--concepts", type=int, default=50)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    print(f"{'records':>8} {'k_max':>6} {'cliques':>8} {'queries':>8} {'gen s':>8} {'seconds':>8} {'render s':>8}")
    for n in args.records:
        started = time.perf_counter()
        ds = build_dataset(n, args.classes, args.concepts, args.seed)
        generated = time.perf_counter() - started
        for k in args.k_max:
            started = time.perf_counter()
            result = diagnose(ds, DiagnosisConfig(k_max=k))
            elapsed = time.perf_counter() - started
            started = time.perf_counter()
            "".join(report_chunks(result, ds, "0" * 64))
            rendered = time.perf_counter() - started
            n_cliques = sum(len(v) for v in result.common.values())
            print(
                f"{ds.n:>8} {k:>6} {n_cliques:>8} {len(result.plan.queries):>8} {generated:>8.2f} {elapsed:>8.2f}"
                f" {rendered:>8.3f}"
            )


if __name__ == "__main__":
    main()
