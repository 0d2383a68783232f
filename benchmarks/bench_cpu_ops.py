#!/usr/bin/env python
"""CPU micro-benchmark: single-thread ops/sec per strategy and op.

Measures the interpreter-level cost of the index hot paths — update, range
query, and kNN — for the TD and GBU strategies, and writes a
schema-versioned JSON report that is checked in at the repository root
(``BENCH_cpu_ops.json``) as the CPU performance trajectory, together with
the machine it ran on.

Unlike the figure benchmarks (which count simulated disk I/O), the numbers
here are wall-clock rates: they track how fast the data structure itself
runs — the columnar nodes and the batch kernels.

Methodology
-----------
Every strategy cell is run ``--repeats`` times with strategies interleaved
inside each repeat, and each op reports its **best** repeat: noise on a
shared box only ever makes a run slower, so the fastest repeat is the
closest estimate of the true cost.

Usage::

    python benchmarks/bench_cpu_ops.py                 # full run, writes BENCH_cpu_ops.json
    python benchmarks/bench_cpu_ops.py --scale 0.05    # CI smoke scale
    python benchmarks/bench_cpu_ops.py --check         # validate existing JSON

``--check`` validates the report's schema (exit 1 on any problem).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import IndexConfig, MovingObjectIndex  # noqa: E402
from repro.geometry import Point, Rect, kernels  # noqa: E402

SCHEMA_VERSION = 2
STRATEGIES = ("TD", "GBU")
OPS = ("update", "range", "knn")

#: Full-scale workload: the ISSUE's 10k-object update micro-benchmark.
BASE_OBJECTS = 10_000
UPDATES_PER_OBJECT = 2.0
BASE_RANGE_QUERIES = 2_000
BASE_KNN_QUERIES = 2_000
KNN_K = 10
RANGE_WINDOW_SIDE = 0.05


def make_workload(objects: int, updates: int, ranges: int, knns: int, seed: int):
    rng = random.Random(seed)
    points = [(oid, Point(rng.random(), rng.random())) for oid in range(objects)]
    moves = [
        (rng.randrange(objects), Point(rng.random(), rng.random()))
        for _ in range(updates)
    ]
    windows = []
    for _ in range(ranges):
        x, y = rng.random() * (1 - RANGE_WINDOW_SIDE), rng.random() * (1 - RANGE_WINDOW_SIDE)
        windows.append(Rect(x, y, x + RANGE_WINDOW_SIDE, y + RANGE_WINDOW_SIDE))
    knn_points = [Point(rng.random(), rng.random()) for _ in range(knns)]
    return points, moves, windows, knn_points


def run_cell(strategy: str, workload) -> Dict[str, Tuple[int, float]]:
    """One full measurement of every op for *strategy*.

    Returns ``{op: (ops, seconds)}``.  A fresh index is built per call so the
    update phase always starts from the same tree shape.
    """
    points, moves, windows, knn_points = workload
    index = MovingObjectIndex(IndexConfig(strategy=strategy))
    index.load(points)

    timings: Dict[str, Tuple[int, float]] = {}

    start = time.perf_counter()
    for oid, location in moves:
        index.update(oid, location)
    timings["update"] = (len(moves), time.perf_counter() - start)

    start = time.perf_counter()
    for window in windows:
        index.range_query(window)
    timings["range"] = (len(windows), time.perf_counter() - start)

    start = time.perf_counter()
    for point in knn_points:
        index.knn(point, KNN_K)
    timings["knn"] = (len(knn_points), time.perf_counter() - start)

    return timings


def run_benchmark(scale: float, repeats: int, seed: int) -> dict:
    objects = max(50, int(BASE_OBJECTS * scale))
    updates = int(objects * UPDATES_PER_OBJECT)
    ranges = max(10, int(BASE_RANGE_QUERIES * scale))
    knns = max(10, int(BASE_KNN_QUERIES * scale))
    workload = make_workload(objects, updates, ranges, knns, seed)

    # best[strategy][op] = (ops, best_seconds)
    best: Dict[str, Dict[str, Tuple[int, float]]] = {s: {} for s in STRATEGIES}
    for repeat in range(repeats):
        for strategy in STRATEGIES:
            timings = run_cell(strategy, workload)
            cell = best[strategy]
            for op, (ops, seconds) in timings.items():
                if op not in cell or seconds < cell[op][1]:
                    cell[op] = (ops, seconds)
            print(
                f"  repeat {repeat + 1}/{repeats} {strategy}: "
                + " ".join(
                    f"{op}={ops / seconds:.0f}/s"
                    for op, (ops, seconds) in timings.items()
                ),
                file=sys.stderr,
            )

    results: List[dict] = []
    for strategy in STRATEGIES:
        for op in OPS:
            ops, seconds = best[strategy][op]
            results.append(
                {
                    "strategy": strategy,
                    "op": op,
                    "ops": ops,
                    "seconds": round(seconds, 6),
                    "ops_per_sec": round(ops / seconds, 1),
                }
            )

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "cpu_ops",
        "paper": "conf_vldb_LeeHJT03",
        "scale": scale,
        "objects": objects,
        "updates": updates,
        "range_queries": ranges,
        "knn_queries": knns,
        "knn_k": KNN_K,
        "repeats": repeats,
        "seed": seed,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "kernel_backend": kernels.get_backend(),
        },
        "results": results,
    }


def validate_report(report: dict) -> List[str]:
    """Schema validation; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {report.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    if report.get("benchmark") != "cpu_ops":
        problems.append(f"benchmark is {report.get('benchmark')!r}, expected 'cpu_ops'")
    for key in ("scale", "objects", "updates", "machine", "results"):
        if key not in report:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    for key in ("cpu_count", "python", "kernel_backend"):
        if key not in report["machine"]:
            problems.append(f"machine record missing {key!r}")

    seen = set()
    for row in report["results"]:
        for key in ("strategy", "op", "ops", "seconds", "ops_per_sec"):
            if key not in row:
                problems.append(f"result row missing {key!r}: {row}")
                break
        else:
            if not (isinstance(row["ops_per_sec"], (int, float)) and row["ops_per_sec"] > 0):
                problems.append(f"non-positive ops_per_sec: {row}")
            seen.add((row["strategy"], row["op"]))
    for strategy in STRATEGIES:
        for op in OPS:
            if (strategy, op) not in seen:
                problems.append(f"missing result cell {(strategy, op)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale (1.0 = 10k objects)")
    parser.add_argument("--repeats", type=int, default=3, help="repeats per cell; best is reported")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_cpu_ops.json",
        help="report path (default: repo root BENCH_cpu_ops.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate the existing report instead of running the benchmark",
    )
    args = parser.parse_args(argv)

    if args.check:
        try:
            report = json.loads(args.output.read_text())
        except (OSError, ValueError) as error:
            print(f"cannot read report {args.output}: {error}", file=sys.stderr)
            return 1
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        print(f"OK: {args.output} valid")
        return 0

    report = run_benchmark(args.scale, args.repeats, args.seed)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for row in report["results"]:
        print(f"  {row['strategy']} {row['op']}: {row['ops_per_sec']:.0f} ops/s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
