"""Self-checks of the benchmark itself: run-to-run spread and determinism.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py spread --runs 10 [--sets 2] [--workload NAME ...]
    python3 perfbench/selfcheck.py determinism --seed 1 --other-seed 2

``spread`` runs each workload untraced once per seed (seeds 1..runs) and
prints, for every end-to-end metric, the median and the distance between
the first and third quartile as a share of the median.  A spread at or
above a third of the metric's bound in ``BENCHMARK.json`` is flagged,
``setup_s`` included.  With ``--sets 2`` it runs the seeds twice and also
flags a metric whose second median is worse than the first by more than
its bound.

``determinism`` runs each workload traced twice with one seed and requires
the count metrics (every ``<layer>.calls`` too) to repeat exactly across
the two processes; it then runs a second seed once, so a later claim can
be checked on a seed the first one never saw.  (Within one run, every
episode, traced or not, must already repeat the same counts.)  Exits
nonzero on any flag, mismatch or failed run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

#: Metrics that are pure counts of a fixed, seeded stretch of work (every
#: ``<layer>.calls`` is one too).
COUNT_METRICS = (
    "io_per_op",
    "storage.hit_ratio",
    "storage.logical_reads_per_op",
    "storage.physical_reads_per_op",
    "storage.physical_writes_per_op",
    "storage.dirty_evictions_per_op",
    "secondary.probes_per_update",
    "update.bottom_up_ratio",
    "update.batch.groups_per_update",
    "update.batch.residual_ratio",
    "shard.migrations_per_update",
    "shard.shards_per_query",
    "shard.parallel.commands_per_dispatch",
    "durability.fsyncs",
    "durability.bytes_per_mutation",
    "rtree.nodes_written_per_op",
)


def run(workload: str, seed: int, trace: int, seconds: int) -> Dict[str, float]:
    """One benchmark run; returns its metric values (exits on failure)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=CHECKOUT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: incorrect result")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(config: dict, workloads: List[str], runs: int, sets: int) -> bool:
    ok = True
    for workload in workloads:
        medians: List[Dict[str, float]] = []
        for number in range(1, sets + 1):
            values: Dict[str, List[float]] = {}
            for seed in range(1, runs + 1):
                start = time.monotonic()
                for name, value in run(workload, seed, 0, config["run_seconds"]).items():
                    values.setdefault(name, []).append(value)
                print(f"  {workload} set {number} seed {seed} done in {time.monotonic() - start:.0f} s",
                      file=sys.stderr, flush=True)
            print(f"{workload} set {number} ({runs} seeds)")
            medians.append({})
            for metric in config["end_to_end"]:
                series = values[metric["name"]]
                q1, median, q3 = statistics.quantiles(series, n=4)
                medians[-1][metric["name"]] = median
                share = (q3 - q1) / median
                flag = share >= metric["bound"] / 3
                ok &= not flag
                print(f"  {metric['name']:<14} median {median:12.5g} {metric['unit']:<6}"
                      f" spread {share:7.2%}  bound {metric['bound']:.0%}{'  <-- too wide' if flag else ''}")
                print("    " + " ".join(f"{value:.4g}" for value in series))
        for metric in config["end_to_end"] if sets > 1 else ():
            first, last = medians[0][metric["name"]], medians[-1][metric["name"]]
            worse = (last - first) / first if metric["better"] == "lower" else (first - last) / first
            flag = worse > metric["bound"]
            ok &= not flag
            print(f"  {metric['name']:<14} set {sets} vs set 1: {worse:+7.2%} worse"
                  f"{'  <-- beyond the bound' if flag else ''}")
    return ok


def determinism(config: dict, workloads: List[str], seed: int, other_seed: int) -> bool:
    ok = True
    for workload in workloads:
        first = run(workload, seed, 1, config["run_seconds"])
        second = run(workload, seed, 1, config["run_seconds"])
        other = run(workload, other_seed, 1, config["run_seconds"])
        counted = [name for name in first if name in COUNT_METRICS or name.endswith(".calls")]
        for name in counted:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:<22} {name:<36} seed {seed}: {first[name]:<12.6g}"
                  f" again: {second[name]:<12.6g} {'same' if same else 'DIFFERS'}"
                  f"   seed {other_seed}: {other[name]:.6g}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("spread", "determinism"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, help="spread: sets of runs, last compared with first")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    args = parser.parse_args()
    config = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    if args.check == "spread":
        ok = spread(config, workloads, args.runs, args.sets)
    else:
        ok = determinism(config, workloads, args.seed, args.other_seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
