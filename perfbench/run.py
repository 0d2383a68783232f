"""Run one benchmark workload through the public API and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload local-updates --seed 1 --seconds 15 --trace 0

A run draws one seeded episode (a warm-up and a fixed list of timed client
calls) and replays it on a fresh index again and again until ``--seconds``
of timed calls have passed (at least three times).  Each episode sets the
index up (``open_index`` + ``load``), runs the warm-up untimed, times every
client call of the episode, checks the index and tears it down.  Every
episode does exactly the same work, so its count metrics must repeat
exactly; the run fails if they do not.

``--trace 0`` reports the end-to-end metrics, with no instrumentation.
Because every replay sends the same calls to the same index state, each
call is timed once per episode, and its latency is the lowest of those
replays: a burst of machine noise during one replay of a call is dropped,
while a slower code path shows in every replay.  Throughput and the
latency quantiles come from these per-call latencies; set-up time is the
median over the episodes.  ``--trace 1`` runs untraced, sampled
(:class:`tracing.LayerSampler`, self time per layer) and counted
(:class:`tracing.LayerCounter`, crossings and events) episodes in turn
until ``--seconds`` of timed calls have passed, and reports the per-layer
metrics, plus the sampler's overhead and coverage.

Checks, outside the timed calls: sampled query answers against a
brute-force oracle, ``validate()``, every object's position against the
stream, and on WAL workloads the index recovered from its log (first
episode).  Human-readable lines go first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is nonzero when any operation or check failed.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import multiprocessing
import os
import pickle
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

CHECKOUT = Path(__file__).resolve().parent.parent
#: Scratch space for WAL directories; always inside the checkout.
TMP_ROOT = CHECKOUT / ".perfbench_tmp"
#: Episodes per run, at the least; more run until ``--seconds`` is used up.
MIN_EPISODES = 3
#: Rounds of untraced, sampled and counted episodes per traced run, at the
#: least.
MIN_TRACED_ROUNDS = 2
#: A sampled episode fails when its samples (layers + client) miss its wall
#: time by more than this share.
MAX_UNATTRIBUTED = 0.10

clock = time.perf_counter


def _import_library() -> None:
    """Make the checkout's own ``src/repro`` importable, or exit nonzero."""
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {CHECKOUT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(CHECKOUT / "src"))


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Run:
    """One workload run: the seeded episode and its repetitions."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        from workloads import InputStream

        self.workload = workload
        self.seconds = seconds
        stream = InputStream(workload, seed)
        self.objects = stream.initial_objects()
        self.warmup = stream.next_calls(workload.warmup_ops)
        self.calls = stream.next_calls(workload.episode_ops)
        self.final_positions = stream.positions
        self.attempted = 0
        self.failed = 0
        #: Count deltas of the first episode; every later one must match.
        self.reference_counts: Optional[Dict[str, Any]] = None

    # -- failures ----------------------------------------------------------
    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if self.failed <= 20:
            print(f"perfbench: FAILED {message}", file=sys.stderr)

    # -- one episode -------------------------------------------------------
    def episode(self, number: int, instrument: Optional[str] = None) -> Dict[str, Any]:
        """Run one episode in a child process forked for it alone.

        Every episode starts from the same parent state (the pre-generated
        inputs and nothing else), so none inherits a heap, a buffer pool or
        a worker from the one before; the child and all its workers have
        ended when this returns.
        """
        result = _in_child(lambda: self._episode(number, instrument))
        self.attempted += result.pop("attempted")
        self.failed += result.pop("failed")
        counts = result.pop("counts")
        if self.reference_counts is None:
            self.reference_counts = counts
        elif counts != self.reference_counts:
            self.fail(f"episode {number} did different work from episode 0")
        return result

    def _episode(self, number: int, instrument: Optional[str]) -> Dict[str, Any]:
        """Set up, warm up, time the episode's calls, check, tear down.

        *instrument* ``"sampled"`` or ``"counted"`` installs a fresh
        :class:`tracing.LayerSampler` or :class:`tracing.LayerCounter` after
        the set-up, so process workers are forked from untraced code, and
        removes it as soon as the timed calls are done.
        """
        import repro
        from tracing import LayerCounter, LayerSampler

        self.attempted = self.failed = 0
        spec = copy.deepcopy(self.workload.spec)
        _reset_peak_memory()
        start = clock()
        wal_dir = None
        if self.workload.wal:
            wal_dir = tempfile.mkdtemp(prefix="wal-", dir=TMP_ROOT)
            spec["durability"]["dir"] = wal_dir
        index = repro.open_index(spec)
        index.load(self.objects)
        setup_s = clock() - start
        if number == 0:
            _record(self, index)

        totals = _zero_totals()
        for ops in self.warmup:
            self._call(index, ops, None, totals)
        gc.collect()
        totals = _zero_totals()
        io_before = index.io_snapshot()
        wal_before = _wal_bytes(wal_dir)
        latencies: List[float] = []
        sampler = LayerSampler() if instrument == "sampled" else None
        counter = LayerCounter() if instrument == "counted" else None
        tool = sampler or counter
        wall_start = clock()
        if tool is not None:
            tool.install()
        try:
            for ops in self.calls:
                latencies.append(self._call(index, ops, counter, totals))
        finally:
            if tool is not None:
                tool.uninstall()
            wall = clock() - wall_start
        counts = dict(totals)
        counts.update(index.io_snapshot().delta_since(io_before).as_dict())
        counts["wal_bytes"] = _wal_bytes(wal_dir) - wal_before
        memory_mb = _peak_memory_mb()
        self._check(index, wal_dir, recover=number == 0)
        self._teardown(index, wal_dir)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "counts": counts,
            "setup_s": setup_s,
            "latencies": latencies,
            "busy": sum(latencies),
            "wall": wall,
            "memory_mb": memory_mb,
            "sampled_s": sampler.seconds() if sampler is not None else None,
            "counted": counter.snapshot() if counter is not None else None,
        }

    def _call(self, index, ops, counter, totals: Dict[str, int]) -> float:
        """Send one client call, check its answers; returns its latency."""
        from repro.api import KNN, RangeQuery, Update
        from repro.update import UpdateOutcome
        from workloads import answer_matches

        error = None
        answers: List[Any] = []
        if self.workload.batch_size is None:
            op = ops[0][0]
            if counter is not None:
                counter.start()
            start = clock()
            try:
                result = index.execute(op)
                answers = [result.outcome if isinstance(op, Update) else result.cursor().all()]
            except Exception as exc:  # every failure counts against the run
                error = exc
            end = clock()
            if counter is not None:
                counter.stop()
            if error is None and isinstance(op, Update):
                totals["outcomes"] += 1
                totals["bottom_up"] += answers[0] is not UpdateOutcome.TOP_DOWN
        else:
            batch = [op for op, _ in ops]
            if counter is not None:
                counter.start()
            start = clock()
            try:
                report = index.execute_many(batch)
            except Exception as exc:  # every failure counts against the run
                error = exc
            end = clock()
            if counter is not None:
                counter.stop()
            if error is None:
                totals["groups"] += report.groups
                totals["residuals"] += report.residuals
                totals["migrations"] += report.migrations
                queries, neighbors = iter(report.queries), iter(report.neighbors)
                answers = [
                    next(queries) if isinstance(op, RangeQuery)
                    else next(neighbors) if isinstance(op, KNN)
                    else None
                    for op in batch
                ]
        self.attempted += len(ops)
        if error is not None:
            if self.failed == 0:
                traceback.print_exception(error, file=sys.stderr)
            self.fail(f"{type(error).__name__}: {error}", count=len(ops))
        for position, (op, expected) in enumerate(ops):
            kind = "updates" if isinstance(op, Update) else "queries"
            totals[kind] += 1
            if expected is not None and error is None and not answer_matches(expected, answers[position]):
                self.fail(f"{expected.kind} answer differs from the brute-force oracle")
        totals["ops"] += len(ops)
        return end - start

    def _check(self, index, wal_dir: Optional[str], recover: bool) -> None:
        """``validate()``, positions against the stream, and WAL recovery."""
        try:
            index.validate()
        except Exception as exc:  # a broken index fails the run, not the harness
            self.fail(f"validate(): {type(exc).__name__}: {exc}")
        self._check_positions(index, "live index")
        if wal_dir is None or not recover:
            return
        from repro.durability.recovery import recover_index

        index.detach_durability()
        try:
            recovered = recover_index(wal_dir)
        except Exception as exc:  # recovery failing is a checked outcome
            self.fail(f"recover_index: {type(exc).__name__}: {exc}")
            return
        try:
            recovered.validate()
        except Exception as exc:  # same as above, for the recovered index
            self.fail(f"validate() after recovery: {type(exc).__name__}: {exc}")
        self._check_positions(recovered, "recovered index")
        recovered.detach_durability()

    def _check_positions(self, index, label: str) -> None:
        from repro import Point

        wrong = sum(
            index.position_of(oid) != Point(x, y)
            for oid, (x, y) in enumerate(self.final_positions)
        )
        wrong += len(index) != len(self.final_positions)
        if wrong:
            self.fail(f"{label}: {wrong} objects not where the stream put them", count=wrong)

    def _teardown(self, index, wal_dir: Optional[str]) -> None:
        """Stop the workers, close the WAL, delete its directory."""
        index.detach_parallel()
        index.detach_durability()
        if wal_dir is not None:
            shutil.rmtree(wal_dir)
        if multiprocessing.active_children():
            self.fail("worker processes outlived their index")


def _in_child(work: Callable[[], Any]) -> Any:
    """``work()`` run in a forked child; its result comes back pickled.

    The child stops any worker process it left behind and exits without
    running the parent's clean-up.  An exception in the child is raised
    again here; a child that dies without a result raises too.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            try:
                outcome = (True, work())
            except BaseException:  # reported by the parent
                outcome = (False, traceback.format_exc())
            for child in multiprocessing.active_children():
                child.terminate()
                child.join()
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            ok, value = pickle.load(pipe)
    except EOFError:
        ok, value = False, "the episode's process died without a result"
    finally:
        os.waitpid(pid, 0)
    if not ok:
        raise RuntimeError(f"episode failed:\n{value}")
    return value


def _zero_totals() -> Dict[str, int]:
    return dict.fromkeys(
        ("ops", "updates", "queries", "groups", "residuals", "migrations", "outcomes", "bottom_up"),
        0,
    )


def _wal_bytes(wal_dir: Optional[str]) -> int:
    if wal_dir is None:
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(wal_dir) if entry.name.endswith(".wal"))


def _reset_peak_memory() -> None:
    """Restart this process's peak-RSS mark (``VmHWM``) at its current RSS."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def _proc_kb(path: str, fields: tuple) -> int:
    """Sum of the named ``kB`` fields of a ``/proc`` status-style file."""
    with open(path) as lines:
        return sum(int(line.split()[1]) for line in lines if line.split(":")[0] in fields)


def _peak_memory_mb() -> float:
    """Peak RSS of this process since the reset, plus its workers' own pages.

    Workers are forked, so pages they still share with this process are
    already in its RSS; only their private pages are added.
    """
    total_kb = _proc_kb("/proc/self/status", ("VmHWM",))
    for child in multiprocessing.active_children():
        total_kb += _proc_kb(f"/proc/{child.pid}/smaps_rollup", ("Private_Clean", "Private_Dirty"))
    return total_kb / 1024.0


def _record(run: Run, index) -> None:
    """Print the machine and the resolved index configuration."""
    import repro
    from repro.geometry import kernels

    machine = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": kernels.get_backend(),
        "platform": platform.platform(),
    }
    spec = repro.index_spec(index)
    if "durability" in spec:
        spec["durability"]["dir"] = "<fresh temp dir>"
    w = run.workload
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print(f"# index_spec {json.dumps(spec, sort_keys=True)}")
    if hasattr(index, "shard_populations"):
        print(f"# objects per shard after load: {index.shard_populations()}")
    print(f"# episode: {len(run.objects)} objects, {w.warmup_ops} warm-up ops, "
          f"{w.episode_ops} timed ops in {len(run.calls)} calls; io_latency_s 0 (library default)")


def best_latencies(episodes: List[Dict[str, Any]]) -> List[float]:
    """Each call's lowest latency over the episodes that replayed it."""
    return [min(replays) for replays in zip(*(e["latencies"] for e in episodes))]


def end_to_end(run: Run) -> Dict[str, tuple]:
    """Untraced episodes; per-call best latencies, median set-up time."""
    episodes: List[Dict[str, Any]] = []
    while len(episodes) < MIN_EPISODES or sum(e["busy"] for e in episodes) < run.seconds:
        episodes.append(run.episode(len(episodes)))
    w = run.workload
    n = len(episodes)
    best = best_latencies(episodes)
    print("# episode ops/s: " + " ".join(f"{w.episode_ops / e['busy']:.0f}" for e in episodes)
          + f"; per-call best of {n}: {w.episode_ops / sum(best):.0f}")
    calls = f"{len(best)} calls, each the best of {n} replays"
    metrics: Dict[str, tuple] = {
        "setup_s": (statistics.median(e["setup_s"] for e in episodes), "s", f"median of {n} set-ups"),
        "ops_per_s": (w.episode_ops / sum(best), "1/s", f"{w.episode_ops} ops over {calls}"),
        "batch_p50_ms": (statistics.median(best) * 1000.0, "ms", calls),
        "batch_p90_ms": (percentile(best, 0.90) * 1000.0, "ms", calls),
        "peak_rss_mb": (statistics.median(e["memory_mb"] for e in episodes), "MB",
                        f"median of {n} episodes; coordinator peak + worker private pages"),
    }
    if w.batch_size is None:
        # One call is one operation here, so each kind has latencies of its own.
        kinds = [_kind(ops[0][0]) for ops in run.calls]
        for kind in ("update", "range", "knn"):
            sample = [latency for latency, k in zip(best, kinds) if k == kind]
            for name, q in (("p50", 0.50), ("p99", 0.99)):
                print(f"{kind}_{name}_ms {percentile(sample, q) * 1000.0:.6g} ms "
                      f"(not gated; {len(sample)} {kind} calls, each the best of {n} replays)")
    counts = run.reference_counts
    print(f"io_per_op {counts['total_physical_io'] / counts['ops']:.6g} count/op "
          f"(not gated: a count, identical for every episode of a seed)")
    return metrics


def _kind(op) -> str:
    from repro.api import RangeQuery, Update

    return "update" if isinstance(op, Update) else "range" if isinstance(op, RangeQuery) else "knn"


def traced(run: Run) -> Dict[str, tuple]:
    """Untraced, sampled and counted episodes in turn; per-layer metrics."""
    from tracing import CLIENT, LAYERS

    plain: List[Dict[str, Any]] = []
    sampled: List[Dict[str, Any]] = []
    counted: List[Dict[str, Any]] = []
    while (len(counted) < MIN_TRACED_ROUNDS
           or sum(e["busy"] for e in plain + sampled + counted) < run.seconds):
        plain.append(run.episode(len(plain) * 3))
        sampled.append(run.episode(len(plain) * 3 - 2, instrument="sampled"))
        counted.append(run.episode(len(plain) * 3 - 1, instrument="counted"))

    unattributed: List[float] = []
    for e in sampled:
        layers_s = sum(e["sampled_s"].values()) - e["sampled_s"][CLIENT]
        share = 1.0 - sum(e["sampled_s"].values()) / e["wall"]
        unattributed.append(share)
        print(f"# sampled episode wall {e['wall']:.3f} s = layers {layers_s:.3f} s"
              f" + client {e['sampled_s'][CLIENT]:.3f} s + unattributed {e['wall'] * share:.3f} s")
        if abs(share) > MAX_UNATTRIBUTED:
            run.fail(f"samples cover {1 - share:.1%} of a sampled episode's wall time")
    for e in counted:
        if e["counted"]["calls"] != counted[0]["counted"]["calls"]:
            run.fail("counted episodes crossed layer boundaries differently")

    c = run.reference_counts
    ops, updates = c["ops"], c["updates"]
    n = len(sampled)
    metrics: Dict[str, tuple] = {}
    first = counted[0]["counted"]
    for layer in LAYERS:
        self_s = statistics.mean(e["sampled_s"][layer] for e in sampled)
        metrics[f"{layer}.self_s"] = (self_s, "s", f"mean of {n} sampled episodes")
        metrics[f"{layer}.calls"] = (first["calls"][layer], "count", "per episode")
    events = first["events"]
    per_episode = {
        "io_per_op": (_ratio(c["total_physical_io"], ops), "count/op"),
        "storage.hit_ratio": (_ratio(c["buffer_hits"], c["logical_reads"]), "ratio"),
        "storage.logical_reads_per_op": (_ratio(c["logical_reads"], ops), "count/op"),
        "storage.physical_reads_per_op": (_ratio(c["physical_reads"], ops), "count/op"),
        "storage.physical_writes_per_op": (_ratio(c["physical_writes"], ops), "count/op"),
        "storage.dirty_evictions_per_op": (_ratio(c["dirty_evictions"], ops), "count/op"),
        "secondary.probes_per_update": (_ratio(c["hash_index_reads"], updates), "count/update"),
        "update.bottom_up_ratio": (_ratio(c["bottom_up"], c["outcomes"]), "ratio"),
        "update.batch.groups_per_update": (_ratio(c["groups"], updates), "count/update"),
        "update.batch.residual_ratio": (_ratio(c["residuals"], updates), "ratio"),
        "shard.migrations_per_update": (_ratio(c["migrations"], updates), "count/update"),
        "shard.shards_per_query": (_ratio(events["shard.query_visits"], c["queries"]), "count/query"),
        "shard.parallel.commands_per_dispatch": (
            _ratio(events["shard.parallel.commands"], events["shard.parallel.dispatches"]), "count/dispatch"),
        "durability.fsyncs": (events["durability.fsyncs"], "count"),
        "durability.bytes_per_mutation": (_ratio(c["wal_bytes"], updates), "B/mutation"),
        "rtree.nodes_written_per_op": (_ratio(c["logical_writes"], ops), "count/op"),
    }
    for name, (value, unit) in per_episode.items():
        metrics[name] = (value, unit, f"per episode of {ops} ops")
    metrics["durability.sync_s"] = (
        statistics.median(e["counted"]["events"]["durability.sync_s"] for e in counted),
        "s", f"median of {len(counted)} counted episodes")
    overhead = statistics.median(e["busy"] for e in sampled) / statistics.median(e["busy"] for e in plain)
    metrics["trace.overhead"] = (overhead, "x", f"median sampled / median untraced episode busy, {n} each")
    metrics["trace.unattributed_share"] = (
        statistics.median(unattributed), "ratio", "of sampled episode wall, in no sample")
    metrics["trace.client_share"] = (
        statistics.median(e["sampled_s"][CLIENT] / e["wall"] for e in sampled), "ratio",
        "of sampled episode wall, in the client's own code")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    from tracing import import_layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    # Every episode's process is forked from this one: import the library
    # here once, so no episode's set-up time includes an import.
    import_layers()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        metrics = traced(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(f"error_rate {run.failed / run.attempted:.6g} ratio "
          f"(failed {run.failed} of {run.attempted} ops and checks)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
