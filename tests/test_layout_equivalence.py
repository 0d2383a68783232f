"""Binary page store ≡ object page store.

The paper's numbers are all I/O counts; the binary page store (every page
access encodes or decodes a page image) is a representation change that
must be invisible to them.  These tests run identical workloads against
``page_store="object"`` and ``page_store="binary"`` and require
**identical** query answers, outcome counts, and logical *and* physical I/O
statistics — for all four update strategies, on the per-operation path, the
group-by-leaf batch path, the concurrent engine path and a mixed
insert/update/delete/query stream.
"""

import random

import pytest

from repro.api import Update
from repro.core import IndexConfig, MovingObjectIndex
from repro.geometry import Point, Rect

STRATEGIES = ("TD", "NAIVE", "LBU", "GBU")


def make_workload(objects=600, moves=1200, seed=97):
    rng = random.Random(seed)
    points = [(oid, Point(rng.random(), rng.random())) for oid in range(objects)]
    updates = [
        (rng.randrange(objects), Point(rng.random(), rng.random()))
        for _ in range(moves)
    ]
    windows = [
        Rect(x, y, x + 0.12, y + 0.15)
        for x, y in ((0.1, 0.2), (0.4, 0.5), (0.7, 0.1), (0.0, 0.8))
    ]
    return points, updates, windows


def build(strategy, page_store="object"):
    return MovingObjectIndex(IndexConfig(strategy=strategy, page_store=page_store))


def io_tuple(index):
    io = index.io_snapshot()
    return (
        io.logical_reads,
        io.logical_writes,
        io.physical_reads,
        io.physical_writes,
    )


def run_per_op(index, points, updates, windows):
    index.load(points)
    for oid, location in updates:
        index.update(oid, location)
    answers = [sorted(index.range_query(window)) for window in windows]
    answers.append(index.knn(Point(0.5, 0.5), 10))
    index.validate()
    return answers, dict(index.strategy.outcome_counts), io_tuple(index)


def run_batch(index, points, updates, windows):
    index.load(points)
    index.update_many(updates)
    answers = [sorted(index.range_query(window)) for window in windows]
    index.validate()
    return answers, dict(index.strategy.outcome_counts), io_tuple(index)


def run_engine(index, points, updates, windows):
    index.load(points)
    session = index.engine(num_clients=6)
    for position, (oid, location) in enumerate(updates):
        session.submit(position % 6, Update(oid, location))
    session.run()
    answers = [sorted(index.range_query(window)) for window in windows]
    index.validate()
    return answers, io_tuple(index)


class TestPerOperationEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_variants_match_object_baseline(self, strategy):
        workload = make_workload()
        baseline = run_per_op(build(strategy), *workload)
        result = run_per_op(build(strategy, "binary"), *workload)
        assert result == baseline, strategy


class TestBatchEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_group_by_leaf_path_matches(self, strategy):
        workload = make_workload(seed=131)
        baseline = run_batch(build(strategy), *workload)
        result = run_batch(build(strategy, "binary"), *workload)
        assert result == baseline, strategy


class TestEngineEquivalence:
    @pytest.mark.parametrize("strategy", ("TD", "GBU"))
    def test_concurrent_engine_path_matches(self, strategy):
        workload = make_workload(objects=400, moves=600, seed=53)
        baseline = run_engine(build(strategy), *workload)
        result = run_engine(build(strategy, "binary"), *workload)
        assert result == baseline, strategy


class TestInsertDeleteEquivalence:
    def test_mixed_stream_matches(self):
        rng = random.Random(11)
        operations = []
        live = []
        for oid in range(300):
            operations.append(("insert", oid, Point(rng.random(), rng.random())))
            live.append(oid)
        for _ in range(200):
            kind = rng.random()
            if kind < 0.5 and live:
                operations.append(
                    ("update", rng.choice(live), Point(rng.random(), rng.random()))
                )
            elif kind < 0.75 and len(live) > 50:
                operations.append(("delete", live.pop(rng.randrange(len(live)))))
            else:
                operations.append(("range_query", Rect(0.2, 0.2, 0.6, 0.6)))

        def run(page_store):
            index = build("GBU", page_store)
            result = index.apply(operations)
            index.validate()
            return result.queries, sorted(
                index.range_query(Rect(0.0, 0.0, 1.0, 1.0))
            ), io_tuple(index)

        assert run("binary") == run("object")
