"""The benchmark's workloads and their seeded input streams.

Each workload is a closed loop: one client in one process sends its next
request (one ``execute`` call, or one ``execute_many`` batch) only after the
previous one returned.  Inputs come from this file alone, drawn from a
``random.Random`` seeded by ``--seed``; the index receives only the
generated operations.  The stream also keeps every object's current
position, which is what the brute-force oracle answers sampled queries
against.

A run replays one fixed *episode* several times: a fresh index, the same
warm-up operations, then the same timed operations.  The index slows down
as updates wear its bulk-loaded shape, so a time-bounded stretch of one
long stream would measure a different share of that drift on a faster or
slower machine; a fixed episode measures the same work every time.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.api import KNN, RangeQuery, Update
from repro.geometry import Point, Rect

#: Objects indexed by every workload.
NUM_OBJECTS = 50_000
#: Neighbours asked for by every kNN.
KNN_K = 10
#: Share of queries whose answer is checked against the brute-force oracle.
CHECK_PROBABILITY = 0.01
#: At most this many queries are checked per input stream.
MAX_CHECKS = 40


@dataclass(frozen=True)
class Workload:
    """One named traffic mix over one index configuration."""

    name: str
    #: ``open_index`` spec; ``durability.dir`` is filled in per set-up.
    spec: Dict[str, Any]
    distribution: str
    #: ``None`` sends one ``execute`` per operation; otherwise the size of
    #: each ``execute_many`` batch.
    batch_size: Optional[int]
    update_share: float
    range_share: float
    max_distance: float
    range_side: float
    #: Operations run on each fresh index before timing starts (buffer
    #: warm-up).
    warmup_ops: int
    #: Timed operations per episode.  Count metrics are taken over them, so
    #: they depend on the seed only, never on how fast the machine is.  The
    #: batch workloads time 100 calls, so at least ten lie beyond the
    #: 90th-percentile call latency.
    episode_ops: int

    @property
    def wal(self) -> bool:
        return "durability" in self.spec

    def calls(self, ops: int) -> int:
        """Client calls that carry *ops* operations."""
        return ops // (self.batch_size or 1)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="local-updates",
            spec={"kind": "single", "config": {"strategy": "GBU", "buffer_percent": 1.0}},
            distribution="uniform",
            batch_size=None,
            update_share=0.90,
            range_share=0.05,
            max_distance=0.03,
            range_side=0.02,
            warmup_ops=2_000,
            episode_ops=20_000,
        ),
        Workload(
            name="fleet-durable-batch",
            spec={
                "kind": "sharded",
                "shards": 4,
                "config": {"strategy": "GBU", "buffer_percent": 1.0},
                "durability": {"sync": "group"},
            },
            distribution="hotspot",
            batch_size=500,
            update_share=0.98,
            range_share=0.02,
            max_distance=0.03,
            range_side=0.02,
            warmup_ops=2_000,
            episode_ops=50_000,
        ),
        Workload(
            name="query-fanout-process",
            spec={
                "kind": "sharded",
                "shards": 4,
                "config": {"strategy": "TD", "buffer_percent": 100.0},
                "parallel": {"backend": "process", "workers": 2},
            },
            distribution="uniform",
            batch_size=250,
            update_share=0.50,
            range_share=0.30,
            max_distance=0.01,
            range_side=0.1,
            warmup_ops=1_000,
            episode_ops=25_000,
        ),
    )
}


#: Hotspot cells of the 4x4 grid (index ``row * 4 + col``), hottest first.
#: Fixed, so every seed samples the same skew.  With weights ``1 / rank**1.5``
#: the hottest cell draws about 47% of the objects, and shard 0 of the 2x2
#: shard grid (cells 0, 1, 4, 5) about 59%; each run prints the counts.
HOTSPOT_CELLS = (5, 10, 0, 15, 2, 13, 7, 8, 1, 14, 4, 11, 3, 12, 6, 9)


def initial_positions(distribution: str, count: int, rng: random.Random) -> List[Tuple[float, float]]:
    """Uniform points, or Zipf-weighted cells of a 4x4 grid (hotspot)."""
    if distribution == "uniform":
        return [(rng.random(), rng.random()) for _ in range(count)]
    cells = 4
    weights = [1.0 / rank**1.5 for rank in range(1, cells * cells + 1)]
    positions = []
    for cell in rng.choices(HOTSPOT_CELLS, weights=weights, k=count):
        col, row = cell % cells, cell // cells
        positions.append(((col + rng.random()) / cells, (row + rng.random()) / cells))
    return positions


def _clamp(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


@dataclass
class Expected:
    """The oracle's answer to one sampled query, checked after the call."""

    kind: str  # "range" or "knn"
    answer: Any


class InputStream:
    """The seeded operation stream of one workload run.

    The sequence depends on the seed and the workload only: two streams
    built from the same arguments yield the same operations.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self._rng = random.Random(f"{workload.name}/{seed}/ops")
        self._check_rng = random.Random(f"{workload.name}/{seed}/checks")
        self.positions = initial_positions(
            workload.distribution,
            NUM_OBJECTS,
            random.Random(f"{workload.name}/{seed}/objects"),
        )
        self.checks_left = MAX_CHECKS

    def initial_objects(self) -> List[Tuple[int, Point]]:
        return [(oid, Point(x, y)) for oid, (x, y) in enumerate(self.positions)]

    def next_op(self) -> Tuple[Any, Optional[Expected]]:
        """One operation and, for a sampled query, the oracle's answer."""
        w, rng, positions = self.workload, self._rng, self.positions
        draw = rng.random()
        if draw < w.update_share:
            oid = rng.randrange(NUM_OBJECTS)
            x, y = positions[oid]
            x = _clamp(x + rng.uniform(-w.max_distance, w.max_distance))
            y = _clamp(y + rng.uniform(-w.max_distance, w.max_distance))
            positions[oid] = (x, y)
            return Update(oid, Point(x, y)), None
        # Queries are centred on a random object, so they follow the data.
        cx, cy = positions[rng.randrange(NUM_OBJECTS)]
        checked = self.checks_left > 0 and self._check_rng.random() < CHECK_PROBABILITY
        if checked:
            self.checks_left -= 1
        if draw < w.update_share + w.range_share:
            half = w.range_side / 2.0
            window = (cx - half, cy - half, cx + half, cy + half)
            expected = Expected("range", self._brute_range(window)) if checked else None
            return RangeQuery(Rect(*window)), expected
        expected = Expected("knn", self._brute_knn(cx, cy)) if checked else None
        return KNN(Point(cx, cy), KNN_K), expected

    def next_calls(self, ops: int) -> List[List[Tuple[Any, Optional[Expected]]]]:
        """Client calls carrying *ops* operations (one op, or one batch, each)."""
        size = self.workload.batch_size or 1
        return [[self.next_op() for _ in range(size)] for _ in range(self.workload.calls(ops))]

    def _brute_range(self, window: Tuple[float, float, float, float]) -> List[int]:
        xmin, ymin, xmax, ymax = window
        return [
            oid
            for oid, (x, y) in enumerate(self.positions)
            if xmin <= x <= xmax and ymin <= y <= ymax
        ]

    def _brute_knn(self, px: float, py: float) -> List[Tuple[float, int]]:
        """The k nearest ``(distance, oid)`` pairs, ties broken by oid."""
        return heapq.nsmallest(
            KNN_K,
            (
                (((x - px) ** 2 + (y - py) ** 2) ** 0.5, oid)
                for oid, (x, y) in enumerate(self.positions)
            ),
        )


def answer_matches(expected: Expected, answer: Any) -> bool:
    """Whether an index answer equals the oracle's.

    Range answers are compared as sorted id lists (order is unspecified,
    duplicates are not allowed).  kNN answers must list the same ids in the
    same ``(distance, oid)`` order, with distances equal to within float
    rounding.
    """
    if expected.kind == "range":
        return sorted(answer) == expected.answer
    got = [(float(distance), int(oid)) for distance, oid in answer]
    if [oid for _, oid in got] != [oid for _, oid in expected.answer]:
        return False
    return all(abs(a - b) <= 1e-12 for (a, _), (b, _) in zip(got, expected.answer))
