"""Object ids have one valid range, checked before any state changes.

A leaf entry stores its object id in an unsigned 32-bit slot (the paper's
4-byte pointers), so every path that admits an oid — typed operations,
legacy tuples, ``execute``/``execute_many``, the concurrent engine, direct
``insert`` and ``load`` — rejects anything that is not an ``int`` in
``[0, 2**32)`` with :class:`InvalidOperationError`.  A rejection leaves the
tree, the hash index, the summary and the write-ahead log untouched.
"""

import random

import pytest

from repro.api import Delete, Insert, InvalidOperationError, Update, open_index
from repro.api.operations import OID_LIMIT, check_oid
from repro.geometry import Point, Rect

BAD_OIDS = (-5, -1, OID_LIMIT, 2**40, "abc", 1.0, True, None)
EVERYWHERE = Rect(-1.0, -1.0, 2.0, 2.0)


def make_spec(kind, tmp_path):
    if kind == "single":
        return {"config": {"strategy": "GBU"}}
    return {
        "kind": "sharded",
        "shards": 4,
        "config": {"strategy": "GBU"},
        "durability": {"dir": str(tmp_path / "wal"), "sync": "group", "group_size": 8},
    }


def loaded_index(kind, tmp_path, objects=60):
    rng = random.Random(5)
    index = open_index(make_spec(kind, tmp_path))
    index.load([(oid, Point(rng.random(), rng.random())) for oid in range(objects)])
    return index


def state_of(index):
    lsn = index.durability.last_lsn if index.durability is not None else None
    positions = {oid: index.position_of(oid) for oid in range(len(index))}
    return len(index), sorted(index.range_query(EVERYWHERE)), positions, lsn


@pytest.mark.parametrize("bad", BAD_OIDS)
def test_check_oid_rejects(bad):
    with pytest.raises(InvalidOperationError):
        check_oid(bad)


@pytest.mark.parametrize("good", (0, 1, OID_LIMIT - 1))
def test_check_oid_accepts_the_u32_range(good):
    check_oid(good)
    assert Insert(good, Point(0.5, 0.5)).oid == good


@pytest.mark.parametrize("kind", ("single", "sharded"))
class TestRejectionLeavesNoTrace:
    def test_typed_and_tuple_operations(self, kind, tmp_path):
        index = loaded_index(kind, tmp_path)
        index.update(3, Point(0.4, 0.4))  # the WAL has a tail to compare
        before = state_of(index)
        where = Point(0.5, 0.5)
        for bad in BAD_OIDS:
            with pytest.raises(InvalidOperationError):
                index.execute(Insert(bad, where))
            with pytest.raises(InvalidOperationError):
                index.execute(Update(bad, where))
            with pytest.raises(InvalidOperationError):
                index.execute(Delete(bad), strict=False)
            with pytest.raises(InvalidOperationError):
                index.execute(("insert", bad, where))
            with pytest.raises(InvalidOperationError):
                index.execute_many([("update", 1, where), ("insert", bad, where)])
            with pytest.raises(InvalidOperationError):
                index.apply([("delete", 2), ("update", bad, where)])
            with pytest.raises(InvalidOperationError):
                index.insert(bad, where)
        index.validate()
        assert state_of(index) == before

    def test_engine_submission(self, kind, tmp_path):
        index = loaded_index(kind, tmp_path)
        before = state_of(index)
        session = index.engine(num_clients=2)
        with pytest.raises(InvalidOperationError):
            session.submit(0, ("update", 1, Point(0.5, 0.5)), ("insert", -5, Point(0.5, 0.5)))
        assert session.pending() == 0
        index.validate()
        assert state_of(index) == before

    def test_load(self, kind, tmp_path):
        index = open_index(make_spec(kind, tmp_path))
        with pytest.raises(InvalidOperationError):
            index.load([(0, Point(0.1, 0.1)), (2**40, Point(0.2, 0.2))])
        index.validate()
        assert len(index) == 0
        assert index.range_query(EVERYWHERE) == []
