"""First-class operation model of the public API.

One frozen dataclass per operation the index surface supports — these are
the *single* schema every layer speaks: the facades execute them, the batch
engine groups them, the concurrent engine schedules them, and the workload
generator produces them.  The legacy tuple conventions (``("update", oid,
new)`` and friends) survive only as adapters: :meth:`Operation.from_tuple`
parses them and :meth:`Operation.to_tuple` emits them, so the pre-v2 surface
is a thin shim over this module.

Two canonical encodings exist per operation:

* :meth:`Operation.normalise` — the engine normal form ``(kind, payload)``
  that lock-scope prediction (:meth:`SpatialIndexFacade.lock_requests_for`)
  dispatches on;
* :meth:`Operation.to_tuple` — the legacy facade tuple, kept for the
  deprecated compatibility surface.

>>> from repro.api import Delete, Insert, Operation, RangeQuery, Update
>>> from repro.geometry import Point, Rect
>>> op = Operation.from_tuple(("update", 42, Point(0.3, 0.4)))
>>> op
Update(oid=42, new_location=Point(0.3, 0.4))
>>> op.normalise()
('update', (42, Point(0.3, 0.4)))
>>> op.to_tuple()
('update', 42, Point(0.3, 0.4))
>>> Operation.from_tuple(("range_query", Rect(0.0, 0.0, 0.5, 0.5))).kind
'query'
>>> Operation.from_any(Delete(7)) is Operation.from_any(Delete(7))
False
>>> Operation.from_tuple(("compact",))
Traceback (most recent call last):
    ...
repro.api.errors.InvalidOperationError: unknown operation kind 'compact'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence, Tuple, Union

from repro.api.errors import (
    InvalidNeighborCountError,
    InvalidOperationError,
    InvalidWindowError,
    OperationError,
)
from repro.geometry import Point, Rect

#: Anything the compatibility surface accepts: a typed operation or a
#: legacy tuple in either the facade or the workload-generator shape.
OperationLike = Union["Operation", Tuple[Any, ...]]

#: Object ids live in the 4-byte id slot of a leaf entry (the paper's
#: 4-byte pointers), so the valid range is ``[0, OID_LIMIT)``.
OID_LIMIT = 2**32


def check_oid(oid: Any) -> None:
    """Reject an object id that is not an ``int`` in ``[0, OID_LIMIT)``.

    Raises :class:`~repro.api.errors.InvalidOperationError`.  Every path
    that admits an object id calls this before touching index state.
    """
    if not isinstance(oid, int) or isinstance(oid, bool) or not 0 <= oid < OID_LIMIT:
        raise InvalidOperationError(
            f"object id must be an int in [0, 2**32), got {oid!r}"
        )


@dataclass(frozen=True)
class Operation:
    """Base class of every typed index operation.

    Concrete operations are frozen dataclasses; equality, hashing and repr
    come for free, which is what makes them safe to carry across layer
    boundaries (scheduler queues, batch plans, checkpoints of pending work).
    """

    #: Stable kind label, shared with the engine normal form and the
    #: scheduler's per-kind reporting.
    kind = "operation"

    def normalise(self) -> Tuple[str, Tuple[Any, ...]]:
        """The engine normal form ``(kind, payload)`` of this operation."""
        raise NotImplementedError

    def to_tuple(self) -> Tuple[Any, ...]:
        """The legacy facade tuple (deprecated surface) for this operation."""
        raise NotImplementedError

    @staticmethod
    def from_tuple(op: Sequence[Any]) -> "Operation":
        """Parse one legacy operation tuple into a typed operation.

        Accepts both the facade shapes — ``("update", oid, new_location)``,
        ``("insert", oid, location)``, ``("delete", oid)``,
        ``("range_query" | "query", window)``, ``("knn", point, k)`` — and
        the workload generator's ``("update", (oid, old, new))`` item (the
        old position is implicit index state and is dropped).
        """
        if not op:
            raise InvalidOperationError("empty operation tuple")
        kind = op[0]
        try:
            if kind == "update":
                if len(op) == 2:  # generator item: ("update", (oid, old, new))
                    oid, _old, new_location = op[1]
                elif len(op) == 3:
                    _, oid, new_location = op
                else:
                    raise InvalidOperationError(
                        f"update tuple must have 2 or 3 elements, got {len(op)}"
                    )
                return Update(oid, new_location)
            if kind == "insert":
                _, oid, location = op
                return Insert(oid, location)
            if kind == "delete":
                _, oid = op
                return Delete(oid)
            if kind in ("query", "range_query"):
                _, window = op
                return RangeQuery(window)
            if kind == "knn":
                _, point, k = op
                return KNN(point, k)
        except (TypeError, ValueError) as error:
            if isinstance(error, OperationError):
                # The taxonomy's own validation errors (InvalidWindowError,
                # InvalidNeighborCountError, ...) pass through untouched so
                # legacy handlers for their builtin bases keep working.
                raise
            raise InvalidOperationError(
                f"malformed {kind!r} operation tuple {tuple(op)!r}"
            ) from error
        raise InvalidOperationError(f"unknown operation kind {kind!r}")

    @staticmethod
    def from_any(op: OperationLike) -> "Operation":
        """Coerce a typed operation or a legacy tuple into a typed operation."""
        if isinstance(op, Operation):
            return op
        if isinstance(op, tuple):
            return Operation.from_tuple(op)
        raise InvalidOperationError(
            f"expected an Operation or an operation tuple, got {op!r}"
        )


@dataclass(frozen=True)
class Insert(Operation):
    """Insert a brand-new object at *location*."""

    oid: int
    location: Point
    kind = "insert"

    def __post_init__(self) -> None:
        check_oid(self.oid)

    def normalise(self) -> Tuple[str, Tuple[Any, ...]]:
        return ("insert", (self.oid, self.location))

    def to_tuple(self) -> Tuple[Any, ...]:
        return ("insert", self.oid, self.location)


@dataclass(frozen=True)
class Update(Operation):
    """Move an existing object to *new_location*.

    The operation carries only the new (absolute) position; the object's old
    position is index state, looked up at execution time — which is exactly
    the online semantics: a deferred update sees the position its
    predecessors committed.
    """

    oid: int
    new_location: Point
    kind = "update"

    def __post_init__(self) -> None:
        check_oid(self.oid)

    def normalise(self) -> Tuple[str, Tuple[Any, ...]]:
        return ("update", (self.oid, self.new_location))

    def to_tuple(self) -> Tuple[Any, ...]:
        return ("update", self.oid, self.new_location)


@dataclass(frozen=True)
class Delete(Operation):
    """Remove an object from the index."""

    oid: int
    kind = "delete"

    def __post_init__(self) -> None:
        check_oid(self.oid)

    def normalise(self) -> Tuple[str, Tuple[Any, ...]]:
        return ("delete", (self.oid,))

    def to_tuple(self) -> Tuple[Any, ...]:
        return ("delete", self.oid)


@dataclass(frozen=True)
class RangeQuery(Operation):
    """Report the objects whose positions fall inside *window*."""

    window: Rect
    kind = "query"

    def __post_init__(self) -> None:
        if not isinstance(self.window, Rect):
            raise InvalidWindowError(self.window)

    def normalise(self) -> Tuple[str, Tuple[Any, ...]]:
        return ("query", (self.window,))

    def to_tuple(self) -> Tuple[Any, ...]:
        return ("range_query", self.window)


@dataclass(frozen=True)
class KNN(Operation):
    """Report the *k* objects nearest to *point* as ``(distance, oid)`` pairs."""

    point: Point
    k: int
    kind = "knn"

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0:
            raise InvalidNeighborCountError(self.k)

    def normalise(self) -> Tuple[str, Tuple[Any, ...]]:
        return ("knn", (self.point, self.k))

    def to_tuple(self) -> Tuple[Any, ...]:
        return ("knn", self.point, self.k)


@dataclass(frozen=True)
class Migrate(Operation):
    """Internal: a position update that crosses a shard boundary.

    Never parsed from the public tuple surface — the sharded router derives
    it from an :class:`Update` whose target shard differs from its source.
    Its engine normal form is the update's (a migration *is* an update whose
    lock scope happens to span two shards), so lock-scope prediction and
    per-kind scheduler reporting stay shard-aware without a parallel code
    path.
    """

    oid: int
    new_location: Point
    kind = "migration"

    def normalise(self) -> Tuple[str, Tuple[Any, ...]]:
        return ("update", (self.oid, self.new_location))

    def to_tuple(self) -> Tuple[Any, ...]:
        return ("update", self.oid, self.new_location)


__all__ = [
    "Operation",
    "OperationLike",
    "Insert",
    "Update",
    "Delete",
    "RangeQuery",
    "KNN",
    "Migrate",
    "OID_LIMIT",
    "check_oid",
]
