"""Unit tests for R-tree nodes and entries."""

import pytest

from repro.geometry import Point, Rect
from repro.rtree import Entry, Node


def leaf_entry(oid: int, x: float, y: float) -> Entry:
    return Entry(Rect.from_point(Point(x, y)), oid)


class TestEntry:
    def test_entry_holds_rect_and_child(self):
        entry = Entry(Rect(0, 0, 1, 1), 42)
        assert entry.child == 42
        assert entry.rect == Rect(0, 0, 1, 1)

    def test_copy_is_independent(self):
        entry = Entry(Rect(0, 0, 1, 1), 42)
        duplicate = entry.copy()
        duplicate.rect = Rect(0, 0, 0.5, 0.5)
        assert entry.rect == Rect(0, 0, 1, 1)

    def test_repr_mentions_child(self):
        assert "42" in repr(Entry(Rect(0, 0, 1, 1), 42))


class TestNodeBasics:
    def test_leaf_detection(self):
        assert Node(page_id=1, level=0).is_leaf
        assert not Node(page_id=1, level=2).is_leaf

    def test_len_counts_entries(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0.1, 0.1)])
        assert len(node) == 1

    def test_add_and_find_entry(self):
        node = Node(page_id=1, level=0)
        node.add_entry(leaf_entry(7, 0.2, 0.3))
        assert node.find_entry(7) is not None
        assert node.find_entry(8) is None

    def test_remove_entry_returns_removed(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(7, 0.2, 0.3)])
        removed = node.remove_entry(7)
        assert removed is not None and removed.child == 7
        assert len(node) == 0

    def test_remove_missing_entry_returns_none(self):
        node = Node(page_id=1, level=0)
        assert node.remove_entry(3) is None

    def test_child_ids(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0, 0), leaf_entry(2, 1, 1)])
        assert node.child_ids() == [1, 2]

    def test_fullness_and_underflow(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(i, 0.1 * i, 0.1) for i in range(4)])
        assert node.is_full(4)
        assert not node.is_full(5)
        assert node.underflows(5)
        assert not node.underflows(4)

    def test_repr_names_leaf_or_internal(self):
        assert "Leaf" in repr(Node(page_id=1, level=0))
        assert "Internal" in repr(Node(page_id=1, level=1))


class TestNodeMBR:
    def test_mbr_covers_all_entries(self):
        node = Node(
            page_id=1,
            level=0,
            entries=[leaf_entry(1, 0.1, 0.9), leaf_entry(2, 0.8, 0.2), leaf_entry(3, 0.5, 0.5)],
        )
        assert node.mbr() == Rect(0.1, 0.2, 0.8, 0.9)

    def test_mbr_of_empty_node_raises(self):
        with pytest.raises(ValueError):
            Node(page_id=1, level=0).mbr()

    def test_effective_mbr_defaults_to_tight(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0.3, 0.3)])
        assert node.effective_mbr() == node.mbr()

    def test_effective_mbr_includes_stored_slack(self):
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0.3, 0.3)])
        node.stored_mbr = Rect(0.2, 0.2, 0.5, 0.5)
        assert node.effective_mbr() == Rect(0.2, 0.2, 0.5, 0.5)

    def test_effective_mbr_never_smaller_than_tight(self):
        # The stored MBR can become smaller than the tight bound when entries
        # were added after the slack was recorded; the effective MBR must
        # still cover every entry.
        node = Node(page_id=1, level=0, entries=[leaf_entry(1, 0.9, 0.9)])
        node.stored_mbr = Rect(0.1, 0.1, 0.2, 0.2)
        assert node.effective_mbr().contains_rect(node.mbr())


class TestNodeColumns:
    """The coordinate/id buffers behind the entry facade."""

    def leaf(self):
        node = Node(page_id=9, level=0)
        node.add_entry(Entry(Rect(0.1, 0.1, 0.2, 0.2), 101))
        node.add_entry(Entry(Rect(0.3, 0.3, 0.4, 0.4), 102))
        node.add_entry(Entry(Rect(0.5, 0.5, 0.6, 0.6), 103))
        return node

    def test_entries_yield_detached_snapshots(self):
        node = self.leaf()
        assert [entry.child for entry in node.entries] == [101, 102, 103]
        snapshot = node.entries[1]
        snapshot.rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert node.entries[1].rect == Rect(0.3, 0.3, 0.4, 0.4)

    def test_find_entry_writes_through(self):
        node = self.leaf()
        assert node.mbr() == Rect(0.1, 0.1, 0.6, 0.6)  # memoise, then invalidate
        ref = node.find_entry(102)
        ref.rect = Rect(0.7, 0.7, 0.8, 0.8)
        assert node.entries[1].rect == Rect(0.7, 0.7, 0.8, 0.8)
        assert node.mbr() == Rect(0.1, 0.1, 0.8, 0.8)

    def test_find_entry_ref_survives_other_removals(self):
        node = self.leaf()
        ref = node.find_entry(103)
        node.remove_entry(101)
        ref.rect = Rect(0.9, 0.9, 0.95, 0.95)
        assert node.find_entry(103).rect == Rect(0.9, 0.9, 0.95, 0.95)

    def test_remove_and_pop_keep_columns_aligned(self):
        node = self.leaf()
        removed = node.remove_entry(102)
        assert removed.child == 102 and removed.rect == Rect(0.3, 0.3, 0.4, 0.4)
        assert node.child_ids() == [101, 103]
        assert [entry.rect for entry in node.entries] == [
            Rect(0.1, 0.1, 0.2, 0.2),
            Rect(0.5, 0.5, 0.6, 0.6),
        ]
        assert node.remove_entry(999) is None
        popped = node.pop_entry_at(0)
        assert popped.child == 101 and node.child_ids() == [103]
        assert len(node.coords) == 4 and node.mbr() == Rect(0.5, 0.5, 0.6, 0.6)

    def test_entries_setter_accepts_own_slice(self):
        node = self.leaf()
        node.entries = node.entries[:2]
        assert node.child_ids() == [101, 102]
        assert len(node) == 2 and len(node.coords) == 8
        assert node.mbr() == Rect(0.1, 0.1, 0.4, 0.4)

    def test_scan_methods_match_scalar_predicates(self):
        entries = [
            Entry(Rect(0.1, 0.1, 0.4, 0.4), 1),
            Entry(Rect(0.35, 0.35, 0.7, 0.7), 2),
            Entry(Rect(0.8, 0.8, 0.9, 0.9), 3),
        ]
        node = Node(page_id=1, level=1, entries=entries)
        window = Rect(0.3, 0.3, 0.5, 0.5)
        point = Point(0.38, 0.38)
        assert node.intersecting_children(window) == [
            e.child for e in entries if e.rect.intersects(window)
        ]
        assert node.contains_point_children(point) == [
            e.child for e in entries if e.rect.contains_point(point)
        ]
        target = Rect.from_point(point)
        best = min(
            entries,
            key=lambda e: (e.rect.enlargement_to_include(target), e.rect.area()),
        )
        assert node.choose_subtree_child(target) == best.child
        assert node.entry_distances(point) == [
            (e.rect.min_distance_to_point(point), e.child) for e in entries
        ]
        assert node.contained_entry_indices(0.0, 0.0, 0.75, 0.75) == [0, 1]

    def test_ids_must_fit_an_unsigned_32_bit_slot(self):
        node = Node(page_id=1, level=0)
        node.add_entry(Entry(Rect(0, 0, 0, 0), 2**32 - 1))
        for bad in (-1, 2**32):
            with pytest.raises(OverflowError):
                node.add_entry(Entry(Rect(0, 0, 0, 0), bad))
        assert node.child_ids() == [2**32 - 1] and len(node.coords) == 4
