"""The binary page store codec and the coordinate-precision contracts.

Two codecs, two contracts:

* the sizing-model codec (``serialize_node``/``deserialize_node``) stores
  4-byte coordinates by default — round trips quantize each value to the
  nearest binary32, **exactly** :func:`coordinate_quantum`, and become fully
  lossless with ``coordinate_size=8``;
* the live page-store codec (:class:`NodeCodec`) is always binary64 and
  must reproduce every node bit for bit, because the index actually runs on
  what it decodes.
"""

import struct

import pytest

from repro.geometry import Point, Rect
from repro.rtree.node import Entry, Node
from repro.storage import PageLayout
from repro.storage.serialization import (
    NodeCodec,
    SerializationError,
    coordinate_quantum,
    deserialize_node,
    serialize_node,
    serialized_size,
)

# Coordinates deliberately not representable in binary32: 0.1's float64
# expansion, a tiny offset, and a value needing more than 24 mantissa bits.
LOSSY_COORDS = (0.1, 0.1 + 1e-12, 1.0 / 3.0, 0.7000000123456789)


def sample_node():
    node = Node(page_id=5, level=0, parent_page_id=17)
    node.add_entry(Entry(Rect(LOSSY_COORDS[0], LOSSY_COORDS[1], 0.5, 0.5), 7))
    node.add_entry(Entry(Rect(LOSSY_COORDS[2], 0.2, LOSSY_COORDS[3], 0.9), 8))
    node.stored_mbr = Rect(0.05, 0.05, 0.95, 0.95)
    return node


def sample_node_from_columns():
    """The same node as :func:`sample_node`, built by writing its columns."""
    node = Node(page_id=5, level=0, parent_page_id=17)
    node.coords.extend((LOSSY_COORDS[0], LOSSY_COORDS[1], 0.5, 0.5))
    node.coords.extend((LOSSY_COORDS[2], 0.2, LOSSY_COORDS[3], 0.9))
    node.children.extend((7, 8))
    node.stored_mbr = Rect(0.05, 0.05, 0.95, 0.95)
    return node


class TestSizingCodecQuantization:
    """The f32 format's loss is exactly one binary32 rounding per value."""

    def test_round_trip_equals_coordinate_quantum(self):
        layout = PageLayout(page_size=1024)
        node = sample_node()
        restored = deserialize_node(5, serialize_node(node, layout), layout)
        for original, copy in zip(node.entries, restored.entries):
            assert copy.rect.as_tuple() == tuple(
                coordinate_quantum(value) for value in original.rect.as_tuple()
            )

    def test_f32_representable_coordinates_are_exact(self):
        layout = PageLayout(page_size=1024)
        node = Node(page_id=1, level=0)
        node.add_entry(Entry(Rect(0.25, 0.5, 0.75, 1.0), 3))  # exact in binary32
        restored = deserialize_node(1, serialize_node(node, layout), layout)
        assert restored.entries[0].rect == Rect(0.25, 0.5, 0.75, 1.0)

    def test_lossy_coordinates_are_not_exact_in_f32(self):
        # Regression guard: this is the lossiness the f64 format fixes.
        assert coordinate_quantum(0.1) != 0.1
        layout = PageLayout(page_size=1024)
        node = Node(page_id=1, level=0, entries=[Entry(Rect(0.1, 0.1, 0.1, 0.1), 3)])
        restored = deserialize_node(1, serialize_node(node, layout), layout)
        assert restored.entries[0].rect != node.entries[0].rect

    def test_quantum_is_identity_for_f64(self):
        for value in LOSSY_COORDS:
            assert coordinate_quantum(value, coordinate_size=8) == value


class TestSizingCodecF64:
    """``coordinate_size=8`` switches the format to <4d> and is lossless."""

    def test_round_trip_is_bit_exact(self):
        layout = PageLayout(page_size=1024, coordinate_size=8)
        node = sample_node()
        restored = deserialize_node(5, serialize_node(node, layout), layout)
        assert [e.rect.as_tuple() for e in restored.entries] == [
            e.rect.as_tuple() for e in node.entries
        ]
        assert restored.parent_page_id == 17
        assert restored.stored_mbr == node.stored_mbr

    def test_sizing_model_still_honoured(self):
        layout = PageLayout(page_size=1024, coordinate_size=8)
        node = Node(
            page_id=1,
            level=0,
            entries=[
                Entry(Rect.from_point(Point(0.1, 0.2)), oid)
                for oid in range(layout.leaf_capacity())
            ],
        )
        image = serialize_node(node, layout)
        assert len(image) <= layout.page_size
        assert serialized_size(node, layout) == len(image)

    def test_unsupported_coordinate_size_rejected(self):
        layout = PageLayout(page_size=1024, coordinate_size=2)
        with pytest.raises(SerializationError):
            serialize_node(Node(page_id=1, level=0), layout)


class TestNodeCodecRoundTrip:
    # A node filled entry by entry and one whose packed columns were written
    # directly must encode alike; the ids are those the cases had when the
    # two were separate node classes.
    @pytest.mark.parametrize(
        "build",
        [sample_node, sample_node_from_columns],
        ids=["object-Node", "packed-PackedNode"],
    )
    def test_lossless_round_trip(self, build):
        codec = NodeCodec()
        node = build()
        restored = codec.decode(5, codec.encode(node))
        assert type(restored) is Node
        assert restored.level == 0
        assert restored.parent_page_id == 17
        assert restored.stored_mbr.as_tuple() == node.stored_mbr.as_tuple()
        assert restored.child_ids() == [7, 8]
        # Bit-exact: these coordinates are not binary32-representable.
        assert [e.rect.as_tuple() for e in restored.entries] == [
            e.rect.as_tuple() for e in node.entries
        ]

    def test_image_body_is_the_node_columns(self):
        node = sample_node()
        coords, children = list(node.coords), list(node.children)
        body = struct.pack(f"<{len(coords)}d", *coords)
        body += struct.pack(f"<{len(children)}I", *children)
        assert NodeCodec().encode(node).endswith(body)

    def test_empty_node_round_trip(self):
        codec = NodeCodec()
        node = Node(page_id=2, level=3)
        restored = codec.decode(2, codec.encode(node))
        assert restored.level == 3
        assert len(restored) == 0
        assert restored.parent_page_id is None
        assert restored.stored_mbr is None

    def test_truncated_image_rejected(self):
        codec = NodeCodec()
        image = codec.encode(sample_node())
        with pytest.raises(SerializationError):
            codec.decode(5, image[:-3])
        with pytest.raises(SerializationError):
            codec.decode(5, b"\x00\x01")

    def test_non_binary_payload_rejected(self):
        with pytest.raises(SerializationError):
            NodeCodec().decode(5, sample_node())


class TestBinaryPageStoreBehaviour:
    """Pages hold bytes; every logical read decodes a fresh node."""

    def build_tree(self):
        from repro.storage import BufferPool, DiskManager, IOStatistics
        from repro.rtree import RTree

        stats = IOStatistics()
        disk = DiskManager(page_size=256, stats=stats)
        tree = RTree(
            BufferPool(disk, 0, stats),
            layout=PageLayout(page_size=256),
            page_codec=NodeCodec(),
        )
        return tree, stats

    def test_disk_frames_hold_bytes(self):
        tree, _stats = self.build_tree()
        for oid in range(50):
            tree.insert(oid, Point(oid / 50.0, (oid * 7 % 50) / 50.0))
        assert isinstance(tree.disk.read_page(tree.root_page_id), bytes)
        assert isinstance(tree.encode_page_payload(tree.read_node(tree.root_page_id)), bytes)

    def test_reads_decode_fresh_nodes(self):
        tree, _stats = self.build_tree()
        tree.insert(1, Point(0.1, 0.1))
        first = tree.read_node(tree.root_page_id)
        second = tree.read_node(tree.root_page_id)
        assert first is not second  # no aliasing through the page store
        ref = first.find_entry(1)
        ref.rect = Rect(0.9, 0.9, 0.9, 0.9)  # mutation not written back...
        assert tree.read_node(tree.root_page_id).find_entry(1).rect == Rect(
            0.1, 0.1, 0.1, 0.1
        )  # ...is invisible to later reads

    def test_queries_after_mixed_updates(self):
        tree, _stats = self.build_tree()
        for oid in range(120):
            tree.insert(oid, Point((oid % 12) / 12.0, (oid // 12) / 10.0))
        for oid in range(0, 120, 3):
            tree.delete(oid, Rect.from_point(Point((oid % 12) / 12.0, (oid // 12) / 10.0)))
        survivors = sorted(tree.range_query(Rect(0.0, 0.0, 1.0, 1.0)))
        assert survivors == [oid for oid in range(120) if oid % 3 != 0]
