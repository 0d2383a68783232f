"""R-tree nodes and entries.

The node format follows the paper's Section 2:

* **Leaf nodes** contain entries ``(oid, rect)`` where *oid* identifies the
  data object and *rect* is its MBR (a degenerate rectangle for the moving
  points used in the experiments).
* **Non-leaf nodes** contain entries ``(ptr, rect)`` where *ptr* is the page
  id of a child node and *rect* bounds all MBRs in that child.

A node occupies exactly one disk page.  Levels are counted from the leaves:
level 0 is the leaf level and the root has level ``height - 1``.

LBU (Section 3.1) additionally stores a parent pointer in every leaf node;
:attr:`Node.parent_page_id` holds it when the tree is configured with
``store_parent_pointers=True``.  GBU never uses parent pointers.

A node is stored column-wise: entry MBRs live in one flat ``array('d')``
(stride 4: xmin, ymin, xmax, ymax) and entry ids in one ``array('I')``.  The
geometric hot paths sweep those buffers with the batch kernels in
:mod:`repro.geometry.kernels` instead of touching an ``Entry``/``Rect``
object per predicate, the node's MBR is memoised between mutations, and the
binary page codec moves the buffers to and from page images with
``tobytes``/``frombytes``.  An entry id must fit the unsigned 32-bit slot —
the paper's 4-byte pointers (:class:`~repro.storage.sizing.PageLayout`).

:class:`Entry` remains the unit callers hand in and get back: ``entries``
returns detached snapshots, and :meth:`Node.find_entry` returns a
write-through :class:`EntryRef` for updating one entry's MBR in place.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Tuple

from repro.geometry import Point, Rect, kernels


class Entry:
    """A single node entry: an MBR plus either an object id or a child page id."""

    __slots__ = ("rect", "child")

    def __init__(self, rect: Rect, child: int) -> None:
        self.rect = rect
        self.child = child

    def __repr__(self) -> str:
        return f"Entry(child={self.child}, rect={self.rect!r})"

    def copy(self) -> "Entry":
        return Entry(self.rect, self.child)


class EntryRef:
    """Write-through handle on one entry of a :class:`Node`.

    Reading ``.rect`` decodes the coordinates on the fly; assigning ``.rect``
    writes straight into the node's coordinate buffer.  The handle is keyed
    by the entry id rather than a position, so it stays valid across
    removals of *other* entries.
    """

    __slots__ = ("_node", "child", "_index")

    def __init__(self, node: "Node", child: int, index: int = -1) -> None:
        self._node = node
        self.child = child
        self._index = index

    def _position(self) -> int:
        # The cached position is only a hint: removals of other entries may
        # have shifted this entry, so verify before trusting it.
        children = self._node.children
        index = self._index
        if 0 <= index < len(children) and children[index] == self.child:
            return index
        index = children.index(self.child)
        self._index = index
        return index

    @property
    def rect(self) -> Rect:
        base = 4 * self._position()
        coords = self._node.coords
        return Rect._raw(
            coords[base], coords[base + 1], coords[base + 2], coords[base + 3]
        )

    @rect.setter
    def rect(self, value: Rect) -> None:
        node = self._node
        base = 4 * self._position()
        coords = node.coords
        coords[base] = value.xmin
        coords[base + 1] = value.ymin
        coords[base + 2] = value.xmax
        coords[base + 3] = value.ymax
        node._mbr = None

    def __repr__(self) -> str:
        return f"EntryRef(child={self.child}, rect={self.rect!r})"


class Node:
    """An R-tree node stored on one disk page.

    Parameters
    ----------
    page_id:
        Identifier of the page holding this node.
    level:
        Distance from the leaf level; ``0`` for leaves.
    entries:
        Initial node entries (see :class:`Entry`).
    parent_page_id:
        Page id of the parent node; only maintained for leaves when the tree
        stores parent pointers (the LBU configuration).

    Attributes
    ----------
    coords:
        ``array('d')`` holding ``[xmin, ymin, xmax, ymax]`` per entry.
    children:
        ``array('I')`` holding the object id / child page id per entry.
    stored_mbr:
        The leaf MBR as recorded in the parent's entry, when an update
        strategy has deliberately enlarged it beyond the tight bound of the
        entries (the ε-enlargement of Section 3.1/3.2).  ``None`` means the
        tight bound applies.  :meth:`effective_mbr` folds it in.
    """

    __slots__ = (
        "page_id",
        "level",
        "parent_page_id",
        "stored_mbr",
        "coords",
        "children",
        "_mbr",
    )

    def __init__(
        self,
        page_id: int,
        level: int,
        entries: Optional[Iterable[Entry]] = None,
        parent_page_id: Optional[int] = None,
    ) -> None:
        self.page_id = page_id
        self.level = level
        self.parent_page_id = parent_page_id
        self.stored_mbr: Optional[Rect] = None
        self.coords = array("d")
        self.children = array("I")
        #: Memoised union of all entry MBRs.  Every mutation of the buffers
        #: goes through this class or :class:`EntryRef`, which reset it.
        self._mbr: Optional[Rect] = None
        if entries:
            self.entries = entries

    # -- classification -----------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    # -- entries ------------------------------------------------------------
    @property
    def entries(self) -> List[Entry]:
        """Detached :class:`Entry` snapshots, in entry order.

        Mutating a snapshot does not write back into the node; use
        :meth:`find_entry` for write-through access.
        """
        coords = self.coords
        return [
            Entry(
                Rect._raw(
                    coords[base], coords[base + 1], coords[base + 2], coords[base + 3]
                ),
                child,
            )
            for base, child in zip(range(0, len(coords), 4), self.children)
        ]

    @entries.setter
    def entries(self, value: Iterable[Entry]) -> None:
        coords = array("d")
        children = array("I")
        for entry in value:
            rect = entry.rect
            coords.extend((rect.xmin, rect.ymin, rect.xmax, rect.ymax))
            children.append(entry.child)
        self.coords = coords
        self.children = children
        self._mbr = None

    def __len__(self) -> int:
        return len(self.children)

    def add_entry(self, entry: Entry) -> None:
        rect = entry.rect
        # The id goes first: an id that does not fit the u32 slot raises
        # before either column has changed.
        self.children.append(entry.child)
        self.coords.extend((rect.xmin, rect.ymin, rect.xmax, rect.ymax))
        self._mbr = None

    def find_entry(self, child: int) -> Optional[EntryRef]:
        """Write-through handle on the entry for *child*, or ``None``."""
        try:
            index = self.children.index(child)
        except ValueError:
            return None
        return EntryRef(self, child, index)

    def remove_entry(self, child: int) -> Optional[Entry]:
        """Remove and return the entry for *child*, or ``None`` if absent."""
        try:
            index = self.children.index(child)
        except ValueError:
            return None
        return self.pop_entry_at(index)

    def discard_entry(self, child: int) -> bool:
        """Remove the entry for *child* without materialising it.

        Returns ``True`` when one was present.
        """
        try:
            index = self.children.index(child)
        except ValueError:
            return False
        del self.children[index]
        del self.coords[4 * index : 4 * index + 4]
        self._mbr = None
        return True

    def has_child(self, child: int) -> bool:
        """``True`` when an entry for *child* exists."""
        return child in self.children

    def pop_entry_at(self, index: int) -> Entry:
        """Remove and return the entry at position *index*."""
        base = 4 * index
        coords = self.coords
        entry = Entry(
            Rect._raw(
                coords[base], coords[base + 1], coords[base + 2], coords[base + 3]
            ),
            self.children[index],
        )
        del self.children[index]
        del coords[base : base + 4]
        self._mbr = None
        return entry

    def child_ids(self) -> List[int]:
        """Object ids (leaf) or child page ids (internal) of all entries."""
        return list(self.children)

    def is_full(self, capacity: int) -> bool:
        return len(self.children) >= capacity

    def underflows(self, min_entries: int) -> bool:
        return len(self.children) < min_entries

    # -- geometry ------------------------------------------------------------
    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries.

        Raises ``ValueError`` for an empty node; only a brand-new empty root
        has no MBR and callers never ask for it.
        """
        mbr = self._mbr
        if mbr is None:
            xmin, ymin, xmax, ymax = kernels.union_bounds(self.coords)
            mbr = self._mbr = Rect._raw(xmin, ymin, xmax, ymax)
        return mbr

    def effective_mbr(self) -> Rect:
        """The node's MBR including any deliberate ε-enlargement.

        The bottom-up strategies may record an enlarged MBR in
        :attr:`stored_mbr` (mirroring the rectangle kept in the parent's
        entry); the effective MBR is the union of that slack and the tight
        bound of the current entries, so it is always a valid bound.
        """
        tight = self.mbr()
        if self.stored_mbr is None:
            return tight
        return self.stored_mbr.union(tight)

    # -- batch scans (kernel-backed hot paths) -------------------------------
    def intersecting_children(self, window: Rect) -> List[int]:
        """Entry ids whose MBR intersects *window*, in entry order."""
        return kernels.intersects_ids(
            self.coords,
            self.children,
            window.xmin,
            window.ymin,
            window.xmax,
            window.ymax,
        )

    def contains_point_children(self, point: Point) -> List[int]:
        """Entry ids whose MBR contains *point*, in entry order."""
        return kernels.contains_point_ids(
            self.coords, self.children, point.x, point.y
        )

    def contained_entry_indices(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> List[int]:
        """Positions of entries whose MBR lies entirely inside the window.

        Same predicate as :meth:`Rect.contains_rect` with the window as the
        container; the piggyback scan uses this to find movable objects.
        """
        return kernels.contained_in_many(self.coords, xmin, ymin, xmax, ymax)

    def choose_subtree_child(self, rect: Rect) -> int:
        """Guttman's ChooseLeaf pick: least enlargement, ties by least area.

        First entry wins exact ties.  Raises ``LookupError`` on an empty
        node.
        """
        if not self.children:
            raise LookupError("cannot choose a subtree in an empty internal node")
        index = kernels.argmin_enlargement(
            self.coords, rect.xmin, rect.ymin, rect.xmax, rect.ymax
        )
        return self.children[index]

    def entry_distances(self, point: Point) -> List[Tuple[float, int]]:
        """``(min_distance, child)`` per entry, in entry order (kNN batch)."""
        distances = kernels.min_distance_many(self.coords, point.x, point.y)
        return list(zip(distances, self.children))

    # -- debugging -------------------------------------------------------------
    def __repr__(self) -> str:
        kind = "Leaf" if self.is_leaf else "Internal"
        return (
            f"{kind}Node(page={self.page_id}, level={self.level}, "
            f"entries={len(self)})"
        )
