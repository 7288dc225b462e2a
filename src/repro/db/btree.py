"""B+-tree index with page-sized nodes in the modeled address space.

The tree is a real, fully functional B+-tree (splits, range scans,
duplicates via composite keys); every node visit during a traced search
emits a DEPENDENT reference to the node's address — index descent is the
canonical pointer chase that an out-of-order core cannot overlap (DESIGN.md
decision 2).  Upper levels are small and hot (part of the primary working
set); leaves follow the key distribution.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator

from ..simulator.addresses import PAGE_SIZE, AddressSpace
from . import costs
from .tracer import NullTracer

#: Default maximum keys per node.  Real 8 KB pages hold a few hundred
#: 16-byte entries; the default keeps trees realistically shallow.
DEFAULT_ORDER = 256


class _Node:
    """One B+-tree node (page).

    Leaf nodes keep parallel ``keys``/``values`` lists plus a next-leaf
    link; interior nodes keep ``keys`` as separators and ``children`` with
    ``len(children) == len(keys) + 1``.
    """

    __slots__ = ("base", "keys", "values", "children", "next_leaf", "is_leaf")

    def __init__(self, base: int, is_leaf: bool):
        self.base = base
        self.is_leaf = is_leaf
        self.keys: list = []
        self.values: list = []
        self.children: list[_Node] = []
        self.next_leaf: _Node | None = None


class BTreeIndex:
    """A B+-tree mapping keys to row ids.

    Args:
        space: Address space to allocate nodes from.
        name: Index name (labels node allocations).
        order: Maximum keys per node (>= 4).
    """

    def __init__(self, space: AddressSpace, name: str,
                 order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError("order must be at least 4")
        self._space = space
        self.name = name
        self.order = order
        self._node_count = 0
        self._region = None
        self._region_used = 0
        self.root = self._new_node(is_leaf=True)
        self.height = 1
        self.n_entries = 0

    # ------------------------------------------------------------------ #
    # Node allocation                                                     #
    # ------------------------------------------------------------------ #

    def _new_node(self, is_leaf: bool) -> _Node:
        """Allocate a page-sized node; nodes pack into page extents."""
        if self._region is None or self._region_used >= self._region.size:
            self._region = self._space.alloc_pages(
                f"index:{self.name}:x{self._node_count // 64}", 64
            )
            self._region_used = 0
        base = self._region.base + self._region_used
        self._region_used += PAGE_SIZE
        self._node_count += 1
        return _Node(base, is_leaf)

    @property
    def n_nodes(self) -> int:
        """Total allocated nodes."""
        return self._node_count

    # ------------------------------------------------------------------ #
    # Search                                                              #
    # ------------------------------------------------------------------ #

    def _descend(self, key, tracer: NullTracer) -> _Node:
        """Walk root -> leaf for ``key``, tracing each node visit."""
        tracer.enter("storage.btree")
        node = self.root
        while True:
            # Binary search within the node touches several positions; the
            # first lands mid-page, a later one near the hit slot.  Both
            # depend on the pointer that brought us here.
            tracer.compute(costs.BTREE_NODE_SEARCH // 2)
            tracer.data(node.base + (len(node.keys) * 8) // 2, dependent=True)
            idx = bisect.bisect_right(node.keys, key)
            tracer.compute(costs.BTREE_NODE_SEARCH - costs.BTREE_NODE_SEARCH // 2)
            tracer.data(node.base + 64 + idx * 16, dependent=True)
            if node.is_leaf:
                return node
            node = node.children[idx]

    def search(self, key, tracer: NullTracer = NullTracer()):
        """Return the value for ``key``, or None."""
        leaf = self._descend(key, tracer)
        idx = bisect.bisect_left(leaf.keys, key)
        tracer.compute(costs.BTREE_LEAF_ENTRY)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            tracer.data(leaf.base + 64 + idx % 32 * 16, dependent=True)
            return leaf.values[idx]
        return None

    def range(self, lo, hi, tracer: NullTracer = NullTracer()
              ) -> Iterator[tuple]:
        """Yield (key, value) for lo <= key < hi, in key order."""
        leaf = self._descend(lo, tracer)
        idx = bisect.bisect_left(leaf.keys, lo)
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if key >= hi:
                    return
                tracer.compute(costs.BTREE_LEAF_ENTRY)
                tracer.data(leaf.base + 64 + idx % 32 * 16, dependent=True)
                yield key, leaf.values[idx]
                idx += 1
            leaf = leaf.next_leaf
            idx = 0
            if leaf is not None:
                tracer.compute(costs.BTREE_NODE_SEARCH // 2)
                tracer.data(leaf.base, dependent=True)

    # ------------------------------------------------------------------ #
    # Insert                                                              #
    # ------------------------------------------------------------------ #

    def insert(self, key, value, tracer: NullTracer = NullTracer()) -> None:
        """Insert ``key -> value``; duplicate keys overwrite.

        Traced like a search plus a leaf write; splits trace writes to the
        new node.
        """
        split = self._insert_into(self.root, key, value, tracer)
        if split is not None:
            sep, right = split
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [sep]
            new_root.children = [self.root, right]
            self.root = new_root
            self.height += 1

    def _insert_into(self, node: _Node, key, value, tracer: NullTracer):
        tracer.enter("storage.btree")
        tracer.compute(costs.BTREE_NODE_SEARCH)
        tracer.data(node.base, dependent=True)
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                tracer.data(node.base + 64 + idx % 32 * 16, write=True)
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            self.n_entries += 1
            tracer.compute(costs.BTREE_LEAF_ENTRY)
            tracer.data(node.base + 64 + idx % 32 * 16, write=True)
            if len(node.keys) > self.order:
                return self._split_leaf(node, tracer)
            return None
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, value, tracer)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        tracer.data(node.base + 32, write=True)
        if len(node.keys) > self.order:
            return self._split_interior(node, tracer)
        return None

    def _split_leaf(self, node: _Node, tracer: NullTracer):
        mid = len(node.keys) // 2
        right = self._new_node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        del node.keys[mid:]
        del node.values[mid:]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        tracer.compute(costs.BTREE_NODE_SEARCH)
        tracer.data(right.base, write=True)
        return right.keys[0], right

    def _split_interior(self, node: _Node, tracer: NullTracer):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = self._new_node(is_leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        del node.keys[mid:]
        del node.children[mid + 1:]
        tracer.compute(costs.BTREE_NODE_SEARCH)
        tracer.data(right.base, write=True)
        return sep, right

    # ------------------------------------------------------------------ #
    # Delete                                                              #
    # ------------------------------------------------------------------ #

    def delete(self, key, tracer: NullTracer = NullTracer()) -> bool:
        """Remove ``key``; returns True if it was present.

        Underflowing nodes borrow from or merge with a sibling (classic
        B+-tree rebalancing); the root collapses when it empties.  Traced
        like a search plus node writes.
        """
        removed = self._delete_from(self.root, key, tracer)
        if removed:
            self.n_entries -= 1
        if not self.root.is_leaf and len(self.root.children) == 1:
            # Root underflow: height shrinks by one.
            self.root = self.root.children[0]
            self.height -= 1
        return removed

    def _min_keys(self) -> int:
        return self.order // 2

    def _delete_from(self, node: _Node, key, tracer: NullTracer) -> bool:
        tracer.enter("storage.btree")
        tracer.compute(costs.BTREE_NODE_SEARCH)
        tracer.data(node.base, dependent=True)
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx >= len(node.keys) or node.keys[idx] != key:
                return False
            del node.keys[idx]
            del node.values[idx]
            tracer.data(node.base + 64 + idx % 32 * 16, write=True)
            return True
        idx = bisect.bisect_right(node.keys, key)
        child = node.children[idx]
        removed = self._delete_from(child, key, tracer)
        if removed and self._underflowed(child):
            self._rebalance(node, idx, tracer)
        return removed

    def _underflowed(self, node: _Node) -> bool:
        if node.is_leaf:
            return len(node.keys) < self._min_keys()
        return len(node.children) < self._min_keys() + 1

    def _rebalance(self, parent: _Node, idx: int,
                   tracer: NullTracer) -> None:
        """Fix the underflowed child ``parent.children[idx]`` by borrowing
        from a sibling or merging with one."""
        child = parent.children[idx]
        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] if idx + 1 < len(parent.children) \
            else None
        tracer.compute(costs.BTREE_NODE_SEARCH)
        tracer.data(parent.base + 32, write=True)
        if left is not None and self._can_lend(left):
            self._borrow_from_left(parent, idx, left, child)
        elif right is not None and self._can_lend(right):
            self._borrow_from_right(parent, idx, right, child)
        elif left is not None:
            self._merge(parent, idx - 1, left, child)
        elif right is not None:
            self._merge(parent, idx, child, right)

    def _can_lend(self, node: _Node) -> bool:
        if node.is_leaf:
            return len(node.keys) > self._min_keys()
        return len(node.children) > self._min_keys() + 1

    def _borrow_from_left(self, parent, idx, left, child) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent, idx, right, child) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent, left_idx, left, right) -> None:
        """Fold ``right`` into ``left``; drop the separator at left_idx."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_idx]
        del parent.children[left_idx + 1]

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    def items(self) -> Iterator[tuple]:
        """Yield every (key, value) in key order (untraced)."""
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf
