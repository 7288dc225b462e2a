"""The B+-tree structural oracle the index suites check trees against.

It reads only the tree's public node fields (``root``, and each node's
``keys``/``values``/``children``/``is_leaf``) plus ``items()`` and
``n_entries``, so it stays independent of the insert/delete code it
checks.
"""


def check_invariants(tree) -> None:
    """Validate a :class:`~repro.db.btree.BTreeIndex`; raises
    AssertionError on damage.

    Checked: sorted keys in every node, child counts, separator
    ordering, uniform leaf depth, and the leaf chain covering every
    entry in order.
    """
    depths = set()

    def walk(node, depth: int, lo, hi) -> int:
        assert node.keys == sorted(node.keys), "unsorted node"
        for k in node.keys:
            assert (lo is None or k >= lo) and (hi is None or k < hi), \
                "separator violation"
        if node.is_leaf:
            depths.add(depth)
            assert len(node.keys) == len(node.values)
            return len(node.keys)
        assert len(node.children) == len(node.keys) + 1
        count = 0
        bounds = [lo] + list(node.keys) + [hi]
        for i, child in enumerate(node.children):
            count += walk(child, depth + 1, bounds[i], bounds[i + 1])
        return count

    total = walk(tree.root, 1, None, None)
    assert total == tree.n_entries, "entry count mismatch"
    assert len(depths) == 1, "leaves at unequal depth"
    chained = list(tree.items())
    assert len(chained) == tree.n_entries, "leaf chain incomplete"
    assert chained == sorted(chained, key=lambda kv: kv[0]), \
        "leaf chain out of order"
