"""Test-time reference: the spine poset from every edge subset.

trees.shape_poset closes over single-edge collapses.  This older form
collapses every proper nonempty edge subset of every shape, skips the
subsets that merge two marked vertices (CollapseError), and builds each
collapse as a validated TreeShape.  It is kept only to check that the two
give the same relation (tests/test_trees.py).
"""

import itertools

from grushko.trees import CollapseError, collapse, enumerate_shapes


def below_by_edge_subsets(n: int) -> list[set[int]]:
    """shape_poset(n).below, from validated collapses of every edge subset."""
    shapes = enumerate_shapes(n)
    index = {s.canonical_key(): i for i, s in enumerate(shapes)}
    below = [set() for _ in shapes]
    for i, shape in enumerate(shapes):
        m = len(shape.edges)
        for r in range(1, m):
            for subset in itertools.combinations(range(m), r):
                try:
                    below[i].add(index[collapse(shape, subset).canonical_key()])
                except CollapseError:
                    pass
    return below
