"""Test-time reference: the canonical form of a labeled shape from marked BFS.

trees._canonical reads distance vectors from the trivial vertices only.
This older form runs one BFS from each of the n marked vertices and sorts
every vertex by (slot, distance vector).  It is kept only to check that
the two give the same output (tests/test_trees.py).
"""

from collections import deque


def canonical_by_marked_bfs(n: int, slot_of, edges) -> tuple:
    """Canonical (n, slot_of, edges): vertices sorted by (slot, distances to slots 1..n)."""
    V = len(slot_of)
    adj: list[list[int]] = [[] for _ in range(V)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dists = []
    for k in range(1, n + 1):
        dist = [-1] * V
        m = slot_of.index(k)
        dist[m] = 0
        queue = deque([m])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        dists.append(dist)
    order = sorted(range(V), key=lambda v: (slot_of[v], [d[v] for d in dists]))
    relabel = {old: new for new, old in enumerate(order)}
    return (n, tuple(slot_of[v] for v in order),
            tuple(sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in edges)))
