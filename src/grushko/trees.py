"""Marked Grushko W_n-trees as graphs of groups, and the spine poset.

A tree shape is a finite tree with n "marked" vertices carrying slots 1..n
(the Z/2 vertex groups) and optional trivial vertices of valence >= 3
(reduced representative; subdivision points are smoothed away).  A marked
tree attaches to slot j an involution with generator core x_j; the marking
tuple is a basis, and it consists of the stabilizers of the vertices of a
connected fundamental domain L of the Bass-Serre tree, so it is adapted.

Labeled shapes have one canonical form, _canonical(n, slot_of, edges);
unlabeled ones (marked vertices indistinct) have one, _ahu_key.  Labeled
shapes are generated slot by slot from the rank-2 edge, each exactly once
(enumerate_shapes), so no two candidates are compared.  The spine poset
closes single-edge collapses, taking shapes by edge count (shape_poset).

The Bass-Serre tree is navigated lazily: it is tiled by translates g.L
glued along marked vertices, with tile adjacency the Cayley graph of W_n
over the marking basis.  bs_path searches it bidirectionally under a vertex
cap; the visibility module uses the tiling directly.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .words import Word, _reduce_into, generators, involution_core, parse, reduce
from .jsoncheck import check
from . import membership


class BudgetExceededError(RuntimeError):
    """A lazy search exceeded its vertex cap (inputs too large, not absence)."""


class CollapseError(ValueError):
    """A collapse would merge two marked vertices (a forbidden degeneracy)."""


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeShape:
    """Finite tree with slot labels; slot_of[v] is 0 for trivial vertices."""

    n: int
    slot_of: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        V = len(self.slot_of)
        if len(self.edges) != V - 1:
            raise ValueError("not a tree: wrong edge count")
        seen = [False] * V
        adj = self.adjacency
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        if not all(seen):
            raise ValueError("not a tree: disconnected")
        slots = sorted(s for s in self.slot_of if s)
        if slots != list(range(1, self.n + 1)):
            raise ValueError("slots must be exactly 1..n")
        for v in range(V):
            if self.slot_of[v] == 0 and len(adj[v]) < 3:
                raise ValueError("trivial vertices need valence >= 3")

    @property
    def num_vertices(self) -> int:
        return len(self.slot_of)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex (neighbor, edge index) pairs, built once per shape."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.slot_of]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return tuple(map(tuple, adj))

    def vertex_of_slot(self, k: int) -> int:
        return self.slot_of.index(k)

    def path(self, u: int, v: int) -> list[tuple[int, int]]:
        """Unique path u -> v as a list of (edge index, far vertex)."""
        if u == v:
            return []
        adj = self.adjacency
        prev: dict[int, tuple[int, int]] = {u: (-1, -1)}
        queue = deque([u])
        while queue:
            w = queue.popleft()
            if w == v:
                break
            for x, e in adj[w]:
                if x not in prev:
                    prev[x] = (w, e)
                    queue.append(x)
        out = []
        w = v
        while w != u:
            pw, e = prev[w]
            out.append((e, w))
            w = pw
        out.reverse()
        return out

    @cached_property
    def segment_masks(self) -> tuple[tuple[int, ...], ...]:
        """Edge bitmask of the path between the vertices of slots a and b.

        Indexed [a][b] for slots 1..n, with bit e set for each edge e on the
        path; row and column 0 and the diagonal are 0.  One traversal from
        vertex 0 records up[v], the mask of the path from vertex 0 to v.
        The paths from vertex 0 to u and to v share the edges from vertex 0
        to the point where they part, and the rest is the path from u to v,
        so its mask is up[u] ^ up[v].
        """
        adj = self.adjacency
        up = [0] * self.num_vertices
        stack = [(0, -1)]
        while stack:
            u, parent = stack.pop()
            for v, e in adj[u]:
                if v != parent:
                    up[v] = up[u] | 1 << e
                    stack.append((v, u))
        at = [up[self.vertex_of_slot(a)] for a in range(1, self.n + 1)]
        return ((0,) * (self.n + 1), *((0, *(x ^ y for y in at)) for x in at))

    @cached_property
    def adapted_order(self) -> tuple[int, ...]:
        """Slot ordering whose prefix hulls exclude all later fixed points.

        Greedy peeling: repeatedly remove the largest-slot marked vertex that
        is a leaf of the convex hull of the remaining marked vertices; the
        reversed peel sequence has the prefix-hull property.
        """
        adj = self.adjacency
        alive = [True] * self.num_vertices
        deg = [len(a) for a in adj]
        remaining = set(range(1, self.n + 1))
        peeled = []

        def remove(v):
            alive[v] = False
            for u, _ in adj[v]:
                if alive[u]:
                    deg[u] -= 1

        while remaining:
            k = max(k for k in remaining
                    if deg[self.vertex_of_slot(k)] <= 1 and alive[self.vertex_of_slot(k)])
            peeled.append(k)
            remaining.discard(k)
            remove(self.vertex_of_slot(k))
            changed = True
            while changed:  # prune trivial vertices left as leaves of the hull
                changed = False
                for v in range(self.num_vertices):
                    if alive[v] and self.slot_of[v] == 0 and deg[v] <= 1:
                        remove(v)
                        changed = True
        return tuple(reversed(peeled))

    def canonical_key(self) -> tuple:
        """Key invariant under relabeling of trivial vertices (see _canonical)."""
        return _canonical(self.n, self.slot_of, self.edges)


def _canonical(n: int, slot_of, edges) -> tuple:
    """Canonical (n, slot_of, edges) of a labeled reduced tree.

    A vertex is pinned down by its distance vector to the marked vertices of
    slots 1..n: distinct vertices differ toward some leaf.  For u != w, walk
    from w away from u to a leaf m (m = w if w is a leaf); leaves of a
    reduced tree are marked, and d(u, m) = d(u, w) + d(w, m) > d(w, m).  So
    sorting by (slot, distance vector) is a canonical order.  Marked
    vertices already differ by slot, so only the trivial ones (at most
    n - 2) need a vector, and one BFS from each gives it.  The edges are
    renumbered by the order.  The key of a canonical shape is the shape
    itself.
    """
    V = len(slot_of)
    adj: list[list[int]] = [[] for _ in range(V)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    marked = [0] * n
    trivial = []
    for v, s in enumerate(slot_of):
        if s:
            marked[s - 1] = v
        else:
            trivial.append(v)

    def vector(t):
        dist = [-1] * V
        dist[t] = 0
        queue = [t]
        for u in queue:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return [dist[m] for m in marked]

    relabel = [0] * V
    for new, old in enumerate(sorted(trivial, key=vector) + marked):
        relabel[old] = new
    return (n, (0,) * len(trivial) + tuple(range(1, n + 1)),
            tuple(sorted((a, b) if a < b else (b, a)
                         for a, b in ((relabel[u], relabel[v]) for u, v in edges))))


def path_shape(order: tuple[int, ...]) -> TreeShape:
    """Path-shaped tree whose k-th vertex carries slot order[k]."""
    n = len(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {order}")
    return TreeShape(n, tuple(order), tuple((i, i + 1) for i in range(n - 1)))


# ---------------------------------------------------------------------------
# marked trees
# ---------------------------------------------------------------------------

class MarkedTree:
    """A tree shape plus a marking: slot j carries an involution with core x_j.

    What depends on the shape alone (segment masks, the adapted order) is
    cached on the shape.  in_marking_letters and marking_product translate
    between words in x_1..x_n and words in the marking involutions.
    """

    def __init__(self, shape: TreeShape, marking: tuple[Word, ...]):
        n = shape.n
        if len(marking) != n:
            raise ValueError(f"need {n} marking involutions")
        for j, b in enumerate(marking, start=1):
            if b.rank != n:
                raise ValueError("marking rank mismatch")
            if not b.is_involution:
                raise ValueError(f"marking of slot {j} is not an involution")
            if involution_core(b)[0] != j:
                raise ValueError(f"marking of slot {j} must have core x{j}")
        if not membership.is_basis(list(marking)):
            raise ValueError("marking is not a basis")
        self.shape = shape
        self.marking = tuple(marking)
        self.n = n
        self.standard = all(len(b) == 1 for b in marking)
        self._slot_vertex = tuple(shape.vertex_of_slot(k) for k in range(1, n + 1))
        self._inverse_marking = None

    def marking_word(self, slot: int) -> Word:
        return self.marking[slot - 1]

    def vertex_of_slot(self, k: int) -> int:
        return self._slot_vertex[k - 1]

    def in_marking_letters(self, w: Word) -> Word:
        """Rewrite w as a word in the marking basis (letters name slots)."""
        if self.standard:
            return w
        if self._inverse_marking is None:
            phi = membership.make_automorphism(list(self.marking))
            self._inverse_marking = phi.inverse()
        return self._inverse_marking(w)

    def marking_letters(self, slots) -> tuple[int, ...]:
        """Reduced letters of the product b_{k_1} ... b_{k_m} of the marking
        involutions of the slots."""
        return tuple(_reduce_into([], [x for k in slots for x in self.marking[k - 1].letters]))

    def marking_product(self, slots) -> Word:
        """The product b_{k_1} ... b_{k_m} of the marking involutions of the slots."""
        return reduce(self.marking_letters(slots), self.n)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MarkedTree) and self.shape == other.shape
                and self.marking == other.marking)

    def __hash__(self) -> int:
        return hash((self.shape, self.marking))

    def __repr__(self) -> str:
        mk = ",".join(str(b) for b in self.marking)
        return f"MarkedTree(n={self.n}, marking=[{mk}])"

    # -- JSON ----------------------------------------------------------
    def to_json(self) -> str:
        data = {
            "vertices": [
                {"id": v, "label": "trivial" if s == 0 else {"slot": s}}
                for v, s in enumerate(self.shape.slot_of)
            ],
            "edges": [[u, v] for u, v in self.shape.edges],
            "marking": {str(k): str(self.marking[k - 1]) for k in range(1, self.n + 1)},
        }
        return json.dumps(data, ensure_ascii=False)

    @staticmethod
    def from_json(text: str) -> "MarkedTree":
        data = json.loads(text)
        check(data, {"vertices": list})
        ids = range(len(data["vertices"]))
        # a slot names a distinct vertex, so n <= len(ids) bounds the marking keys
        slots = range(1, len(ids) + 1)
        check(data, {"vertices": [{"id": ids, "label": ("trivial", {"slot": slots})}],
                     "edges": [[ids, ids]], "marking": dict})
        slot_of = [0] * len(ids)
        for item in data["vertices"]:
            lab = item["label"]
            slot_of[item["id"]] = 0 if lab == "trivial" else lab["slot"]
        n = max(slot_of, default=0)
        check(data["marking"], {str(k): str for k in range(1, n + 1)}, "$.marking")
        shape = TreeShape(n, tuple(slot_of), tuple(tuple(e) for e in data["edges"]))
        marking = []
        for k in range(1, n + 1):
            try:
                marking.append(parse(data["marking"][str(k)], n))
            except ValueError as exc:
                raise ValueError(f"$.marking.{k}: {exc}") from None
        return MarkedTree(shape, tuple(marking))


def standard_marking(n: int) -> tuple[Word, ...]:
    return generators(n)


def caterpillar(n: int, order: tuple[int, ...] | None = None) -> MarkedTree:
    """Path of n Z/2 vertices carrying x_{order(1)}, ..., x_{order(n)}."""
    if order is None:
        order = tuple(range(1, n + 1))
    return MarkedTree(path_shape(tuple(order)), standard_marking(n))


# ---------------------------------------------------------------------------
# Bass-Serre navigation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BSVertex:
    """Point w.v of the Bass-Serre tree, with w a canonical coset word."""

    word: Word
    vertex: int


def bs_vertex(tree: MarkedTree, w: Word, v: int) -> BSVertex:
    """Canonicalize (w, v): for a marked vertex take min(w, w*b) in word order."""
    s = tree.shape.slot_of[v]
    if s:
        wb = w * tree.marking_word(s)
        if wb.key() < w.key():
            w = wb
    return BSVertex(w, v)


def fixed_point(tree: MarkedTree, a: Word) -> BSVertex:
    """The unique point of the tree fixed by the involution a."""
    j, g = involution_core(a)
    b = tree.marking_word(j)
    _, c = involution_core(b)
    return bs_vertex(tree, g * ~c, tree.vertex_of_slot(j))


def _bs_neighbors(tree: MarkedTree, p: BSVertex):
    """Adjacent Bass-Serre vertices with (edge label, translate) decorations."""
    adj = tree.shape.adjacency
    w, v = p.word, p.vertex
    s = tree.shape.slot_of[v]
    translates = [w] if s == 0 else [w, w * tree.marking_word(s)]
    for g in translates:
        for u, e in adj[v]:
            yield bs_vertex(tree, g, u), e, g


def bs_path(tree: MarkedTree, p: BSVertex, q: BSVertex,
            vertex_cap: int = 10 ** 6) -> list[tuple[int, Word]]:
    """Unique reduced edge path p -> q as (edge orbit label, translate) steps.

    Lazy bidirectional search over translates of the fundamental domain,
    hashing vertices by canonical coset words.  Raises BudgetExceededError
    past the vertex cap; that signals oversized inputs, not a missing path.
    """
    p = bs_vertex(tree, p.word, p.vertex)
    q = bs_vertex(tree, q.word, q.vertex)
    if p == q:
        return []
    # parent maps: vertex -> (previous vertex, edge label, translate)
    sides = [{p: None}, {q: None}]
    frontiers = [deque([p]), deque([q])]
    meet = None
    visited = 2
    while meet is None:
        side = 0 if len(sides[0]) <= len(sides[1]) else 1
        if not frontiers[side]:
            raise AssertionError("bass-serre tree search exhausted a side")
        for _ in range(len(frontiers[side])):
            cur = frontiers[side].popleft()
            for nxt, e, g in _bs_neighbors(tree, cur):
                if nxt in sides[side]:
                    continue
                sides[side][nxt] = (cur, e, g)
                frontiers[side].append(nxt)
                visited += 1
                if visited > vertex_cap:
                    raise BudgetExceededError(f"bs_path exceeded {vertex_cap} vertices")
                if nxt in sides[1 - side]:
                    meet = nxt
                    break
            if meet is not None:
                break

    def walk_back(side_map, end):
        steps = []
        cur = end
        while side_map[cur] is not None:
            prev, e, g = side_map[cur]
            steps.append((e, g))
            cur = prev
        return steps

    forward = list(reversed(walk_back(sides[0], meet)))
    backward = walk_back(sides[1], meet)
    return forward + backward


# ---------------------------------------------------------------------------
# collapses and the spine poset
# ---------------------------------------------------------------------------

def collapse(shape: TreeShape, edge_set) -> TreeShape:
    """Collapse each component of the given edge set to a point.

    Raises CollapseError when a component contains two marked vertices.
    The result is reduced again: a component of k >= 1 trivial vertices and
    no marked one keeps valence >= 3k - 2(k - 1) = k + 2 >= 3.
    """
    return TreeShape(shape.n, *_collapse(shape, edge_set))


def _collapse(shape: TreeShape, edge_set) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The raw (slot_of, edges) of collapse(shape, edge_set), not validated."""
    edge_set = set(edge_set)
    for e in edge_set:
        if not 0 <= e < len(shape.edges):
            raise ValueError(f"no edge {e}")
    V = shape.num_vertices
    parent = list(range(V))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for e in edge_set:
        u, v = shape.edges[e]
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(V):
        groups.setdefault(find(v), []).append(v)
    new_slot = {}
    for root, members in groups.items():
        slots = [shape.slot_of[v] for v in members if shape.slot_of[v]]
        if len(slots) > 1:
            raise CollapseError(f"collapse would merge marked slots {sorted(slots)}")
        new_slot[root] = slots[0] if slots else 0
    roots = sorted(groups)
    index = {r: i for i, r in enumerate(roots)}
    slot_of = [new_slot[r] for r in roots]
    edges = []
    for i, (u, v) in enumerate(shape.edges):
        if i in edge_set:
            continue
        edges.append((index[find(u)], index[find(v)]))
    return tuple(slot_of), tuple(tuple(sorted(e)) for e in edges)


def _anonymous_shapes(n: int) -> list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """Reduced shapes with n indistinct marked vertices, grown leaf by leaf.

    Every reduced shape loses a marked leaf (all leaves are marked), and
    removal inverts either a leaf attachment or an edge subdivision plus
    attachment, so growing both ways from the 2-vertex shape is exhaustive.
    Entries use slot 1 for "marked" and 0 for trivial.
    """
    def canon(slot_of, edges):
        marks = tuple(1 if s else 0 for s in slot_of)
        return _ahu_key(marks, edges)

    base = ((1, 1), ((0, 1),))
    current = {canon(*base): base}
    for _ in range(n - 2):
        grown = {}
        for slot_of, edges in current.values():
            V = len(slot_of)
            for v in range(V):  # attach a marked leaf at an existing vertex
                s2 = slot_of + (1,)
                e2 = edges + ((v, V),)
                key = canon(s2, e2)
                grown.setdefault(key, (s2, e2))
            for u, v in edges:  # subdivide an edge and attach there
                s2 = slot_of + (0, 1)
                e2 = tuple(e for e in edges if e != (u, v)) + ((u, V), (v, V), (V, V + 1))
                key = canon(s2, e2)
                grown.setdefault(key, (s2, e2))
        current = grown
    return list(current.values())


def _ahu_key(colors: tuple[int, ...], edges) -> tuple:
    """Canonical key of a colored tree (rooted at the center, AHU encoding)."""
    V = len(colors)
    adj: list[list[int]] = [[] for _ in range(V)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if V == 1:
        return (colors[0],)
    # find the center by peeling leaves
    deg = [len(a) for a in adj]
    layer = [v for v in range(V) if deg[v] <= 1]
    removed = 0
    alive = [True] * V
    while V - removed > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            removed += 1
            for u in adj[v]:
                if alive[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = [v for v in range(V) if alive[v]]

    def encode(root, parent):
        subs = sorted(encode(u, root) for u in adj[root] if u != parent)
        return (colors[root], tuple(subs))

    if len(centers) == 1:
        return encode(centers[0], -1)
    c1, c2 = centers
    return min((encode(c1, c2), encode(c2, c1)), (encode(c2, c1), encode(c1, c2)))


def enumerate_shapes(n: int, up_to_relabeling: bool = False) -> list[TreeShape]:
    """All reduced shapes for rank n up to label-preserving isomorphism.

    Shapes grow from the rank-2 edge one slot k = 3..n at a time: each
    rank-(k-1) shape takes slot k as a leaf at a vertex, on a trivial
    vertex, as a vertex on an edge, or as a leaf on a new trivial vertex on
    an edge.  Removing slot k from a rank-k shape inverts exactly one of
    the four: a vertex of valence >= 3 turns trivial, one of valence 2 is
    smoothed away, and a leaf is deleted, with its neighbor smoothed away
    too when that is a trivial vertex left with valence 2.  A labeled
    reduced shape has no nontrivial automorphism: one fixes every marked
    vertex, so every leaf, and a tree automorphism fixing every leaf is
    the identity.  So distinct insertions into distinct shapes give
    distinct shapes, and each shape is canonicalized exactly once.

    With up_to_relabeling=True, shapes are quotiented by slot permutations
    instead (one labeled representative per unlabeled shape).  Rank 6 has
    6,692 shapes and rank 7 already 143,816, so n is capped at 6.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 6:
        raise ValueError("desk scale exceeded: n <= 6")
    if up_to_relabeling:
        keys = []
        for slot_of, edges in _anonymous_shapes(n):
            slots = iter(range(1, n + 1))
            keys.append(_canonical(n, [next(slots) if s else 0 for s in slot_of], edges))
        return [TreeShape(*key) for key in sorted(keys)]
    keys = [_canonical(2, (1, 2), ((0, 1),))]
    for k in range(3, n + 1):
        grown = []
        for _, slot_of, edges in keys:
            V = len(slot_of)
            for v in range(V):  # a leaf at v, or v marked if trivial
                grown.append(_canonical(k, slot_of + (k,), edges + ((v, V),)))
                if not slot_of[v]:
                    grown.append(_canonical(k, slot_of[:v] + (k,) + slot_of[v + 1:], edges))
            for i, (u, v) in enumerate(edges):  # a vertex, or a leaf on a trivial one, on uv
                rest = edges[:i] + edges[i + 1:] + ((u, V), (v, V))
                grown.append(_canonical(k, slot_of + (k,), rest))
                grown.append(_canonical(k, slot_of + (0, k), rest + ((V, V + 1),)))
        keys = grown
    return [TreeShape(*key) for key in sorted(keys)]


@dataclass
class ShapePoset:
    """Labeled reduced shapes ordered by "collapses onto"."""

    shapes: list[TreeShape]
    below: list[set[int]]  # strictly smaller elements (collapses of shapes[i])

    def longest_chain(self) -> int:
        order = sorted(range(len(self.shapes)), key=lambda i: len(self.shapes[i].edges))
        best = [1] * len(self.shapes)
        for i in order:
            for j in self.below[i]:
                best[i] = max(best[i], best[j] + 1)
        return max(best) if best else 0

    def relation_pairs(self) -> list[tuple[int, int]]:
        return [(j, i) for i in range(len(self.shapes)) for j in sorted(self.below[i])]


def shape_poset(n: int) -> ShapePoset:
    """The spine poset at rank n: S <= T when T collapses onto S.

    An edge set is admissible when no component holds two marked vertices.
    Collapsing an admissible set is collapsing its edges one at a time, and
    every step stays admissible, so the relation is the transitive closure
    of single-edge collapses: below[i] is the union, over the edges of
    shapes[i] that do not join two marked vertices, of the collapse c and
    below[c].  A collapse has one edge fewer, so visiting shapes by edge
    count fills below[c] first.  The full edge set is never admissible for
    n >= 2, so every admissible set is proper and every collapse is a
    listed shape.  A collapse is looked up by the canonical form of its raw
    (slot_of, edges); a collapse of a reduced shape is reduced (see
    collapse), so none is validated.
    """
    shapes = enumerate_shapes(n)
    index = {s.canonical_key(): i for i, s in enumerate(shapes)}
    below: list[set[int]] = [set() for _ in shapes]
    for i in sorted(range(len(shapes)), key=lambda i: len(shapes[i].edges)):
        shape = shapes[i]
        for e, (u, v) in enumerate(shape.edges):
            if not (shape.slot_of[u] and shape.slot_of[v]):
                c = index[_canonical(n, *_collapse(shape, (e,)))]
                below[i] |= below[c]
                below[i].add(c)
    return ShapePoset(shapes, below)
