import hashlib
import itertools
import math
import random

import pytest

from grushko.words import conjugate, identity, parse, random_reduced_word
from grushko.trees import (
    BudgetExceededError,
    CollapseError,
    MarkedTree,
    TreeShape,
    bs_path,
    bs_vertex,
    caterpillar,
    collapse,
    enumerate_shapes,
    fixed_point,
    path_shape,
    shape_poset,
    standard_marking,
)
from grushko import trees
from shape_canon import canonical_by_marked_bfs
from shape_poset_ref import below_by_edge_subsets

W = parse


def test_caterpillar_markings():
    t = caterpillar(3)
    assert [t.shape.slot_of[v] for v in range(3)] == [1, 2, 3]
    t2 = caterpillar(4, (1, 3, 2, 4))
    assert [t2.shape.slot_of[v] for v in range(4)] == [1, 3, 2, 4]
    with pytest.raises(ValueError):
        caterpillar(3, (1, 1, 2))


def test_marking_must_align_cores():
    shape = path_shape((1, 2))
    with pytest.raises(ValueError):
        MarkedTree(shape, (W("x2", 2), W("x1", 2)))
    ok = MarkedTree(shape, (W("x2.x1.x2", 2), W("x2", 2)))
    assert not ok.standard


def test_fixed_points():
    t = caterpillar(3)
    p = fixed_point(t, W("x1", 3))
    assert p.word == identity(3) and t.shape.slot_of[p.vertex] == 1
    q = fixed_point(t, W("x1.x2.x1", 3))
    assert q.word == W("x1", 3) and t.shape.slot_of[q.vertex] == 2
    # coset canonicalization: w and w*b name the same vertex
    v2 = t.vertex_of_slot(2)
    assert bs_vertex(t, W("x1.x2", 3), v2) == bs_vertex(t, W("x1", 3), v2)


def test_bs_path_examples():
    t = caterpillar(3)
    v1 = fixed_point(t, W("x1", 3))
    v2 = fixed_point(t, W("x2", 3))
    assert [e for e, _ in bs_path(t, v1, v2)] == [0]
    # one fundamental edge, translated by x1
    moved = bs_vertex(t, W("x1", 3), t.vertex_of_slot(2))
    assert bs_path(t, v1, moved) == [(0, W("x1", 3))]
    target = bs_vertex(t, W("x3", 3), t.vertex_of_slot(2))
    path = bs_path(t, v1, target)
    assert [e for e, _ in path] == [0, 1, 1]
    back = bs_path(t, target, v1)
    assert [e for e, _ in back] == [1, 1, 0]
    assert bs_path(t, v1, v1) == []


def test_bs_path_metric_on_samples():
    rng = random.Random(21)
    t = caterpillar(4)
    verts = []
    for _ in range(6):
        w = random_reduced_word(rng, 4, rng.randrange(0, 4))
        verts.append(bs_vertex(t, w, rng.randrange(4)))
    for p, q, r in itertools.permutations(verts, 3):
        dpq = len(bs_path(t, p, q))
        dqr = len(bs_path(t, q, r))
        dpr = len(bs_path(t, p, r))
        assert dpr <= dpq + dqr


def test_bs_path_budget():
    t = caterpillar(3)
    v1 = fixed_point(t, W("x1", 3))
    far = bs_vertex(t, random_reduced_word(random.Random(3), 3, 8), 2)
    with pytest.raises(BudgetExceededError):
        bs_path(t, v1, far, vertex_cap=10)


def test_collapse():
    star = TreeShape(3, (0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
    smaller = collapse(star, [0])
    assert smaller.num_vertices == 3
    assert sorted(smaller.slot_of) == [1, 2, 3]
    assert collapse(star, []) == star
    with pytest.raises(CollapseError):
        collapse(path_shape((1, 2)), [0])
    with pytest.raises(CollapseError):
        collapse(path_shape((1, 2, 3)), [0, 1])


def _count_shapes_by_formula(n: int) -> int:
    """Independent count via degree-constrained labeled-tree enumeration.

    Labeled trees on n marked + t trivial vertices where each trivial vertex
    has degree >= 3, counted by summing multinomial coefficients over the
    trivial degrees, then divided by t! (no labeled shape has an automorphism
    moving trivial vertices, so orbits have full size).
    """
    total = 0
    for t in range(0, max(n - 1, 1)):
        V = n + t
        if V == 2 and t == 0:
            total += 1 if n == 2 else 0
            continue
        slots = V - 2
        count = 0
        for cs in itertools.product(range(2, slots + 1), repeat=t):
            used = sum(cs)
            if used > slots:
                continue
            ways = math.factorial(slots)
            for c in cs:
                ways //= math.factorial(c)
            ways //= math.factorial(slots - used)
            count += ways * n ** (slots - used)
        if t == 0:
            count = n ** slots if V > 2 else count
        total += count // math.factorial(t)
    return total


def test_enumerate_shapes_counts():
    for n, expected in [(2, 1), (3, 4), (4, 32), (5, 396), (6, 6692)]:
        got = enumerate_shapes(n)
        assert len(got) == expected
        assert len(got) == _count_shapes_by_formula(n)
        assert len({s.canonical_key() for s in got}) == expected
    assert len(enumerate_shapes(3, up_to_relabeling=True)) == 2
    assert len(enumerate_shapes(4, up_to_relabeling=True)) == 5


def _sha(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()


SHAPE_DIGESTS = [
    (2, False, "38d39da156ff74d4574ddad0d600462fa731bdff375c475ea03e8f028b1f3346"),
    (3, False, "e40cf9f5430910420a32d92b4961dbe3e79ba975d546fb7c11cc8a106113a390"),
    (4, False, "b036fb3985d1af6a9f1e65f59420339a5fb7934716544ae84db6bb512e2bc0b8"),
    (5, False, "df8491513580919b7d3f181db244bc2ad983768d4451ab9e0979f6e9dde32faa"),
    (6, False, "986e84c3f215c90a0c9316a881528b7fe56b744281848470b785ef5d3642d5df"),
    (2, True, "38d39da156ff74d4574ddad0d600462fa731bdff375c475ea03e8f028b1f3346"),
    (3, True, "63102ecdf58949b5303dd89d03ccc19d55e4c7beb15dc10567e2f84c61a9a50c"),
    (4, True, "25f688817427a539709f0800387af41c3d114bd396b099f2635de2d7a76aef07"),
    (5, True, "ba3a3e0cea1ff146e39f89c351bd54f50f936db47bf7da225f643e9f345488df"),
    (6, True, "9e204cfe69703967246df1e35f2d97d65b5669d01c9c72aeb87df1a985bb7ffa"),
]


@pytest.mark.parametrize("n, up_to_relabeling, digest", SHAPE_DIGESTS,
                         ids=[f"{n}-{mode}" for n, mode, _ in SHAPE_DIGESTS])
def test_enumerate_shapes_output_is_pinned(n, up_to_relabeling, digest):
    """The shape list, its order and its vertex numbering, byte for byte."""
    shapes = enumerate_shapes(n, up_to_relabeling=up_to_relabeling)
    assert _sha([(s.slot_of, s.edges) for s in shapes]) == digest


def test_shape_poset_output_is_pinned():
    for n, digest in [
        (5, "37515046f1636b3343e12c1443772e5b3a2d71703244450dfdd6fb57b364a092"),
        (6, "57d14ca04c68955a5dedf7a0b202022a9575590cdf5dafe570b4883c63b169b9"),
    ]:
        assert _sha([sorted(b) for b in shape_poset(n).below]) == digest


def test_enumerate_shapes_rank_bound():
    # rank 7 has 143,816 shapes; the enumeration refuses it before any work
    for n in (7, 99):
        with pytest.raises(ValueError, match="desk scale exceeded"):
            enumerate_shapes(n)
        with pytest.raises(ValueError, match="desk scale exceeded"):
            shape_poset(n)


def test_enumerate_shapes_builds_each_shape_once(monkeypatch):
    """One validated TreeShape per distinct shape, none per slot assignment."""
    built = []
    post_init = TreeShape.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TreeShape, "__post_init__", counting)
    for n, expected in [(4, 32), (5, 396)]:
        built.clear()
        enumerate_shapes(n)
        assert len(built) == expected


def test_enumerate_shapes_canonicalizes_each_shape_once(monkeypatch):
    """Growth by slots makes one candidate per labeled shape at every rank:
    1 + 4 + 32 + 396 = 433 canonical forms for rank 5."""
    calls = []
    canonical = trees._canonical

    def counting(n, slot_of, edges):
        calls.append(n)
        return canonical(n, slot_of, edges)

    monkeypatch.setattr(trees, "_canonical", counting)
    for n, expected in [(2, 1), (3, 5), (4, 37), (5, 433)]:
        calls.clear()
        enumerate_shapes(n)
        assert len(calls) == expected


def _renumbered(shape, rng):
    """(slot_of, edges) of a shape under a random vertex renumbering."""
    perm = list(range(shape.num_vertices))
    rng.shuffle(perm)
    slot_of = [0] * shape.num_vertices
    for v, s in enumerate(shape.slot_of):
        slot_of[perm[v]] = s
    edges = [(perm[v], perm[u]) for u, v in shape.edges]
    rng.shuffle(edges)
    return tuple(slot_of), tuple(edges)


def test_canonical_matches_the_marked_bfs_reference():
    """Trivial-vertex distance vectors give the same form as the full
    (slot, distances to every marked vertex) sort, on every shape of rank
    2-6, as listed and under a seeded random vertex renumbering."""
    rng = random.Random(30)
    for n in range(2, 7):
        for shape in enumerate_shapes(n):
            for slot_of, edges in [(shape.slot_of, shape.edges), _renumbered(shape, rng)]:
                assert trees._canonical(n, slot_of, edges) == \
                    canonical_by_marked_bfs(n, slot_of, edges)


def test_enumerate_shapes_returns_canonical_shapes_in_key_order():
    for n in range(2, 6):
        shapes = enumerate_shapes(n)
        for shape in shapes:
            assert shape == TreeShape(*shape.canonical_key())
        keys = [s.canonical_key() for s in shapes]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_canonical_key_relabeling_invariant():
    rng = random.Random(23)
    rank5 = random.Random(5).sample(enumerate_shapes(5), 40)
    for shape in enumerate_shapes(4)[::3] + rank5:
        V = shape.num_vertices
        perm = list(range(V))
        rng.shuffle(perm)
        slot_of = [0] * V
        for v in range(V):
            slot_of[perm[v]] = shape.slot_of[v]
        edges = tuple(tuple(sorted((perm[u], perm[v]))) for u, v in shape.edges)
        moved = TreeShape(shape.n, tuple(slot_of), edges)
        assert moved.canonical_key() == shape.canonical_key()


def test_shapes_are_reduced():
    for s in enumerate_shapes(4):
        deg = [0] * s.num_vertices
        for u, v in s.edges:
            deg[u] += 1
            deg[v] += 1
        for v in range(s.num_vertices):
            if s.slot_of[v] == 0:
                assert deg[v] >= 3
            if deg[v] == 1:
                assert s.slot_of[v] > 0


def test_shape_poset_chains():
    for n, chain in [(2, 1), (3, 2), (4, 3)]:
        sp = shape_poset(n)
        assert sp.longest_chain() == chain


def test_shape_poset_matches_the_edge_subset_reference():
    for n in range(2, 6):
        assert shape_poset(n).below == below_by_edge_subsets(n)


def test_shape_poset_collapses_each_admissible_edge_once(monkeypatch):
    """One _collapse per edge that does not join two marked vertices: the
    relation is closed over single edges, never built from edge subsets."""
    calls = []
    collapse_raw = trees._collapse

    def counting(shape, edge_set):
        calls.append(shape)
        return collapse_raw(shape, edge_set)

    monkeypatch.setattr(trees, "_collapse", counting)
    for n, expected in [(2, 0), (3, 3), (4, 55), (5, 1090)]:
        calls.clear()
        shape_poset(n)
        assert len(calls) == expected


def test_shape_poset_validates_only_the_shapes(monkeypatch):
    built = []
    post_init = TreeShape.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TreeShape, "__post_init__", counting)
    shape_poset(5)
    assert len(built) == 396


def test_poset_relation_is_transitive_by_construction():
    for n in (3, 4, 5):
        sp = shape_poset(n)
        for i in range(len(sp.shapes)):
            for j in sp.below[i]:
                assert sp.below[j] <= sp.below[i]


def convex_hull_vertices(shape, vertices):
    """Vertex set of the minimal subtree containing the given vertices."""
    want = set(vertices)
    if not want:
        return set()
    alive = set(range(shape.num_vertices))
    adj = shape.adjacency
    deg = {v: len(adj[v]) for v in alive}
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if v not in want and deg[v] <= 1:
                alive.discard(v)
                changed = True
                for u, _ in adj[v]:
                    if u in alive:
                        deg[u] -= 1
    return alive


def hull_order_is_adapted(tree, order):
    """Independent check: each prefix hull avoids all later fixed points."""
    shape = tree.shape
    for i in range(1, len(order)):
        hull = convex_hull_vertices(shape, [tree.vertex_of_slot(k) for k in order[:i]])
        if any(tree.vertex_of_slot(k) in hull for k in order[i:]):
            return False
    return True


def test_adapted_order():
    assert caterpillar(3).shape.adapted_order == (1, 2, 3)
    star = TreeShape(3, (0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
    assert star.adapted_order == (1, 2, 3)
    for n in range(2, 6):
        for shape in enumerate_shapes(n):
            tree = MarkedTree(shape, standard_marking(n))
            assert hull_order_is_adapted(tree, shape.adapted_order)


ADAPTED_ORDER_DIGESTS = {
    2: "6f1494ede5b616f4a0a0d86da481da4a4a131a7f752053833fd727b44a0631f1",
    3: "202446bab9f7b63840caef314d054f11f98dddbc7afb2fb8403468ab3a4b3747",
    4: "f350aeb01a62a23ef2fe52f408a360a05e434a433fc8a593979dcc6bbdfcbfde",
    5: "2037152fadb46fb260cf161ae6efbc02b0cb8d340ab74dc0421585fe8b1fc801",
    6: "7b520e91fe96a5c179c971dda80340e43d8b587f85b9de25a39d7bc2a06cb012",
}


@pytest.mark.parametrize("n", sorted(ADAPTED_ORDER_DIGESTS))
def test_adapted_order_is_pinned(n):
    """The adapted order of every shape of rank n in both enumeration modes,
    and of three seeded slot permutations of each unlabeled shape."""
    rng = random.Random(n)
    orders = [shape.adapted_order for mode in (False, True)
              for shape in enumerate_shapes(n, up_to_relabeling=mode)]
    for shape in enumerate_shapes(n, up_to_relabeling=True):
        for _ in range(3):
            perm = rng.sample(range(1, n + 1), n)
            slot_of = tuple(s and perm[s - 1] for s in shape.slot_of)
            orders.append(TreeShape(n, slot_of, shape.edges).adapted_order)
    assert _sha(orders) == ADAPTED_ORDER_DIGESTS[n]


def test_convex_hull():
    t = caterpillar(4)
    hull = convex_hull_vertices(t.shape, [0, 2])
    assert hull == {0, 1, 2}


def test_tree_json_roundtrip():
    t = caterpillar(4, (1, 3, 2, 4))
    assert MarkedTree.from_json(t.to_json()) == t
    mk = (W("x1", 3), conjugate(W("x2", 3), W("x3.x1", 3)), W("x3", 3))
    t2 = MarkedTree(path_shape((1, 3, 2)), mk)
    assert MarkedTree.from_json(t2.to_json()) == t2

