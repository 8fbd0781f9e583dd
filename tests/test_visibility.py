import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from grushko.words import (
    NotInvolutionError,
    RankMismatchError,
    conjugate,
    generator,
    generators,
    parse,
    random_reduced_word,
    reduce,
)
from grushko.factors import CanonicalClass, VisibleIn, W2Factor, canonical_class
from grushko import membership, visibility
from grushko.membership import contains, fold, is_basis
from grushko.trees import (
    MarkedTree,
    TreeShape,
    bs_path,
    caterpillar,
    collapse,
    enumerate_shapes,
    fixed_point,
    path_shape,
    standard_marking,
)
from grushko.visibility import (
    CertificationError,
    _interior_stops,
    bp_fiber,
    certify_partial_basis,
    is_visible,
    visible_classes,
    visible_classes_brute,
    visible_words,
)
W = parse


def segment_conjugators(tree, x, y):
    """Reference: all products of the stabilizer involutions met along the segment.

    x and y are slots; the segment between their fixed points in the
    fundamental domain passes p marked vertices (endpoints included) with
    stabilizer generators b_1..b_p in order, and the conjugators are the
    2^p subproducts b_1^{e_1} ... b_p^{e_p}.
    """
    slots = [x, *_interior_stops(tree, x, y), y]
    return [reduce(tree.marking_letters([s for k, s in enumerate(slots) if e >> k & 1]), tree.n)
            for e in range(2 ** len(slots))]


def _is_visible_by_search(tree, f):
    p, q = fixed_point(tree, f.a), fixed_point(tree, f.b)
    labels = [e for e, _ in bs_path(tree, p, q, vertex_cap=10 ** 5)]
    return len(labels) == len(set(labels))


def test_visibility_examples():
    t = caterpillar(3)
    assert is_visible(t, W2Factor(W("x1", 3), W("x2", 3)))
    f = W2Factor(W("x1", 3), W("x3.x2.x3", 3))
    assert not is_visible(t, f)
    # slot walk 1, 3, 2: edge 1 is met on both segments
    masks = t.shape.segment_masks
    assert masks[1][3] & masks[3][2] == 0b10
    # conjugator inside the subgroup: same factor, still visible
    assert is_visible(t, W2Factor(W("x1", 3), conjugate(W("x2", 3), W("x2", 3))))


def test_visibility_matches_tree_search():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.choice([3, 4])
        tree = caterpillar(n, tuple(rng.sample(range(1, n + 1), n)))
        i, j = rng.sample(range(1, n + 1), 2)
        a = conjugate(generator(i, n), random_reduced_word(rng, n, rng.randrange(0, 3)))
        b = conjugate(generator(j, n), random_reduced_word(rng, n, rng.randrange(0, 3)))
        f = W2Factor(a, b)
        assert is_visible(tree, f) == _is_visible_by_search(tree, f)


def test_visibility_matches_tree_search_on_branched_shapes():
    rng = random.Random(33)
    branched = [s for s in enumerate_shapes(5) if 0 in s.slot_of]
    for _ in range(40):
        tree = MarkedTree(branched[rng.randrange(len(branched))], standard_marking(5))
        i, j = rng.sample(range(1, 6), 2)
        a = conjugate(generator(i, 5), random_reduced_word(rng, 5, rng.randrange(0, 3)))
        b = conjugate(generator(j, 5), random_reduced_word(rng, 5, rng.randrange(0, 3)))
        if a == b:
            continue
        f = W2Factor(a, b)
        assert is_visible(tree, f) == _is_visible_by_search(tree, f)


def test_visibility_conjugation_invariant():
    rng = random.Random(32)
    shapes = {n: enumerate_shapes(n) for n in (3, 4, 5)}
    for _ in range(150):
        n = rng.choice([3, 4, 5])
        shape = shapes[n][rng.randrange(len(shapes[n]))]
        tree = MarkedTree(shape, standard_marking(n))
        i, j = rng.sample(range(1, n + 1), 2)
        f = W2Factor(conjugate(generator(i, n), random_reduced_word(rng, n, 2)),
                     conjugate(generator(j, n), random_reduced_word(rng, n, 2)))
        w = random_reduced_word(rng, n, rng.randrange(0, 4))
        moved = W2Factor(conjugate(f.a, w), conjugate(f.b, w))
        assert is_visible(tree, f) == is_visible(tree, moved)


def test_segment_conjugators():
    t = caterpillar(3)
    close = segment_conjugators(t, 1, 2)
    assert sorted(str(w) for w in close) == sorted(["ε", "x1", "x2", "x1*x2"])
    far = segment_conjugators(t, 1, 3)
    assert len(far) == 8
    assert W("x1.x2.x3", 3) in far
    with pytest.raises(ValueError):
        segment_conjugators(t, 1, 1)


def test_visible_classes_caterpillar4():
    t = caterpillar(4)
    fam = visible_classes(t, 1)
    assert len(fam) == 1 and fam.classes[0].pair_index == 1
    with pytest.raises(ValueError):
        visible_classes(t, 3)


def test_visible_classes_match_brute_force():
    for order in [(1, 2, 3, 4), (1, 3, 2, 4)]:
        t = caterpillar(4, order)
        for i in (1, 2):
            fam = set(visible_classes(t, i).classes)
            assert visible_classes_brute(t, i, 6) == fam
            assert visible_classes_brute(t, i) == fam
    # the (1,3,2,4) ordering separates the pair (x1, x2) by three stabilizers
    assert len(segment_conjugators(caterpillar(4, (1, 3, 2, 4)), 1, 2)) == 8


def test_equal_trees_give_equal_classes():
    t = caterpillar(4)
    fam = visible_classes(t, 1)
    # the brute-force oracle finds the same classes
    assert visible_classes_brute(t, 1) == set(fam.classes)
    # an equal tree built anew gives the same classes
    again = caterpillar(4)
    assert again == t and again is not t
    assert visible_classes(again, 1) == fam


def test_brute_force_length_zero():
    t = caterpillar(4)
    out = visible_classes_brute(t, 1, 0)
    assert len(out) == 1


def _visible_by_enumeration(masks, r, s, max_len):
    """Every reduced word up to max_len, visible when its segments are disjoint."""
    n = len(masks) - 1
    words, level = [], [()]
    for length in range(max_len + 1):
        assert len(level) == (n * (n - 1) ** (length - 1) if length else 1)
        words += level
        level = [w + (k,) for w in level for k in range(1, n + 1) if not w or w[-1] != k]
    visible = []
    for w in words:
        segments = [masks[a][b] for a, b in zip((r, *w), (*w, s))]
        union = 0
        for m in segments:
            union |= m
        if bin(union).count("1") == sum(bin(m).count("1") for m in segments):
            visible.append(w)
    return visible


def test_pruned_search_equals_full_enumeration_on_fuzzed_tables():
    rng = random.Random(35)
    n = 4
    for _ in range(20):
        masks = [[rng.getrandbits(10) if a and b and a != b else 0 for b in range(n + 1)]
                 for a in range(n + 1)]
        words, nodes = visible_words(masks, 1, 2, 5)
        assert len(words) == len(set(words))
        assert set(words) == set(_visible_by_enumeration(masks, 1, 2, 5))
        assert len(words) <= nodes
    masks[3][4] = 0
    with pytest.raises(ValueError):
        visible_words(masks, 1, 2)
    assert visible_words(masks, 1, 2, 3)[0]


def test_unbounded_search_equals_bound_8_on_fixtures():
    for n in range(2, 5):
        for shape in enumerate_shapes(n):
            masks = shape.segment_masks
            for i in range(1, n // 2 + 1):
                words, _ = visible_words(masks, 2 * i - 1, 2 * i)
                assert sorted(words) == sorted(visible_words(masks, 2 * i - 1, 2 * i, 8)[0])


def test_package_imports_without_numpy():
    """The runtime is the standard library alone."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    subprocess.run([sys.executable, "-c", "import grushko, sys; assert 'numpy' not in sys.modules"],
                   env=env, check=True, timeout=60)


def test_nonstandard_marking_route():
    mk = (W("x1", 3), conjugate(W("x2", 3), W("x3.x1", 3)), W("x3", 3))
    tree = MarkedTree(path_shape((1, 3, 2)), mk)
    f = W2Factor(mk[0], mk[1])
    assert is_visible(tree, f) == _is_visible_by_search(tree, f)
    brute = visible_classes_brute(tree, 1, 3)
    fam = set(visible_classes(tree, 1).classes)
    assert brute <= fam
    assert visible_classes_brute(tree, 1) == fam


def test_segment_masks_match_shape_paths():
    for n in range(2, 7):
        for shape in enumerate_shapes(n):
            masks = shape.segment_masks
            assert masks[0] == (0,) * (n + 1)
            for a in range(1, n + 1):
                assert masks[a][0] == masks[a][a] == 0
                for b in range(1, n + 1):
                    if a != b:
                        path = shape.path(shape.vertex_of_slot(a), shape.vertex_of_slot(b))
                        assert masks[a][b] == sum(1 << e for e, _ in path)


def _random_marking(rng, n):
    """The standard marking moved by random automorphisms x_j -> x_k x_j x_k."""
    marking = list(standard_marking(n))
    for _ in range(rng.randrange(1, 4)):
        j, k = rng.sample(range(1, n + 1), 2)
        marking[j - 1] = conjugate(marking[j - 1], marking[k - 1])
    return tuple(marking)


def test_unbounded_oracle_equals_segment_family_in_random_markings():
    rng = random.Random(36)
    shapes = {n: enumerate_shapes(n) for n in (3, 4, 5)}
    sweeps = 0
    while sweeps < 30:
        n = rng.choice([3, 4, 5])
        tree = MarkedTree(shapes[n][rng.randrange(len(shapes[n]))], _random_marking(rng, n))
        if tree.standard:
            continue
        for i in range(1, n // 2 + 1):
            fam = set(visible_classes(tree, i).classes)
            assert visible_classes_brute(tree, i) == fam
            assert visible_classes_brute(tree, i, 2) <= fam
            sweeps += 1


def test_visible_classes_share_the_tree_certificate():
    """Both enumerations certify every class VisibleIn the very tree object
    they searched, which certify_partial_basis trusts without a check."""
    trees = [MarkedTree(shape, standard_marking(n))
             for n in range(2, 6) for shape in enumerate_shapes(n)]
    rng = random.Random(38)
    shapes = {n: enumerate_shapes(n) for n in (3, 4, 5)}
    wanted = len(trees) + 20
    while len(trees) < wanted:
        n = rng.choice([3, 4, 5])
        tree = MarkedTree(shapes[n][rng.randrange(len(shapes[n]))], _random_marking(rng, n))
        if not tree.standard:
            trees.append(tree)
    for tree in trees:
        for i in range(1, tree.n // 2 + 1):
            fam = visible_classes(tree, i)
            assert fam.tree is tree and fam.classes
            for cls in (*fam.classes, *visible_classes_brute(tree, i)):
                assert isinstance(cls.certificate, VisibleIn)
                assert cls.certificate.tree is tree, (tree, i, cls)


def _class_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pinned_trees(group):
    """Every rank-n fixture tree in standard marking, or 20 seeded trees of
    rank 3-5 in non-standard markings."""
    if group != "random":
        n = int(group[-1])
        return [MarkedTree(shape, standard_marking(n)) for shape in enumerate_shapes(n)]
    rng = random.Random(39)
    shapes = {n: enumerate_shapes(n) for n in (3, 4, 5)}
    trees = []
    while len(trees) < 20:
        n = rng.choice([3, 4, 5])
        tree = MarkedTree(shapes[n][rng.randrange(len(shapes[n]))], _random_marking(rng, n))
        if not tree.standard:
            trees.append(tree)
    return trees


VISIBLE_CLASS_DIGESTS = {
    "rank2": "8b60201bf88808774f98b2f8523bf32c4430076c72ab627e9a4ade31b2b5a6af",
    "rank3": "4b0a6fcb52d0db815ba6024b960d1827f22d7fad39bf22a1f1cb0204a4418553",
    "rank4": "b0f9bea48bf60e7ee20e9f0c316256992e3bfd8fb406878bfbde77b104c6050c",
    "rank5": "9c9ad95a01657b01cb09ff2a0cc7a06932da6b00244dfbfb03e795bbd3e28765",
    "random": "16df2891625e4852bb16432dab733661bc3f16b88ccc94559141af10eb3d66b4",
}


@pytest.mark.parametrize("group", sorted(VISIBLE_CLASS_DIGESTS))
def test_visible_classes_are_pinned(group):
    """The text of every visible class per (tree, pair index), from the
    segment family and from the unbounded brute-force oracle: one sha256
    of the sorted class texts per pair, hashed in tree order."""
    segment, brute = [], []
    for tree in _pinned_trees(group):
        for i in range(1, tree.n // 2 + 1):
            segment.append(_class_digest(sorted(map(str, visible_classes(tree, i).classes))))
            brute.append(_class_digest(sorted(map(str, visible_classes_brute(tree, i)))))
    assert _class_digest(segment) == VISIBLE_CLASS_DIGESTS[group]
    assert _class_digest(brute) == VISIBLE_CLASS_DIGESTS[group]


def test_visible_classes_walk_their_segment():
    """Every visible class is visible, and its slot walk is x, S, y up to
    empty steps, with S interior stops of the segment from x to y in path
    order: the argument that lets visible_classes skip the walk check."""
    trees = [MarkedTree(shape, standard_marking(n))
             for n in range(2, 6) for shape in enumerate_shapes(n)]
    rng = random.Random(41)
    shapes = {n: enumerate_shapes(n) for n in (3, 4, 5, 6)}
    wanted = len(trees) + 60
    while len(trees) < wanted:
        n = rng.choice([3, 4, 5, 6])
        tree = MarkedTree(shapes[n][rng.randrange(len(shapes[n]))], _random_marking(rng, n))
        if not tree.standard:
            trees.append(tree)
    for tree in trees:
        for i in range(1, tree.n // 2 + 1):
            x, y = 2 * i - 1, 2 * i
            stops = _interior_stops(tree, x, y)
            for cls in visible_classes(tree, i).classes:
                assert is_visible(tree, cls), (tree, cls)
                walk = visibility._walk(tree, cls.a.letters, cls.b.letters)
                steps = [s for k, s in enumerate(walk) if k == 0 or s != walk[k - 1]]
                assert steps[0] == x and steps[-1] == y, (tree, cls, walk)
                left = iter(stops)
                assert all(s in left for s in steps[1:-1]), (tree, cls, walk)


def test_visibility_matches_tree_search_in_random_markings():
    """The letter walk through in_marking_letters against the bs_path search,
    on random factors in random non-standard markings of rank 3-5."""
    rng = random.Random(40)
    shapes = {n: enumerate_shapes(n) for n in (3, 4, 5)}
    outcomes = []
    while len(outcomes) < 120:
        n = rng.choice([3, 4, 5])
        tree = MarkedTree(shapes[n][rng.randrange(len(shapes[n]))], _random_marking(rng, n))
        if tree.standard:
            continue
        i, j = rng.sample(range(1, n + 1), 2)
        # conjugates of the marking involutions, or of the generators by
        # shorter words: in marking letters those walks are already long,
        # and the search visits exponentially many vertices in their length
        if rng.random() < 0.5:
            base, most = tree.marking_word, 3
        else:
            base, most = (lambda k: generator(k, n)), 2
        a = conjugate(base(i), random_reduced_word(rng, n, rng.randrange(0, most)))
        b = conjugate(base(j), random_reduced_word(rng, n, rng.randrange(0, most)))
        f = W2Factor(a, b)
        visible = is_visible(tree, f)
        assert visible == _is_visible_by_search(tree, f), (tree, f)
        outcomes.append(visible)
    assert 20 <= sum(outcomes) <= 100


@pytest.mark.parametrize("a, b, named", [
    ("x1.x2", "x2.x3.x2", "x1*x2"),
    ("x1", "x2.x3", "x2*x3"),
    ("", "x2", "ε"),
    ("x1.x2", "x2.x3", "x1*x2"),
], ids=["a", "b", "empty-a", "both"])
def test_is_visible_rejects_non_involutions(a, b, named):
    """The public entry validates its factor: a generator that is not an
    involution raises NotInvolutionError naming it, a before b."""
    f = W2Factor(W(a, 3), W(b, 3))
    with pytest.raises(NotInvolutionError, match=f"^{re.escape(named)} is not an involution$"):
        is_visible(caterpillar(3), f)


def test_is_visible_rejects_a_factor_of_another_rank():
    with pytest.raises(RankMismatchError):
        is_visible(caterpillar(3), W2Factor(W("x1", 4), W("x2", 4)))


def _segment_route_classes(tree, r, s):
    """Reference: visible classes <b_r, g b_s g^-1> over all 2^p segment
    conjugators."""
    a, y = tree.marking_word(r), tree.marking_word(s)
    out = set()
    for g in segment_conjugators(tree, r, s):
        f = W2Factor(a, conjugate(y, g))
        if is_visible(tree, f):
            out.add(canonical_class(f))
    return out


def test_interior_conjugators_give_every_segment_class():
    trees = [MarkedTree(shape, standard_marking(n))
             for n in range(2, 6) for shape in enumerate_shapes(n)]
    rng = random.Random(37)
    shapes = {n: enumerate_shapes(n) for n in (3, 4, 5)}
    wanted = len(trees) + 60
    while len(trees) < wanted:
        n = rng.choice([3, 4, 5])
        tree = MarkedTree(shapes[n][rng.randrange(len(shapes[n]))], _random_marking(rng, n))
        if not tree.standard:
            trees.append(tree)
    for tree in trees:
        for i in range(1, tree.n // 2 + 1):
            assert set(visible_classes(tree, i).classes) == \
                _segment_route_classes(tree, 2 * i - 1, 2 * i), (tree, i)


def _strip(g, a, y):
    """g without leading copies of a and trailing copies of y."""
    changed = True
    while changed:
        changed = False
        la, ly = len(a), len(y)
        if len(g) >= la and g.letters[:la] == a.letters:
            g = reduce(g.letters[la:], g.rank)
            changed = True
        if len(g) >= ly and g.letters[-ly:] == y.letters:
            g = reduce(g.letters[:-ly], g.rank)
            changed = True
    return g


def _segment_scan(tree, alpha, beta, scans):
    """The first stripped segment conjugator of each class, in one sorted
    scan per (tree, alpha, beta), kept in scans."""
    if (tree, alpha, beta) not in scans:
        a, y = tree.marking_word(alpha), tree.marking_word(beta)
        first = {}
        for g in sorted(segment_conjugators(tree, alpha, beta), key=lambda w: w.key()):
            g = _strip(g, a, y)
            b = conjugate(y, g)
            if b != a:
                first.setdefault(canonical_class(W2Factor(a, b)), g)
        scans[tree, alpha, beta] = first
    return scans[tree, alpha, beta]


def _reference_certificate(tree, classes, scans):
    """The former certification: for each class the smallest stripped segment
    conjugator g with <b_alpha, g b_beta g^-1> in the class."""
    order = tree.shape.adapted_order
    chosen = {}
    for cls in classes:
        alpha, beta = sorted(cls.cores(), key=order.index)
        chosen[beta] = _segment_scan(tree, alpha, beta, scans)[cls]
    return tuple(conjugate(tree.marking_word(k), chosen[k]) if k in chosen
                 else tree.marking_word(k) for k in order)


def prefix_property_holds(tree, basis):
    """Check x-prefix generation: marking slot of position i lies in <y_1..y_i>."""
    order = tree.shape.adapted_order
    for i in range(1, len(basis) + 1):
        core = fold(list(basis[:i]))
        target = tree.marking_word(order[i - 1])
        if not contains(core, target):
            return False
    return True


def _fiber_elements(tree):
    return [sorted(e, key=lambda c: c.pair_index)
            for e in bp_fiber(tree, certify=False).elements]


def _single_classes(tree, scans):
    """Every visible class on every slot pair, one class at a time."""
    order = tree.shape.adapted_order
    singles = []
    for r, s in itertools.combinations(order, 2):
        for cls in sorted(_segment_scan(tree, r, s, scans), key=str):
            if is_visible(tree, cls):
                singles.append([cls])
    return singles


def test_standard_certificates_equal_the_segment_scan():
    """In standard markings the core-path read gives the scanned conjugator,
    on every fiber element and every single class of the rank 2-5 fixtures."""
    scans = {}
    checked = 0
    for n in range(2, 6):
        for shape in enumerate_shapes(n):
            tree = MarkedTree(shape, standard_marking(n))
            for classes in _fiber_elements(tree) + _single_classes(tree, scans):
                assert certify_partial_basis(tree, classes) == \
                    _reference_certificate(tree, classes, scans), (tree, classes)
                checked += 1
    assert checked == 2741 + 7264  # fiber elements + single classes


def test_random_marking_certificates_check():
    """In non-standard markings each basis passes is_basis, keeps the prefix
    property and holds a representative of every class it certifies."""
    rng = random.Random(38)
    shapes = {n: enumerate_shapes(n, up_to_relabeling=True) for n in (4, 5, 6)}
    scans = {}
    checked = 0
    while checked < 100:
        n = rng.choice([4, 5, 6])
        shape = shapes[n][rng.randrange(len(shapes[n]))]
        perm = rng.sample(range(1, n + 1), n)
        shape = TreeShape(n, tuple(s and perm[s - 1] for s in shape.slot_of), shape.edges)
        tree = MarkedTree(shape, _random_marking(rng, n))
        if tree.standard:
            continue
        elements = _fiber_elements(tree) + _single_classes(tree, scans)
        for classes in elements:
            basis = certify_partial_basis(tree, classes)
            assert is_basis(list(basis))
            assert prefix_property_holds(tree, basis)
            built = {canonical_class(W2Factor(a, b)) for a, b in itertools.combinations(basis, 2)}
            assert set(classes) <= built, (tree, classes)
        checked += 1


def _certificate_lines(tree, scans):
    """The letters of the certificate of every fiber element and single class."""
    return [repr(tuple(w.letters for w in certify_partial_basis(tree, classes)))
            for classes in _fiber_elements(tree) + _single_classes(tree, scans)]


RANDOM_CERTIFICATE_DIGEST = "6fa88439cbc448c9404d8b25ac63c7ce56a00ec86d32c63afd2df97e744c806a"


def test_random_marking_certificates_are_pinned():
    """The certificates of every fiber element and single class of the 20
    seeded non-standard markings, letter for letter; the standard markings
    are pinned by test_standard_certificates_equal_the_segment_scan."""
    scans = {}
    lines = [line for tree in _pinned_trees("random") for line in _certificate_lines(tree, scans)]
    assert _class_digest(lines) == RANDOM_CERTIFICATE_DIGEST


def test_certify_empty_returns_adapted_basis():
    t = caterpillar(4)
    assert certify_partial_basis(t, []) == tuple(generators(4))


def test_certify_standard_class():
    t = caterpillar(4)
    cls = canonical_class(W2Factor(W("x1", 4), W("x2", 4)))
    assert certify_partial_basis(t, [cls]) == tuple(generators(4))


def test_certify_conjugated_class():
    t = caterpillar(4)
    cls = canonical_class(W2Factor(W("x1", 4), conjugate(W("x2", 4), W("x1", 4))))
    basis = certify_partial_basis(t, [cls])
    assert is_basis(list(basis))
    built = {canonical_class(W2Factor(a, b))
             for a, b in itertools.combinations(basis, 2)}
    assert cls in built


def test_certify_prefix_property():
    """Each construction prefix generates the corresponding marking prefix."""
    rng = random.Random(34)
    for _ in range(20):
        n = rng.choice([4, 5])
        shapes = enumerate_shapes(n)
        tree = MarkedTree(shapes[rng.randrange(len(shapes))], standard_marking(n))
        chosen = []
        for i in range(1, n // 2 + 1):
            fam = visible_classes(tree, i).classes
            chosen.append(fam[rng.randrange(len(fam))])
        basis = certify_partial_basis(tree, chosen)
        assert prefix_property_holds(tree, basis)


def test_certify_rejects_invisible():
    t = caterpillar(3)
    cls = canonical_class(W2Factor(W("x1", 3), W("x3.x2.x3", 3)))
    with pytest.raises(CertificationError):
        certify_partial_basis(t, [cls])


def test_certify_checks_visibility_certified_by_another_tree():
    """Only VisibleIn of this very tree object skips the visibility check."""
    t = caterpillar(3)
    cls = canonical_class(W2Factor(W("x1", 3), W("x3.x2.x3", 3)))
    assert not is_visible(t, cls)
    for other in (caterpillar(3, (1, 3, 2)), caterpillar(3)):
        with pytest.raises(CertificationError, match="is not visible"):
            certify_partial_basis(t, [cls.with_certificate(VisibleIn(other))])


def test_certify_checks_the_basis_of_a_trusted_class():
    """A class carrying VisibleIn of this tree skips is_visible, so a forged
    certificate is caught by the final is_basis."""
    t = caterpillar(3)
    cls = CanonicalClass((1, (2, 1), 2), 3, VisibleIn(t))
    assert not is_visible(t, cls)
    with pytest.raises(CertificationError, match="fails the basis check"):
        certify_partial_basis(t, [cls])


def test_certify_rejects_core_collision():
    t = caterpillar(4)
    c1 = canonical_class(W2Factor(W("x1", 4), W("x2", 4)))
    c2 = canonical_class(W2Factor(W("x2", 4), W("x3", 4)))
    with pytest.raises(CertificationError):
        certify_partial_basis(t, [c1, c2])


def test_fiber_of_standard_caterpillar():
    fiber = bp_fiber(caterpillar(4))
    assert fiber.sizes() == (1, 1)
    assert len(fiber.elements) == 3
    sizes = {len(e) for e in fiber.elements}
    assert sizes == {1, 2}


def test_fiber_elements_certify():
    for shape in enumerate_shapes(4)[::5]:
        tree = MarkedTree(shape, standard_marking(4))
        fiber = bp_fiber(tree, certify=True)
        for element in fiber.elements:
            basis = certify_partial_basis(tree, sorted(element, key=lambda c: c.pair_index))
            assert is_basis(list(basis))


def _rank5_tree(sizes):
    return next(tree for tree in (MarkedTree(shape, standard_marking(5))
                                  for shape in enumerate_shapes(5))
                if bp_fiber(tree, certify=False).sizes() == sizes)


def test_bp_fiber_folds_once_per_maximal_selection(monkeypatch):
    """Certification runs is_basis on the maximal selections only: the
    product of the nonempty family sizes, not one per element."""
    tree = _rank5_tree((4, 4))
    calls = []
    real = membership.is_basis
    monkeypatch.setattr(membership, "is_basis", lambda c: calls.append(c) or real(c))
    fiber = bp_fiber(tree, certify=True)
    assert len(fiber.elements) == 24
    assert len(calls) == math.prod(s for s in fiber.sizes() if s) == 16
    monkeypatch.setattr(membership, "is_basis", lambda c: False)
    with pytest.raises(CertificationError, match="fails the basis check"):
        bp_fiber(tree, certify=True)
    assert bp_fiber(tree, certify=False).elements == fiber.elements


def test_bp_fiber_elements_lie_in_certified_selections(monkeypatch):
    certified = []
    real = visibility.certify_partial_basis

    def record(tree, classes):
        certified.append(frozenset(classes))
        return real(tree, classes)

    monkeypatch.setattr(visibility, "certify_partial_basis", record)
    for n in range(2, 6):
        for shape in enumerate_shapes(n)[::7]:
            certified.clear()
            fiber = bp_fiber(MarkedTree(shape, standard_marking(n)), certify=True)
            assert len(certified) == math.prod(s for s in fiber.sizes() if s)
            assert all(any(e <= top for top in certified) for e in fiber.elements)
            assert all(top in fiber.elements for top in certified)


def test_collapse_preserves_visibility():
    for shape in enumerate_shapes(3):
        tree_t = MarkedTree(shape, standard_marking(3))
        classes = visible_classes(tree_t, 1).classes
        m = len(shape.edges)
        for r in range(1, m):
            for subset in itertools.combinations(range(m), r):
                try:
                    smaller = collapse(shape, subset)
                except Exception:
                    continue
                tree_s = MarkedTree(smaller, standard_marking(3))
                for cls in classes:
                    assert is_visible(tree_s, cls)
