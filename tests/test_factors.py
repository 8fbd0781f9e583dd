import itertools
import random

import pytest

from grushko.words import (
    NotInvolutionError, RankMismatchError, Word, conjugate, generator, involution_core, parse,
    random_reduced_word,
)
from grushko.factors import (
    Axiomatic,
    CanonicalClass,
    VisibleIn,
    W2Factor,
    _pair_key,
    canonical_class,
    canonical_pair,
    core_path,
    make_factor,
    parse_class,
    same_class_oracle,
)
from grushko.basis_complex import build_unpaired_radius
from grushko.trees import MarkedTree, caterpillar, enumerate_shapes, standard_marking
from grushko.visibility import visible_classes
from window_search import letters_key, reduce_letters, window_pairs

W = parse


def test_make_factor_validation():
    f = make_factor(W("x1", 4), W("x2", 4))
    assert f.rank == 4
    with pytest.raises(ValueError):
        make_factor(W("x1", 4), W("x1", 4))
    with pytest.raises(ValueError):
        make_factor(W("x1.x2", 4), W("x1", 4))
    with pytest.raises(ValueError):
        make_factor(W("x1", 4), W("x2", 3))


def test_canonical_class_examples():
    same = [
        (make_factor(W("x1", 3), W("x2", 3)), make_factor(W("x1", 3), W("x1.x2.x1", 3))),
        (make_factor(W("x1", 3), W("x3.x2.x3", 3)), make_factor(W("x3.x1.x3", 3), W("x2", 3))),
    ]
    for f, g in same:
        assert canonical_class(f) == canonical_class(g)
    assert canonical_class(make_factor(W("x1", 3), W("x2", 3))) != \
        canonical_class(make_factor(W("x1", 3), W("x3", 3)))


def _involutions(n, max_conj):
    out = []
    def grow(prefix, remaining):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(1, n + 1):
            if not prefix or prefix[-1] != k:
                grow(prefix + [k], remaining - 1)
    words = []
    for glen in range(max_conj + 1):
        out.clear()
        grow([], glen)
        for g in list(out):
            for core in range(1, n + 1):
                w = conjugate(generator(core, n), Word(g, n))
                if len(w) == 2 * glen + 1:
                    words.append(w)
    return sorted(set(words), key=lambda w: w.key())


def _oracle_factors():
    """Factors with |a| + |b| <= 6 at rank 4."""
    invs = _involutions(4, 2)
    return [W2Factor(a, b) for a, b in itertools.combinations(invs, 2)
            if len(a) + len(b) <= 6]


def test_canonical_agrees_with_oracle_exhaustively():
    """Each canonical class is one oracle class, distinct classes separate.

    Exhaustive over factors with |a| + |b| <= 6 at rank 4 against the exact
    oracle; a single disagreement here means the canonical form is unsound
    and the build must fail.
    """
    byclass = {}
    for f in _oracle_factors():
        byclass.setdefault(canonical_class(f), []).append(f)
    for cls, members in byclass.items():
        rep = members[0]
        for other in members[1:]:
            assert same_class_oracle(rep, other), (rep, other)
    reps = [ms[0] for ms in byclass.values()]
    for f, g in itertools.combinations(reps, 2):
        assert not same_class_oracle(f, g), (f, g)


def _random_pairs(count, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, 6)
        a, b = (conjugate(generator(rng.randint(1, n), n),
                          random_reduced_word(rng, n, rng.randrange(0, 3))) for _ in range(2))
        if a != b:
            pairs.append((a, b))
    return pairs


def test_closed_form_matches_window_search():
    """The core-path form equals the window search's _pair_key minimum on
    the oracle test's factor set and on 2,000 seeded random pairs at ranks
    2-6 (same cores and non-primitive products included), in both orders.
    The window search scans both orders itself, so one scan serves both.
    On the same pairs core_path renders to canonical_pair, is the path of
    the canonical class, and does not depend on the order of the pair."""
    pairs = [(f.a, f.b) for f in _oracle_factors()] + _random_pairs(2000, 17)
    for a, b in pairs:
        want = letters_key(min(window_pairs(a, b), key=letters_key))
        assert _pair_key(canonical_pair(a, b)) == want, (a, b)
        assert _pair_key(canonical_pair(b, a)) == want, (b, a)
        for x, y in ((a, b), (b, a)):
            i, v, j = core_path(x, y)
            assert canonical_pair(x, y) == (Word((i,), x.rank),
                                            Word(v + (j,) + v[::-1], x.rank)), (x, y)
            assert canonical_class(W2Factor(x, y)).path == (i, v, j), (x, y)
        assert core_path(a, b) == core_path(b, a), (a, b)
    with pytest.raises(ValueError, match="degenerate factor"):
        canonical_pair(W("x2.x1.x2", 4), W("x2.x1.x2", 4))


def test_core_path_error_contract():
    """a == b is checked first, then that a and then b is an involution,
    then that the ranks agree."""
    with pytest.raises(ValueError, match="degenerate factor"):
        core_path(W("x1.x2", 4), W("x1.x2", 4))
    with pytest.raises(NotInvolutionError, match="x1\\*x2 is not an involution"):
        core_path(W("x1.x2", 4), W("x1", 4))
    with pytest.raises(NotInvolutionError, match="x2\\*x1 is not an involution"):
        core_path(W("x1", 4), W("x2.x1", 4))
    with pytest.raises(NotInvolutionError, match="x1\\*x2 is not an involution"):
        core_path(W("x1.x2", 4), W("x3.x2", 3))
    with pytest.raises(NotInvolutionError, match="x3\\*x2 is not an involution"):
        core_path(W("x1", 4), W("x3.x2", 3))
    for a, b in (("x1", "x2"), ("x1", "x1"), ("x2.x1.x2", "x1.x2.x1")):
        with pytest.raises(RankMismatchError):
            core_path(W(a, 4), W(b, 3))
        with pytest.raises(RankMismatchError):
            core_path(W(b, 3), W(a, 4))


def test_length_bound_keeps_the_full_scan_minimum():
    """The length bound of the core-path argument: with v the reduced p^-1 q
    less one leading x_i and one trailing x_j, no generating pair of the
    class is shorter in sum than 2|v| + 2 -- not the input, not any pair the
    window search scans -- and canonical_pair attains it, in both orders,
    on the oracle test's factor set."""
    for f in _oracle_factors():
        for a, b in ((f.a, f.b), (f.b, f.a)):
            (i, p), (j, q) = involution_core(a), involution_core(b)
            v = reduce_letters(p.letters[::-1] + q.letters)
            v = v[1:] if v[:1] == (i,) else v
            v = v[:-1] if v[-1:] == (j,) else v
            bound = 2 * len(v) + 2
            assert len(a) + len(b) >= bound, (a, b)
            scanned = [len(s) + len(t) for s, t in window_pairs(a, b)]
            assert min(scanned) == bound, (a, b)
            c, d = canonical_pair(a, b)
            assert len(c) + len(d) == bound, (a, b)


def test_canonical_pair_invariances():
    rng = random.Random(13)
    for _ in range(250):
        n = rng.choice([3, 4, 5])
        a = conjugate(generator(rng.randrange(1, n + 1), n),
                      random_reduced_word(rng, n, rng.randrange(0, 4)))
        b = conjugate(generator(rng.randrange(1, n + 1), n),
                      random_reduced_word(rng, n, rng.randrange(0, 4)))
        if a == b:
            continue
        pair = canonical_pair(a, b)
        w = random_reduced_word(rng, n, rng.randrange(0, 4))
        assert canonical_pair(conjugate(a, w), conjugate(b, w)) == pair
        assert canonical_pair(b, a) == pair
        assert canonical_pair(a, conjugate(b, a)) == pair
        assert canonical_pair(conjugate(a, b), b) == pair
        assert canonical_pair(*pair) == pair


def test_canonical_class_keeps_each_certificate():
    """canonical_class attaches no evidence, and a certificate added with
    with_certificate is kept without changing equality or the hash."""
    tree = caterpillar(3)
    plain = canonical_class(W2Factor(W("x1", 3), W("x2", 3)))
    visible = plain.with_certificate(VisibleIn(tree))
    assert plain.certificate == Axiomatic()
    assert visible.certificate == VisibleIn(tree)
    assert plain == visible and hash(plain) == hash(visible)
    assert visible.pair_index == plain.pair_index == 1


def test_pair_index():
    assert canonical_class(W2Factor(W("x1", 4), W("x2", 4))).pair_index == 1
    assert canonical_class(W2Factor(W("x1", 4), W("x3", 4))).pair_index is None
    rng = random.Random(14)
    g = random_reduced_word(rng, 4, 5)
    f = W2Factor(W("x3", 4), conjugate(W("x4", 4), g))
    assert canonical_class(f).pair_index == 2
    # odd rank: the last generator stays unpaired
    assert canonical_class(W2Factor(W("x3", 3), W("x2", 3))).pair_index is None


def test_pair_index_conjugation_invariant():
    rng = random.Random(15)
    for _ in range(100):
        n = 4
        i, j = rng.sample(range(1, 5), 2)
        f = W2Factor(conjugate(generator(i, n), random_reduced_word(rng, n, 2)),
                     conjugate(generator(j, n), random_reduced_word(rng, n, 2)))
        w = random_reduced_word(rng, n, rng.randrange(0, 4))
        g = W2Factor(conjugate(f.a, w), conjugate(f.b, w))
        assert canonical_class(f).pair_index == canonical_class(g).pair_index


def _classes_by_rank():
    """Every visible class of every rank 2-5 fixture tree (each shape in
    standard marking), and the placed classes of two unpaired builds."""
    by_rank = {n: set() for n in range(2, 6)}
    for n in by_rank:
        for shape in enumerate_shapes(n):
            tree = MarkedTree(shape, standard_marking(n))
            for i in range(1, n // 2 + 1):
                by_rank[n].update(visible_classes(tree, i).classes)
    for n, radius in ((3, 3), (4, 1)):
        by_rank[n].update(build_unpaired_radius(n, radius).classes)
    return by_rank


def test_class_key_is_the_pair_order_and_the_path_round_trips():
    """CanonicalClass.key sorts as the canonical pairs' (a.key(), b.key())
    do; a class is rebuilt from its path and rank alone, and renders as its
    own canonical pair."""
    rng = random.Random(16)
    for n, classes in _classes_by_rank().items():
        classes = sorted(classes, key=str)
        rng.shuffle(classes)
        reference = sorted(classes, key=lambda c: (c.a.key(), c.b.key()))
        assert sorted(classes, key=CanonicalClass.key) == reference, n
        for c in classes:
            assert CanonicalClass(c.path, c.rank) == c, c
            assert (c.a, c.b) == canonical_pair(c.a, c.b), c


def test_same_class_oracle_examples():
    f = make_factor(W("x1", 3), W("x2", 3))
    g = make_factor(W("x1", 3), W("x1.x2.x1", 3))
    assert same_class_oracle(f, g)
    assert same_class_oracle(f, f)
    assert same_class_oracle(f, W2Factor(f.b, f.a))
    w = W("x3.x1", 3)
    assert same_class_oracle(f, W2Factor(conjugate(f.a, w), conjugate(f.b, w)))
    assert not same_class_oracle(f, make_factor(W("x1", 3), W("x3", 3)))


def test_class_text_roundtrip():
    cls = canonical_class(W2Factor(W("x1", 4), W("x3.x2.x3", 4)))
    assert str(cls) == "W2[a=x1;b=x3*x2*x3;pair=1]"
    back = parse_class(str(cls), 4)
    assert back == cls and back.pair_index == cls.pair_index
