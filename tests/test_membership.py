import itertools
import random

import pytest

from grushko.words import (
    conjugate,
    generators,
    identity,
    involution_core,
    parse,
    random_reduced_word,
    reduce,
)
from grushko.membership import (
    NotBasisError,
    compose,
    contains,
    fold,
    is_basis,
    make_automorphism,
    read,
    semidirect_embed,
)

W = parse


def test_fold_single_generator():
    core = fold([W("x1", 2)])
    assert core.num_vertices == 1
    assert core.mirrors == [{1}]
    assert core.check_folded()


def test_fold_standard_basis():
    core = fold([W(f"x{j}", 4) for j in range(1, 5)])
    assert core.num_vertices == 1
    assert core.mirrors == [{1, 2, 3, 4}]


def test_fold_conjugated_generator():
    core = fold([W("x1.x2.x1", 2)])
    assert core.num_vertices == 2
    assert core.adj[0] == {1: 1}
    assert core.mirrors == [set(), {2}]
    assert contains(core, W("x1.x2.x1", 2))
    assert not contains(core, W("x2", 2))


def test_contains_products():
    core = fold([W("x1", 3), W("x2", 3)])
    assert contains(core, W("x1.x2.x1", 3))
    assert not contains(core, W("x3", 3))
    assert not contains(core, W("x1.x3.x1", 3))


def test_read_agrees_with_contains():
    core = fold([W("x1.x2.x1", 2)])
    assert read(core, W("x1.x2.x1", 2)) == core.basepoint
    assert read(core, W("x1", 2)) == 1
    assert read(core, W("x1.x2", 2)) == 1  # bounces at the mirror
    assert read(core, W("x2", 2)) is None
    core = fold([W("x1", 3), W("x2", 3)])
    for text in ("x1.x2.x1", "x3", "x1.x3.x1", "x2.x1"):
        w = W(text, 3)
        assert contains(core, w) == (read(core, w) == core.basepoint)
    assert read(core, W("x3", 3)) is None
    assert read(core, W("x1.x2.x3", 3)) is None
    assert read(core, identity(3)) == core.basepoint


def _reduced_words(n, max_len):
    return [reduce(t, n) for length in range(max_len + 1)
            for t in itertools.product(range(1, n + 1), repeat=length)
            if all(a != b for a, b in zip(t, t[1:]))]


def test_last_core_shortcut_is_exact():
    """The completing-basis search skips the last candidate by its coset.

    With n-1 conjugates of distinct generators fixed and x_k the missing
    one, a candidate p x_k p^-1 whose reading of p leaves the core never
    completes a basis, and two candidates whose readings end at one vertex
    give the same answer.
    """
    rng = random.Random(11)
    left, shared = 0, {True: 0, False: 0}
    for n, max_len, trials in ((3, 5, 40), (4, 4, 15), (5, 3, 12)):
        pool = _reduced_words(n, max_len)
        for _ in range(trials):
            x_k = rng.choice(generators(n))
            fixed = [conjugate(x, random_reduced_word(rng, n, rng.randrange(0, 4)))
                     for x in generators(n) if x != x_k]
            core = fold(fixed)
            answer_at = {}
            for w in pool:
                cand = conjugate(x_k, w)
                end = read(core, involution_core(cand)[1])
                ok = is_basis(fixed + [cand])
                if end is None:
                    assert not ok
                    left += 1
                elif end in answer_at:
                    assert answer_at[end] == ok, f"vertex {end} gives both answers"
                    shared[ok] += 1
                else:
                    answer_at[end] = ok
    # both facts are exercised, and shared vertices give both answers
    assert left > 1000 and min(shared.values()) > 100


def test_contains_matches_enumeration():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.choice([2, 3])
        gens = [random_reduced_word(rng, n, rng.randrange(1, 5)) for _ in range(2)]
        core = fold(gens)
        elems = {identity(n)}
        frontier = {identity(n)}
        for _ in range(6):
            frontier = {w * g for w in frontier for g in gens} | \
                       {w * ~g for w in frontier for g in gens}
            elems |= frontier
        for w in elems:
            assert contains(core, w)


def test_fold_confluent():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.choice([3, 4])
        gens = [random_reduced_word(rng, n, rng.randrange(1, 7)) for _ in range(3)]
        o1, o2 = gens[:], gens[:]
        rng.shuffle(o1)
        rng.shuffle(o2)
        assert fold(o1) == fold(o2)


def test_is_basis_examples():
    gens = list(generators(4))
    assert is_basis(gens)
    assert is_basis([W("x1", 4), W("x1.x2.x1", 4), W("x3", 4), W("x4", 4)])
    assert not is_basis([W("x1", 4), W("x1", 4), W("x3", 4), W("x4", 4)])
    with pytest.raises(ValueError):
        is_basis(gens[:3])


def test_is_basis_conjugation_invariant():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice([3, 4])
        tup = [conjugate(g, random_reduced_word(rng, n, rng.randrange(0, 3)))
               for g in generators(n)]
        g = random_reduced_word(rng, n, rng.randrange(0, 4))
        moved = [conjugate(w, g) for w in tup]
        assert is_basis(tup) == is_basis(moved)
        shuffled = tup[:]
        rng.shuffle(shuffled)
        assert is_basis(tup) == is_basis(shuffled)


def test_make_automorphism_inverse():
    phi = make_automorphism([W("x1", 4), W("x1.x2.x1", 4), W("x3", 4), W("x4", 4)])
    assert phi.inverse_images[1] == W("x1.x2.x1", 4)
    ident = make_automorphism(generators(4))
    assert ident(W("x1.x3", 4)) == W("x1.x3", 4)
    swap = make_automorphism([W("x2", 4), W("x1", 4), W("x3", 4), W("x4", 4)])
    assert swap(W("x1.x3", 4)) == W("x2.x3", 4)
    assert compose(swap, swap).images == ident.images
    with pytest.raises(NotBasisError):
        make_automorphism([W("x1", 3), W("x1", 3), W("x3", 3)])


def _random_automorphism(rng, n):
    imgs = list(generators(n))
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            imgs[i] = conjugate(imgs[i], imgs[j])
        k, l = rng.randrange(n), rng.randrange(n)
        imgs[k], imgs[l] = imgs[l], imgs[k]
    return make_automorphism(imgs)


def test_random_automorphism_roundtrips():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.choice([3, 4, 5])
        phi = _random_automorphism(rng, n)
        w = random_reduced_word(rng, n, rng.randrange(0, 8))
        assert compose(phi, phi.inverse())(w) == w
        assert phi.inverse()(phi(w)) == w


def test_semidirect_embed_examples():
    ident3 = make_automorphism(generators(3))
    phi = semidirect_embed((reduce((1, 2), 4),), ident3)
    assert phi.images[3] == W("x2.x1.x4.x1.x2", 4)
    trivial = semidirect_embed((identity(4),), ident3)
    assert trivial.images == generators(4)
    with pytest.raises(ValueError):
        semidirect_embed((W("x4", 4),), ident3)  # not supported on x1..x3


def test_semidirect_embed_is_homomorphism():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.choice([4, 5])
        f3 = _random_automorphism(rng, 3)
        g3 = _random_automorphism(rng, 3)
        u = tuple(reduce(random_reduced_word(rng, 3, 2 * rng.randrange(0, 4)).letters, n)
                  for _ in range(n - 3))
        v = tuple(reduce(random_reduced_word(rng, 3, 2 * rng.randrange(0, 4)).letters, n)
                  for _ in range(n - 3))
        twisted = tuple(u[i] * reduce(f3(reduce(v[i].letters, 3)).letters, n)
                        for i in range(n - 3))
        lhs = compose(semidirect_embed(u, f3), semidirect_embed(v, g3))
        rhs = semidirect_embed(twisted, compose(f3, g3))
        assert lhs.images == rhs.images


def test_semidirect_embed_separates_samples():
    rng = random.Random(10)
    seen = {}
    for _ in range(40):
        f3 = _random_automorphism(rng, 3)
        u = (reduce(random_reduced_word(rng, 3, 2 * rng.randrange(0, 3)).letters, 4),)
        phi = semidirect_embed(u, f3)
        key = tuple(w.letters for w in phi.images)
        if key in seen:
            assert seen[key] == (u, f3.images)
        else:
            seen[key] = (u, f3.images)


def test_core_graph_dot():
    core = fold([W("x1.x2.x1", 2)])
    dot = core.to_dot()
    assert "doublecircle" in dot and "--" in dot
