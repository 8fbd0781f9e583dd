import itertools
import random

import pytest

from grushko.words import (
    RankMismatchError,
    Word,
    _conjugate_letters,
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
    _nielsen,
    compose,
    contains,
    fold,
    is_basis,
    make_automorphism,
    read,
    semidirect_embed,
)
from grushko.factors import core_path, strip
from grushko.basis_complex import _Descent, _retraction_generates

W = parse


def _check_folded(core):
    """No label both bounces and leaves a vertex, and every edge is two-way."""
    for u, nbrs in enumerate(core.adj):
        if set(nbrs) & core.mirrors[u]:
            return False
        for j, v in nbrs.items():
            if core.adj[v].get(j) != u:
                return False
    return True


def test_fold_single_generator():
    core = fold([W("x1", 2)])
    assert core.num_vertices == 1
    assert core.mirrors == [{1}]
    assert _check_folded(core)


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
    assert read(core, W("x1.x2.x1", 2)) == (core.basepoint, ())
    assert read(core, W("x1", 2)) == (1, ())
    assert read(core, W("x1.x2", 2)) == (1, ())  # bounces at the mirror
    assert read(core, W("x2", 2)) == (0, (2,))
    assert read(core, W("x1.x2.x1.x2", 2)) == (0, (2,))
    core = fold([W("x1", 3), W("x2", 3)])
    for text in ("x1.x2.x1", "x3", "x1.x3.x1", "x2.x1", "x3.x1"):
        w = W(text, 3)
        assert contains(core, w) == (read(core, w) == (core.basepoint, ()))
    assert read(core, W("x3", 3)) == (0, (3,))
    assert read(core, W("x1.x2.x3", 3)) == (0, (3,))
    assert read(core, W("x3.x1", 3)) == (0, (3, 1))
    assert read(core, identity(3)) == (core.basepoint, ())


def _reduced_words(n, max_len):
    return [reduce(t, n) for length in range(max_len + 1)
            for t in itertools.product(range(1, n + 1), repeat=length)
            if all(a != b for a, b in zip(t, t[1:]))]


def test_last_core_shortcut_is_exact():
    """The last involution of a basis is decided by its coset.

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
                end, tail = read(core, involution_core(cand)[1])
                ok = is_basis(fixed + [cand])
                if tail:
                    assert not ok
                    left += 1
                elif end in answer_at:
                    assert answer_at[end] == ok, f"vertex {end} gives both answers"
                    shared[ok] += 1
                else:
                    answer_at[end] = ok
    # both facts are exercised, and shared vertices give both answers
    assert left > 1000 and min(shared.values()) > 100


def test_pair_coset_key_is_exact():
    """read names the coset that decides a last-pair placement.

    With H generated by fixed conjugates of distinct generators and a class
    <a, b> on two other cores, <H, w a w^-1, w b w^-1> = W_n depends only
    on the coset Hw, named by the (vertex, tail) that read gives for w on
    the folded core of H, whether or not the reading leaves the core.
    """
    rng = random.Random(23)
    shared = dict.fromkeys(itertools.product((True, False), repeat=2), 0)
    for n, fixed_count, trials in ((3, 1, 60), (4, 2, 40)):
        pool = _reduced_words(n, 3)
        for _ in range(trials):
            cores = rng.sample(generators(n), fixed_count + 2)
            fixed = [conjugate(x, random_reduced_word(rng, n, rng.randrange(0, 4)))
                     for x in cores[:fixed_count]]
            a, b = (conjugate(x, random_reduced_word(rng, n, rng.randrange(0, 3)))
                    for x in cores[fixed_count:])
            core = fold(fixed)
            answer_at = {}
            for w in pool:
                key = read(core, w)
                ok = is_basis(fixed + [conjugate(a, w), conjugate(b, w)])
                if key in answer_at:
                    assert answer_at[key] == ok, f"key {key} gives both answers"
                    shared[ok, bool(key[1])] += 1
                else:
                    answer_at[key] = ok
    # shared keys give both answers, on the core and off it
    assert min(shared.values()) > 50, shared


def test_basis_pairs_pass_the_retraction_test():
    """(f): the class of any two members of a basis passes the retraction
    test on its core path."""
    rng = random.Random(41)
    pairs = 0
    for _ in range(400):
        phi = _random_automorphism(rng, rng.choice([3, 4, 5]))
        for a, b in itertools.combinations(phi.images, 2):
            assert _retraction_generates(core_path(a, b)), (a, b)
            pairs += 1
    assert pairs >= 2000, pairs


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
    # these generate W_n, but a basis is n involutions
    assert fold([W("x1", 2), W("x1.x2", 2)]).mirrors[0] == {1, 2}
    assert not is_basis([W("x1", 2), W("x1.x2", 2)])
    assert not is_basis([W("x1", 3), W("x2", 3), W("x2.x3", 3)])
    with pytest.raises(ValueError):
        is_basis(gens[:3])


def test_is_basis_error_contract():
    """No candidates is not a basis; a wrong count and mixed ranks raise,
    the rank check winning over the involution check; a non-involution
    is not a basis."""
    assert is_basis([]) is False
    with pytest.raises(ValueError, match="expected 3 candidates, got 2"):
        is_basis([W("x1", 3), W("x2", 3)])
    with pytest.raises(ValueError, match="expected 2 candidates, got 3"):
        is_basis([W("x1", 2), W("x2", 2), W("x1", 2)])
    for odd in (W("x3", 4), W("x1.x2", 4), W("x1.x2.x3", 4)):
        with pytest.raises(RankMismatchError, match="generators of mixed rank"):
            is_basis([W("x1", 3), W("x2", 3), odd])
        with pytest.raises(RankMismatchError, match="generators of mixed rank"):
            is_basis([W("x1", 3), odd, W("x1.x2", 3)])
    for bad in (identity(3), W("x1.x2", 3), W("x1.x2.x3.x1", 3)):
        assert is_basis([W("x1", 3), W("x2", 3), bad]) is False
        assert is_basis([bad, W("x2", 3), W("x3", 3)]) is False
    assert is_basis([W("x1", 3), W("x2", 3), W("x1.x3.x1", 3)]) is True


def test_make_automorphism_not_basis_errors():
    """No images, a wrong count, a non-involution (ahead of the rank check)
    and involutions that do not generate raise NotBasisError; involutions
    of mixed rank raise RankMismatchError."""
    for empty in ([], ()):
        with pytest.raises(NotBasisError, match="need n images, got 0"):
            make_automorphism(empty)
    with pytest.raises(NotBasisError, match="need 3 images, got 2"):
        make_automorphism([W("x1", 3), W("x2", 3)])
    for bad in (identity(3), W("x1.x2", 3), W("x1.x2", 4)):
        with pytest.raises(NotBasisError, match="images must be involutions"):
            make_automorphism([W("x1", 3), W("x2", 3), bad])
    with pytest.raises(RankMismatchError, match="images of mixed rank"):
        make_automorphism([W("x1", 3), W("x2", 3), W("x3", 4)])
    for images in ([W("x1", 3), W("x1", 3), W("x3", 3)],
                   [W("x1", 3), W("x2", 3), W("x3.x1.x3", 3)],
                   [W("x1", 3), W("x2", 3), W("x1.x3.x2.x3.x1", 3)],
                   [W("x2.x1.x2", 2), W("x1.x2.x1", 2)]):
        with pytest.raises(NotBasisError, match="images do not generate W_n"):
            make_automorphism(images)
    assert is_basis([W("x1", 3), W("x2", 3), W("x3.x1.x3", 3)]) is False
    assert is_basis([W("x2.x1.x2", 2), W("x1.x2.x1", 2)]) is False


def test_is_basis_reads_the_fold_basepoint():
    """is_basis (the moves (h)) answers as the fold's basepoint does, all n
    mirrors there, on descent bases, on those bases with one member
    conjugated by a random word, and on random involutions."""
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.choice([3, 4, 5])
        i, j = rng.sample(range(1, n + 1), 2)
        kind = rng.randrange(3)
        cands = None
        if kind < 2:
            v = random_reduced_word(rng, n, rng.randrange(0, 6)).letters
            basis = _Descent(n).descend([(i, v, j)])
            cands = None if basis is None else [Word(x, n) for x in basis]
        if cands is None:
            cands = [conjugate(generators(n)[rng.randrange(n)],
                               random_reduced_word(rng, n, rng.randrange(0, 4)))
                     for _ in range(n)]
        elif kind == 1:
            k = rng.randrange(n)
            cands[k] = conjugate(cands[k], random_reduced_word(rng, n, rng.randrange(1, 4)))
        got = is_basis(cands)
        assert got == (len(fold(cands).mirrors[0]) == n), cands
        seen[got] += 1
    assert min(seen.values()) > 50, seen


def _nielsen_scan(ys):
    """The moves (h) by the plain scan, with no fast path: the reference
    for _nielsen's moves, their order and the tuples they leave."""
    moves = []
    moved = True
    while moved:
        moved = False
        for i, yi in enumerate(ys):
            head = yi[:len(yi) // 2 + 1]
            for k, yk in enumerate(ys):
                if len(yk) > len(yi) and yk[:len(head)] == head:
                    ys[k] = _conjugate_letters(yk, yi)
                    moves.append((i, k))
                    moved = True
    return moves


def test_nielsen_matches_the_plain_scan():
    """_nielsen makes the plain scan's moves in its order and leaves the same
    tuples, at ranks 2-5: on descent bases, on those bases with one member
    conjugated by a random word, and on random involutions."""
    rng = random.Random(43)
    descents = {n: _Descent(n) for n in range(2, 6)}
    seen = {"basis": 0, "perturbed": 0, "random": 0, "moves by a generator": 0}
    for _ in range(600):
        n = rng.randint(2, 5)
        kind = rng.choice(["basis", "perturbed", "random"])
        ys = None
        if kind != "random":
            i, j = rng.sample(range(1, n + 1), 2)
            v = random_reduced_word(rng, n, rng.randrange(0, 7)).letters
            basis = descents[n].descend([strip(i, v, j)])
            ys = basis
        if ys is None:
            kind = "random"
            ys = [_conjugate_letters((rng.randint(1, n),),
                                     random_reduced_word(rng, n, rng.randrange(0, 5)).letters)
                  for _ in range(n)]
        elif kind == "perturbed":
            k = rng.randrange(n)
            g = random_reduced_word(rng, n, rng.randint(1, 3)).letters
            ys[k] = _conjugate_letters(ys[k], g)
        start, ref = list(ys), list(ys)
        moves = _nielsen(ys)
        assert (moves, ys) == (_nielsen_scan(ref), ref), start
        seen[kind] += 1
        for i, k in moves:
            seen["moves by a generator"] += len(start[i]) == 1
            start[k] = _conjugate_letters(start[k], start[i])
    assert min(seen.values()) > 100, seen


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


def _random_basis(rng, n, moves=8):
    imgs = list(generators(n))
    for _ in range(moves):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            imgs[i] = conjugate(imgs[i], imgs[j])
        k, l = rng.randrange(n), rng.randrange(n)
        imgs[k], imgs[l] = imgs[l], imgs[k]
    return imgs


def _random_automorphism(rng, n):
    return make_automorphism(_random_basis(rng, n))


def test_nielsen_moves_agree_with_folding():
    """is_basis and make_automorphism (the moves (h)) decide "is a basis"
    as folding does: n involutions whose fold has all n mirrors at the
    basepoint.

    Bases come from random moves and permutations, the other tuples from
    random cores and conjugators of length <= 3 (a few of them bases too).
    """
    rng = random.Random(29)
    answers = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(2, 5)
        if rng.random() < 0.4:
            images = _random_basis(rng, n, rng.randrange(0, 6))
        else:
            images = [conjugate(x, random_reduced_word(rng, n, rng.randrange(0, 4)))
                      for x in rng.choices(generators(n), k=n)]
        ok = (all(y.is_involution for y in images)
              and len(fold(images).mirrors[0]) == n)
        assert is_basis(images) == ok, images
        try:
            phi = make_automorphism(images)
        except NotBasisError:
            assert not ok, images
            answers[False] += 1
            continue
        assert ok, images
        answers[True] += 1
        for _ in range(3):
            w = random_reduced_word(rng, n, rng.randrange(0, 8))
            assert phi.inverse()(phi(w)) == w
        # an involution of a larger rank after the first image, which sets n
        k = rng.randrange(1, n)
        y = images[k].letters
        mixed = list(images)
        mixed[k] = reduce((n + 1,) + y + (n + 1,) if rng.random() < 0.5 else y, n + 1)
        with pytest.raises(RankMismatchError):
            make_automorphism(mixed)
    assert min(answers.values()) >= 400, answers


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
