import random
import re

import pytest
from hypothesis import given, strategies as st

from grushko.words import (
    Word,
    RankMismatchError,
    NotInvolutionError,
    conjugate,
    generator,
    generators,
    identity,
    involution_core,
    parse,
    random_reduced_word,
    reduce,
)
from window_search import cyclic_reduce


def naive_reduce(letters, rank):
    """Independent oracle: rewrite adjacent equal pairs until none remain."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == letters[i + 1]:
                del letters[i:i + 2]
                changed = True
                break
    return Word(tuple(letters), rank)


def test_reduce_examples():
    assert reduce([1, 1], 4) == identity(4)
    assert reduce([1, 2, 2, 3], 4) == parse("x1.x3", 4)
    assert reduce([], 4) == identity(4)
    with pytest.raises(ValueError):
        reduce([5], 4)


def test_public_constructor_validates():
    with pytest.raises(ValueError):
        Word((1, 1), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)


def _assert_trusted(w, rank, letters):
    """w is reduced, in range, equal to the validated Word and to naive_reduce."""
    validated = Word(w.letters, w.rank)
    assert w.rank == rank
    assert w == validated and hash(w) == hash(validated)
    assert w == naive_reduce(letters, rank)


@given(st.data())
def test_word_operations_return_valid_words(data):
    n = data.draw(st.integers(2, 5))
    letters = st.lists(st.integers(1, n), max_size=12)
    a, g = (reduce(data.draw(letters), n) for _ in range(2))
    _assert_trusted(a * g, n, a.letters + g.letters)
    _assert_trusted(~a, n, a.letters[::-1])
    _assert_trusted(conjugate(a, g), n, g.letters + a.letters + g.letters[::-1])
    raw = data.draw(letters)
    _assert_trusted(reduce(raw, n), n, raw)
    j = data.draw(st.integers(1, n))
    inv = conjugate(generator(j, n), g)
    k, u = involution_core(inv)
    _assert_trusted(u, n, u.letters)
    assert naive_reduce(u.letters + (k,) + u.letters[::-1], n) == inv


def test_reduce_matches_stack_oracle():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.choice([2, 3, 4])
        letters = [rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 21))]
        assert reduce(letters, n) == naive_reduce(letters, n)


def test_multiply_examples():
    assert parse("x1.x2", 3) * parse("x2.x1", 3) == identity(3)
    assert parse("x1.x2", 3) * parse("x3", 3) == parse("x1.x2.x3", 3)
    with pytest.raises(RankMismatchError):
        parse("x1", 2) * parse("x1", 3)


letters_strategy = st.lists(st.integers(1, 4), max_size=12)


@given(letters_strategy, letters_strategy, letters_strategy)
def test_multiply_associative(a, b, c):
    wa, wb, wc = (reduce(x, 4) for x in (a, b, c))
    assert (wa * wb) * wc == wa * (wb * wc)
    assert wa * identity(4) == wa
    assert identity(4) * wa == wa


@given(letters_strategy)
def test_inverse_property(a):
    w = reduce(a, 4)
    assert w * ~w == identity(4)
    assert ~~w == w


def test_invert_examples():
    assert ~parse("x1.x2.x3", 3) == parse("x3.x2.x1", 3)
    assert ~identity(3) == identity(3)


def test_conjugate_examples():
    assert conjugate(parse("x2", 3), parse("x1", 3)) == parse("x1.x2.x1", 3)
    w = parse("x1.x3.x2", 3)
    assert conjugate(w, identity(3)) == w


@given(letters_strategy, letters_strategy)
def test_conjugate_inverts(a, g):
    wa, wg = reduce(a, 4), reduce(g, 4)
    assert conjugate(conjugate(wa, wg), ~wg) == wa


def test_involution_criteria():
    assert parse("x1", 3).is_involution
    assert involution_core(parse("x1", 3)) == (1, identity(3))
    assert parse("x1.x2.x1", 3).is_involution
    assert involution_core(parse("x1.x2.x1", 3)) == (2, parse("x1", 3))
    assert not parse("x1.x2", 3).is_involution
    assert not identity(3).is_involution
    with pytest.raises(NotInvolutionError):
        involution_core(parse("x1.x2", 3))


@given(letters_strategy)
def test_involution_iff_squares_to_identity(a):
    w = reduce(a, 4)
    squared = w * w
    assert w.is_involution == (bool(w) and squared == identity(4))


def test_cyclic_reduce():
    """The cyclic reduction of the window-search reference in window_search."""
    core, conj = cyclic_reduce(parse("x1.x2.x1", 3).letters)
    assert core == parse("x2", 3).letters and conj == parse("x1", 3).letters
    core, conj = cyclic_reduce(parse("x1.x2.x3", 3).letters)
    assert core == parse("x1.x2.x3", 3).letters and conj == identity(3).letters


@given(letters_strategy)
def test_cyclic_reduce_reassembles(a):
    w = reduce(a, 4)
    core, conj = cyclic_reduce(w.letters)
    assert conjugate(Word(core, 4), Word(conj, 4)) == w
    if len(core) > 1:
        assert core[0] != core[-1]


def test_parse_print_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        w = random_reduced_word(rng, 5, rng.randrange(0, 9))
        assert parse(str(w), 5) == w
    assert parse("1 2 1", 4) == parse("x1.x2.x1", 4) == parse("x1*x2*x1", 4)
    assert str(identity(4)) == "ε"
    assert parse("ε", 4) == identity(4)


@pytest.mark.parametrize("text, token", [("x1 x-2", "x-2"), ("x0.x1", "x0"), ("-1", "-1"),
                                         ("x1*x+2", "x+2")])
def test_parse_blames_the_token_not_the_rank(text, token):
    for rank in (1, 3):
        with pytest.raises(ValueError, match=re.escape(f"bad generator token '{token}' in '{text}'")):
            parse(text, rank)
    # a well-formed letter above the rank keeps the range message
    with pytest.raises(ValueError, match="letter 4 out of range for rank 3"):
        parse("x1 x4", 3)


def test_length_parity_is_additive_mod_2():
    rng = random.Random(2)
    for _ in range(100):
        a = random_reduced_word(rng, 3, rng.randrange(0, 8))
        b = random_reduced_word(rng, 3, rng.randrange(0, 8))
        assert (len(a * b) - len(a) - len(b)) % 2 == 0
        assert len(a * b) <= len(a) + len(b)
        # per-generator letter counts are homomorphisms to Z/2
        for j in (1, 2, 3):
            ca = a.letters.count(j)
            cb = b.letters.count(j)
            assert ((a * b).letters.count(j) - ca - cb) % 2 == 0


def test_generators():
    gens = generators(3)
    assert [str(g) for g in gens] == ["x1", "x2", "x3"]
    assert generator(2, 3) == gens[1]
