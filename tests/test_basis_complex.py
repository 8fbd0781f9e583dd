import functools
import hashlib
import itertools
import json
import random

import pytest

from grushko.words import (
    Word,
    _conjugate_letters,
    conjugate,
    generator,
    generators,
    identity,
    parse,
    random_reduced_word,
    reduce,
)
from grushko.factors import (
    W2Factor,
    canonical_class,
    core_path,
    parse_class,
    path_text,
    same_class_oracle,
    strip,
)
from grushko.membership import is_basis
from grushko.topology import betti, components
from grushko.visibility import CertificationError
from grushko.trees import MarkedTree, caterpillar, collapse, enumerate_shapes, standard_marking

from grushko import basis_complex, membership
from grushko.basis_complex import (
    ConnectivityReport,
    PartialBasisComplex,
    _Descent,
    _core_paths,
    _move,
    build_from_trees,
    build_unpaired_radius,
    connectivity_report,
    rank3_isolated_family,
)
from grushko.factors import CompletingBasis, VisibleIn

W = parse


@functools.cache
def _unpaired(n, radius):
    return build_unpaired_radius(n, radius)


def _reduced_words_upto(n, max_len):
    out = [identity(n)]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for letters in frontier:
            for k in range(1, n + 1):
                if not letters or letters[-1] != k:
                    nxt.append(letters + (k,))
        out.extend(Word(l, n) for l in nxt)
        frontier = nxt
    return out


def _plain_unpaired(n, radius):
    """The unpaired build as a plain search, with no shortcut.

    Every (g, h) pair is classified, and every pool conjugator is tried at
    every core that is left.
    """
    conjs = _reduced_words_upto(n, radius)
    pool = _reduced_words_upto(n, radius + 2)

    def complete(fixed, cores):
        if not cores:
            return tuple(fixed) if is_basis(list(fixed)) else None
        for w in pool:
            got = complete(fixed + [conjugate(generator(cores[0], n), w)], cores[1:])
            if got is not None:
                return got
        return None

    def cores_left(pairs):
        return [k for k in range(1, n + 1) if not any(k in p for p in pairs)]

    def joint(combo, fixed):
        if len(fixed) == 2 * len(combo):
            return complete(fixed, cores_left([core_of[c] for c in combo]))
        cls = combo[len(fixed) // 2]
        for w in pool if fixed else [identity(n)]:
            got = joint(combo, fixed + [conjugate(cls.a, w), conjugate(cls.b, w)])
            if got is not None:
                return got
        return None

    core_of = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for g in conjs:
            for h in conjs:
                f = W2Factor(conjugate(generator(i, n), g), conjugate(generator(j, n), h))
                core_of.setdefault(canonical_class(f), (i, j))
    certified, uncertified = [], []
    for cls, pair in core_of.items():
        basis = complete([cls.a, cls.b], cores_left([pair]))
        if basis is None:
            uncertified.append(str(cls))
        else:
            certified.append(cls.with_certificate(CompletingBasis(basis)))
    elements = {frozenset([c]) for c in certified}
    for size in range(2, n // 2 + 1):
        for combo in itertools.combinations(certified, size):
            if len(cores_left([core_of[c] for c in combo])) == n - 2 * size \
                    and joint(combo, []) is not None:
                elements.update(frozenset(sub) for k in range(2, size + 1)
                                for sub in itertools.combinations(combo, k))
    params = {"radius": radius, "pool_len": radius + 2, "uncertified": sorted(uncertified)}
    key = lambda c: (c.a.key(), c.b.key())
    return PartialBasisComplex(
        n, False, params, sorted(certified, key=key),
        sorted(elements, key=lambda e: sorted(key(c) for c in e)))


@pytest.mark.parametrize("n,radius", [(3, 2), (4, 1), (5, 0)])
def test_unpaired_build_matches_plain_search(n, radius):
    sub, ref = _unpaired(n, radius), _plain_unpaired(n, radius)
    assert sub.classes == ref.classes
    assert sub.elements == ref.elements
    assert sub.params["uncertified"] == ref.params["uncertified"]
    for cls in sub.classes:
        basis = cls.certificate.basis
        assert cls.a in basis and cls.b in basis and is_basis(list(basis))


UNPAIRED_DIGESTS = [
    ((3, 0), "136372ebc910896736a7d915180acf8d895b4eaa4975d03d5f6fa4a516f2a2d1",
     "a1bed30a908633c83edcaeb4551e06dc339262415d5e85ecda33d0fee7a7470c"),
    ((3, 1), "cd45775a7406f6c1bf969c9653da03cdd4b8e9066ffafb7eb426bc8e73e8aa56",
     "60352ff32178ca9c53d385cecf3987b88ff801807a0a7c56594423aa11bb65eb"),
    ((3, 2), "8398344b663a18233419a9f7d84643d3e794eeaed8dfb94334cb68de53d317a1",
     "0258a3e41c15cfb7ae520f5921f00f71546618e1ebcce14830b01f2078609886"),
    ((3, 3), "06a9108ea1aec1fa41ece207f5c70a862b6016c859886d4b8bb09b19ed5edc00",
     "5fb0ccf2539e0809832c75f8c1d4495812dfb782b994e82894f4c64f03d01fbe"),
    ((3, 4), "73a72effaa74b54161f0debbaf4d1695381ee1dd9f39686bc2f98e3daadca7b1",
     "52edd2da63709c667162eaa33e69ba4c86d9e30abbe5a13cc163e6c80f885b21"),
    ((4, 0), "4d12b4c57799e9903a4b05b59028da6646c0764947b0bef5848995603628748a",
     "92cc74158b13f645705253854022aa1a76170038c655f9b68662bcee1e4b297d"),
    ((4, 1), "2f082da1b3e78e0f1ba672b34b0c5b17d49730e9e8c20aec966c86f0e6e0500b",
     "952c41c02e0f94b1a274a93e315c44e0f13b2ddb3f35640b4d8b8bb533f2acde"),
    ((4, 2), "707536551c1e841f46133df299075468bc505ee6d387608459267a4a723ac49b",
     "dbb1e7b0d0de01e7f1481db348df2f1fcfeaf255ada3e1ecf350be1e419f5679"),
    ((5, 0), "7d1ed01551fcaec716596107b090340cbf5e2e80838cd7755405cd2ddad86343",
     "5f7f85384dc291f9b9439abdf637cd7ca5d09b356f99c81ba1aedd8d7e327845"),
    ((5, 1), "38a17c0822e1fef9253768da53ef4fd909587fbc2f50e6d5299e7bd5fcbfe5f4",
     "66a12aec51eb94e253ed9e02957c67e606fa76b0f6fa7ff62816641f2fa313d2"),
]


@pytest.mark.parametrize("build, complex_digest, report_digest", UNPAIRED_DIGESTS)
def test_unpaired_output_is_pinned(build, complex_digest, report_digest):
    """The unpaired build's JSON and its report's JSON, byte for byte: its
    classes, their order and text, the elements and the params."""
    sub = _unpaired(*build)
    assert hashlib.sha256(sub.to_json().encode()).hexdigest() == complex_digest
    assert hashlib.sha256(connectivity_report(sub).to_json().encode()).hexdigest() \
        == report_digest


# sha256 of the JSON list of every class's completing-basis letters, in the
# build's class order; to_json carries no certificates
CERTIFICATE_DIGESTS = {
    (3, 0): "cbcba35f38a85b5f68f9cc17578a27ce82e03bb1da6c0d1d17e3476a4d41229a",
    (3, 1): "a41f6f78103286d9cadda6d38767d9cf6e87c39d723d72272aa131515744ec96",
    (3, 2): "b32e6c4fc430635b94283914082592bec34bc7fccd98254a3d92fbc263082dd4",
    (3, 3): "237948ffdce4717dc9e0db23984cfaa932f32a5a3355f4fdd216247e3abe0060",
    (3, 4): "403e74f50e0a5906cb7e2fc0b3cf901236de73029ad26df75c29fbd0e25a9230",
    (4, 0): "3a4dfb6857a34cdecffffa56005a1def6f879bc9d662c4eb73d217d26e2d2462",
    (4, 1): "2f11d742b2bbd4db0ca3f54fda49e3eab0930e5c0a4390dfe28877afc4d629bf",
    (4, 2): "d2d35b6bf7f99ff4b711f3ccd36a73c284f9b311d6ebb12966bdb68e1441012f",
    (5, 0): "fc6a5b8c0dc03b1ed36456d02c0d229c03487d41355cb79039b14b23e8834a12",
    (5, 1): "3a6912392e3428cd638527b08e773d315888b3084104d449c647b01557157f24",
}


@pytest.mark.parametrize("build", [b for b, _, _ in UNPAIRED_DIGESTS], ids="{0[0]}-{0[1]}".format)
def test_unpaired_certificates_are_pinned(build):
    """The letters of every class's completing basis, member by member."""
    letters = [[list(w.letters) for w in c.certificate.basis] for c in _unpaired(*build).classes]
    assert hashlib.sha256(json.dumps(letters).encode()).hexdigest() == CERTIFICATE_DIGESTS[build]


def _perturb_descents(monkeypatch, perturb):
    """Pass every basis that descent returns through perturb(system, basis)."""
    descend = basis_complex._Descent.descend

    def patched(self, system):
        basis = descend(self, system)
        return None if basis is None else perturb(system, basis)

    monkeypatch.setattr(basis_complex._Descent, "descend", patched)


def test_build_refuses_a_class_basis_off_its_class(monkeypatch):
    """A single-class basis with member j conjugated by a generator off the
    cores i and j does not conjugate onto <x_i, v x_j v^-1>."""
    def perturb(system, basis):
        if len(system) == 1:
            (i, _, j), = system
            k = min(set(range(1, len(basis) + 1)) - {i, j})
            basis[j - 1] = _conjugate_letters(basis[j - 1], (k,))
        return basis

    _perturb_descents(monkeypatch, perturb)
    with pytest.raises(CertificationError, match="does not conjugate onto"):
        build_unpaired_radius(3, 0)


def test_build_refuses_a_combination_basis_that_is_no_basis(monkeypatch):
    """A combination's basis whose free member repeats a paired one still
    holds every path of the system, but it is no basis."""
    def perturb(system, basis):
        if len(system) > 1:
            paired = {c for i, _, j in system for c in (i, j)}
            free = min(set(range(1, len(basis) + 1)) - paired)
            basis[free - 1] = basis[system[0][0] - 1]
        return basis

    _perturb_descents(monkeypatch, perturb)
    with pytest.raises(CertificationError, match="does not hold"):
        build_unpaired_radius(5, 0)


def test_build_refuses_a_combination_basis_on_the_wrong_paths(monkeypatch):
    """A combination's basis in reverse order is a basis, but its members
    i and j hold another class."""
    _perturb_descents(monkeypatch,
                      lambda system, basis: basis[::-1] if len(system) > 1 else basis)
    with pytest.raises(CertificationError, match="does not hold"):
        build_unpaired_radius(4, 0)


FIXTURE_DIGESTS = [
    (3, "e3ab3dbc864206acadbce5cd27f3aea33fe97548bd2332b35694951137c91ed5",
     "eca3fdfaf3793c1aaf0dd841d923fafa8a4c6e8704118e54c933dfd5b6facdfe"),
    (4, "79245303881e7d529ccccc9867c9b3b44e8cec730903ac5b19d580bee143a725",
     "992fb20166c77a06d5acdb30337f681ef24fd3712ee7c2c8bb03a50d5652d2e1"),
]


@pytest.mark.parametrize("n, complex_digest, report_digest", FIXTURE_DIGESTS)
def test_fixture_tree_output_is_pinned(n, complex_digest, report_digest):
    """build_from_trees over every rank-n shape in standard marking: its JSON
    (classes in CanonicalClass order, their text, the elements) and its
    report's JSON, byte for byte."""
    trees = [MarkedTree(shape, standard_marking(n)) for shape in enumerate_shapes(n)]
    sub = build_from_trees(trees)
    assert hashlib.sha256(sub.to_json().encode()).hexdigest() == complex_digest
    assert hashlib.sha256(connectivity_report(sub).to_json().encode()).hexdigest() \
        == report_digest


@pytest.mark.parametrize("n,radius,uncertified,skipped", [(4, 1, 6, 6), (3, 2, 33, 30)])
def test_retraction_test_skips_uncertified_classes(monkeypatch, n, radius, uncertified,
                                                   skipped):
    """(f) spares the descent of most uncertified classes, and of no
    certified one."""
    searched = []
    descend = basis_complex._Descent.descend

    def record(self, system):
        if len(system) == 1:
            searched.append(system[0])
        return descend(self, system)

    monkeypatch.setattr(basis_complex._Descent, "descend", record)
    sub = build_unpaired_radius(n, radius)
    assert len(sub.params["uncertified"]) == uncertified
    assert {c.path for c in sub.classes} <= set(searched)
    assert len(searched) == len(sub.classes) + uncertified - skipped


def _relabeled(cls, images):
    """The class of cls under the permutation x_k -> x_images[k-1] of the
    generators, an automorphism of W_n, read off the relabeled Words."""
    def move(w):
        return Word(tuple(images[x - 1] for x in w.letters), cls.rank)
    return canonical_class(W2Factor(move(cls.a), move(cls.b)))


@pytest.mark.parametrize("n,radius", [(4, 2), (5, 1)])
def test_unpaired_output_is_closed_under_relabeling(n, radius):
    """Relabeling the core paths of every element by (1 2) or by (1 2 ... n),
    which generate S_n, gives an element again: placement is invariant there."""
    sub = _unpaired(n, radius)
    elements = {frozenset(c.path for c in e) for e in sub.elements}
    for images in ((2, 1) + tuple(range(3, n + 1)), tuple(range(2, n + 1)) + (1,)):
        image = {c.path: _relabeled(c, images).path for c in sub.classes}
        assert set(image.values()) == set(image)
        assert {frozenset(image[p] for p in e) for e in elements} == elements


@pytest.mark.parametrize("n,radius,unplaced", [(4, 1, 24), (3, 2, 0), (5, 0, 0)])
def test_unplaced_combinations_are_counted(n, radius, unplaced):
    assert _unpaired(n, radius).params["unplaced"] == unplaced


@pytest.mark.parametrize("n,radius", [(3, 3), (4, 1)])
def test_core_paths_are_the_classes_of_the_word_route(n, radius):
    """_core_paths yields each class <x_i, v x_j v^-1>, over every reduced v
    with |v| <= 2 radius, once, as its canonical path, ordered by (i, j),
    |v| and letters; and each path's text is that of its class."""
    paths = list(_core_paths(n, 2 * radius))
    words = _reduced_words_upto(n, 2 * radius)
    classes = {canonical_class(W2Factor(generator(i, n), conjugate(generator(j, n), v)))
               for i, j in itertools.combinations(range(1, n + 1), 2) for v in words}
    assert len(paths) == len(classes)
    assert set(paths) == {c.path for c in classes}
    assert paths == sorted(paths, key=lambda p: (p[0], p[2], len(p[1]), p[1]))
    for i, v, j in paths:
        cls = canonical_class(W2Factor(generator(i, n), conjugate(generator(j, n), Word(v, n))))
        pair = "none" if cls.pair_index is None else cls.pair_index
        assert path_text((i, v, j), n) == str(cls) == f"W2[a={cls.a};b={cls.b};pair={pair}]"


def _holds(letters, system):
    """The letter tuples are a basis whose members i and j generate each
    class (i, v, j)."""
    n = len(letters)
    basis = [Word(x, n) for x in letters]
    return is_basis(basis) and all(
        canonical_class(W2Factor(basis[i - 1], basis[j - 1]))
        == canonical_class(W2Factor(generator(i, n), conjugate(generator(j, n), Word(v, n))))
        for i, v, j in system)


def test_descent_places_the_missed_joint_element():
    """A two-class partial basis at (4, 2) that a pool search over
    conjugators of length <= 4 does not place."""
    texts = ["W2[a=x1;b=x3*x4*x2*x3*x2*x3*x2*x4*x3;pair=1]", "W2[a=x3;b=x4*x2*x4*x2*x4;pair=2]"]
    system = [parse_class(t, 4).path for t in texts]
    assert system == [(1, (3, 4, 2, 3), 2), (3, (4, 2), 4)]
    basis = _Descent(4).descend(system)
    assert basis is not None and _holds(basis, system)
    assert basis == _descend_plain(4, system)


def _descend_plain(n, system):
    """Descent with every move recomputed and no memo: the reference for
    the move table and the fates."""
    moves = []
    cost = sum(len(v) for _, v, _ in system)
    while cost:
        for m, k in itertools.permutations(range(1, n + 1), 2):
            moved = [_move(p, m, k) for p in system]
            lower = sum(len(v) for _, v, _ in moved)
            if lower < cost:
                break
        else:
            return None
        system, cost = moved, lower
        moves.append((m, k))
    basis = [(j,) for j in range(1, n + 1)]
    for m, k in moves:
        basis[k - 1] = _conjugate_letters(basis[k - 1], basis[m - 1])
    return basis


def _random_path(rng, n, i, j, length):
    return strip(i, random_reduced_word(rng, n, length).letters, j)


def test_move_equals_the_image_reduced_letter_by_letter():
    """_move drops each x_m x_m of x_m^[i=k] s(v) x_m^[j=k] once; a full
    push/pop reduction of that word gives the same path."""
    rng = random.Random(37)
    for _ in range(500):
        n = rng.choice([3, 4, 5])
        i, j = rng.sample(range(1, n + 1), 2)
        path = _random_path(rng, n, i, j, rng.randrange(0, 12))
        for m, k in itertools.permutations(range(1, n + 1), 2):
            image = [m] * (i == k) + [b for a in path[1] for b in ((m, k, m) if a == k else (a,))] \
                + [m] * (j == k)
            assert _move(path, m, k) == strip(i, reduce(image, n).letters, j), (path, m, k)


def test_descent_bases_check():
    """Whenever descent returns a basis, it holds every class of the system,
    and reading the moves and fates from one descent shared by all systems
    of a rank gives the same basis, or None, as recomputing every move.

    Systems are images of standard ones under random products of partial
    conjugations, and random systems that need not be partial bases.
    """
    rng = random.Random(29)
    descents = {n: _Descent(n) for n in (3, 4, 5)}
    placed = {True: 0, False: 0}
    for _ in range(300):
        n = rng.choice([3, 4, 5])
        cores = rng.sample(range(1, n + 1), 2 * rng.randint(1, n // 2))
        pairs = list(zip(cores[::2], cores[1::2]))
        images = list(generators(n))
        for _ in range(rng.randrange(1, 7)):
            m, k = rng.sample(range(1, n + 1), 2)
            images[k - 1] = conjugate(images[k - 1], images[m - 1])
        image = rng.random() < 0.5
        if image:
            system = [canonical_class(W2Factor(images[i - 1], images[j - 1])).path
                      for i, j in pairs]
        else:
            system = [_random_path(rng, n, i, j, rng.randrange(0, 8)) for i, j in pairs]
        basis = descents[n].descend(system)
        assert basis == _descend_plain(n, system), system
        if basis is not None:
            assert _holds(basis, system), system
            placed[image] += 1
    assert placed[True] > 100 and placed[False] > 10, placed


def test_descent_expands_each_system_once(monkeypatch):
    """At (4, 1) the 36 pair descents visit 55 systems, only 45 of them
    distinct; with the fates, each is expanded at most once, and the
    standard pairing (cost 0) is never expanded."""
    expanded = []
    step = basis_complex._Descent._step

    def record(self, system, cost):
        expanded.append(system)
        return step(self, system, cost)

    monkeypatch.setattr(basis_complex._Descent, "_step", record)
    build_unpaired_radius(4, 1)
    assert len(expanded) == len(set(expanded))
    assert sum(len(system) == 2 for system in expanded) == 45


def _on_representative(system):
    """The pair of paths lies on the mask pair ({1,2},{3,4})."""
    return sorted({i, j} for i, _, j in system) == [{1, 2}, {3, 4}]


def _record_descents(monkeypatch, n, radius, refuse=lambda system: False):
    """Build (n, radius) with descent failing on the pair systems refuse
    picks; the build and every pair system descended, as (sorted paths, placed)."""
    descend = basis_complex._Descent.descend
    calls = []

    def patched(self, system):
        basis = None if refuse(tuple(sorted(system))) else descend(self, system)
        if len(system) == 2:
            calls.append((tuple(sorted(system)), basis is not None))
        return basis

    with monkeypatch.context() as m:
        m.setattr(basis_complex._Descent, "descend", patched)
        return build_unpaired_radius(n, radius), calls


def _stabilizer_orbit(system):
    """The images of a pair of paths under the 8 permutations that fix the
    mask pair ({1,2},{3,4}), relabeled through Words."""
    n = 4
    cls = [canonical_class(W2Factor(generator(i, n), conjugate(generator(j, n), Word(v, n))))
           for i, v, j in system]
    orbit = set()
    for low, high in itertools.product(((1, 2), (2, 1)), ((3, 4), (4, 3))):
        for images in (low + high, high + low):
            orbit.add(tuple(sorted(_relabeled(c, images).path for c in cls)))
    return orbit


def test_descent_runs_on_the_representative_and_the_fallback(monkeypatch):
    """At (4, 1) pairs are descended on the representative ({1,2},{3,4})
    until the stabilizer closure places them, and elsewhere only where the
    preimage on the representative is unplaced: the 8 unplaced
    representative pairs and their 16 images, none of which descent places."""
    sub, calls = _record_descents(monkeypatch, 4, 1)
    on_rep = [placed for system, placed in calls if _on_representative(system)]
    off_rep = [placed for system, placed in calls if not _on_representative(system)]
    assert (len(on_rep), sum(on_rep), len(off_rep), sum(off_rep)) == (20, 12, 16, 0)
    assert sub.params["unplaced"] == 24


def test_stabilizer_closure_places_a_refused_representative_pair(monkeypatch):
    """Descent refuses one placed representative pair whose stabilizer
    orbit has other members: a later member's closure places it, no pair
    off the representative is descended for it, and the output is unchanged."""
    _, calls = _record_descents(monkeypatch, 4, 1)
    refused = next(system for system, placed in calls if placed and
                   _on_representative(system) and len(_stabilizer_orbit(system)) > 1)
    sub, sabotaged = _record_descents(monkeypatch, 4, 1, lambda system: system == refused)
    assert (refused, False) in sabotaged
    assert [c for c in sabotaged if not _on_representative(c[0])] \
        == [c for c in calls if not _on_representative(c[0])]
    assert sub.to_json() == _unpaired(4, 1).to_json()


def test_fallback_places_an_orbit_refused_on_the_representative(monkeypatch):
    """Descent refuses a whole stabilizer orbit on the representative: the
    fallback descends an image of it on another mask pair, places it, and
    carries its orbit back, so the output is unchanged."""
    _, calls = _record_descents(monkeypatch, 4, 1)
    orbit = next(_stabilizer_orbit(system) for system, placed in calls
                 if placed and len(_stabilizer_orbit(system)) > 1)
    sub, sabotaged = _record_descents(monkeypatch, 4, 1, lambda system: system in orbit)
    assert any(placed for system, placed in sabotaged if not _on_representative(system))
    assert sub.to_json() == _unpaired(4, 1).to_json()


# Nielsen runs per build: one per basis descent returns for a pair
NIELSEN_RUNS = {(4, 0): 1, (4, 1): 12, (4, 2): 173, (5, 0): 1, (5, 1): 40}


@pytest.mark.parametrize("n,radius", NIELSEN_RUNS)
def test_every_placed_pair_is_checked_and_rechecks(monkeypatch, n, radius):
    """The Nielsen test runs once on each basis that descent places a pair
    with, and on no carried one.  Each pair element's basis, descended or
    carried, goes through the build's path check once; is_basis on Words
    and core_path of its members agree with the build on every one of them."""
    nielsen, placing, checked = [], [], []
    is_basis_letters = membership._is_basis_letters
    descend = basis_complex._Descent.descend
    holds = basis_complex._basis_holds

    def count(ys):
        nielsen.append(ys)
        return is_basis_letters(ys)

    def record_descent(self, system):
        basis = descend(self, system)
        if basis is not None and len(system) == 2:
            placing.append(system)
        return basis

    def record(basis, system):
        checked.append((basis, system))
        return holds(basis, system)

    monkeypatch.setattr(membership, "_is_basis_letters", count)
    monkeypatch.setattr(basis_complex._Descent, "descend", record_descent)
    monkeypatch.setattr(basis_complex, "_basis_holds", record)
    sub = build_unpaired_radius(n, radius)
    assert len(nielsen) == len(placing) == NIELSEN_RUNS[n, radius]
    pairs = sorted(sorted(c.path for c in e) for e in sub.elements if len(e) == 2)
    assert sorted(sorted(system) for _, system in checked) == pairs
    mask_pairs = 3 if n == 4 else 15
    assert mask_pairs * sum(_on_representative(system) for _, system in checked) == len(pairs)
    for letters, system in checked:
        basis = [Word(x, n) for x in letters]
        assert is_basis(basis)
        for i, v, j in system:
            assert core_path(basis[i - 1], basis[j - 1]) == (i, v, j)


def test_build_refuses_a_carried_basis_with_a_repeated_free_member(monkeypatch):
    """A relabeled basis whose rank-5 free member repeats a paired one still
    holds both paths, which the path check reads, but it is no basis: the
    inverse relabel does not map it back to the basis it was carried from."""
    relabel = basis_complex._Relabel.basis

    def free_overwritten_off_identity(self, basis):
        moved = relabel(self, basis)
        if not self.identity:
            moved[self.images[4] - 1] = moved[self.images[0] - 1]
        return moved

    monkeypatch.setattr(basis_complex._Relabel, "basis", free_overwritten_off_identity)
    with pytest.raises(CertificationError, match="does not hold"):
        build_unpaired_radius(5, 0)


def test_relabel_refuses_images_that_are_no_permutation(monkeypatch):
    """A relabeling is an automorphism only when its images permute 1..n;
    the build refuses a stabilizer literal that repeats a core."""
    with pytest.raises(ValueError, match="not a permutation"):
        basis_complex._Relabel((1, 1, 3, 4))
    bad = basis_complex._STABILIZER[:1] + ((2, 2, 3, 4, 5),) + basis_complex._STABILIZER[2:]
    monkeypatch.setattr(basis_complex, "_STABILIZER", bad)
    with pytest.raises(ValueError, match="not a permutation"):
        build_unpaired_radius(4, 1)


def test_build_refuses_a_carried_basis_off_its_pair(monkeypatch):
    """A relabeled basis in reverse order is a basis, but its members hold
    other classes: the check refuses it."""
    relabel = basis_complex._Relabel.basis

    def reversed_off_identity(self, basis):
        moved = relabel(self, basis)
        return moved[::-1] if self.images != tuple(sorted(self.images)) else moved

    monkeypatch.setattr(basis_complex._Relabel, "basis", reversed_off_identity)
    with pytest.raises(CertificationError, match="does not hold"):
        build_unpaired_radius(5, 0)


def test_radius_zero_rank4():
    sub = build_unpaired_radius(4, 0)
    assert len(sub.classes) == 6
    assert len(sub.elements) == 9
    matchings = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
    for m in matchings:
        element = frozenset(canonical_class(W2Factor(generator(a, 4), generator(b, 4)))
                            for a, b in m)
        assert element in sub.elements
    rep = connectivity_report(sub)
    assert rep.num_components == 3
    assert not rep.exploratory


def test_radius_zero_rank3():
    sub = build_unpaired_radius(3, 0)
    assert len(sub.elements) == 3
    assert all(len(e) == 1 for e in sub.elements)
    rep = connectivity_report(sub)
    assert rep.num_components == 3 and rep.dimension == 0


def test_radius_one_components():
    sub = _unpaired(4, 1)
    rep = connectivity_report(sub)
    assert len(sub.elements) == 273
    # the non-factor deep dihedral classes were excluded, not certified
    assert len(sub.params["uncertified"]) == 6
    assert rep.num_components == 3
    # every certified class carries a verified completing basis
    for cls in sub.classes:
        cert = cls.certificate
        assert isinstance(cert, CompletingBasis)
        assert is_basis(list(cert.basis))
        assert cls.a in cert.basis and cls.b in cert.basis


def test_radius_two_rank3():
    sub = _unpaired(3, 2)
    rep = connectivity_report(sub)
    assert len(sub.elements) == 30
    assert len(sub.params["uncertified"]) == 33
    assert rep.num_components == 30 and rep.dimension == 0


def test_empty_complex_report():
    """The general path gives an empty complex no components and dimension -1."""
    sub = PartialBasisComplex(4, False, {"radius": 0}, [], [])
    rep = connectivity_report(sub)
    assert (rep.num_components, rep.dimension, rep.betti_q, rep.betti_f2,
            rep.top_degree_rank) == (0, -1, {}, {}, 0)
    assert rep.to_json() == (
        '{"n": 4, "ambient": "unpaired", "exploratory": false, "params": {"radius": 0}, '
        '"elements": 0, "components": 0, "dimension": -1, "betti_q": {}, "betti_f2": {}, '
        '"top_degree_rank": 0}')


def test_budget_guard():
    with pytest.raises(ValueError):
        build_unpaired_radius(6, 0)
    with pytest.raises(ValueError):
        build_unpaired_radius(4, 9)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        build_unpaired_radius(4, -1)


def test_rank3_family_distinct_and_certified():
    """Member m is <x1, b> with b = g_m x2 g_m^-1, g_m = x3 (x1 x3)^m,
    certified visible on the star shape marked (x1, b, x3)."""
    fam = rank3_isolated_family(5)
    assert len(fam) == 6
    assert str(fam[0]) == "W2[a=x1;b=x3*x2*x3;pair=1]"
    star = enumerate_shapes(3)[0]
    assert star.edges == ((0, 1), (0, 2), (0, 3)) and star.slot_of == (0, 1, 2, 3)
    x1, x2, x3 = generators(3)
    for m, cls in enumerate(fam):
        b = conjugate(x2, Word((3,) + (1, 3) * m, 3))
        assert (cls.a, cls.b) == (x1, b)
        assert isinstance(cls.certificate, VisibleIn)
        assert cls.certificate.tree == MarkedTree(star, (x1, b, x3))
    for c1, c2 in itertools.combinations(fam, 2):
        assert c1 != c2
        assert not same_class_oracle(W2Factor(c1.a, c1.b), W2Factor(c2.a, c2.b))
    sub = PartialBasisComplex(3, True, {}, list(fam), [frozenset([c]) for c in fam])
    assert connectivity_report(sub).num_components == 6
    # c05's complex and its report, byte for byte
    assert hashlib.sha256(sub.to_json().encode()).hexdigest() == \
        "f0737d89abd4aeefb614f537e81a0d2a53a82bea3d60f57ea9ac7c1e1328225e"
    assert hashlib.sha256(connectivity_report(sub).to_json().encode()).hexdigest() == \
        "b9c0175588140daf5689d4e0d7d86f429051d23845b17f351626e03e38296f19"


def test_build_from_single_tree():
    sub = build_from_trees([caterpillar(4)])
    assert len(sub.elements) == 3
    rep = connectivity_report(sub)
    assert rep.exploratory
    assert rep.num_components == 1
    assert all(v == 0 for v in rep.betti_q.values())


def test_build_from_trees_collapse_monotone():
    shapes = enumerate_shapes(4)
    bigger = next(s for s in shapes if len(s.edges) == 5)
    smaller = collapse(bigger, [0])
    t_tree = MarkedTree(bigger, standard_marking(4))
    s_tree = MarkedTree(smaller, standard_marking(4))
    only_s = build_from_trees([s_tree])
    both = build_from_trees([t_tree, s_tree])
    assert set(both.elements) == set(only_s.elements)


def test_union_over_caterpillar_orderings_connected():
    trees = [caterpillar(4, order) for order in itertools.permutations(range(1, 5))]
    sub = build_from_trees(trees)
    rep = connectivity_report(sub)
    assert rep.betti_q.get(0, 0) == 0


def test_subcomplex_json_roundtrip():
    sub = build_unpaired_radius(4, 0)
    back = PartialBasisComplex.from_json(sub.to_json())
    assert back.elements == sub.elements
    assert back.n == 4 and not back.paired


def _order_complex_report(sub):
    """connectivity_report taken on the order complex of the inclusion poset."""
    cx = sub.order_complex()
    bq = betti(cx, "Q")
    return ConnectivityReport(sub.n, sub.paired, sub.paired, sub.params, len(sub.elements),
                              len(components(cx)), cx.dimension, bq, betti(cx, 2),
                              bq.get(cx.dimension, 0))


def _oracle_families():
    subs = [_unpaired(n, r) for n, r in [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1),
                                         (4, 2), (5, 0), (5, 1)]]
    fam = rank3_isolated_family(5)
    subs.append(PartialBasisComplex(3, True, {"family": "rank3"}, fam,
                                    [frozenset([c]) for c in fam]))
    trees = [MarkedTree(shape, standard_marking(4)) for shape in enumerate_shapes(4)]
    subs.append(build_from_trees(trees))
    return subs


def test_report_on_face_complex_matches_order_complex():
    """K and the order complex give the same report on every built family."""
    for sub in _oracle_families():
        assert connectivity_report(sub) == _order_complex_report(sub), sub.params
        assert sub.face_complex().vertices == list(range(len(sub.classes)))


def test_face_complex_numbers_classes_by_position():
    sub = _unpaired(4, 0)
    cx = sub.face_complex()
    ids = {c: i for i, c in enumerate(sub.classes)}
    assert cx.simplices == {tuple(sorted(ids[c] for c in e)) for e in sub.elements}
    with pytest.raises(ValueError, match="repeated element"):
        PartialBasisComplex(4, False, {}, sub.classes, sub.elements[:1] * 2).face_complex()
    with pytest.raises(ValueError, match=r"missing face \(0,\) of \(0, 5\)"):
        PartialBasisComplex(4, False, {}, sub.classes, sub.elements[1:]).face_complex()
