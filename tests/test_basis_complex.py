import functools
import itertools

import pytest

from grushko.words import conjugate, generator, identity, parse
from grushko.factors import W2Factor, canonical_class, same_class_oracle
from grushko.membership import is_basis
from grushko.trees import MarkedTree, caterpillar, collapse, enumerate_shapes, standard_marking

from grushko.basis_complex import (
    PartialBasisComplex,
    _reduced_words_upto,
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


@pytest.mark.parametrize("n,radius", [(3, 2), (4, 1)])
def test_unpaired_build_matches_plain_search(n, radius):
    sub, ref = _unpaired(n, radius), _plain_unpaired(n, radius)
    assert sub.to_json() == ref.to_json()
    assert sub.params["uncertified"] == ref.params["uncertified"]
    assert [(c, c.certificate.basis) for c in sub.classes] == \
        [(c, c.certificate.basis) for c in ref.classes]


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


def test_budget_guard():
    with pytest.raises(ValueError):
        build_unpaired_radius(6, 0)
    with pytest.raises(ValueError):
        build_unpaired_radius(4, 9)


def test_rank3_family_distinct_and_certified():
    fam = rank3_isolated_family(3)
    assert len(fam) == 4
    assert str(fam[0]) == "W2[a=x1;b=x3*x2*x3;pair=1]"
    for cls in fam:
        assert isinstance(cls.certificate, VisibleIn)
    for c1, c2 in itertools.combinations(fam, 2):
        assert c1 != c2
        assert not same_class_oracle(c1.representative(), c2.representative())
    sub = PartialBasisComplex(3, True, {}, list(fam), [frozenset([c]) for c in fam])
    assert connectivity_report(sub).num_components == 4


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
    sub = build_from_trees(trees, certify=False)
    rep = connectivity_report(sub)
    assert rep.betti_q.get(0, 0) == 0


def test_subcomplex_json_roundtrip():
    sub = build_unpaired_radius(4, 0)
    back = PartialBasisComplex.from_json(sub.to_json())
    assert back.elements == sub.elements
    assert back.n == 4 and not back.paired
