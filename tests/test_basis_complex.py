import itertools

import pytest

from grushko.words import generator, parse
from grushko.factors import W2Factor, canonical_class, same_class_oracle
from grushko.membership import is_basis
from grushko.trees import MarkedTree, caterpillar, collapse, enumerate_shapes, standard_marking

from grushko.basis_complex import (
    PartialBasisComplex,
    build_from_trees,
    build_unpaired_radius,
    connectivity_report,
    rank3_isolated_family,
)
from grushko.factors import CompletingBasis, VisibleIn

W = parse


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
    sub = build_unpaired_radius(4, 1)
    rep = connectivity_report(sub)
    assert rep.num_components == 3
    # every certified class carries a verified completing basis
    for cls in sub.classes:
        cert = cls.certificate
        assert isinstance(cert, CompletingBasis)
        assert is_basis(list(cert.basis))
        assert cls.a in cert.basis and cls.b in cert.basis
    # the non-factor deep dihedral classes were excluded, not certified
    assert sub.params["uncertified"]


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
