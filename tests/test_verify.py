"""The per-item bodies of c01-c04: the figures they return and the failures
they raise; and which radii c04 builds and what c09's inverse check
catches.  The criteria themselves are pinned in tests/test_acceptance.py."""

import dataclasses

import pytest

from grushko import verify
from grushko.factors import CanonicalClass, CompletingBasis
from grushko.trees import MarkedTree, enumerate_shapes, standard_marking
from grushko.verify import CheckFailure, check_fiber, check_unpaired, check_visibility, check_wedge
from grushko.visibility import visible_words
from grushko.words import conjugate

TREE = MarkedTree(enumerate_shapes(4)[0], standard_marking(4))


# (elements, uncertified, components) of the unpaired builds the benchmark pins
@pytest.mark.parametrize("n, radius, expected", [
    (4, 0, (9, 0, 3)), (4, 1, (273, 6, 3)),
    (3, 0, (3, 0, 3)), (3, 1, (12, 3, 12)), (3, 2, (30, 33, 30))])
def test_check_unpaired_returns_the_pinned_triple(n, radius, expected):
    got = check_unpaired(n, radius)
    assert (got["elements"], got["uncertified"], got["components"]) == expected


def test_visible_words_are_at_most_2n_minus_2_letters():
    """Why check_visibility needs no length bound: the unbounded search ends,
    and no visible word is longer than 2n - 2."""
    for n in range(2, 6):
        longest = max(len(h) for shape in enumerate_shapes(n)
                      for i in range(1, n // 2 + 1)
                      for h in visible_words(shape.segment_masks, 2 * i - 1, 2 * i)[0])
        assert longest <= 2 * n - 2


def test_check_visibility_fails_on_a_dropped_brute_class(monkeypatch):
    real = verify.visible_classes_brute

    def dropped(tree, i):
        return set(sorted(real(tree, i), key=CanonicalClass.key)[1:])

    assert check_visibility(TREE, 1) > 0
    monkeypatch.setattr(verify, "visible_classes_brute", dropped)
    with pytest.raises(CheckFailure, match="missed by the search"):
        check_visibility(TREE, 1)


def test_check_fiber_fails_on_a_duplicated_class(monkeypatch):
    real = verify.bp_fiber

    def duplicated(tree, certify=True):
        fiber = real(tree, certify)
        fam = fiber.families[0]
        doubled = dataclasses.replace(fam, classes=fam.classes + fam.classes[:1])
        return dataclasses.replace(fiber, families=(doubled, *fiber.families[1:]))

    check_fiber(TREE)
    monkeypatch.setattr(verify, "bp_fiber", duplicated)
    with pytest.raises(CheckFailure, match="not the selection poset"):
        check_fiber(TREE)


def test_check_wedge_fails_when_the_report_is_not_ok(monkeypatch):
    real = verify.verify_wedge
    check_wedge((2, 3))
    monkeypatch.setattr(verify, "verify_wedge",
                        lambda sizes: dataclasses.replace(real(sizes), ok=False))
    with pytest.raises(CheckFailure, match="wedge verification failed"):
        check_wedge((2, 3))


def test_check_unpaired_fails_on_a_replaced_basis_member(monkeypatch):
    real = verify.build_unpaired_radius

    def replaced(n, radius):
        sub = real(n, radius)
        cls = sub.classes[0]
        basis = list(cls.certificate.basis)
        k = next(k for k, w in enumerate(basis) if w not in (cls.a, cls.b))
        basis[k] = conjugate(cls.a, cls.b)  # in <a, b>: the tuple is no basis
        bad = cls.with_certificate(CompletingBasis(tuple(basis)))
        return dataclasses.replace(sub, classes=[bad, *sub.classes[1:]])

    monkeypatch.setattr(verify, "build_unpaired_radius", replaced)
    with pytest.raises(CheckFailure, match="certificate of .* does not check"):
        check_unpaired(4, 0)


def test_check_4_builds_each_radius_once(monkeypatch):
    real = verify.check_unpaired
    radii = []
    monkeypatch.setattr(verify, "check_unpaired", lambda n, r: radii.append(r) or real(n, r))
    assert list(verify.check_4_unpaired_components(verify.RunConfig(radius=0))) == ["radius_0"]
    assert radii == [0]
    verify.check_4_unpaired_components(verify.RunConfig(radius=1))
    assert radii == [0, 0, 1]


def test_check_9_fails_on_a_wrong_inverse(monkeypatch):
    """The inverse round trip catches what is_basis on the images cannot."""
    real = verify.semidirect_embed

    def swapped(wtuple, phi3):
        phi = real(wtuple, phi3)
        inv = phi.inverse_images
        return dataclasses.replace(phi, inverse_images=(inv[1], inv[0], *inv[2:]))

    verify.check_9_embedding_coherence(verify.RunConfig())
    monkeypatch.setattr(verify, "semidirect_embed", swapped)
    with pytest.raises(CheckFailure, match="inverse images do not map back"):
        verify.check_9_embedding_coherence(verify.RunConfig())
