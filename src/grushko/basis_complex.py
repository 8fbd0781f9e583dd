"""Finite pieces of the complexes of partial dihedral bases of W_n.

Vertices are partial bases (sets of factor classes that arise jointly in a
free decomposition); the poset is ordered by inclusion and realized through
its order complex.  Paired subcomplexes are unions of per-tree fibers and
are exploratory by design: a finite tree list need not see the connectivity
of the full complex.  Unpaired subcomplexes are cut out by a conjugator
radius and certified by bounded completing-basis searches.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .words import Word, conjugate, generator, generators, identity, involution_core, reduce
from .factors import (
    CanonicalClass,
    CompletingBasis,
    VisibleIn,
    W2Factor,
    canonical_class,
    make_factor,
    parse_class,
    same_class_oracle,
)
from .jsoncheck import check
from .trees import MarkedTree, enumerate_shapes
from .topology import Poset, SimplicialComplex, betti, components
from .visibility import CertificationError, bp_fiber, certify_partial_basis, is_visible
from . import membership


@dataclass
class PartialBasisComplex:
    """An assembled finite subposet of partial bases, with its provenance."""

    n: int
    paired: bool
    params: dict
    classes: list[CanonicalClass]
    elements: list[frozenset[CanonicalClass]]

    def poset(self) -> Poset:
        return Poset.by_inclusion(self.elements)

    def order_complex(self) -> SimplicialComplex:
        return self.poset().order_complex()

    def to_json(self) -> str:
        cls_list = sorted({c for e in self.elements for c in e} | set(self.classes),
                          key=lambda c: (c.a.key(), c.b.key()))
        ids = {c: i for i, c in enumerate(cls_list)}
        return json.dumps({
            "n": self.n,
            "ambient": "paired" if self.paired else "unpaired",
            "params": self.params,
            "classes": [str(c) for c in cls_list],
            "elements": sorted(sorted(ids[c] for c in e) for e in self.elements),
        }, ensure_ascii=False)

    @staticmethod
    def from_json(text: str) -> "PartialBasisComplex":
        data = json.loads(text)
        check(data, {"classes": list})
        class_ids = range(len(data["classes"]))
        check(data, {"n": int, "ambient": ("paired", "unpaired"), "params": dict,
                     "classes": [str], "elements": [[class_ids]]})
        n = data["n"]
        cls_list = [parse_class(t, n) for t in data["classes"]]
        elements = [frozenset(cls_list[i] for i in ids) for ids in data["elements"]]
        return PartialBasisComplex(n, data["ambient"] == "paired", data["params"],
                                   cls_list, elements)


def build_from_trees(trees: list[MarkedTree], certify: bool = True) -> PartialBasisComplex:
    """Union of the per-tree fibers, classes merged by canonical form."""
    if trees:
        n = trees[0].n
        if any(t.n != n for t in trees):
            raise ValueError("trees of mixed rank")
    else:
        n = 0
    elements: set[frozenset[CanonicalClass]] = set()
    classes: set[CanonicalClass] = set()
    for tree in trees:
        fiber = bp_fiber(tree, certify=certify)
        elements.update(fiber.elements)
        for fam in fiber.families:
            classes.update(fam.classes)
    return PartialBasisComplex(n, True, {"trees": [t.to_json() for t in trees]},
                               sorted(classes, key=lambda c: (c.a.key(), c.b.key())),
                               sorted(elements, key=_element_key))


def _element_key(e: frozenset) -> tuple:
    return tuple(sorted((c.a.key(), c.b.key()) for c in e))


# ---------------------------------------------------------------------------
# unpaired radius construction
# ---------------------------------------------------------------------------

# conjugator radius budget of build_unpaired_radius (the pool adds 2 letters)
MAX_RADIUS = 8

def _reduced_words_upto(n: int, max_len: int) -> list[Word]:
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


def _certificate(groups: list[tuple[Word, ...]], pool: list[Word]) -> tuple[Word, ...] | None:
    """The first basis of W_n holding conjugates of every group, or None.

    groups lists n involutions in groups: class pairs, then one (x_k,) for
    each core they leave free (_groups).  The first group is pinned, as a
    basis may be conjugated globally; every later group is conjugated by a
    pool word w, the pool scanned in order with the last group fastest.  A
    single group (n = 2) is decided by is_basis.  Otherwise the involutions
    before the last group, generating H, are folded once per placement of
    the groups between, and a candidate for the last group is decided by
    folding only its own segments onto that core (membership.generates_with,
    facts (d) and (d')); this is is_basis, since (d'') its count and
    involution checks hold by construction.  is_basis is not run where its
    answer is already known:
    (a) A single involution p x_k p^-1 (p from involution_core) is read as
        p.  <H, p x_k p^-1> = W_n depends only on the coset Hp, since p = hq
        with h in H makes it h <H, q x_k q^-1> h^-1, and a reading that stays
        in the core ends at the vertex of Hp.
    (b) A single involution whose reading leaves the core never completes a
        basis: the unread tail hangs off the core as a folded path (reduced
        letters, ending in a mirror k that differs from its last letter), so
        the basepoint keeps the mirrors of H, and n-1 involutions give at
        most n-1 of the n dimensions of the abelianization (Z/2)^n.
    (g) A pair w<a,b>w^-1 is read as w: w = hw' with h in H gives
        <H, w<a,b>w^-1> = <H, w'<a,b>w'^-1>, so the answer depends only on
        Hw, which membership.read names by (vertex, tail).  Unlike (b), a
        reading that leaves the core is a key, not a rejection.
    A coset is rejected once its candidate fails, and only failing
    candidates are skipped, so the plain search's basis is found.
    """
    if len(groups) == 1:
        return groups[0] if membership.is_basis(list(groups[0])) else None
    first, *middle, last = groups
    single = len(last) == 1
    for ws in itertools.product(pool, repeat=len(middle)):
        fixed = list(first) + [conjugate(x, w) for g, w in zip(middle, ws) for x in g]
        core = membership.fold(fixed)
        rejected: set[tuple[int, tuple[int, ...]]] = set()
        for w in pool:
            placed = [conjugate(x, w) for x in last]
            key = membership.read(core, involution_core(placed[0])[1] if single else w)
            if key in rejected or (single and key[1]):
                continue
            if membership.generates_with(core, placed):
                return tuple(fixed + placed)
            rejected.add(key)
    return None


def _groups(combo: tuple[CanonicalClass, ...], core_of: dict) -> list[tuple[Word, ...]]:
    """The class pairs of combo, then (x_k,) for each core they leave free."""
    n = combo[0].rank
    used = {k for c in combo for k in core_of[c]}
    return [(c.a, c.b) for c in combo] + \
        [(generator(k, n),) for k in range(1, n + 1) if k not in used]


def _retraction_generates(a: Word, b: Word, i: int, j: int) -> bool:
    """(f) False when no basis of W_n contains a (core i) and b (core j).

    Deleting every letter other than x_i and x_j is a homomorphism rho onto
    <x_i, x_j>, the infinite dihedral group, since W_n is a free product.
    The cores of a basis are a permutation of 1..n (its image in (Z/2)^n is
    a basis), so rho sends every other member to 1, and rho(a), rho(b) must
    generate.  Two reflections of the infinite dihedral group generate it
    only when they are adjacent: their product has length 2.
    """
    kept = [x for x in a.letters + b.letters if x == i or x == j]
    return len(reduce(kept, a.rank)) == 2


def build_unpaired_radius(n: int, radius: int) -> PartialBasisComplex:
    """All partial bases of classes with conjugators of length <= radius.

    Classes are <g x_i g^-1, h x_j h^-1> with |g|, |h| <= radius; every
    element carries a completing-basis certificate found by bounded search
    (conjugator pool of length radius + 2).  Single classes the search
    misses are reported in params["uncertified"].  Joint elements it cannot
    place are not recorded: at (4, 2) it leaves out 402 two-class partial
    bases (ROADMAP item 3).

    (c) The class depends only on v = g^-1 h: conjugating by g^-1 gives
    <x_i, v x_j v^-1>, and x_i v or v x_j give the same class.  The words
    g^-1 h are exactly the reduced words of length <= 2 radius, and with a
    leading x_i and a trailing x_j stripped they are exactly those that
    neither start with x_i nor end with x_j.  So the classes are computed
    once per such v.  A class that fails (f) gets no completing-basis search.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if n > 5 or radius > MAX_RADIUS:
        raise ValueError(f"budgeted construction: n <= 5 and radius <= {MAX_RADIUS}")
    relative = _reduced_words_upto(n, 2 * radius)
    pool = _reduced_words_upto(n, radius + 2)
    classes: dict[CanonicalClass, tuple[int, int]] = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for v in relative:
            if v.letters[:1] == (i,) or v.letters[-1:] == (j,):
                continue
            cls = canonical_class(W2Factor(generator(i, n), conjugate(generator(j, n), v)))
            classes.setdefault(cls, (i, j))

    # classes admitting no completing basis within the pool are not partial
    # bases (e.g. proper-index dihedral subgroups of <x_i, x_j>); they are
    # excluded by construction, with the count recorded for transparency
    certified: dict[CanonicalClass, CanonicalClass] = {}
    uncertified: list[str] = []
    for cls, (i, j) in classes.items():
        basis = _certificate(_groups((cls,), classes), pool) \
            if _retraction_generates(cls.a, cls.b, i, j) else None
        if basis is None:
            uncertified.append(str(cls))
            continue
        certified[cls] = cls.with_certificate(CompletingBasis(basis))

    elements: set[frozenset[CanonicalClass]] = set()
    for cls in certified.values():
        elements.add(frozenset([cls]))
    for size in range(2, n // 2 + 1):
        for combo in itertools.combinations(certified.values(), size):
            used = [classes[c] for c in combo]
            if len({k for pair in used for k in pair}) != 2 * size:
                continue
            if _certificate(_groups(combo, classes), pool) is not None:
                for sub in range(2, size + 1):
                    for picked in itertools.combinations(combo, sub):
                        elements.add(frozenset(picked))
    params = {"radius": radius, "pool_len": radius + 2, "uncertified": sorted(uncertified)}
    return PartialBasisComplex(n, False, params,
                               sorted(certified.values(), key=lambda c: (c.a.key(), c.b.key())),
                               sorted(elements, key=_element_key))


# ---------------------------------------------------------------------------
# the rank-3 isolated family
# ---------------------------------------------------------------------------

def rank3_isolated_family(m_max: int) -> list[CanonicalClass]:
    """Classes <x1, g_m x2 g_m^-1> with g_m = x3 (x1 x3)^m, m = 0..m_max.

    At rank 3 every partial basis is a single class, so these are isolated
    vertices; the classes are pairwise distinct (checked both by canonical
    form and by the independent exact oracle) and each is certified
    visible in a marked tree found by searching shapes and bounded markings.
    """
    out = []
    factors = []
    for m in range(m_max + 1):
        g = reduce((3,) + (1, 3) * m, 3)
        f = make_factor(generator(1, 3), conjugate(generator(2, 3), g))
        cls = canonical_class(f)
        tree = _certifying_tree(cls)
        out.append(cls.with_certificate(VisibleIn(tree)))
        factors.append(f)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i] == out[j] or same_class_oracle(factors[i], factors[j]):
                raise CertificationError(
                    f"family members m={i} and m={j} are not distinct classes")
    return out


def _certifying_tree(cls: CanonicalClass) -> MarkedTree:
    """A rank-3 marked tree in which the class is visible, by bounded search."""
    n = 3
    pool = {identity(n)}
    for w in (cls.a, cls.b):
        pool.add(involution_core(w)[1])
    pool.update(generators(n))
    pool = sorted(pool, key=lambda w: w.key())
    for shape in enumerate_shapes(n):
        for ws in itertools.product(pool, repeat=n):
            marking = tuple(conjugate(generator(k, n), ws[k - 1]) for k in range(1, n + 1))
            if not membership.is_basis(list(marking)):
                continue
            tree = MarkedTree(shape, marking)
            if is_visible(tree, cls):
                certify_partial_basis(tree, [cls])
                return tree
    raise CertificationError(f"certification search failure for {cls}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ConnectivityReport:
    n: int
    paired: bool
    exploratory: bool
    params: dict
    num_elements: int
    num_components: int
    dimension: int
    betti_q: dict[int, int]
    betti_f2: dict[int, int]
    top_degree_rank: int

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "ambient": "paired" if self.paired else "unpaired",
            "exploratory": self.exploratory,
            "params": self.params,
            "elements": self.num_elements,
            "components": self.num_components,
            "dimension": self.dimension,
            "betti_q": {str(k): v for k, v in self.betti_q.items()},
            "betti_f2": {str(k): v for k, v in self.betti_f2.items()},
            "top_degree_rank": self.top_degree_rank,
        })


def connectivity_report(sub: PartialBasisComplex) -> ConnectivityReport:
    """Components, reduced Betti numbers and dimension of the realization.

    Finite paired pieces need not realize the connectivity of the infinite
    complex, hence the exploratory flag.
    """
    cx = sub.order_complex()
    bq = betti(cx, "Q")
    return ConnectivityReport(sub.n, sub.paired, sub.paired, sub.params, len(sub.elements),
                              len(components(cx)), cx.dimension, bq, betti(cx, 2),
                              bq.get(cx.dimension, 0))
