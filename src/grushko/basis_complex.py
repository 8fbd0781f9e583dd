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
        return Poset.from_leq(self.elements, lambda a, b: a <= b)

    def order_complex(self) -> SimplicialComplex:
        if not self.elements:
            return SimplicialComplex(frozenset())
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


def _complete_to_basis(fixed: list[Word], cores_left: list[int],
                       pool: list[Word]) -> tuple[Word, ...] | None:
    """Fill the remaining cores with pool conjugates until is_basis passes.

    Pool words are tried in order and the first basis found is returned.  At
    the last core k, the fixed n-1 involutions generate H, folded once; a
    candidate p x_k p^-1 (p from involution_core) is read as p in that core,
    and is_basis is not run where its answer is already known:
    (a) Same vertex, same answer: <H, p x_k p^-1> = W_n depends only on the
        coset Hp, since p = hq with h in H makes it h <H, q x_k q^-1> h^-1,
        and a reading that stays in the core ends at the vertex of Hp.
    (b) A reading that leaves the core never completes a basis: the unread
        tail hangs off the core as a folded path (reduced letters, ending in
        a mirror k that differs from its last letter), so the basepoint
        keeps the mirrors of H, and n-1 involutions give at most n-1 of the
        n dimensions of the abelianization (Z/2)^n.
    Only failing candidates are skipped, so the plain search's basis is found.
    """
    if not cores_left:
        return tuple(fixed) if membership.is_basis(fixed) else None
    n = fixed[0].rank
    x_k, rest = generator(cores_left[0], n), cores_left[1:]
    if rest:
        for w in pool:
            got = _complete_to_basis(fixed + [conjugate(x_k, w)], rest, pool)
            if got is not None:
                return got
        return None
    core = membership.fold(fixed)
    rejected: set[int] = set()
    for w in pool:
        cand = conjugate(x_k, w)
        end = membership.read(core, involution_core(cand)[1])
        if end is None or end in rejected:
            continue
        if membership.is_basis(fixed + [cand]):
            return tuple(fixed) + (cand,)
        rejected.add(end)
    return None


def build_unpaired_radius(n: int, radius: int) -> PartialBasisComplex:
    """All partial bases of classes with conjugators of length <= radius.

    Classes are <g x_i g^-1, h x_j h^-1> with |g|, |h| <= radius; every
    element carries a completing-basis certificate found by bounded search
    (conjugator pool of length radius + 2).  Search misses are reported,
    never silently dropped.

    (c) The class depends only on v = g^-1 h: conjugating by g^-1 gives
    <x_i, v x_j v^-1>, and x_i v or v x_j give the same class.  So it is
    computed once per v with a leading x_i and a trailing x_j stripped.
    """
    if n > 5 or radius > 8:
        raise ValueError("budgeted construction: n <= 5 and radius <= 8")
    conjs = _reduced_words_upto(n, radius)
    pool = _reduced_words_upto(n, radius + 2)
    classes: dict[CanonicalClass, tuple[int, int]] = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        seen: set[tuple[int, ...]] = set()
        for g in conjs:
            a = conjugate(generator(i, n), g)
            for h in conjs:
                v = (~g * h).letters
                v = v[1:] if v[:1] == (i,) else v
                v = v[:-1] if v[-1:] == (j,) else v
                if v in seen:
                    continue
                seen.add(v)
                b = conjugate(generator(j, n), h)
                cls = canonical_class(W2Factor(a, b))
                classes.setdefault(cls, (i, j))

    # classes admitting no completing basis within the pool are not partial
    # bases (e.g. proper-index dihedral subgroups of <x_i, x_j>); they are
    # excluded by construction, with the count recorded for transparency
    certified: dict[CanonicalClass, CanonicalClass] = {}
    uncertified: list[str] = []
    for cls, (i, j) in classes.items():
        cores_left = [k for k in range(1, n + 1) if k not in (i, j)]
        basis = _complete_to_basis([cls.a, cls.b], cores_left, pool)
        if basis is None:
            uncertified.append(str(cls))
            continue
        certified[cls] = cls.with_certificate(CompletingBasis(basis))

    elements: set[frozenset[CanonicalClass]] = set()
    for cls in certified.values():
        elements.add(frozenset([cls]))
    core_of = {certified[c]: pair for c, pair in classes.items() if c in certified}
    for size in range(2, n // 2 + 1):
        for combo in itertools.combinations(certified.values(), size):
            used = [core_of[c] for c in combo]
            if len({k for pair in used for k in pair}) != 2 * size:
                continue
            joint = _joint_certificate(list(combo), core_of, pool)
            if joint is not None:
                for sub in range(2, size + 1):
                    for picked in itertools.combinations(combo, sub):
                        elements.add(frozenset(picked))
    params = {"radius": radius, "pool_len": radius + 2, "uncertified": sorted(uncertified)}
    return PartialBasisComplex(n, False, params,
                               sorted(certified.values(), key=lambda c: (c.a.key(), c.b.key())),
                               sorted(elements, key=_element_key))


def _joint_certificate(combo: list[CanonicalClass], core_of, pool: list[Word]):
    """Basis containing representative pairs of every class, or None.

    The first class is pinned to its canonical pair (legitimate up to global
    conjugation); the others get conjugated over the pool.
    """
    n = combo[0].rank
    used_cores = {k for c in combo for k in core_of[c]}
    cores_left = [k for k in range(1, n + 1) if k not in used_cores]

    def place(idx: int, fixed: list[Word]):
        if idx == len(combo):
            return _complete_to_basis(fixed, cores_left, pool)
        cls = combo[idx]
        for w in pool if idx else [identity(n)]:
            a, b = conjugate(cls.a, w), conjugate(cls.b, w)
            got = place(idx + 1, fixed + [a, b])
            if got is not None:
                return got
        return None

    return place(0, [])


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
    if cx.simplices:
        bq = betti(cx, "Q")
        b2 = betti(cx, 2)
        comp = len(components(cx))
        dim = cx.dimension
        top = bq.get(dim, 0)
    else:
        bq, b2, comp, dim, top = {}, {}, 0, -1, 0
    return ConnectivityReport(sub.n, sub.paired, sub.paired, sub.params,
                              len(sub.elements), comp, dim, bq, b2, top)
