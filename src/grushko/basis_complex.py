"""Finite pieces of the complexes of partial dihedral bases of W_n.

Elements are partial bases (sets of factor classes that arise jointly in a
free decomposition).  Every family built here is downward closed and is
realized by its face complex K (topology module).  Paired subcomplexes are
unions of per-tree fibers and are exploratory by design: a finite tree list
need not see the connectivity of the full complex.  Unpaired subcomplexes
are cut out by a conjugator radius and placed by Whitehead descent.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass

from .words import Word, _conjugate_letters, _reduce_into, conjugate, generator, reduce
from .factors import (
    CanonicalClass,
    CompletingBasis,
    Path,
    VisibleIn,
    W2Factor,
    _path,
    canonical_class,
    parse_class,
    path_text,
    same_class_oracle,
)
from .jsoncheck import check
from .trees import MarkedTree, enumerate_shapes
from .topology import Poset, SimplicialComplex, betti, components
from .visibility import CertificationError, bp_fiber, certify_partial_basis
from . import membership


@dataclass
class PartialBasisComplex:
    """An assembled finite subposet of partial bases, with its provenance."""

    n: int
    paired: bool
    params: dict
    classes: list[CanonicalClass]
    elements: list[frozenset[CanonicalClass]]

    def poset(self) -> Poset:  # kept for perfbench's unpaired check
        return Poset.by_inclusion(self.elements)

    def order_complex(self) -> SimplicialComplex:  # kept for perfbench's unpaired check
        return self.poset().order_complex()

    def face_complex(self) -> SimplicialComplex:
        """K, each class numbered by its position in classes (its JSON id).
        A repeated element, which a set of simplices would merge, is refused."""
        if len(set(self.elements)) < len(self.elements):
            raise ValueError("repeated element")
        vertex = {c: i for i, c in enumerate(self.classes)}
        return SimplicialComplex(tuple(vertex[c] for c in e) for e in self.elements)

    def to_json(self) -> str:
        cls_list = sorted({c for e in self.elements for c in e} | set(self.classes),
                          key=CanonicalClass.key)
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
        if len(set(cls_list)) < len(cls_list):
            raise ValueError("$.classes: two literals of one class")
        elements = [frozenset(cls_list[i] for i in ids) for ids in data["elements"]]
        if len(set(elements)) < len(elements):
            raise ValueError("$.elements: repeated element")
        return PartialBasisComplex(n, data["ambient"] == "paired", data["params"],
                                   cls_list, elements)


def build_from_trees(trees: list[MarkedTree]) -> PartialBasisComplex:
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
        fiber = bp_fiber(tree)
        elements.update(fiber.elements)
        for fam in fiber.families:
            classes.update(fam.classes)
    return PartialBasisComplex(n, True, {"trees": [t.to_json() for t in trees]},
                               sorted(classes, key=CanonicalClass.key),
                               sorted(elements, key=_element_key))


def _element_key(e: frozenset) -> tuple:
    return tuple(sorted(c.key() for c in e))


# ---------------------------------------------------------------------------
# unpaired radius construction
# ---------------------------------------------------------------------------

# conjugator radius budget of build_unpaired_radius
MAX_RADIUS = 8

def _core_paths(n: int, max_len: int):
    """The paths (i, v, j), i < j, with v reduced, |v| <= max_len, neither
    starting with x_i nor ending with x_j; by (i, j), then |v|, then letters.
    Each is the core path of its class (factors.core_path): strip drops
    nothing, and the reverse (j, v^-1, i) is the larger.
    """
    for i, j in itertools.combinations(range(1, n + 1), 2):
        yield i, (), j
        level: list[tuple[int, ...]] = [()]
        for _ in range(max_len):
            level = [v + (a,) for v in level for a in range(1, n + 1)
                     if a != (v[-1] if v else i)]
            yield from ((i, v, j) for v in level if v[-1] != j)


class _Descent:
    """Whitehead descent at rank n, for one build.

    A system lists core paths (i, v, j) on disjoint cores.  Descent applies
    the first partial conjugation s: x_k -> x_m x_k x_m (m != k) that lowers
    sum |v|, until every v is empty: the classes <x_i, x_j>.  Each s is an
    involution, so the moves s_1..s_r give phi^-1 = s_1...s_r, whose images
    of x_1..x_n hold a conjugate of every class; move t conjugates the image
    of x_k by that of x_m.  A failed descent is no proof (ROADMAP item 5).
    Bases are built and returned as reduced letter tuples (words._conjugate_letters);
    the build makes Words only for the bases it stores.

    rows[path] holds the core path of the class of path under each move
    (m, k) in order, and the |v| of each; it is filled the first time a
    path is seen.  It is keyed by the whole path, since the end factors
    below depend on i and j.  Reading it changes no cost and no move
    order, so every descent makes the same moves.

    A move sends <x_i, v x_j v^-1> to <s(x_i), s(v) s(x_j) s(v)^-1>;
    conjugated by x_m^[i=k] it is <x_i, v' x_j v'^-1> with
    v' = x_m^[i=k] s(v) x_m^[j=k], stripped as by factors.strip.  The path is
    left unoriented: descent reads only |v| and the cores.  As v is
    reduced, only x_m's cancel in v', in runs of two or three, and dropping
    two never brings equal letters together: dropping each x_m x_m once,
    left to right, reduces v'.  A row is built from byte tables, one entry
    per move: k, x_m x_k x_m, x_m x_m and x_m.  A move whose k is neither a
    core nor a letter of v leaves the path as it is, and its row entry is
    the path itself.
    """

    def __init__(self, n: int):
        self.moves = list(itertools.permutations(range(1, n + 1), 2))
        self.table = [(k, bytes((k,)), bytes((m, k, m)), bytes((m, m)), bytes((m,)))
                      for m, k in self.moves]
        self.generators = tuple((j,) for j in range(1, n + 1))
        self.rows: dict[Path, tuple[tuple[Path, ...], tuple[int, ...]]] = {}
        self.fate: dict[tuple[Path, ...], int | None] = {}

    def _row(self, path: Path) -> tuple[tuple[Path, ...], tuple[int, ...]]:
        row = self.rows.get(path)
        if row is None:
            i, v, j = path
            word, first, last = bytes(v), bytes((i,)), bytes((j,))
            moved, lengths = [], []
            for k, letter, mkm, mm, m in self.table:
                if k != i and k != j and k not in word:
                    moved.append(path)
                    lengths.append(len(v))
                    continue
                w = word.replace(letter, mkm)
                if k == i:
                    w = m + w
                elif k == j:
                    w += m
                w = w.replace(mm, b"")
                if w.startswith(first):
                    w = w[1:]
                if w.endswith(last):
                    w = w[:-1]
                moved.append((i, tuple(w), j))
                lengths.append(len(w))
            row = self.rows[path] = tuple(moved), tuple(lengths)
        return row

    def _step(self, system: tuple[Path, ...], cost: int) -> tuple[int, int] | None:
        """The index of the first move that lowers cost, and the new cost."""
        for t, lower in enumerate(map(sum, zip(*(self._row(p)[1] for p in system)))):
            if lower < cost:
                return t, lower
        return None

    def descend(self, system: Sequence[Path]) -> list[tuple[int, ...]] | None:
        """The letters of a basis of W_n holding a conjugate of every class
        of system, or None.

        The memo is exact.  The move chosen at a system depends only on its
        set of paths (the cost is a sum over them), and so does the system
        it moves to; its fate, the whole move sequence or None, is
        therefore a function of that set.  fate keys each system by its
        paths sorted, which moves keep sorted since cores never change, and
        holds the index of its first move, or None when descent from it
        fails.  A walk stops at the first system with a fate, and every
        system it passed gets its own when the walk ends.  So each system
        is expanded at most once per build, and every descent makes the
        same moves, and builds the same basis, as without the memo.
        """
        fate = self.fate
        start = key = tuple(sorted(system))
        cost = sum(len(v) for _, v, _ in key)
        walk = []
        while cost and key not in fate:
            step = self._step(key, cost)
            if step is None:
                break
            fate[key], cost = step
            walk.append(key)
            key = tuple(self.rows[p][0][step[0]] for p in key)
        if cost and fate.get(key) is None:
            fate.update(dict.fromkeys(walk + [key]))
            return None
        basis = list(self.generators)
        key = start
        while key in fate:
            t = fate[key]
            m, k = self.moves[t]
            basis[k - 1] = _conjugate_letters(basis[k - 1], basis[m - 1])
            key = tuple(self.rows[p][0][t] for p in key)
        return basis


def _retraction_generates(path: Path) -> bool:
    """(f) False when no basis of W_n holds a conjugate of the class of path.

    Deleting every letter other than x_i and x_j is a homomorphism rho onto
    <x_i, x_j>, the infinite dihedral group, since W_n is a free product.
    The cores of a basis are a permutation of 1..n (its image in (Z/2)^n is
    a basis), so rho sends every other member to 1, and <rho(x_i),
    rho(v x_j v^-1)>, conjugate to the image of the members of cores i and
    j, must be all of <x_i, x_j>.  Two reflections of the infinite dihedral
    group generate it only when they are adjacent: their product has length 2.
    """
    i, v, j = path
    kept = [x for x in v if x == i or x == j]
    return len(_reduce_into([i], kept + [j] + kept[::-1])) == 2


# The stabilizer of the representative mask pair ({1, 2}, {3, 4}), generated
# by (1 2), (3 4) and (1 3)(2 4): the images of 1..5, identity first.  Each
# fixes 5, which a relabeling at rank 4 never reads.
_STABILIZER = ((1, 2, 3, 4, 5), (2, 1, 3, 4, 5), (1, 2, 4, 3, 5), (2, 1, 4, 3, 5),
               (3, 4, 1, 2, 5), (4, 3, 1, 2, 5), (3, 4, 2, 1, 5), (4, 3, 2, 1, 5))


class _Relabel:
    """The permutation x_k -> x_images[k-1] of the generators, an automorphism
    sigma of W_n, on core paths and bases as letter tuples.

    sigma sends <x_i, v x_j v^-1> to <x_sigma(i), sigma(v) x_sigma(j) sigma(v)^-1>,
    and sigma(v) is still reduced and stripped, so the core path of the image
    is (sigma(i), sigma(v), sigma(j)) or its reverse, whichever starts at the
    smaller core.  paths holds each path's image, filled the first time the
    path is seen.
    """

    def __init__(self, images: tuple[int, ...]):
        order = bytes(range(1, len(images) + 1))
        if sorted(images) != list(order):
            raise ValueError(f"images {images} are not a permutation of 1..{len(order)}")
        self.images = images
        self.identity = bytes(images) == order
        self.table = bytes.maketrans(order, bytes(images))
        self.paths: dict[Path, Path] = {}
        self._inverse: _Relabel | None = None

    @property
    def inverse(self) -> _Relabel:
        """sigma^-1, built from images on first use; its inverse is sigma."""
        if self._inverse is None:
            order = bytes(range(1, len(self.images) + 1))
            self._inverse = _Relabel(tuple(order.translate(bytes.maketrans(bytes(self.images), order))))
            self._inverse._inverse = self
        return self._inverse

    def path(self, path: Path) -> Path:
        moved = self.paths.get(path)
        if moved is None:
            i, v, j = path
            i, j = self.images[i - 1], self.images[j - 1]
            v = tuple(bytes(v).translate(self.table))
            moved = self.paths[path] = (i, v, j) if i < j else (j, v[::-1], i)
        return moved

    def basis(self, basis: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """sigma(B) with the image of member k as member sigma(k).  Its
        member sigma(k) has core sigma(k), so where B holds the path
        (i, v, j) at its members i and j, sigma(B) holds the image path at
        the members named by that path's cores."""
        moved: list[tuple[int, ...]] = [()] * len(basis)
        for k, x in zip(self.images, basis):
            moved[k - 1] = tuple(bytes(x).translate(self.table))
        return moved

    def carry(self, basis: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """sigma(B) for a basis B, certified a basis without a Nielsen run:
        sigma^-1 must map it back to B.  Then it is the image of B under
        the automorphism sigma, and is_basis, an exact decision, would only
        repeat B's answer.  The identity returns B itself."""
        if self.identity:
            return basis
        moved = self.basis(basis)
        if self.inverse.basis(moved) != basis:
            raise CertificationError(
                f"relabeled basis does not hold: {self.images} does not map back to {basis}")
        return moved


def _mask_pairs(n: int) -> list[tuple[int, int, _Relabel]]:
    """Each pair of disjoint core masks, the one with the smaller core
    first, with sigma_M: it sends 1, 2 to the first mask, ascending, 3, 4
    to the second, and 5 to the free core at rank 5.  The representative
    comes first, with sigma_M the identity."""
    out = []
    for (p, q), (r, s) in itertools.combinations(itertools.combinations(range(1, n + 1), 2), 2):
        if not {p, q} & {r, s}:
            images = (p, q, r, s) + tuple(sorted(set(range(1, n + 1)) - {p, q, r, s}))
            out.append((1 << p | 1 << q, 1 << r | 1 << s, _Relabel(images)))
    return out


def _place_pairs(descent: _Descent, by_mask: dict[int, list[Path]],
                 mask_pairs: list[tuple[int, int, _Relabel]]
                 ) -> dict[tuple[Path, Path], list[tuple[int, ...]]]:
    """The placed pairs of paths on the representative mask pair, each with
    a basis that holds it, closed under the representative's stabilizer.

    Each pair on the representative is descended unless the closure has
    placed it already.  A pair C on another mask pair M whose preimage
    under sigma_M is not placed is descended itself (the fallback); if that
    places C with the basis B, its preimage is placed with sigma_M^-1(B).
    Each basis descent returns is checked once here with the basis test
    is_basis runs (membership._is_basis_letters); every other basis is
    carried from a checked one (_Relabel.carry).
    """
    placed: dict[tuple[Path, Path], list[tuple[int, ...]]] = {}
    stabilizer = list(map(_Relabel, _STABILIZER[1:]))
    for first, second, sigma in mask_pairs:
        inverse = sigma.inverse
        for system in itertools.product(by_mask[first], by_mask[second]):
            # sigma_M^-1 sends the first mask to {1, 2}, so pre is sorted
            pre = inverse.path(system[0]), inverse.path(system[1])
            if pre in placed:
                continue
            basis = descent.descend(system)
            if basis is None:
                continue
            if not membership._is_basis_letters(basis):
                raise CertificationError(f"descent basis does not hold {system}: it is no basis")
            placed[pre] = basis = inverse.carry(basis)
            for s in stabilizer:
                x, y = s.path(pre[0]), s.path(pre[1])
                image = (x, y) if x < y else (y, x)
                if image not in placed:
                    placed[image] = s.carry(basis)
    return placed


def _basis_holds(basis: list[tuple[int, ...]], system: tuple[Path, Path]) -> bool:
    """The core path of the members i and j of basis (factors._path) is
    (i, v, j) for each path of system.  That it is a basis at all is
    certified where it is made: by membership._is_basis_letters if descent
    returned it, else by _Relabel.carry from such a basis."""
    for i, v, j in system:
        if _path(basis[i - 1], basis[j - 1]) != (i, v, j):
            return False
    return True


def build_unpaired_radius(n: int, radius: int) -> PartialBasisComplex:
    """All partial bases of classes with conjugators of length <= radius.

    Classes are <g x_i g^-1, h x_j h^-1> with |g|, |h| <= radius; classes
    and pairs of classes are placed by Whitehead descent (_Descent).  Single
    classes it cannot place are listed in params["uncertified"], and the
    pairs it cannot place are counted in params["unplaced"].  A failed
    descent is not a proof (ROADMAP item 5).

    (c) The class depends only on v = g^-1 h: conjugating by g^-1 gives
    <x_i, v x_j v^-1>, and x_i v or v x_j give the same class.  The words
    g^-1 h are exactly the reduced words of length <= 2 radius, and with a
    leading x_i and a trailing x_j stripped they are exactly those that
    neither start with x_i nor end with x_j.  So the classes are the paths
    _core_paths yields, each once.  A path that fails (f) gets no descent,
    and only a placed one is made a CanonicalClass.

    A single class keeps its basis as a CompletingBasis holding cls.a and
    cls.b literally: with basis[i-1] = p x_i p^-1, the basis conjugated by
    p^-1 holds x_i = cls.a and a conjugate of cls.b by 1 or x_i.

    At rank <= 5 a partial basis has at most two classes, on a pair of
    disjoint core masks.  A permutation sigma of the generators is an
    automorphism, so if B is a basis holding a conjugate of every class of
    a pair C, then sigma(B) is a basis holding a conjugate of every class
    of sigma(C) (_Relabel).  Pairs are therefore placed on the
    representative mask pair ({1,2},{3,4}) only (_place_pairs): descended
    there, the placed set closed under the 8 permutations that fix the
    representative, and a pair C on the mask pair M is placed with
    sigma_M(B) when sigma_M^-1(C) is placed with B.  Where that preimage
    is not placed, C is descended itself, and if that places C its
    preimage is placed and closed.  Any tau in S_n is sigma_tau(M) s
    sigma_M^-1 for an s that fixes the representative, so the pairs
    placed this way are closed under S_n: the whole orbit of a pair placed
    by the fallback is placed, and the result is the S_n-closure of every
    pair that descent places.

    No placed pair stores a certificate, so each one's basis is certified
    before the pair becomes an element: a basis that descent returns for a
    pair by one Nielsen run (membership._is_basis_letters, in _place_pairs),
    any other as sigma(B) of a certified B that sigma^-1 maps back to B
    (_Relabel.carry), and each element's basis must hold both of its paths
    (_basis_holds).  These checks, like the fix-up, read letter tuples;
    only the stored bases of single classes are made Words, by the
    checking constructor.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if n > 5 or radius > MAX_RADIUS:
        raise ValueError(f"budgeted construction: n <= 5 and radius <= {MAX_RADIUS}")
    descent = _Descent(n)
    # core mask -> its placed core paths; (i, (), j), at cost 0, is always one
    by_mask: dict[int, list[Path]] = {}
    cls_of: dict[Path, CanonicalClass] = {}
    uncertified: list[str] = []
    for path in _core_paths(n, 2 * radius):
        basis = descent.descend((path,)) if _retraction_generates(path) else None
        if basis is None:
            uncertified.append(path_text(path, n))
            continue
        i, v, j = path
        b = v + (j,) + v[::-1]
        g = basis[i - 1][:len(basis[i - 1]) // 2][::-1]  # p^-1
        if _conjugate_letters(basis[j - 1], g) != b:
            g = (i,) + g  # reduced, since p x_i p^-1 is
        held = [_conjugate_letters(x, g) for x in basis] if g else basis
        if held[j - 1] != b:
            raise CertificationError(f"descent basis does not conjugate onto {path}")
        cls_of[path] = CanonicalClass(path, n, CompletingBasis(tuple(Word(x, n) for x in held)))
        by_mask.setdefault(1 << i | 1 << j, []).append(path)

    elements: set[frozenset[CanonicalClass]] = {frozenset([c]) for c in cls_of.values()}
    mask_pairs = _mask_pairs(n)
    placed = _place_pairs(descent, by_mask, mask_pairs) if mask_pairs else {}
    candidates = 0
    for first, second, sigma in mask_pairs:
        candidates += len(by_mask[first]) * len(by_mask[second])
        for (a, b), basis in placed.items():
            image = sigma.path(a), sigma.path(b)
            classes = cls_of.get(image[0]), cls_of.get(image[1])
            if None in classes:
                continue
            if not _basis_holds(sigma.carry(basis), image):
                raise CertificationError(f"descent basis does not hold {classes}")
            elements.add(frozenset(classes))
    placed_pairs = len(elements) - len(cls_of)
    params = {"radius": radius, "uncertified": sorted(uncertified),
              "unplaced": candidates - placed_pairs}
    classes = sorted(cls_of.values(), key=CanonicalClass.key)
    # the order of _element_key: positions in classes follow CanonicalClass.key
    position = {c: p for p, c in enumerate(classes)}
    return PartialBasisComplex(n, False, params, classes,
                               sorted(elements, key=lambda e: sorted(map(position.__getitem__, e))))


# ---------------------------------------------------------------------------
# the rank-3 isolated family
# ---------------------------------------------------------------------------

def rank3_isolated_family(m_max: int) -> list[CanonicalClass]:
    """Classes <x1, g_m x2 g_m^-1> with g_m = x3 (x1 x3)^m, m = 0..m_max.

    At rank 3 every partial basis is a single class, so these are isolated
    vertices; the classes are pairwise distinct (checked both by canonical
    form and by the independent exact oracle).  The canonical pair of each
    is (x1, b) with b = g_m x2 g_m^-1, and it is certified visible in the
    star shape enumerate_shapes(3)[0] marked (x1, b, x3).  That marking is
    a basis: g_m lies in <x1, x3>, so conjugating x2 by it is a product of
    partial conjugations of the standard basis (MarkedTree checks it with
    is_basis).  In marking letters the class is <b_1, b_2>, whose slot walk
    is the one step from slot 1 to slot 2, so it is visible in any shape;
    certify_partial_basis checks that with is_visible, and the basis.
    """
    star = enumerate_shapes(3)[0]
    out = []
    factors = []
    for m in range(m_max + 1):
        g = reduce((3,) + (1, 3) * m, 3)
        f = W2Factor(generator(1, 3), conjugate(generator(2, 3), g))
        cls = canonical_class(f)
        tree = MarkedTree(star, (cls.a, cls.b, generator(3, 3)))
        certify_partial_basis(tree, [cls])
        out.append(cls.with_certificate(VisibleIn(tree)))
        factors.append(f)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i] == out[j] or same_class_oracle(factors[i], factors[j]):
                raise CertificationError(
                    f"family members m={i} and m={j} are not distinct classes")
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ConnectivityReport:
    """The components, reduced Betti numbers and dimension of a family's K."""

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
    """Components, reduced Betti numbers and dimension of K (face_complex).

    Finite paired pieces need not realize the connectivity of the infinite
    complex, hence the exploratory flag.
    """
    cx = sub.face_complex()
    bq = betti(cx, "Q")
    return ConnectivityReport(sub.n, sub.paired, sub.paired, sub.params, len(sub.elements),
                              len(components(cx)), cx.dimension, bq, betti(cx, 2),
                              bq.get(cx.dimension, 0))
