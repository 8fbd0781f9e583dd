"""Visibility of dihedral factors in marked Grushko trees.

A factor A = <a, b> is visible in a tree S when the minimal A-invariant
line meets its translates in at most a point; equivalently the quotient
segment between the fixed points of a and b embeds in the quotient graph.
Operationally: the edge-orbit labels along the Bass-Serre path between
fixed_point(a) and fixed_point(b) are pairwise distinct.

The path is computed by tiling: the Bass-Serre tree is a union of
translates g.L of the fundamental domain, adjacent along marked vertices,
and the tile itinerary of the path is the word g_a^-1 g_b written in the
marking basis.  Each step between consecutive slots crosses the shape path
between their vertices, an edge bitmask in TreeShape.segment_masks, and
the labels are distinct iff those masks are pairwise disjoint.  Tests
check this route against the lazy bs_path search.

The searches and certification run on letter tuples, with no Word per
candidate: each b = g y g^-1 comes from words._conjugate_letters and its
class from factors._path, and certify_partial_basis reads each core path
with _path and makes a Word only of each basis member it returns.  Inputs
are validated where they enter: Word and MarkedTree (the marking that the
searches start from) when built, is_visible its factor, and
certify_partial_basis its classes (core collisions, is_visible unless
VisibleIn this tree) and, through is_basis, its result.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

from .words import (NotInvolutionError, RankMismatchError, Word, _conjugate_letters,
                    _reduce_into, reduce)
from .factors import CanonicalClass, VisibleIn, W2Factor, _path
from .trees import MarkedTree
from . import membership


class CertificationError(RuntimeError):
    """A certification search failed; reported loudly, never dropped."""


def _walk(tree: MarkedTree, x: tuple[int, ...], y: tuple[int, ...]) -> list[int]:
    """Slot itinerary of the Bass-Serre path between the fixed points of the
    involutions with the letters x and y."""
    hx, hy = len(x) // 2, len(y) // 2
    ja, ga, jb, gb = x[hx], x[:hx], y[hy], y[:hy]
    ma, mb = tree.marking[ja - 1].letters, tree.marking[jb - 1].letters
    ca, cb = ma[:len(ma) // 2], mb[:len(mb) // 2]
    # the tile move g_a^-1 g_b, with g_a = ga ca^-1 and g_b = gb cb^-1
    h = _reduce_into(list(ca), ga[::-1] + gb + cb[::-1])
    if not tree.standard:
        h = tree.in_marking_letters(reduce(h, tree.n)).letters
    return [ja, *h, jb]


def is_visible(tree: MarkedTree, f: W2Factor | CanonicalClass) -> bool:
    """True iff the fixed-point path meets each edge orbit at most once.

    Each step of the slot walk is a simple shape path, so no label repeats
    iff the segment masks of the steps are pairwise disjoint.  Raises
    NotInvolutionError when a or b is not an involution, a checked first.
    """
    a, b = f.a, f.b
    for w in (a, b):
        if not w.is_involution:
            raise NotInvolutionError(f"{w} is not an involution")
        if w.rank != tree.n:
            raise RankMismatchError(f"rank mismatch: {w.rank} vs {tree.n}")
    masks = tree.shape.segment_masks
    walk = _walk(tree, a.letters, b.letters)
    used = 0
    for r, s in zip(walk, walk[1:]):
        if used & masks[r][s]:
            return False
        used |= masks[r][s]
    return True


def _interior_stops(tree: MarkedTree, x: int, y: int) -> list[int]:
    """Slots of the marked vertices strictly between those of x and y, in order."""
    if x == y:
        raise ValueError("need two distinct slots")
    shape = tree.shape
    path = shape.path(tree.vertex_of_slot(x), tree.vertex_of_slot(y))
    return [shape.slot_of[far] for _, far in path[:-1] if shape.slot_of[far]]


def _subproducts(tree: MarkedTree, slots: list[int]) -> list[tuple[int, ...]]:
    """Letters of the 2^k products b_{s_1}^{e_1} ... b_{s_k}^{e_k}, e_1 the fastest bit."""
    words: list[tuple[int, ...]] = [()]
    for slot in slots:
        b = tree.marking_word(slot).letters
        words += [tuple(_reduce_into(list(w), b)) for w in words]
    return words


@dataclass(frozen=True)
class VisibleFamily:
    """The finitely many visible classes of one pair index in one tree."""

    tree: MarkedTree
    pair_index: int
    classes: tuple[CanonicalClass, ...]

    def __len__(self) -> int:
        return len(self.classes)


def visible_classes(tree: MarkedTree, i: int) -> VisibleFamily:
    """Visible paired classes <b_{2i-1}, g b_{2i} g^-1> over interior conjugators.

    A segment conjugator is b_x^e g b_y^f with g a product of the interior
    stops (x = 2i-1, y = 2i), and the endpoint letters add no class: g b_y
    gives the same subgroup, as (g b_y) b_y (g b_y)^-1 = g b_y g^-1, and
    b_x g gives its conjugate by b_x = a, whose class and visibility are
    the same.  So the 2^(p-2) interior subproducts give every class that
    the 2^p segment conjugators give.

    Every candidate is visible, so no walk is checked.  g takes the
    interior stops S it uses in path order, distinct slots, so its marking
    letters are S, and the slot walk of <a, g y g^-1> is x, S, y, up to an
    empty step y, y.  Those are marked vertices in order along the one
    tree path from x to y, so consecutive steps cover consecutive pieces
    of it, and their segment masks are disjoint.  c01 compares the family
    with the exhaustive visible_classes_brute.
    """
    n = tree.n
    if 2 * i > n or i < 1:
        raise ValueError(f"pair index {i} out of range for rank {n}")
    a = tree.marking_word(2 * i - 1).letters
    y = tree.marking_word(2 * i).letters
    paths = set()
    for g in _subproducts(tree, _interior_stops(tree, 2 * i - 1, 2 * i)):
        b = _conjugate_letters(y, g)
        if b != a:
            paths.add(_path(a, b))
    cert = VisibleIn(tree)
    classes = sorted((CanonicalClass(p, n, cert) for p in paths), key=CanonicalClass.key)
    return VisibleFamily(tree, i, tuple(classes))


def visible_words(masks: Sequence[Sequence[int]], r: int, s: int,
                  max_len: int | None = None) -> tuple[list[tuple[int, ...]], int]:
    """Reduced words h whose slot walk r, h_1, ..., h_k, s has disjoint segments.

    masks[a][b] is the edge bitmask of the segment from slot a to slot b
    (see TreeShape.segment_masks).  Returns the visible words and the
    number of search nodes, the prefixes whose segments are still disjoint.

    The search extends a prefix only while its segments stay disjoint:
    the union of a prefix's segments only grows as letters are added, so
    an overlapping prefix has no visible extension and pruning it is
    exact.  Every letter after the first joins two distinct slots, so when
    those masks are nonzero each step adds at least one new edge and the
    search ends without a length bound; max_len, if given, bounds |h|.
    """
    n = len(masks) - 1
    if max_len is None and any(not masks[a][b] for a in range(1, n + 1)
                               for b in range(1, n + 1) if a != b):
        raise ValueError("an empty segment between distinct slots: "
                         "the unbounded search would not end")
    out: list[tuple[int, ...]] = []
    nodes = 0
    stack: list[tuple[tuple[int, ...], int, int]] = [((), r, 0)]
    while stack:
        letters, last, used = stack.pop()
        nodes += 1
        if not used & masks[last][s]:
            out.append(letters)
        if max_len is not None and len(letters) >= max_len:
            continue
        row = masks[last]
        for k in range(1, n + 1):
            if not used & row[k] and (k != last or not letters):
                stack.append((letters + (k,), k, used | row[k]))
    return out, nodes


def visible_classes_brute(tree: MarkedTree, i: int,
                          max_len: int | None = None) -> set[CanonicalClass]:
    """Independent enumeration: every conjugator g whose walk is visible.

    This is the oracle side of the finiteness statement for visible paired
    factors.  The pruned search of visible_words gives the words h in
    marking letters, and g = b_{h_1} ... b_{h_k} is the product of the
    marking involutions.  The marking is a basis, so every g arises from
    exactly one reduced h, and the search is exhaustive in any marking
    unless max_len bounds |h|.
    """
    n = tree.n
    if 2 * i > n or i < 1:
        raise ValueError(f"pair index {i} out of range for rank {n}")
    a = tree.marking_word(2 * i - 1).letters
    y = tree.marking_word(2 * i).letters
    words, _ = visible_words(tree.shape.segment_masks, 2 * i - 1, 2 * i, max_len)
    paths = set()
    for h in words:
        # h is reduced, so in the standard marking it spells g itself
        b = _conjugate_letters(y, h if tree.standard else tree.marking_letters(h))
        if b != a:
            paths.add(_path(a, b))
    cert = VisibleIn(tree)
    return {CanonicalClass(p, n, cert) for p in paths}


# ---------------------------------------------------------------------------
# constructive basis certification
# ---------------------------------------------------------------------------

def certify_partial_basis(tree: MarkedTree, classes) -> tuple[Word, ...]:
    """Build a basis realizing the given visible classes jointly.

    Returns involutions (y_1..y_n), indexed along tree.shape.adapted_order,
    such that consecutive construction prefixes generate the corresponding
    marking prefixes and each input class is <y_alpha, y_beta> for its core
    slots, alpha before beta.  This is the constructive proof that visible
    classes on disjoint cores form a partial basis; it raises
    CertificationError when a class is not visible here, on core
    collisions, and when the result fails is_basis.  A class certified
    VisibleIn this very tree object, as both searches return them, is not
    checked with is_visible again.  visible_classes_brute keeps only
    visible walks, and visible_classes checks none: its docstring shows
    that every class it makes is visible.  A forged certificate still
    meets the final is_basis.

    Each conjugator is read off the class's core path.  In marking letters
    the class has the core path (i, v, j), read by factors._path off the
    letters of its pair (rewritten by in_marking_letters unless the marking
    is standard), with {i, j} = {alpha, beta}.  So it is
    <b_alpha, g b_beta g^-1> for g the marking product of v, read backwards
    when i = beta, and y_beta = g b_beta g^-1.  Why the
    prefix property holds: the slot walk of a visible class, r, h, s with
    {r, s} = {alpha, beta} (_walk), has pairwise disjoint segments.
    Leaving out the empty steps that a leading r or a trailing s of h makes,
    it crosses no edge twice, so it is the tree path between the two cores,
    and the other letters of h are distinct slots on that path.
    factors.strip drops exactly those end letters, so v is the rest of h,
    possibly reversed.  The prefix of the adapted order that ends at beta
    holds alpha, so its hull holds the path, and every slot of v comes
    before beta.  By induction the earlier y's generate the earlier marking
    involutions, so they hold g, and with y_beta they generate b_beta.
    """
    order = tree.shape.adapted_order
    pos = {slot: i for i, slot in enumerate(order)}
    used: set[int] = set()
    conjugators: dict[int, tuple[int, ...]] = {}
    for cls in classes:
        r, s = cls.cores()
        if r == s:
            raise CertificationError(f"core collision inside {cls}")
        if r in used or s in used:
            raise CertificationError("core collision across classes")
        used.update((r, s))
        trusted = isinstance(cls.certificate, VisibleIn) and cls.certificate.tree is tree
        if not trusted and not is_visible(tree, cls):
            raise CertificationError(f"{cls} is not visible in this tree")
        if tree.standard:
            i, v, j = cls.path
            x, y = (i,), v + (j,) + v[::-1]
        else:
            x = tree.in_marking_letters(cls.a).letters
            y = tree.in_marking_letters(cls.b).letters
        i, v, j = _path(x, y)
        if pos[i] > pos[j]:
            i, v, j = j, v[::-1], i
        # v is reduced, so in the standard marking it spells g itself
        conjugators[j] = v if tree.standard else tree.marking_letters(v)

    out = tuple(Word(_conjugate_letters(tree.marking_word(k).letters, conjugators[k]), tree.n)
                if k in conjugators else tree.marking_word(k) for k in order)
    if not membership.is_basis(list(out)):
        raise CertificationError("constructed tuple fails the basis check")
    return out


# ---------------------------------------------------------------------------
# per-tree fibers of the basis complex
# ---------------------------------------------------------------------------

@dataclass
class TreeFiber:
    """All paired partial bases visible in one tree, ordered by inclusion."""

    tree: MarkedTree
    families: tuple[VisibleFamily, ...]
    elements: list[frozenset[CanonicalClass]]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(fam) for fam in self.families)


def bp_fiber(tree: MarkedTree, certify: bool = True) -> TreeFiber:
    """Nonempty class sets with at most one class per pair index, all visible.

    With certify, certify_partial_basis runs on the maximal selections, one
    class from every nonempty family; this is the executable content of the
    pointwise-to-setwise upgrade.  Every element is a subset of a maximal
    selection, and a subset of a partial basis is a partial basis (the same
    basis holds conjugates of its classes), so every element is certified.
    """
    n = tree.n
    families = tuple(visible_classes(tree, i) for i in range(1, n // 2 + 1))
    elements = [frozenset(c for c in combo if c is not None)
                for combo in product(*[(None, *fam.classes) for fam in families])]
    elements = [e for e in elements if e]
    if certify and elements:
        for selection in product(*[fam.classes for fam in families if fam.classes]):
            certify_partial_basis(tree, selection)
    return TreeFiber(tree, families, elements)
