"""Stallings-style folding over the standard splitting of W_n, and bases.

A subgroup H <= W_n acts on the Bass-Serre tree of the splitting
W_n = <x_1> * ... * <x_n>.  The folded core is the quotient of the union of
H-translates of the geodesics spelling the generators: a graph whose
vertices are cosets Hw, with at most one edge per generator label at each
vertex, plus "mirror" labels.  A mirror j at vertex u means the coset is
fixed by right multiplication by x_j (equivalently w x_j w^-1 lies in H);
reading letter j there bounces instead of moving.

Membership: a reduced word w lies in H iff reading it from the basepoint
stays inside the core and returns to the basepoint.

(h) Bases and inverse automorphisms need no folding.  Write involutions as
    y_i = p_i x_{j_i} p_i^-1.  If no p_k begins with p_i x_{j_i}, the
    prefix trie of the p_i with a mirror j_i at the end of each is already
    folded, so it is the core of <y>, and that is W_n only when every p_i
    is empty.  Otherwise p_k = p_i x_{j_i} p' and the Nielsen move
    y_k <- y_i y_k y_i = p_i p' x_{j_k} p'^-1 p_i^-1 is strictly shorter.
    So the moves terminate, and they end at a permutation of the generators
    exactly when the y form a basis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .words import (
    Word,
    RankMismatchError,
    _conjugate_letters,
    _reduce_into,
    conjugate,
    generators,
    reduce,
)


class NotBasisError(ValueError):
    """make_automorphism received images that do not generate W_n."""


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

class CoreGraph:
    """Folded core of a finitely generated subgroup of W_n.

    Vertices are integers with basepoint 0; `adj[u][j]` is the far endpoint
    of the unique j-labeled edge at u (if any); `mirrors[u]` is the set of
    generator labels that bounce at u.  Vertex numbering is the canonical
    one produced by breadth-first traversal from the basepoint with edges
    taken in label order, so equal subgroup data yields equal graphs.
    """

    def __init__(self, rank: int, adj: list[dict[int, int]], mirrors: list[set[int]]):
        self.rank = rank
        self.adj = adj
        self.mirrors = mirrors
        self.basepoint = 0

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CoreGraph) and self.rank == other.rank
                and self.adj == other.adj and self.mirrors == other.mirrors)

    def to_dot(self) -> str:
        """Graphviz rendering; mirrors drawn as double-circled leaf nodes."""
        lines = ["graph core {", '  0 [label="*" shape=box];']
        for u in range(1, self.num_vertices):
            lines.append(f"  {u};")
        seen = set()
        for u, nbrs in enumerate(self.adj):
            for j, v in sorted(nbrs.items()):
                if (v, j) not in seen:
                    seen.add((u, j))
                    lines.append(f'  {u} -- {v} [label="{j}"];')
        for u, ms in enumerate(self.mirrors):
            for j in sorted(ms):
                mid = f"m{u}_{j}"
                lines.append(f'  {mid} [label="{j}" shape=doublecircle];')
                lines.append(f'  {u} -- {mid} [label="{j}"];')
        lines.append("}")
        return "\n".join(lines)


class _Folder:
    """Union-find worklist folding.

    Queued events are edges (u, j, v) and mirrors (u, j, None), named by
    possibly stale vertex ids.  Edges and mirrors are stored only at
    union-find roots, each edge at both of its ends.
    """

    def __init__(self):
        self.parent = [0]
        self.adj: list[dict[int, int]] = [{}]
        self.mirrors: list[set[int]] = [set()]
        self.queue: deque = deque()

    def find(self, u: int) -> int:
        root = u
        while self.parent[root] != root:
            root = self.parent[root]
        while u != root:
            self.parent[u], u = root, self.parent[u]
        return root

    def new_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.adj.append({})
        self.mirrors.append(set())
        return v

    def _detach(self, u: int, j: int) -> int:
        """Remove the j-edge at root u from both ends; its far root."""
        v = self.find(self.adj[u].pop(j))
        back = self.adj[v].get(j)
        if back is not None and self.find(back) == u:
            del self.adj[v][j]
        return v

    def _merge(self, a: int, b: int):
        """Identify roots a and b, re-queueing what the larger one held."""
        if a == b:
            return
        keep, gone = (a, b) if a < b else (b, a)  # basepoint 0 always survives
        labels = list(self.adj[gone])
        edges = [(gone, j, self._detach(gone, j)) for j in labels]
        mirrs = [(gone, j, None) for j in self.mirrors[gone]]
        self.mirrors[gone] = set()
        self.parent[gone] = keep
        self.queue.extend(edges)
        self.queue.extend(mirrs)

    def run(self):
        adj, mirrors, find = self.adj, self.mirrors, self.find
        while self.queue:
            u, j, v = self.queue.popleft()
            u = find(u)
            if v is None:
                if j in mirrors[u]:
                    continue
                mirrors[u].add(j)
                if j in adj[u]:
                    # an edge and a mirror with the same label force a merge
                    self._merge(u, self._detach(u, j))
                continue
            v = find(v)
            if u == v:
                self.queue.append((u, j, None))
            elif j in mirrors[u] or j in mirrors[v]:
                self._merge(u, v)
            elif j in adj[u]:
                self._merge(find(adj[u][j]), v)
            elif j in adj[v]:
                self._merge(find(adj[v][j]), u)
            else:
                adj[u][j] = v
                adj[v][j] = u


def fold(gens: list[Word]) -> CoreGraph:
    """Fold the wedge of paths/loops spelling the generators into the core.

    Involution generators g x_j g^-1 contribute a segment spelling g with a
    mirror j at its far end; other generators contribute loops at the
    basepoint.  The result is independent of fold order.
    """
    rank = gens[0].rank if gens else 1
    f = _Folder()
    for g in gens:
        if g.rank != rank:
            raise RankMismatchError("generators of mixed rank")
        letters, mirror = g.letters, None
        if g.is_involution:
            half = len(letters) // 2
            letters, mirror = letters[:half], letters[half]
        u = 0
        for i, a in enumerate(letters):
            v = 0 if mirror is None and i == len(letters) - 1 else f.new_vertex()
            f.queue.append((u, a, v))
            u = v
        if mirror is not None:
            f.queue.append((u, mirror, None))
    f.run()

    # canonical relabeling by BFS from the basepoint, labels in letter order
    root = f.find(0)
    order = {root: 0}
    adj: list[dict[int, int]] = [{}]
    mirrors: list[set[int]] = [set()]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        mirrors[order[u]] = set(f.mirrors[u])
        for j in sorted(f.adj[u]):
            v = f.find(f.adj[u][j])
            if v not in order:
                order[v] = len(adj)
                adj.append({})
                mirrors.append(set())
                queue.append(v)
    for u, uu in order.items():
        for j, v in f.adj[u].items():
            adj[uu][j] = order[f.find(v)]
    return CoreGraph(rank, adj, mirrors)


def read(core: CoreGraph, w: Word) -> tuple[int, tuple[int, ...]]:
    """Read w from the basepoint, bouncing at mirrors: the vertex reached
    and the unread tail of letters.

    The tail is empty when the reading stays in the core, and the vertex is
    then that of the coset Hw.  Otherwise the reading stops at the first
    letter with neither an edge nor a mirror, and Hw = Hp t for p the read
    prefix and t the tail, so the pair names the coset Hw either way.
    """
    u = core.basepoint
    letters = w.letters
    for k, j in enumerate(letters):
        if j in core.mirrors[u]:
            continue
        v = core.adj[u].get(j)
        if v is None:
            return u, letters[k:]
        u = v
    return u, ()


def contains(core: CoreGraph, w: Word) -> bool:
    """Subgroup membership: reading w from the basepoint returns to it."""
    if w.rank != core.rank:
        raise RankMismatchError("word rank does not match core rank")
    return read(core, w) == (core.basepoint, ())


# ---------------------------------------------------------------------------
# bases and automorphisms
# ---------------------------------------------------------------------------

def _nielsen(ys: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Apply the moves (h) to the involution letter tuples ys in place until
    none applies; returns the moves (i, k), y_k <- y_i y_k y_i, in order.

    Each move shortens y_k by two letters, so the loop ends; ys must be
    involutions, since for others a move can lengthen y_k without end.
    """
    moves = []
    moved = True
    while moved:
        moved = False
        for i, yi in enumerate(ys):
            if len(yi) == 1:
                # y_i = x: the move applies to every y_k = x p' x_j p'^-1 x
                # and conjugating by x strips its end letters
                x = yi[0]
                for k, yk in enumerate(ys):
                    if yk[0] == x and len(yk) > 1:
                        ys[k] = yk[1:-1]
                        moves.append((i, k))
                        moved = True
                continue
            head = yi[:len(yi) // 2 + 1]  # p_i x_{j_i}
            for k, yk in enumerate(ys):
                if len(yk) > len(yi) and yk[:len(head)] == head:
                    ys[k] = _conjugate_letters(yk, yi)
                    moves.append((i, k))
                    moved = True
    return moves


def is_basis(candidates: list[Word]) -> bool:
    """True iff the candidates are n involutions forming a basis of W_n.

    Decided by the moves (h), which end at a permutation of the
    generators exactly for a basis.  No candidates is not a basis; a
    count other than the rank of the first raises ValueError, and mixed
    ranks raise RankMismatchError.
    """
    if not candidates:
        return False
    n = candidates[0].rank
    if len(candidates) != n:
        raise ValueError(f"expected {n} candidates, got {len(candidates)}")
    if any(c.rank != n for c in candidates):
        raise RankMismatchError("generators of mixed rank")
    return _is_basis_letters([c.letters for c in candidates])


def _is_basis_letters(ys: list[tuple[int, ...]]) -> bool:
    """True iff the reduced letter tuples ys are involutions forming a basis
    of W_n, n = len(ys); is_basis after its checks.  ys is not changed."""
    if not all(len(y) % 2 and y == y[::-1] for y in ys):
        return False
    ys = list(ys)
    _nielsen(ys)
    return sorted(ys) == [(j,) for j in range(1, len(ys) + 1)]


def _apply_images(images: tuple[Word, ...], w: Word) -> Word:
    stack: list[int] = []
    for j in w.letters:
        _reduce_into(stack, images[j - 1].letters)
    return Word(tuple(stack), images[0].rank)


@dataclass(frozen=True)
class Automorphism:
    """Automorphism of W_n given by generator images, with eager inverse."""

    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]

    @property
    def rank(self) -> int:
        return len(self.images)

    def __call__(self, w: Word) -> Word:
        return _apply_images(self.images, w)

    def inverse(self) -> "Automorphism":
        return Automorphism(self.inverse_images, self.images)


def make_automorphism(images: list[Word] | tuple[Word, ...]) -> Automorphism:
    """Build an automorphism from n involution images.

    The inverse comes from the moves (h): each move y_k <- y_i y_k y_i is
    replayed on the word w_k in the abstract letters with phi(w_k) = y_k,
    so when the y end at the generators, w_k is the inverse image of y_k.
    """
    images = tuple(images)
    if not images:
        raise NotBasisError("need n images, got 0")
    n = images[0].rank
    if len(images) != n:
        raise NotBasisError(f"need {n} images, got {len(images)}")
    if not all(b.is_involution for b in images):
        raise NotBasisError("images must be involutions")
    if any(b.rank != n for b in images):
        raise RankMismatchError("images of mixed rank")
    ys = [b.letters for b in images]
    ws = list(generators(n))
    for i, k in _nielsen(ys):
        ws[k] = conjugate(ws[k], ws[i])
    if sorted(ys) != [(j,) for j in range(1, n + 1)]:
        raise NotBasisError("images do not generate W_n")
    inverse_images = tuple(w for _, w in sorted(zip(ys, ws), key=lambda yw: yw[0]))
    return Automorphism(images, inverse_images)


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """The automorphism applying psi first, then phi."""
    if phi.rank != psi.rank:
        raise RankMismatchError("rank mismatch in composition")
    images = tuple(_apply_images(phi.images, w) for w in psi.images)
    inv = tuple(_apply_images(psi.inverse_images, w) for w in phi.inverse_images)
    return Automorphism(images, inv)


def semidirect_embed(wtuple: tuple[Word, ...], phi3: Automorphism,
                     restrict_to_first_three: bool = True) -> Automorphism:
    """Extend an automorphism of <x_1,x_2,x_3> to W_n by coordinate conjugations.

    Sends x_i to phi3(x_i) for i <= 3 and to w_i^-1 x_i w_i for i >= 4.
    With the w_i drawn from <x_1,x_2,x_3> this realizes the semidirect
    product of the (n-3)-fold diagonal action inside Aut(W_n).
    """
    if phi3.rank != 3:
        raise ValueError("phi3 must be an automorphism of W_3")
    if not wtuple:
        raise ValueError("need at least one conjugating word (n >= 4)")
    n = wtuple[0].rank
    if len(wtuple) != n - 3:
        raise ValueError(f"need {n - 3} words for rank {n}, got {len(wtuple)}")
    if restrict_to_first_three:
        for w in wtuple:
            if any(a > 3 for a in w.letters):
                raise ValueError(f"{w} is not supported on x1,x2,x3")
    images = [reduce(phi3.images[i].letters, n) for i in range(3)]
    for i, w in enumerate(wtuple, start=4):
        images.append(reduce(tuple(reversed(w.letters)) + (i,) + w.letters, n))
    return make_automorphism(images)
