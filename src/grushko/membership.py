"""Stallings-style folding over the standard splitting of W_n.

A subgroup H <= W_n acts on the Bass-Serre tree of the splitting
W_n = <x_1> * ... * <x_n>.  The folded core is the quotient of the union of
H-translates of the geodesics spelling the generators: a graph whose
vertices are cosets Hw, with at most one edge per generator label at each
vertex, plus "mirror" labels.  A mirror j at vertex u means the coset is
fixed by right multiplication by x_j (equivalently w x_j w^-1 lies in H);
reading letter j there bounces instead of moving.

Membership: a reduced word w lies in H iff reading it from the basepoint
stays inside the core and returns to the basepoint.  Folding additionally
threads witness words so that each mirror knows an expression of its
reflection in terms of the original generators; this is what computes
inverse automorphisms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .words import (
    Word,
    RankMismatchError,
    generators,
    identity,
    involution_core,
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

    def __init__(self, rank: int, adj: list[dict[int, int]],
                 mirrors: list[set[int]], witnesses: dict[tuple[int, int], Word] | None = None):
        self.rank = rank
        self.adj = adj
        self.mirrors = mirrors
        self.basepoint = 0
        # witness per (vertex, mirror label); present when folding tracked them
        self.witnesses = witnesses or {}

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    def check_folded(self) -> bool:
        for u, nbrs in enumerate(self.adj):
            if set(nbrs) & self.mirrors[u]:
                return False
            for j, v in nbrs.items():
                if self.adj[v].get(j) != u:
                    return False
        return True

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
    """Union-find worklist folding with optional witness tracking.

    Every vertex v created during construction has a fixed coset
    representative w(v) (the spelled prefix).  Invariants, all relative to
    those fixed representatives, with phi sending abstract letter k to the
    k-th input word:

      stored edge (u, j) -> v with witness e:   w(u) x_j w(v)^-1 = phi(e)
      stored mirror (u, j) with witness h:      w(u) x_j w(u)^-1 = phi(h)
      union-find potential pot[v]:              w(parent(v)) w(v)^-1 = phi(pot[v])

    Edges and mirrors are stored only at union-find roots; witnesses read
    through a stale far-endpoint id are rebased via the potentials.
    """

    def __init__(self, rank: int, track: bool, nwit: int):
        self.rank = rank
        self.track = track
        self.wident = identity(nwit) if track else None
        self.parent = [0]
        self.pot: list = [self.wident]
        self.adj: list[dict[int, int]] = [{}]
        self.mirrors: list[set[int]] = [set()]
        self.ewit: list[dict[int, Word]] = [{}]
        self.mwit: list[dict[int, Word]] = [{}]
        self.queue: deque = deque()

    # -- union-find with potentials --------------------------------------
    def find_w(self, u: int):
        """Root of u and the rebase word r with phi(r) = w(root) w(u)^-1."""
        chain = []
        while self.parent[u] != u:
            chain.append(u)
            u = self.parent[u]
        root = u
        if self.track:
            for v in reversed(chain):
                p = self.parent[v]
                if p != root:
                    self.pot[v] = self.pot[p] * self.pot[v]
                    self.parent[v] = root
            r = self.pot[chain[0]] if chain else self.wident
            return root, r
        for v in chain:
            self.parent[v] = root
        return root, None

    def find(self, u: int) -> int:
        return self.find_w(u)[0]

    def new_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.pot.append(self.wident)
        self.adj.append({})
        self.mirrors.append(set())
        self.ewit.append({})
        self.mwit.append({})
        return v

    def add_edge(self, u: int, j: int, v: int, wit: Word | None):
        self.queue.append(("edge", u, j, v, wit))

    def add_mirror(self, u: int, j: int, wit: Word | None):
        self.queue.append(("mirror", u, j, wit))

    # -- merging ----------------------------------------------------------
    def _merge(self, a: int, b: int, m: Word | None):
        """Identify roots a and b; phi(m) = w(a) w(b)^-1."""
        if a == b:
            return
        keep, gone = (a, b) if a < b else (b, a)  # basepoint 0 always survives
        if self.track and keep != a:
            m = ~m
        edges = list(self.adj[gone].items())
        ewit = dict(self.ewit[gone]) if self.track else {}
        mirrs = list(self.mirrors[gone])
        mwit = dict(self.mwit[gone]) if self.track else {}
        self.adj[gone].clear()
        self.ewit[gone].clear()
        self.mirrors[gone].clear()
        self.mwit[gone].clear()
        # detach the reverse orientations stored at the far endpoints
        for j, v in edges:
            fr = self.find(v)
            if fr != gone and self.adj[fr].get(j) is not None \
                    and self.find(self.adj[fr][j]) == gone:
                del self.adj[fr][j]
                self.ewit[fr].pop(j, None)
        self.parent[gone] = keep
        if self.track:
            self.pot[gone] = m
        # re-queue; witnesses stay relative to gone and get rebased on processing
        for j, v in edges:
            self.add_edge(gone, j, v, ewit.get(j))
        for j in mirrs:
            self.add_mirror(gone, j, mwit.get(j))

    # -- event loop ---------------------------------------------------------
    def _read_edge_witness(self, u: int, j: int):
        """Witness of the stored edge at root u, rebased to current far root."""
        v0 = self.adj[u][j]
        vroot, rv = self.find_w(v0)
        if not self.track:
            return vroot, None
        return vroot, self.ewit[u][j] * ~rv

    def run(self):
        track = self.track
        while self.queue:
            kind, *args = self.queue.popleft()
            if kind == "edge":
                u0, j, v0, e = args
                u, ru = self.find_w(u0)
                v, rv = self.find_w(v0)
                if track:
                    e = ru * e * ~rv
                if u == v:
                    self.add_mirror(u, j, e)
                    continue
                if j in self.mirrors[u]:
                    m = self.mwit[u][j] * e if track else None
                    self._merge(u, v, m)
                    continue
                if j in self.mirrors[v]:
                    m = self.mwit[v][j] * ~e if track else None
                    self._merge(v, u, m)
                    continue
                if j in self.adj[u]:
                    w, e0 = self._read_edge_witness(u, j)
                    if w == v:
                        continue
                    m = ~e0 * e if track else None
                    self._merge(w, v, m)
                    continue
                if j in self.adj[v]:
                    w2, e0 = self._read_edge_witness(v, j)
                    if w2 != u:
                        m = ~e0 * ~e if track else None
                        self._merge(w2, u, m)
                    continue
                self.adj[u][j] = v
                self.adj[v][j] = u
                if track:
                    self.ewit[u][j] = e
                    self.ewit[v][j] = ~e
            else:
                u0, j, h = args
                u, ru = self.find_w(u0)
                if track:
                    h = ru * h * ~ru
                if j in self.mirrors[u]:
                    continue
                if j in self.adj[u]:
                    # an edge and a mirror with the same label force a merge
                    vroot, e0 = self._read_edge_witness(u, j)
                    del self.adj[u][j]
                    self.ewit[u].pop(j, None)
                    if self.adj[vroot].get(j) is not None \
                            and self.find(self.adj[vroot][j]) == u:
                        del self.adj[vroot][j]
                        self.ewit[vroot].pop(j, None)
                    self.mirrors[u].add(j)
                    if track:
                        self.mwit[u][j] = h
                    m = h * e0 if track else None
                    self._merge(u, vroot, m)
                    continue
                self.mirrors[u].add(j)
                if track:
                    self.mwit[u][j] = h


def fold(gens: list[Word], track_witnesses: bool = False) -> CoreGraph:
    """Fold the wedge of paths/loops spelling the generators into the core.

    Involution generators g x_j g^-1 contribute a segment spelling g with a
    mirror j at its far end; other generators contribute loops at the
    basepoint.  The result is independent of fold order.
    """
    rank = gens[0].rank if gens else 1
    for g in gens:
        if g.rank != rank:
            raise RankMismatchError("generators of mixed rank")
    nwit = max(len(gens), 1)
    f = _Folder(rank, track_witnesses, nwit)
    # witnesses are words in one abstract letter per input generator
    wident = f.wident
    for k, g in enumerate(gens):
        if g.is_identity:
            continue
        ygen = Word((k + 1,), nwit) if track_witnesses else None
        if g.is_involution:
            j, prefix = involution_core(g)
            u = 0
            for a in prefix.letters:
                v = f.new_vertex()
                f.add_edge(u, a, v, wident)
                u = v
            f.add_mirror(u, j, ygen)
        else:
            u = 0
            for i, a in enumerate(g.letters):
                last = i == len(g.letters) - 1
                v = 0 if last else f.new_vertex()
                f.add_edge(u, a, v, ygen if last else wident)
                u = v
    f.run()

    # canonical relabeling by BFS from the basepoint, labels in letter order
    root = f.find(0)
    order = {root: 0}
    adj: list[dict[int, int]] = [{}]
    mirrors: list[set[int]] = [set()]
    witnesses: dict[tuple[int, int], Word] = {}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        uu = order[u]
        mirrors[uu] = set(f.mirrors[u])
        if track_witnesses:
            for j in f.mirrors[u]:
                h = f.mwit[u].get(j)
                if h is not None:
                    witnesses[(uu, j)] = h
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
    return CoreGraph(rank, adj, mirrors, witnesses)


def read(core: CoreGraph, w: Word) -> int | None:
    """Vertex of the coset Hw, reached by reading w from the basepoint and
    bouncing at mirrors; None when the reading leaves the core."""
    u = core.basepoint
    for j in w.letters:
        if j in core.mirrors[u]:
            continue
        u = core.adj[u].get(j)
        if u is None:
            return None
    return u


def contains(core: CoreGraph, w: Word) -> bool:
    """Subgroup membership: reading w from the basepoint returns to it."""
    if w.rank != core.rank:
        raise RankMismatchError("word rank does not match core rank")
    return read(core, w) == core.basepoint


def generates(gens: list[Word]) -> bool:
    """True iff the given words generate all of W_n."""
    if not gens:
        return False
    core = fold(gens)
    return all(contains(core, x) for x in generators(gens[0].rank))


def is_basis(candidates: list[Word]) -> bool:
    """True iff n involutions generate W_n.

    n involutions that generate W_n always form a free basis (Grushko/Kurosh
    rank count -- a stated dependency of this package, exercised only in this
    direction), so generation is the whole check.
    """
    if not candidates:
        return False
    n = candidates[0].rank
    if len(candidates) != n:
        raise ValueError(f"expected {n} candidates, got {len(candidates)}")
    if not all(c.is_involution for c in candidates):
        return False
    return generates(candidates)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def _apply_images(images: tuple[Word, ...], w: Word) -> Word:
    rank = images[0].rank
    stack: list[int] = []
    for j in w.letters:
        img = images[j - 1]
        for a in img.letters:
            if stack and stack[-1] == a:
                stack.pop()
            else:
                stack.append(a)
    return Word(tuple(stack), rank)


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

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        return compose(self, other)


def make_automorphism(images: list[Word] | tuple[Word, ...]) -> Automorphism:
    """Build an automorphism from n involution images.

    The inverse is recovered from fold witnesses: once the images fold to the
    one-vertex core with all mirrors, each mirror's witness expresses x_j as
    a word in the images.  The construction is self-validating.
    """
    images = tuple(images)
    n = images[0].rank
    if len(images) != n:
        raise NotBasisError(f"need {n} images, got {len(images)}")
    if not all(b.is_involution for b in images):
        raise NotBasisError("images must be involutions")
    core = fold(list(images), track_witnesses=True)
    if core.num_vertices != 1 or core.mirrors[0] != set(range(1, n + 1)):
        raise NotBasisError("images do not generate W_n")
    inverse_images = []
    for j in range(1, n + 1):
        h = core.witnesses[(0, j)]  # word in abstract generator letters
        inverse_images.append(reduce(h.letters, n))
    phi = Automorphism(images, tuple(inverse_images))
    for j, x in enumerate(generators(n), start=1):
        if phi(phi.inverse_images[j - 1]) != x:
            raise AssertionError("fold witness produced an invalid inverse")
    return phi


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
