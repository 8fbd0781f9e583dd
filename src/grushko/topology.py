"""Posets, simplicial complexes, and simplicial homology over Q, F_p, and Z.

A complex keeps its simplices grouped by degree and sorted (`grades`).  Every
complex is built through the one constructor, which checks its simplices
(distinct vertices, face-closed).  The face check is the boundary-row
lookup: each k-simplex's facets are looked up among the (k-1)-simplices,
and the rows found are kept (`faces`) for the chain complex, so each complex
enumerates its faces once.  A downward-closed family of nonempty
sets is the face poset of the simplicial complex K whose simplices are its
members (`SimplicialComplex.from_face_poset`); the criteria take homology
on K rather than on the poset's order complex.  The order complex is the
barycentric subdivision of K, so the two are homeomorphic and have the
same homology (Björner, "Topological methods", Handbook of Combinatorics,
1995, section 9), and K is far smaller: for c03, 41,030 faces against
1,006,830 chains.  Order complexes (`Poset.order_complex`, the constructor
applied to the poset's chains) remain only as the independent oracle that
the tests and perfbench compare K against.

Each complex builds its chain complex once (`SimplicialComplex.chain_complex`)
and every homology call on it shares that build.  Boundary matrices are kept
sparse (dict columns).  The chain complex is coreduced first (Mrozek &
Batko, 2009): pairs (a, b) with a the only live face of b are removed, which
over Z is exact and leaves the other boundaries restricted (see
`ChainComplex`).  Each component after the first is coreduced from a
critical vertex v: the augmentation on v's component retracts the complex
C onto <v>, so H(C) = Z + H(C/<v>), and coreduction goes on in C/<v>.  On
every selection-poset wedge of c03 only one cell per sphere survives, and
on the rank-4 unpaired K one per Betti number, so the eliminations below
see almost nothing.

Each boundary is eliminated by the standard column reduction: columns in
order, each reduced until its highest nonzero row (its pivot) is new.  Over
F_p that takes one subtraction per step; over Q and Z only integral column
operations are used (subtraction, and a Euclid step where the pivots do not
divide), so the reduced columns span the same lattice.  Integral
homology comes from Smith normal form: each reduced column with a unit
(+-1) pivot contributes invariant factor 1, and the other columns (tiny in
practice) go through a dense textbook SNF with exact integer arithmetic.
The field Betti numbers are computed by their own eliminations and never
derived from the SNF, so the two stay independent checks of each other.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
from dataclasses import dataclass

from .jsoncheck import check


# ---------------------------------------------------------------------------
# posets
# ---------------------------------------------------------------------------

class Poset:
    """Finite strict poset on opaque hashable elements."""

    def __init__(self, elements, above: list[set[int]]):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        self.above = above  # above[i] = indices of elements strictly greater

    @classmethod
    def from_leq(cls, elements, leq) -> "Poset":  # kept for perfbench's fibers check
        elements = list(elements)
        above = [{j for j, b in enumerate(elements) if leq(a, b) and not leq(b, a)}
                 for a in elements]
        return cls(elements, above)

    @classmethod
    def by_inclusion(cls, elements) -> "Poset":
        """Distinct frozensets ordered by strict inclusion.

        The sets above e are the other sets holding every member of e: the
        intersection of the members' holder sets (all others when e is empty).
        """
        elements = list(elements)
        holders: dict = {}
        for i, e in enumerate(elements):
            for m in e:
                holders.setdefault(m, set()).add(i)
        above = []
        for i, e in enumerate(elements):
            up = set.intersection(*map(holders.__getitem__, e)) if e else set(range(len(elements)))
            up.discard(i)
            above.append(up)
        return cls(elements, above)

    def __len__(self) -> int:
        return len(self.elements)

    def chains(self) -> list[tuple[int, ...]]:  # kept for perfbench's Δ(P) checks
        """All nonempty chains, each a tuple of element indices listed upward.

        `above` must be irreflexive and transitive (ValueError otherwise):
        one subset test per relation.  Each chain is then walked up `above`
        once from its least element.
        """
        above = self.above
        for i, up in enumerate(above):
            if i in up:
                raise ValueError(f"poset element {i} lies above itself")
            for j in up:
                if not above[j] <= up:
                    raise ValueError(f"poset order is not transitive above {i} < {j}")
        chains = []
        stack = [(i,) for i in range(len(above))]
        while stack:
            chain = stack.pop()
            chains.append(chain)
            stack.extend(chain + (j,) for j in above[chain[-1]])
        return chains

    def order_complex(self) -> "SimplicialComplex":  # kept for perfbench's Δ(P) checks
        """Simplices are the chains (geometric realization of the poset)."""
        return SimplicialComplex(self.chains())

    def isomorphic_via(self, other: "Poset", mapping: dict) -> bool:
        """Verify that an explicit element bijection is an order isomorphism:
        it maps each element's `above` set onto the `above` set of its image,
        one set comparison per element."""
        if len(self) != len(other) or len(mapping) != len(self):
            return False
        if set(mapping) != set(self.elements) or set(mapping.values()) != set(other.elements):
            return False
        image = [other.index[mapping[e]] for e in self.elements]
        return all({image[j] for j in up} == other.above[image[i]]
                   for i, up in enumerate(self.above))


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

def _refuse_degenerate(simplices) -> None:
    """Raise on the first empty or degenerate simplex met, if any."""
    for s in simplices:
        if not s or len(set(s)) != len(s):
            raise ValueError(f"degenerate simplex {s}")


class SimplicialComplex:
    """Face-closed set of simplices over integer vertex ids.

    `grades[k]` lists the k-simplices in sorted order, each a sorted tuple;
    `faces[k][c]` holds the rows in `grades[k - 1]` of the facets of
    `grades[k][c]` (for a vertex, row 0: the empty simplex).
    """

    def __init__(self, simplices):
        simplices = frozenset(tuple(sorted(s)) for s in simplices)
        if () in simplices:
            _refuse_degenerate(simplices)
        grades: list[list[tuple]] = [[] for _ in range(max(map(len, simplices), default=0))]
        for s in simplices:
            grades[len(s) - 1].append(s)
        for grade in grades:
            grade.sort()
        # a degenerate simplex of 3 or more vertices has a degenerate facet,
        # so only edges are checked unless a face turns out to be missing
        if len(grades) > 1 and any(a == b for a, b in grades[1]):
            _refuse_degenerate(simplices)
        # facets drop the vertices last to first; the one facet in degree 0
        # is the empty simplex, row 0.  A facet with no row is missing: the
        # first simplex lacking one, by degree and then in sorted order, is
        # reported.
        faces = [[(0,)] * len(grades[0])] if grades else []
        for k in range(1, len(grades)):
            row = {s: i for i, s in enumerate(grades[k - 1])}
            try:
                faces.append([tuple(map(row.__getitem__, itertools.combinations(s, k)))
                              for s in grades[k]])
            except KeyError:
                _refuse_degenerate(simplices)
                s, face = next((s, f) for s in grades[k]
                               for f in itertools.combinations(s, k) if f not in row)
                raise ValueError(f"missing face {face} of {s}") from None
        self.simplices = simplices
        self.grades = grades
        self.faces: list[list[tuple[int, ...]]] = faces
        self.vertices = [s[0] for s in grades[0]] if grades else []

    @classmethod
    def from_face_poset(cls, elements) -> "SimplicialComplex":
        """K with the given sets as its simplices, members numbered as vertices
        in order of first appearance.

        The constructor's face check refuses a family that is not
        downward-closed, and the empty set as a degenerate simplex.
        """
        vertex: dict = {}
        return cls(frozenset(tuple(vertex.setdefault(m, len(vertex)) for m in e)
                             for e in elements))

    @classmethod
    def from_maximal(cls, maximal) -> "SimplicialComplex":
        closed = set()
        for s in maximal:
            s = tuple(sorted(s))
            for k in range(1, len(s) + 1):
                closed.update(itertools.combinations(s, k))
        return cls(frozenset(closed))

    @property
    def dimension(self) -> int:
        return len(self.grades) - 1

    def f_vector(self) -> list[int]:
        return [len(grade) for grade in self.grades]

    @functools.cached_property
    def chain_complex(self) -> "ChainComplex":
        """The augmented chain complex, built on first use and then shared."""
        return ChainComplex(self)

    def to_json(self) -> str:
        faces = {s[:i] + s[i + 1:] for s in self.simplices for i in range(len(s))}
        return json.dumps({
            "vertices": self.vertices,
            "simplices": sorted(list(s) for s in self.simplices - faces),
        })

    @staticmethod
    def from_json(text: str) -> "SimplicialComplex":
        data = json.loads(text)
        check(data, {"vertices": [int], "simplices": [[int]]})
        simplices = list(data["simplices"]) + [[v] for v in data["vertices"]]
        return SimplicialComplex.from_maximal(simplices)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)


class ChainComplex:
    """Sparse integer boundary matrices of a simplicial complex, augmented and
    coreduced.

    Degree k columns are indexed by k-simplices (their positions in the
    complex's `grades[k]`); degree 0 boundaries map to the empty simplex,
    row 0 (reduced homology throughout).

    Coreduction (Mrozek & Batko, "Coreduction homology algorithm", DCG 41,
    2009) then removes pairs (a, b) of cells where a is b's only live face,
    starting from the augmentation pair (empty simplex, first vertex), and
    the boundaries are restricted to the cells that survive.  Row and column
    ids stay those of the full complex; `grades[k]` lists the surviving
    k-simplices.  This is exact over Z: eliminating a pair (a, b) with
    <db, a> = e = +-1 gives a chain-homotopy-equivalent complex on the
    other cells, with d''c = p(dc) - <dc, a> e^-1 p(db) for p the projection
    away from a and b.  As a is b's only live face, p(db) = 0, so d'' is the
    plain restriction.

    Pairs found from the first vertex never leave its component.  When no
    pair is left and a vertex v is still live, v is kept as a critical
    0-cell and coreduction goes on in C/<v>.  This is exact over Z too: no
    live cell then has exactly one live face, so each live edge has both
    ends live or neither, and sending every live vertex of v's component
    to v is a chain retraction r of C onto <v>.  So H(C) = Z + H(C/<v>),
    as ker r is isomorphic to C/<v>.  In C/<v> the edges at v are queued
    first, each with its other end live, and each is removed with that
    end, so v is a face of no surviving cell: it stays a column with
    empty boundary.  A connected complex keeps no critical vertex.
    """

    def __init__(self, complex_: SimplicialComplex):
        self.complex = complex_
        faces = complex_.faces
        alive = _coreduce(faces)
        self.grades: list[list[tuple]] = [
            list(itertools.compress(grade, live)) for grade, live in zip(complex_.grades, alive)]
        # the empty simplex went with the first vertex
        self.boundaries: list[dict[int, dict[int, int]]] = _restricted(faces, [b"\x00", *alive])

    def ranks(self, field) -> list[int]:
        """Rank of each boundary over Q or F_p."""
        return [matrix_rank(cols, field) for cols in self.boundaries]

    def invariant_factors(self) -> list[list[int]]:
        """Smith invariant factors of each boundary."""
        return [matrix_snf(cols) for cols in self.boundaries]

    def boundary_squared_is_zero(self) -> bool:
        """d d = 0, on the full augmented boundaries and on the coreduced ones."""
        faces = self.complex.faces
        full = _restricted(faces, [b"\x01", *(b"\x01" * len(cells) for cells in faces)])
        for boundaries in (full, self.boundaries):
            for k in range(1, len(boundaries)):
                lower = boundaries[k - 1]
                for col in boundaries[k].values():
                    acc: dict[int, int] = {}
                    for r, v in col.items():
                        for r2, v2 in lower[r].items():
                            acc[r2] = acc.get(r2, 0) + v * v2
                    if any(acc.values()):
                        return False
        return True


def _restricted(faces: list[list[tuple[int, ...]]], live: list) -> list[dict[int, dict[int, int]]]:
    """Boundary columns of the live cells on their live faces.

    live[0] flags the empty simplex and live[k + 1] the k-cells.
    """
    out = []
    for k, cells in enumerate(faces):
        # faces drop the vertices last to first: signs (-1)^k .. (-1)^0
        signs = [(-1) ** (k - i) for i in range(k + 1)]
        below = live[k]
        out.append({c: {r: v for r, v in zip(cells[c], signs) if below[r]}
                    for c in itertools.compress(range(len(cells)), live[k + 1])})
    return out


def _coreduce(faces: list[list[tuple[int, ...]]]) -> list[bytearray]:
    """Live flags per degree after removing coreduction pairs (see ChainComplex).

    A cell whose count of live faces drops to 1 is queued; when it is taken
    and still has exactly one live face, the two are removed together.  The
    queue is first in, first out: on every selection-poset wedge of c03 that
    leaves exactly one cell per sphere, where last in, first out stalls
    with most cells left (16,007 of 22,832 for sizes 4, 4, 4, 4).

    When the queue runs dry with a vertex still live, that vertex is made
    critical (see ChainComplex): it is flagged dead while coreduction goes
    on from it, and live again at the end.
    """
    alive = [bytearray(b"\x01") * len(cells) for cells in faces]
    if not alive:
        return alive
    cofaces = []  # cofaces[k][r]: the (k+1)-cells with face r
    for k in range(1, len(faces)):
        up: list[list[int]] = [[] for _ in faces[k - 1]]
        for c, rows in enumerate(faces[k]):
            for r in rows:
                up[r].append(c)
        cofaces.append(up)
    # live faces per cell: none for a vertex, as the empty simplex goes first
    live_faces = [[0] * len(faces[0])]
    live_faces += [[k + 1] * len(cells) for k, cells in enumerate(faces[1:], 1)]
    queue: collections.deque[tuple[int, int]] = collections.deque()

    def remove(d: int, i: int) -> None:
        alive[d][i] = 0
        if d < len(cofaces):
            counts = live_faces[d + 1]
            for c in cofaces[d][i]:
                counts[c] -= 1
                if counts[c] == 1:
                    queue.append((d + 1, c))

    critical = []
    vertex = 0  # paired with the empty simplex
    while vertex >= 0:
        remove(0, vertex)
        while queue:
            k, b = queue.popleft()
            if alive[k][b] and live_faces[k][b] == 1:
                below = alive[k - 1]
                remove(k - 1, next(r for r in faces[k][b] if below[r]))
                remove(k, b)
        vertex = alive[0].find(1, vertex)
        if vertex >= 0:
            critical.append(vertex)
    for vertex in critical:
        alive[0][vertex] = 1
    return alive


# ---------------------------------------------------------------------------
# sparse elimination
# ---------------------------------------------------------------------------

def _axpy(col: dict, f: int, other: dict, p: int | None) -> None:
    """col -= f * other in place, mod p when p is given; zeros are dropped."""
    for r, v in other.items():
        new = col.get(r, 0) - f * v
        if p is not None:
            new %= p
        if new:
            col[r] = new
        else:
            col.pop(r, None)


def _reduce(cols: dict[int, dict[int, int]], p: int | None) -> dict[int, dict[int, int]]:
    """Column echelon form by the standard reduction; {top row: column}.

    Columns are taken in order, and each is reduced by the earlier ones
    until its highest row (its top) is one that no other column has.  Over
    F_p (p given) one subtraction clears the top.  Over Z (p None) only
    integral column operations are used -- subtraction and, where the top
    entries do not divide, a Euclid step that swaps the two columns -- so
    the result spans the same lattice and has the same Smith form.
    """
    reduced: dict[int, dict[int, int]] = {}
    for col in cols.values():
        if p is None:
            col = {r: v for r, v in col.items() if v}
        else:
            col = {r: v % p for r, v in col.items() if v % p}
        while col:
            top = max(col)
            other = reduced.get(top)
            if other is None:
                reduced[top] = col
                break
            a, b = other[top], col[top]
            _axpy(col, b // a if p is None else b * pow(a, -1, p) % p, other, p)
            if top in col:  # Z, and a does not divide b: |col[top]| < |a| now
                reduced[top], col = col, other
    return reduced


def _dense_snf(cols: list[dict[int, int]]) -> list[int]:
    """Textbook Smith normal form of a small integer matrix; invariant factors."""
    if not cols:
        return []
    row_ids = sorted({r for col in cols for r in col})
    rmap = {r: i for i, r in enumerate(row_ids)}
    m, n = len(row_ids), len(cols)
    a = [[0] * n for _ in range(m)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            a[rmap[r]][j] = v
    factors = []
    top = 0
    while True:
        entries = [(abs(a[i][j]), i, j) for i in range(top, m) for j in range(top, n) if a[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // a[top][top]
                    for j in range(top, n):
                        a[i][j] -= q * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
            for j in range(top + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][top]
                    for i in range(top, m):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for i in range(top, m):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                        dirty = True
            if not dirty:
                d = a[top][top]
                bad = next(((i, j) for i in range(top + 1, m) for j in range(top + 1, n)
                            if a[i][j] % d), None)
                if bad is not None:
                    i, _ = bad
                    for j in range(top, n):
                        a[top][j] += a[i][j]
                    dirty = True
        factors.append(abs(a[top][top]))
        top += 1
        if top >= m or top >= n:
            break
    return factors


def matrix_rank(cols: dict[int, dict[int, int]], field) -> int:
    """Rank of a sparse integer matrix over Q (field="Q") or F_p (field=p)."""
    if field == "Q":
        return len(_reduce(cols, None))
    p = int(field)
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    return len(_reduce(cols, p))


def matrix_snf(cols: dict[int, dict[int, int]]) -> list[int]:
    """Invariant factors (including the unit ones) of a sparse integer matrix.

    Each reduced column with a unit (+-1) top contributes a factor 1.  The
    other columns have the unit-top rows subtracted away, highest row first
    so that their own tops stay; row operations then split off an identity
    block, and what is left of them goes through the dense SNF.
    """
    reduced = _reduce(cols, None)
    units = {top: col for top, col in reduced.items() if col[top] in (1, -1)}
    leftover = [col for top, col in reduced.items() if top not in units]
    for col in leftover:
        while hits := [r for r in col if r in units]:
            top = max(hits)
            _axpy(col, col[top] * units[top][top], units[top], None)
    return [1] * len(units) + _dense_snf(leftover)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def betti(complex_: SimplicialComplex, field) -> dict[int, int]:
    """Reduced Betti numbers by field rank of the augmented boundaries."""
    cc = complex_.chain_complex
    ranks = cc.ranks(field)
    ranks.append(0)
    out = {}
    for k in range(len(cc.grades)):
        out[k] = len(cc.grades[k]) - ranks[k] - ranks[k + 1]
    return out


def integral_homology(complex_: SimplicialComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Per-degree (free rank, torsion divisors) via Smith normal form."""
    cc = complex_.chain_complex
    snfs = cc.invariant_factors()
    snfs.append([])
    out = {}
    for k in range(len(cc.grades)):
        rank = len(cc.grades[k]) - len(snfs[k]) - len(snfs[k + 1])
        torsion = tuple(sorted(d for d in snfs[k + 1] if d > 1))
        out[k] = (rank, torsion)
    return out


def components(complex_: SimplicialComplex) -> list[set]:
    """Connected components of the 1-skeleton (union-find over edges)."""
    parent = {v: v for v in complex_.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in complex_.grades[1] if len(complex_.grades) > 1 else ():
        parent[find(u)] = find(v)
    groups: dict = {}
    for v in complex_.vertices:
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=lambda g: sorted(g)[0])


def homology_report_json(complex_: SimplicialComplex) -> str:
    hom = integral_homology(complex_)
    return json.dumps({
        "degrees": {str(k): {"rank": r, "torsion": list(t)} for k, (r, t) in hom.items()}
    })


# ---------------------------------------------------------------------------
# selection posets and the wedge verification
# ---------------------------------------------------------------------------

def join_poset(sizes: list[int]) -> Poset:
    """Nonempty partial selections from k disjoint blocks, ordered by inclusion.

    Elements pick at most one item from each block; the order complex is
    contractible when some block has one item, and otherwise a wedge of
    prod(sizes_i - 1) spheres of dimension k-1.
    """
    return Poset.by_inclusion(_selections(sizes))


def _check_sizes(sizes) -> None:
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    if math.prod(sizes) > 10 ** 4:
        raise ValueError("desk scale exceeded: product of sizes > 10^4")


def _selections(sizes: list[int]) -> list[frozenset]:
    """The elements of join_poset(sizes): sets of (block, item) pairs."""
    _check_sizes(sizes)
    blocks = [[None, *((block, i) for i in range(size))] for block, size in enumerate(sizes)]
    elements = []
    for combo in itertools.product(*blocks):
        chosen = frozenset(x for x in combo if x is not None)
        if chosen:
            elements.append(chosen)
    return elements


def wedge_betti(sizes, dimension: int) -> dict[int, int]:
    """The predicted reduced Betti numbers of the selections of sizes, in
    degrees 0..dimension: a wedge of prod(s - 1) spheres of dimension
    len(sizes) - 1."""
    rank = math.prod(s - 1 for s in sizes)
    return {d: (rank if d == len(sizes) - 1 else 0) for d in range(dimension + 1)}


@dataclass
class WedgeReport:
    sizes: tuple[int, ...]
    betti_q: dict[int, int]
    betti_f2: dict[int, int]
    betti_f3: dict[int, int]
    torsion_free: bool
    expected_degree: int
    expected_rank: int
    ok: bool


def verify_wedge(sizes) -> WedgeReport:
    """Check homology of the selection poset against the wedge prediction.

    The selections are downward-closed, so the homology is taken on the
    complex they are the face poset of: the join of discrete sets.
    """
    sizes = tuple(sizes)
    _check_sizes(sizes)
    # item i of block b is vertex offset[b] + i: the selections from a
    # nonempty set of blocks are the products of their ranges, each already
    # a sorted tuple of integers
    ranges = [range(start, start + size)
              for start, size in zip(itertools.accumulate(sizes, initial=0), sizes)]
    complex_ = SimplicialComplex(itertools.chain.from_iterable(
        itertools.product(*chosen)
        for k in range(1, len(ranges) + 1) for chosen in itertools.combinations(ranges, k)))
    bq = betti(complex_, "Q")
    b2 = betti(complex_, 2)
    b3 = betti(complex_, 3)
    hom = integral_homology(complex_)
    torsion_free = all(not t for _, t in hom.values())
    expected = wedge_betti(sizes, complex_.dimension)
    ok = (bq == expected and b2 == expected and b3 == expected and torsion_free
          and all(hom[d][0] == expected[d] for d in expected))
    return WedgeReport(sizes, bq, b2, b3, torsion_free, len(sizes) - 1,
                       math.prod(s - 1 for s in sizes), ok)
