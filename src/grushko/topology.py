"""Posets, order complexes, and simplicial homology over Q, F_p, and Z.

Each complex builds its chain complex once (`SimplicialComplex.chain_complex`,
simplices grouped by degree in a single pass) and every homology call on it
shares that build.  Boundary matrices are kept sparse (dict columns).

Boundaries are eliminated from the top degree down with clearing (the
"twist" of Chen & Kerber, EuroCG 2011; Bauer, Kerber & Reininghaus, "Clear
and compress", 2014): the columns of d_k that are pivot rows of d_{k+1} are
dropped before d_k is eliminated.  Over a field this holds for any pivot
order: with R the pivot rows of d_{k+1}, C_k is the direct sum of
im d_{k+1} and span(e_j : j not in R), and d_k vanishes on the first
summand.  Over Z that split is integral only on rows whose pivot is a unit
(their minor is unimodular), so only those rows are cleared there and the
torsion is unchanged.

Each boundary is eliminated by the standard column reduction: columns in
order, each reduced until its highest nonzero row (its pivot) is new.  Over
F_p that takes one subtraction per step; over Q and Z only integral column
operations are used (subtraction, and a Euclid step where the pivots do not
divide), so the reduced columns span the same lattice.  Ranks over F_2 use
the same reduction on Python-int column bitsets, by XOR.  Integral
homology comes from Smith normal form: each reduced column with a unit
(+-1) pivot contributes invariant factor 1, and the other columns (tiny in
practice) go through a dense textbook SNF with exact integer arithmetic.
The field Betti numbers are computed by their own eliminations and never
derived from the SNF, so the two stay independent checks of each other.
"""

from __future__ import annotations

import functools
import itertools
import json
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
    def from_leq(cls, elements, leq) -> "Poset":
        elements = list(elements)
        above = [{j for j, b in enumerate(elements) if leq(a, b) and not leq(b, a)}
                 for a in elements]
        return cls(elements, above)

    def __len__(self) -> int:
        return len(self.elements)

    def less(self, a, b) -> bool:
        return self.index[b] in self.above[self.index[a]]

    def chains(self):
        """All nonempty chains, as tuples of element indices, increasing."""
        ups = [sorted(a) for a in self.above]
        out = []

        def grow(chain):
            out.append(tuple(chain))
            for j in ups[chain[-1]]:
                chain.append(j)
                grow(chain)
                chain.pop()

        for i in range(len(self.elements)):
            grow([i])
        return out

    def order_complex(self) -> "SimplicialComplex":
        """Simplices are the chains (geometric realization of the poset)."""
        return SimplicialComplex(frozenset(self.chains()), len(self.elements))

    def isomorphic_via(self, other: "Poset", mapping: dict) -> bool:
        """Verify that an explicit element bijection is an order isomorphism."""
        if len(self) != len(other) or len(mapping) != len(self):
            return False
        if set(mapping) != set(self.elements) or set(mapping.values()) != set(other.elements):
            return False
        for a in self.elements:
            for b in self.elements:
                if a is b:
                    continue
                if self.less(a, b) != other.less(mapping[a], mapping[b]):
                    return False
        return True


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

class SimplicialComplex:
    """Face-closed set of simplices over integer vertex ids."""

    def __init__(self, simplices: frozenset, num_vertices: int | None = None):
        self.simplices = frozenset(tuple(sorted(s)) for s in simplices)
        for s in self.simplices:
            if len(set(s)) != len(s):
                raise ValueError(f"degenerate simplex {s}")
            if len(s) > 1 and not self.simplices.issuperset(itertools.combinations(s, len(s) - 1)):
                face = next(f for f in itertools.combinations(s, len(s) - 1)
                            if f not in self.simplices)
                raise ValueError(f"missing face {face} of {s}")
        self.vertices = sorted({v for s in self.simplices for v in s})
        self.num_vertices = num_vertices if num_vertices is not None else len(self.vertices)

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
        return max((len(s) for s in self.simplices), default=0) - 1

    def f_vector(self) -> list[int]:
        f = [0] * (self.dimension + 1)
        for s in self.simplices:
            f[len(s) - 1] += 1
        return f

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * f for i, f in enumerate(self.f_vector()))

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
    """Sparse integer boundary matrices of a simplicial complex, augmented.

    Degree k columns are indexed by k-simplices; degree 0 boundaries map to
    the empty simplex (reduced homology throughout).
    """

    def __init__(self, complex_: SimplicialComplex):
        self.complex = complex_
        self.grades: list[list[tuple]] = [[] for _ in range(complex_.dimension + 1)]
        for s in complex_.simplices:
            self.grades[len(s) - 1].append(s)
        for grade in self.grades:
            grade.sort()
        self.boundaries: list[dict[int, dict[int, int]]] = []
        # degree 0: augmentation into the empty simplex
        if self.grades:
            self.boundaries.append({c: {0: 1} for c in range(len(self.grades[0]))})
        for k in range(1, len(self.grades)):
            row = {s: i for i, s in enumerate(self.grades[k - 1])}.__getitem__
            # combinations() drops the vertices last to first: signs (-1)^k .. (-1)^0
            signs = [(-1) ** (k - i) for i in range(k + 1)]
            self.boundaries.append({
                c: dict(zip(map(row, itertools.combinations(s, k)), signs))
                for c, s in enumerate(self.grades[k])})

    def ranks(self, field) -> list[int]:
        """Rank of each boundary over Q or F_p, eliminated top-down with clearing."""
        return self._top_down(lambda cols, rows: matrix_rank(cols, field, pivot_rows=rows))

    def invariant_factors(self) -> list[list[int]]:
        """Smith invariant factors of each boundary; only unit pivots clear."""
        return self._top_down(lambda cols, rows: matrix_snf(cols, pivot_rows=rows))

    def _top_down(self, eliminate) -> list:
        """eliminate(cols, pivot_rows) per degree, top first, on cleared columns."""
        out = [None] * len(self.boundaries)
        cleared: set[int] = set()
        for k in reversed(range(len(self.boundaries))):
            cols = {c: col for c, col in self.boundaries[k].items() if c not in cleared}
            cleared = set()
            out[k] = eliminate(cols, cleared)
        return out

    def boundary_squared_is_zero(self) -> bool:
        for k in range(1, len(self.boundaries)):
            lower = self.boundaries[k - 1]
            for col in self.boundaries[k].values():
                acc: dict[int, int] = {}
                for r, v in col.items():
                    for r2, v2 in lower[r].items():
                        acc[r2] = acc.get(r2, 0) + v * v2
                if any(acc.values()):
                    return False
        return True


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


def _f2_rank(cols: dict[int, dict[int, int]], pivot_rows: set | None) -> int:
    """Rank over F_2 by XOR of Python-int column bitsets, one bit per row.

    The standard reduction of `_reduce`, with a column's top as its
    highest set bit.
    """
    row_of = sorted({r for col in cols.values() for r, v in col.items() if v & 1})
    bit_of = {r: b for b, r in enumerate(row_of)}
    reduced: dict[int, int] = {}  # highest set bit -> the column reduced to it
    for col in cols.values():
        bits = 0
        for r, v in col.items():
            if v & 1:
                bits |= 1 << bit_of[r]
        while bits:
            top = bits.bit_length()
            other = reduced.get(top)
            if other is None:
                reduced[top] = bits
                break
            bits ^= other
    if pivot_rows is not None:
        pivot_rows.update(row_of[top - 1] for top in reduced)
    return len(reduced)


def matrix_rank(cols: dict[int, dict[int, int]], field, *, pivot_rows: set | None = None) -> int:
    """Rank of a sparse integer matrix over Q (field="Q") or F_p (field=p).

    The pivot rows (the tops of the reduced columns) are added to
    pivot_rows when it is given; their unit vectors and the column space
    together span everything.
    """
    if field == "Q":
        reduced = _reduce(cols, None)
    else:
        p = int(field)
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            return _f2_rank(cols, pivot_rows)
        reduced = _reduce(cols, p)
    if pivot_rows is not None:
        pivot_rows.update(reduced)
    return len(reduced)


def matrix_snf(cols: dict[int, dict[int, int]], *, pivot_rows: set | None = None) -> list[int]:
    """Invariant factors (including the unit ones) of a sparse integer matrix.

    Each reduced column with a unit (+-1) top contributes a factor 1.  The
    other columns have the unit-top rows subtracted away, highest row first
    so that their own tops stay; row operations then split off an identity
    block, and what is left of them goes through the dense SNF.  The
    unit-top rows are added to pivot_rows when it is given.
    """
    reduced = _reduce(cols, None)
    units = {top: col for top, col in reduced.items() if col[top] in (1, -1)}
    leftover = [col for top, col in reduced.items() if top not in units]
    for col in leftover:
        while hits := [r for r in col if r in units]:
            top = max(hits)
            _axpy(col, col[top] * units[top][top], units[top], None)
    if pivot_rows is not None:
        pivot_rows.update(units)
    return [1] * len(units) + _dense_snf(leftover)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def betti(complex_: SimplicialComplex, field) -> dict[int, int]:
    """Reduced Betti numbers by field rank of the augmented boundaries."""
    if not complex_.simplices:
        return {}
    cc = complex_.chain_complex
    ranks = cc.ranks(field)
    ranks.append(0)
    out = {}
    for k in range(len(cc.grades)):
        out[k] = len(cc.grades[k]) - ranks[k] - ranks[k + 1]
    return out


def integral_homology(complex_: SimplicialComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Per-degree (free rank, torsion divisors) via Smith normal form."""
    if not complex_.simplices:
        return {}
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

    for s in complex_.simplices:
        if len(s) == 2:
            parent[find(s[0])] = find(s[1])
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
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    total = 1
    for s in sizes:
        total *= s
    if total > 10 ** 4:
        raise ValueError("desk scale exceeded: product of sizes > 10^4")
    items = []
    for block, size in enumerate(sizes):
        items.append([(block, i) for i in range(size)])
    elements = []
    for combo in itertools.product(*[[None, *blk] for blk in items]):
        chosen = frozenset(x for x in combo if x is not None)
        if chosen:
            elements.append(chosen)
    return Poset.from_leq(elements, frozenset.issubset)


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
    """Check homology of the selection poset against the wedge prediction."""
    sizes = tuple(sizes)
    complex_ = join_poset(list(sizes)).order_complex()
    bq = betti(complex_, "Q")
    b2 = betti(complex_, 2)
    b3 = betti(complex_, 3)
    hom = integral_homology(complex_)
    torsion_free = all(not t for _, t in hom.values())
    k = len(sizes)
    rank = 1
    for s in sizes:
        rank *= s - 1
    expected = {d: (rank if (d == k - 1 and rank) else 0) for d in bq}
    ok = (bq == expected and b2 == expected and b3 == expected and torsion_free
          and all(hom[d][0] == expected[d] for d in expected))
    return WedgeReport(sizes, bq, b2, b3, torsion_free, k - 1, rank, ok)
