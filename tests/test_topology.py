import itertools
import math
import random
from fractions import Fraction

import pytest

from grushko.topology import (
    ChainComplex,
    Poset,
    SimplicialComplex,
    betti,
    components,
    homology_report_json,
    integral_homology,
    join_poset,
    matrix_rank,
    matrix_snf,
    verify_wedge,
)

TRIANGLE = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
DISK = SimplicialComplex.from_maximal([(0, 1, 2)])
RP2 = SimplicialComplex.from_maximal([
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])


def from_covers(elements, covers) -> Poset:
    """Poset from (smaller, larger) cover pairs, closed transitively here."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    above = [set() for _ in elements]
    for small, large in covers:
        above[index[small]].add(index[large])
    changed = True
    while changed:
        changed = False
        for i in range(len(elements)):
            extra = set()
            for j in above[i]:
                extra |= above[j] - above[i]
            if extra:
                above[i] |= extra
                changed = True
    for i in range(len(elements)):
        if i in above[i]:
            raise ValueError("cover relation has a cycle")
    return Poset(elements, above)


def height(poset: Poset) -> int:
    """Length of the longest chain (number of elements in it)."""
    best = [1] * len(poset.elements)
    # elements with nothing above are finished first
    for i in sorted(range(len(poset.elements)), key=lambda i: len(poset.above[i])):
        for j in poset.above[i]:
            best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


def test_face_closure_enforced():
    with pytest.raises(ValueError):
        SimplicialComplex(frozenset([(0, 1, 2)]))


def test_boundary_squared_zero():
    for cx in (TRIANGLE, DISK, RP2, join_poset([2, 2]).order_complex()):
        assert ChainComplex(cx).boundary_squared_is_zero()


def test_triangle_circle():
    assert betti(TRIANGLE, "Q") == {0: 0, 1: 1}
    assert integral_homology(TRIANGLE) == {0: (0, ()), 1: (1, ())}


def test_disk_contractible():
    assert betti(DISK, "Q") == {0: 0, 1: 0, 2: 0}
    assert all(r == 0 and not t for r, t in integral_homology(DISK).values())


def test_projective_plane_torsion():
    assert RP2.euler_characteristic() == 1
    assert integral_homology(RP2) == {0: (0, ()), 1: (0, (2,)), 2: (0, ())}
    assert betti(RP2, "Q") == {0: 0, 1: 0, 2: 0}
    assert betti(RP2, 2) == {0: 0, 1: 1, 2: 1}
    assert betti(RP2, 3) == {0: 0, 1: 0, 2: 0}


def test_betti_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        betti(TRIANGLE, 4)


def test_components():
    assert len(components(TRIANGLE)) == 1
    pieces = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2), (5, 6), (7,)])
    assert len(components(pieces)) == 3
    isolated = SimplicialComplex.from_maximal([(0,), (1,), (2,)])
    assert len(components(isolated)) == 3


def test_order_complex_shapes():
    chain = from_covers("abc", [("a", "b"), ("b", "c")])
    cx = chain.order_complex()
    assert cx.dimension == 2 and cx.f_vector() == [3, 3, 1]
    anti = Poset.from_leq(range(4), lambda a, b: False)
    assert betti(anti.order_complex(), "Q") == {0: 3}
    square = join_poset([2, 2]).order_complex()
    assert square.f_vector() == [8, 8]
    assert betti(square, "Q") == {0: 0, 1: 1}


def test_poset_height_and_covers_cycle():
    p = from_covers(range(4), [(0, 1), (1, 2), (2, 3)])
    assert height(p) == 4
    with pytest.raises(ValueError):
        from_covers(range(2), [(0, 1), (1, 0)])


def test_join_poset_sizes():
    p = join_poset([2, 3])
    assert len(p) == (2 + 1) * (3 + 1) - 1
    with pytest.raises(ValueError):
        join_poset([0, 2])
    with pytest.raises(ValueError):
        join_poset([101, 101])


def test_verify_wedge_examples():
    assert verify_wedge((1, 3)).ok
    rep = verify_wedge((2, 2))
    assert rep.ok and rep.expected_degree == 1 and rep.expected_rank == 1
    rep = verify_wedge((3, 2, 2))
    assert rep.ok and rep.expected_degree == 2 and rep.expected_rank == 2


def test_euler_characteristic_matches_betti():
    for cx in (TRIANGLE, DISK, RP2, join_poset([3, 2]).order_complex()):
        bq = betti(cx, "Q")
        assert cx.euler_characteristic() - 1 == sum((-1) ** k * b for k, b in bq.items())


def test_field_independence_on_wedges():
    for sizes in [(2, 2), (3, 3), (2, 3, 2)]:
        cx = join_poset(list(sizes)).order_complex()
        assert betti(cx, "Q") == betti(cx, 2) == betti(cx, 3)


def _naive_snf_by_minors(cols, size):
    """Determinantal-divisor oracle: d_k = gcd of all k x k minors."""
    rows = sorted({r for col in cols for r in col})
    mat = [[col.get(r, 0) for col in cols] for r in rows]
    m, n = len(mat), len(cols)
    divisors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[mat[i][j] for j in ci] for i in ri]
                g = math.gcd(g, round(_det(sub)))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def test_snf_against_minor_oracle():
    rng = random.Random(41)
    for _ in range(40):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        cols = {}
        for c in range(n):
            col = {r: rng.randrange(-4, 5) for r in range(m) if rng.random() < 0.7}
            col = {r: v for r, v in col.items() if v}
            if col:
                cols[c] = col
        got = sorted(matrix_snf(cols))
        want = sorted(_naive_snf_by_minors(list(cols.values()), (m, n)))
        assert got == want, (cols, got, want)
        # rank over Q agrees with the number of invariant factors
        assert matrix_rank(cols, "Q") == len(got)
        assert matrix_rank(cols, 5) <= len(got)


def test_snf_divisibility_chain():
    rng = random.Random(42)
    for _ in range(30):
        cols = {}
        for c in range(rng.randrange(1, 6)):
            col = {r: rng.randrange(-6, 7) for r in range(rng.randrange(1, 6))}
            col = {r: v for r, v in col.items() if v}
            if col:
                cols[c] = col
        factors = matrix_snf(cols)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_integral_free_ranks_match_rational_betti():
    for cx in (TRIANGLE, DISK, RP2, join_poset([2, 2, 2]).order_complex()):
        bq = betti(cx, "Q")
        hom = integral_homology(cx)
        assert {k: r for k, (r, _) in hom.items()} == bq


def test_complex_json_roundtrip():
    for cx in (TRIANGLE, RP2):
        assert SimplicialComplex.from_json(cx.to_json()) == cx
    report = homology_report_json(RP2)
    assert '"torsion": [2]' in report


def test_empty_and_point():
    assert betti(SimplicialComplex(frozenset()), "Q") == {}
    point = SimplicialComplex.from_maximal([(0,)])
    assert betti(point, "Q") == {0: 0}
    assert integral_homology(point) == {0: (0, ())}


# ---------------------------------------------------------------------------
# clearing, the F2 bitset path, and one chain complex per complex
# ---------------------------------------------------------------------------

def _dense_rank(cols, p):
    """Plain Gaussian elimination over Q (p None) or F_p on a dense copy."""
    rows = sorted({r for col in cols for r in col})
    mat = [[Fraction(col.get(r, 0)) if p is None else col.get(r, 0) % p for col in cols]
           for r in rows]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][j] if p is None else pow(mat[rank][j], -1, p)
        for i in range(rank + 1, len(mat)):
            f = mat[i][j] * inv
            if f:
                mat[i] = [a - f * b if p is None else (a - f * b) % p
                          for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _random_complex(rng, n):
    maximal = [rng.sample(range(n), rng.randrange(1, 5)) for _ in range(rng.randrange(3, 12))]
    return SimplicialComplex.from_maximal(maximal)


def _fixture_complexes():
    rng = random.Random(20240602)
    wedges = [join_poset(list(s)).order_complex() for s in [(2, 2), (3, 2), (2, 2, 2), (1, 3, 2)]]
    return [TRIANGLE, DISK, RP2, *wedges, *(_random_complex(rng, 7) for _ in range(25))]


@pytest.mark.parametrize("field", ["Q", 2, 3])
def test_cleared_ranks_equal_uncleared(field):
    for cx in _fixture_complexes():
        cc = cx.chain_complex
        want = [matrix_rank(b, field) for b in cc.boundaries]
        assert cc.ranks(field) == want
        assert want == [_dense_rank(list(b.values()), None if field == "Q" else field)
                        for b in cc.boundaries]
        ranks = want + [0]
        assert betti(cx, field) == {k: len(g) - ranks[k] - ranks[k + 1]
                                    for k, g in enumerate(cc.grades)}


def test_cleared_snf_equals_uncleared():
    for cx in _fixture_complexes():
        cc = cx.chain_complex
        assert cc.invariant_factors() == [matrix_snf(b) for b in cc.boundaries]
    assert integral_homology(RP2)[1] == (0, (2,))
    assert RP2.chain_complex.invariant_factors()[2] == [1] * 9 + [2]


def _random_sparse(rng, m, n, values):
    cols = {}
    for c in range(n):
        kind = rng.random()
        if kind < 0.1:
            cols[c] = {}
        elif kind < 0.2:
            cols[c] = {r: 0 for r in rng.sample(range(m), rng.randrange(1, m + 1))}
        else:
            cols[c] = {r: rng.choice(values) for r in range(m) if rng.random() < 0.3}
    return cols


def test_pivot_rows_complement_the_column_space():
    """The pivot rows clearing relies on: the columns restricted to them have full rank."""
    rng = random.Random(43)
    for field in ("Q", 2, 3, 5):
        for _ in range(40):
            cols = _random_sparse(rng, rng.randrange(1, 9), rng.randrange(1, 9), [-2, -1, 1, 2, 3])
            pivot_rows = set()
            rank = matrix_rank(cols, field, pivot_rows=pivot_rows)
            assert len(pivot_rows) == rank
            on_pivots = [{r: v for r, v in col.items() if r in pivot_rows} for col in cols.values()]
            assert _dense_rank(on_pivots, None if field == "Q" else field) == rank
    # over Z only unit pivots may clear: 2 is no unit
    pivot_rows = set()
    assert matrix_snf({0: {0: 2}}, pivot_rows=pivot_rows) == [2] and not pivot_rows


def test_f2_bitset_rank_against_dense():
    rng = random.Random(44)
    for _ in range(200):
        cols = _random_sparse(rng, rng.randrange(1, 12), rng.randrange(1, 12),
                              [-4, -3, -2, -1, 1, 2, 3, 4, 6])
        assert matrix_rank(cols, 2) == _dense_rank(list(cols.values()), 2), cols
    assert matrix_rank({}, 2) == 0
    assert matrix_rank({0: {5: 2, 7: -4}, 1: {}}, 2) == 0
    assert matrix_rank({0: {-3: 1, 2: 1}, 1: {2: 3}, 2: {-3: 1}}, 2) == 2


def test_one_chain_complex_per_complex(monkeypatch):
    builds = []
    init = ChainComplex.__init__

    def counting_init(self, complex_):
        builds.append(complex_)
        init(self, complex_)

    monkeypatch.setattr(ChainComplex, "__init__", counting_init)
    for sizes in [(2, 2), (3, 2, 2), (1, 4)]:
        builds.clear()
        assert verify_wedge(sizes).ok
        assert len(builds) == 1, sizes
    builds.clear()
    cx = join_poset([2, 3]).order_complex()
    betti(cx, "Q"), betti(cx, 2), integral_homology(cx), homology_report_json(cx)
    assert builds == [cx]
