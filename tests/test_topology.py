import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from face_rows import face_rows
from grushko.basis_complex import build_unpaired_radius
from grushko.trees import MarkedTree, enumerate_shapes, standard_marking
from grushko.visibility import bp_fiber
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
from grushko.topology import _dense_snf, _selections

TRIANGLE = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
DISK = SimplicialComplex.from_maximal([(0, 1, 2)])
RP2 = SimplicialComplex.from_maximal([
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])


def _euler_characteristic(cx) -> int:
    return sum((-1) ** i * f for i, f in enumerate(cx.f_vector()))


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
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialComplex(frozenset([(0,), ()]))
    # a degenerate triangle whose degenerate facet (0, 0) is missing
    with pytest.raises(ValueError, match=r"^degenerate simplex \(0, 0, 1\)$"):
        SimplicialComplex([(0,), (1,), (0, 1), (0, 0, 1)])
    # a degenerate edge whose facets are all present
    with pytest.raises(ValueError, match=r"^degenerate simplex \(0, 0\)$"):
        SimplicialComplex([(0,), (0, 0)])


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
    assert _euler_characteristic(RP2) == 1
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
    assert components(isolated) == [{0}, {1}, {2}]
    assert components(SimplicialComplex([])) == []
    assert components(SimplicialComplex([(4,), (2, 3), (2,), (3,)])) == [{2, 3}, {4}]


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


def _isomorphic_pairwise(p, q, mapping):
    """Reference: the order compared on every pair of distinct elements."""
    def less(poset, a, b):
        return poset.index[b] in poset.above[poset.index[a]]

    return all(less(p, a, b) == less(q, mapping[a], mapping[b])
               for a in p.elements for b in p.elements if a != b)


def test_isomorphic_via_checks_the_bijection():
    target = join_poset([2, 3])
    # the same selections, renamed and listed in another order
    rename = {e: frozenset(f"{blk}:{item}" for blk, item in e) for e in target.elements}
    source = Poset.by_inclusion(sorted(rename.values(), key=sorted))
    natural = {r: e for e, r in rename.items()}
    assert source.isomorphic_via(target, natural)
    one, two = frozenset({(0, 0)}), frozenset({(0, 0), (1, 0)})
    swapped = {e: e for e in target.elements} | {one: two, two: one}
    assert not target.isomorphic_via(target, swapped)
    merged = {e: e for e in target.elements} | {two: one}
    assert not target.isomorphic_via(target, merged)
    smaller = join_poset([2, 2])
    assert not smaller.isomorphic_via(target, {e: e for e in smaller.elements})
    # on antichains the order agrees under any mapping; only the bijection
    # and size checks reject
    flat2, flat3 = Poset("ab", [set(), set()]), Poset("xyz", [set(), set(), set()])
    assert flat3.isomorphic_via(flat3, {"x": "y", "y": "z", "z": "x"})
    assert not flat3.isomorphic_via(flat3, {"x": "x", "y": "x", "z": "y"})
    assert not flat2.isomorphic_via(flat3, {"a": "x", "b": "y"})
    # random bijections agree with the pairwise comparison
    rng = random.Random(17)
    p = join_poset([2, 2])
    answers = set()
    for _ in range(200):
        images = p.elements[:]
        rng.shuffle(images)
        swap = dict(zip(range(2), rng.sample(range(2), 2)))
        mapping = (dict(zip(p.elements, images)) if rng.random() < 0.5 else
                   {e: frozenset((blk, swap[i]) for blk, i in e) for e in p.elements})
        got = p.isomorphic_via(p, mapping)
        assert got == _isomorphic_pairwise(p, p, mapping)
        answers.add(got)
    assert answers == {True, False}


def test_verify_wedge_examples():
    assert verify_wedge((1, 3)).ok
    rep = verify_wedge((2, 2))
    assert rep.ok and rep.expected_degree == 1 and rep.expected_rank == 1
    rep = verify_wedge((3, 2, 2))
    assert rep.ok and rep.expected_degree == 2 and rep.expected_rank == 2


def test_euler_characteristic_matches_betti():
    for cx in (TRIANGLE, DISK, RP2, join_poset([3, 2]).order_complex()):
        bq = betti(cx, "Q")
        assert _euler_characteristic(cx) - 1 == sum((-1) ** k * b for k, b in bq.items())


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
    assert integral_homology(SimplicialComplex(frozenset())) == {}
    point = SimplicialComplex.from_maximal([(0,)])
    assert betti(point, "Q") == {0: 0}
    assert integral_homology(point) == {0: (0, ())}


# ---------------------------------------------------------------------------
# per-boundary elimination, field ranks, and one chain complex per complex
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
def test_chain_complex_ranks_against_dense(field):
    for cx in _fixture_complexes():
        cc = cx.chain_complex
        ranks = cc.ranks(field)
        assert ranks == [_dense_rank(list(b.values()), None if field == "Q" else field)
                         for b in cc.boundaries]
        ranks.append(0)
        assert betti(cx, field) == {k: len(g) - ranks[k] - ranks[k + 1]
                                    for k, g in enumerate(cc.grades)}


def test_chain_complex_invariant_factors_against_dense():
    for cx in _fixture_complexes():
        cc = cx.chain_complex
        for factors, b in zip(cc.invariant_factors(), cc.boundaries):
            assert sorted(factors) == sorted(_dense_snf(list(b.values())))
            assert len(factors) == _dense_rank(list(b.values()), None)
    assert integral_homology(RP2)[1] == (0, (2,))
    assert matrix_snf(_full_boundaries(RP2)[2]) == [1] * 9 + [2]


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


@pytest.mark.parametrize("p", [2, 3])
def test_prime_field_rank_against_dense(p):
    rng = random.Random(44)
    for _ in range(200):
        cols = _random_sparse(rng, rng.randrange(1, 12), rng.randrange(1, 12),
                              [-4, -3, -2, -1, 1, 2, 3, 4, 6])
        assert matrix_rank(cols, p) == _dense_rank(list(cols.values()), p), cols
    assert matrix_rank({}, p) == 0
    assert matrix_rank({0: {5: 6, 7: -12}, 1: {}}, p) == 0
    assert matrix_rank({0: {-3: 1, 2: 1}, 1: {2: 7}, 2: {-3: 1}}, p) == 2


def test_one_chain_complex_per_complex(monkeypatch):
    builds = []
    init = ChainComplex.__init__

    def counting_init(self, complex_, *args, **kwargs):
        builds.append(complex_)
        init(self, complex_, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", counting_init)
    for sizes in [(2, 2), (3, 2, 2), (1, 4)]:
        builds.clear()
        assert verify_wedge(sizes).ok
        assert len(builds) == 1, sizes
    builds.clear()
    cx = join_poset([2, 3]).order_complex()
    betti(cx, "Q"), betti(cx, 2), integral_homology(cx), homology_report_json(cx)
    assert builds == [cx]


# ---------------------------------------------------------------------------
# the inclusion builder, the order complex's chains, and coreduction
# ---------------------------------------------------------------------------

def _random_inclusion_family(rng, ground, count):
    """Distinct subsets of range(ground), in random order (not a linear extension)."""
    family = {frozenset(rng.sample(range(ground), rng.randrange(0, ground + 1)))
              for _ in range(count)}
    family = list(family)
    rng.shuffle(family)
    return family


def _chains_by_inclusion(poset):
    """Every chain as a sorted index tuple, read off the sets, not off `above`.

    A chain grows by any larger index whose set is comparable, by strict
    inclusion, with the set of every member.
    """
    sets = poset.elements
    out = []
    frontier = [(i,) for i in range(len(sets))]
    while frontier:
        out.extend(frontier)
        frontier = [c + (j,) for c in frontier for j in range(c[-1] + 1, len(sets))
                    if all(sets[i] < sets[j] or sets[j] < sets[i] for i in c)]
    return out


WEDGE_SIZES = [s for k in range(1, 5)
               for s in itertools.combinations_with_replacement(range(1, 5), k)]


def _random_inclusion_posets():
    rng = random.Random(20241018)
    families = [_random_inclusion_family(rng, rng.randrange(1, 6), rng.randrange(1, 14))
                for _ in range(60)]
    return [Poset.by_inclusion(f) for f in families]


def test_inclusion_builder_and_order_complex_chains():
    randoms = _random_inclusion_posets()
    for poset in [join_poset(list(s)) for s in WEDGE_SIZES] + randoms:
        assert poset.above == Poset.from_leq(poset.elements, lambda a, b: a <= b).above
    small = [join_poset(list(s)) for s in WEDGE_SIZES if math.prod(s) <= 36]
    for poset in small + randoms:
        chains = poset.chains()
        sets = poset.elements
        # each chain is listed upward, and comes out once
        assert all(sets[a] < sets[b] for c in chains for a, b in zip(c, c[1:]))
        expected = _chains_by_inclusion(poset)
        assert sorted(tuple(sorted(c)) for c in chains) == sorted(expected)
        assert poset.order_complex() == SimplicialComplex(expected)
    assert Poset.by_inclusion([]).order_complex().simplices == frozenset()


def test_bad_above_relation_raises():
    reflexive = Poset("ab", [{0, 1}, set()])
    with pytest.raises(ValueError, match="above itself"):
        reflexive.order_complex()
    # 0 < 1 < 2 without 0 < 2
    intransitive = Poset("abc", [{1}, {2}, set()])
    with pytest.raises(ValueError, match="not transitive"):
        intransitive.order_complex()
    cyclic = Poset("ab", [{1}, {0}])
    with pytest.raises(ValueError):
        cyclic.order_complex()


def _full_boundaries(cx):
    """The augmented boundary matrices of every simplex, with no coreduction."""
    grades = cx.grades
    out = [{c: {0: 1} for c in range(len(grades[0]))}] if grades else []
    for k in range(1, len(grades)):
        row = {s: i for i, s in enumerate(grades[k - 1])}
        out.append({c: {row[s[:i] + s[i + 1:]]: (-1) ** i for i in range(k + 1)}
                    for c, s in enumerate(grades[k])})
    return out


def _reference_homology(cx):
    """Betti numbers over Q, F2, F3 and integral homology, from the full boundaries."""
    full = _full_boundaries(cx)
    sizes = [len(g) for g in cx.grades]
    bettis = {}
    for field in ("Q", 2, 3):
        ranks = [_dense_rank(list(b.values()), None if field == "Q" else field) for b in full]
        assert ranks == [matrix_rank(b, field) for b in full]
        ranks.append(0)
        bettis[field] = {k: n - ranks[k] - ranks[k + 1] for k, n in enumerate(sizes)}
    snfs = [matrix_snf(b) for b in full] + [[]]
    hom = {k: (n - len(snfs[k]) - len(snfs[k + 1]), tuple(sorted(d for d in snfs[k + 1] if d > 1)))
           for k, n in enumerate(sizes)}
    return bettis, hom


def _barycentric(cx):
    """Order complex of the face poset: the barycentric subdivision of cx."""
    return Poset.by_inclusion(frozenset(s) for s in cx.simplices).order_complex()


def test_coreduced_homology_equals_full_boundary_reference():
    rng = random.Random(20241019)
    randoms = [_random_complex(rng, rng.randrange(4, 8)) for _ in range(200)]
    posets = [Poset.by_inclusion(_random_inclusion_family(rng, 4, rng.randrange(1, 10)))
              for _ in range(30)]
    subdivided_rp2 = _barycentric(RP2)
    complexes = [*_fixture_complexes(), *randoms, *(p.order_complex() for p in posets),
                 subdivided_rp2]
    for cx in complexes:
        bettis, hom = _reference_homology(cx)
        for field, want in bettis.items():
            assert betti(cx, field) == want, (field, sorted(cx.simplices))
        assert integral_homology(cx) == hom, sorted(cx.simplices)
        assert cx.chain_complex.boundary_squared_is_zero()
    assert integral_homology(subdivided_rp2) == {0: (0, ()), 1: (0, (2,)), 2: (0, ())}
    assert subdivided_rp2.f_vector() == [31, 90, 60]


# ---------------------------------------------------------------------------
# homology on the face complex K against its barycentric subdivision
# ---------------------------------------------------------------------------

def _invariants(cx):
    """Every homology figure the criteria read off a complex."""
    return ({field: betti(cx, field) for field in ("Q", 2, 3)}, integral_homology(cx),
            cx.dimension, len(components(cx)))


def _face_posets():
    """The selections of every c03 size multiset with product <= 36, the
    fibers of the fixture trees of rank <= 4, and the (4,1) unpaired family."""
    families = [join_poset(list(s)).elements for k in range(1, 5)
                for s in itertools.combinations_with_replacement(range(1, 5), k)
                if math.prod(s) <= 36]
    for n in range(2, 5):
        for shape in enumerate_shapes(n):
            families.append(bp_fiber(MarkedTree(shape, standard_marking(n)), certify=False).elements)
    families.append(build_unpaired_radius(4, 1).elements)
    return families


def test_face_complex_matches_order_complex():
    for elements in _face_posets():
        cx = SimplicialComplex.from_face_poset(elements)
        assert cx.f_vector()[0] == len({m for e in elements for m in e})
        assert sum(cx.f_vector()) == len(elements)
        assert _invariants(cx) == _invariants(Poset.by_inclusion(elements).order_complex())


def test_face_complex_refuses_families_that_are_not_downward_closed():
    with pytest.raises(ValueError, match="missing face"):
        SimplicialComplex.from_face_poset([{1, 2}])
    with pytest.raises(ValueError, match="missing face"):
        SimplicialComplex.from_face_poset([{1}, {1, 2}])
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialComplex.from_face_poset([set()])


# ---------------------------------------------------------------------------
# the constructor's facet rows, and c03's K on integer vertices
# ---------------------------------------------------------------------------

C03_SIZES = [s for k in range(1, 5) for s in itertools.product(range(1, 5), repeat=k)]


@functools.cache
def _wedge_complexes():
    """The complex K that verify_wedge takes homology on, per c03 size vector."""
    built = {}
    init = ChainComplex.__init__

    def recording_init(self, complex_):
        built[sizes] = complex_
        init(self, complex_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ChainComplex, "__init__", recording_init)
        for sizes in C03_SIZES:
            assert verify_wedge(sizes).ok
    return built


def test_face_rows_equal_the_reference():
    rng = random.Random(20261019)
    randoms = [_random_complex(rng, rng.randrange(4, 9)) for _ in range(150)]
    complexes = [*_fixture_complexes(), *randoms, *_wedge_complexes().values(),
                 build_unpaired_radius(4, 1).order_complex(), SimplicialComplex([])]
    for cx in complexes:
        assert cx.faces == face_rows(cx.grades), sorted(cx.simplices)
    assert len(_wedge_complexes()) == 340


def test_missing_faces_are_reported_lowest_degree_first():
    # (4,) and (5,) are missing below edges, (1, 2) and (0, 2) below a triangle
    family = [(0,), (1,), (2,), (3,), (0, 1), (0, 1, 2), (2, 5), (0, 4), (1, 3)]
    rng = random.Random(3)
    for _ in range(20):
        rng.shuffle(family)
        with pytest.raises(ValueError, match=r"^missing face \(4,\) of \(0, 4\)$"):
            SimplicialComplex(family)
    family += [(4,), (5,)]
    for _ in range(20):
        rng.shuffle(family)
        with pytest.raises(ValueError, match=r"^missing face \(0, 2\) of \(0, 1, 2\)$"):
            SimplicialComplex(family)
    SimplicialComplex(family + [(0, 2), (1, 2)])


def test_wedge_complex_matches_the_face_poset_route():
    for sizes, cx in _wedge_complexes().items():
        ref = SimplicialComplex.from_face_poset(_selections(list(sizes)))
        # item i of block b is vertex offset[b] + i
        assert cx.vertices == list(range(sum(sizes))), sizes
        assert cx.f_vector() == ref.f_vector(), sizes
        assert ([len(g) for g in cx.chain_complex.grades]
                == [len(g) for g in ref.chain_complex.grades]), sizes
        assert _invariants(cx) == _invariants(ref), sizes


@pytest.mark.parametrize("sizes", [[0, 2], [2, -1], [], [101, 101], [10, 10, 10, 11]])
def test_wedge_refuses_bad_sizes_as_join_poset_does(sizes):
    with pytest.raises(ValueError) as want:
        join_poset(sizes)
    with pytest.raises(ValueError) as got:
        verify_wedge(sizes)
    assert str(got.value) == str(want.value)
