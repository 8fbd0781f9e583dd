"""Acceptance suite: every desk-checkable claim, one runner per criterion.

Each criterion states its own tolerance (exact counts, zero exceptions)
and runtime budget; runners raise CheckFailure on any violation and return
a details dict for the report.  The CLI command `verify-all` and the test
module tests/test_acceptance.py drive the same runners.

Criteria c01-c04 check items (a tree and pair, a tree, a size vector, a
rank and radius), and each is a loop over one public body per item:
check_visibility, check_fiber, check_wedge and check_unpaired.  The
bodies take nothing but the item, raise CheckFailure, and return the
item's figures; perfbench's workloads are to call them rather than keep
copies of the checks.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field

from .words import conjugate, generator, generators, random_reduced_word, reduce
from .factors import CanonicalClass, CompletingBasis, W2Factor, core_path
from .membership import compose, is_basis, make_automorphism, semidirect_embed
from .trees import (
    BudgetExceededError,
    MarkedTree,
    TreeShape,
    bs_path,
    caterpillar,
    enumerate_shapes,
    fixed_point,
    shape_poset,
    standard_marking,
)
from .visibility import (
    CertificationError,
    bp_fiber,
    certify_partial_basis,
    is_visible,
    visible_classes,
    visible_classes_brute,
)
from .topology import (
    Poset,
    SimplicialComplex,
    betti,
    components,
    integral_homology,
    join_poset,
    verify_wedge,
    wedge_betti,
)
from .basis_complex import (
    MAX_RADIUS,
    build_unpaired_radius,
    rank3_isolated_family,
)


class CheckFailure(AssertionError):
    """An acceptance criterion did not hold."""


@dataclass
class RunConfig:
    """Budgets and seeds for the verification run."""

    n_max: int = 5
    radius: int = 1
    vertex_cap: int = 10 ** 6
    seed: int = 20240601

    def __post_init__(self):
        if self.n_max < 2 or self.vertex_cap < 1:
            raise ValueError("budgets must be positive and n >= 2")
        if self.n_max > 5:  # the budgets are stated for n <= 5
            raise ValueError("desk scale exceeded: n <= 5")
        if not 0 <= self.radius <= MAX_RADIUS:
            raise ValueError(f"radius must be in 0..{MAX_RADIUS}, got {self.radius}")


@dataclass
class CriterionResult:
    cid: int
    name: str
    status: str  # pass | fail | budget-exceeded
    seconds: float
    budget: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "budget-exceeded": "BUDGET"}[self.status]
        return f"[{self.cid:2d}] {self.name:<38s} {mark:>6s}  ({self.seconds:.1f}s / {self.budget:.0f}s)"


def _fixture_trees(n_max: int) -> list[MarkedTree]:
    """All reduced labeled shapes up to n_max, standard coordinates."""
    trees = []
    for n in range(2, n_max + 1):
        for shape in enumerate_shapes(n):
            trees.append(MarkedTree(shape, standard_marking(n)))
    return trees


def check_visibility(tree: MarkedTree, i: int) -> int:
    """c01 on pair i of one tree: the brute-forced visible classes are exactly
    the segment-conjugator ones, and there is at least one.  Returns their
    number.

    The brute search runs unbounded: a visible walk r, h, s uses each of the
    at most 2n - 3 edges of the tree at most once, and only its first and
    last segments can be empty, so |h| <= 2n - 2.
    """
    fam = set(visible_classes(tree, i).classes)
    if not fam:
        raise CheckFailure(f"no visible class for pair {i} in {tree!r}")
    brute = visible_classes_brute(tree, i)
    if not brute <= fam:
        extra = next(iter(brute - fam))
        raise CheckFailure(f"class {extra} visible in {tree!r} escapes the "
                           f"segment conjugators of pair {i}")
    if brute != fam:
        missing = next(iter(fam - brute))
        raise CheckFailure(f"conjugator class {missing} missed by the search")
    return len(fam)


def check_1_conjugator_completeness(config: RunConfig) -> dict:
    """Exhaustively searched visible classes are exactly the segment-conjugator ones."""
    checked = 0
    classes_seen = 0
    _crosscheck_tile_route(config)
    for tree in _fixture_trees(config.n_max):
        for i in range(1, tree.n // 2 + 1):
            classes_seen += check_visibility(tree, i)
            checked += 1
    return {"sweeps": checked, "classes": classes_seen}


def _crosscheck_tile_route(config: RunConfig) -> None:
    """Compare the tiling route with the lazy tree search on small fixtures.

    Honors config.vertex_cap, so a tiny cap surfaces as a budget error
    rather than a verification failure.
    """
    rng = random.Random(config.seed)
    for _ in range(20):
        n = rng.choice([3, 4])
        tree = caterpillar(n, tuple(rng.sample(range(1, n + 1), n)))
        ra, rb = rng.sample(range(1, n + 1), 2)
        a = conjugate(generator(ra, n), random_reduced_word(rng, n, rng.randrange(0, 3)))
        b = conjugate(generator(rb, n), random_reduced_word(rng, n, rng.randrange(0, 3)))
        if a == b:
            continue
        f = W2Factor(a, b)
        labels = [e for e, _ in bs_path(tree, fixed_point(tree, a), fixed_point(tree, b),
                                        vertex_cap=config.vertex_cap)]
        if is_visible(tree, f) != (len(labels) == len(set(labels))):
            raise CheckFailure(f"tiling route disagrees with the tree search on {f}")


def check_fiber(tree: MarkedTree) -> None:
    """c02 on one tree: the certified fiber is the selection poset of its
    family sizes, and its homology over Q, F2, F3 and Z is the wedge's."""
    fiber = bp_fiber(tree, certify=True)
    sizes = fiber.sizes()
    if any(s == 0 for s in sizes):
        raise CheckFailure(f"empty visible family in {tree!r}")
    target = join_poset(list(sizes))
    slot = {cls: (fam_i, idx) for fam_i, fam in enumerate(fiber.families)
            for idx, cls in enumerate(fam.classes)}
    mapping = {element: frozenset(slot[cls] for cls in element)
               for element in fiber.elements}
    poset = Poset.by_inclusion(fiber.elements)
    if not poset.isomorphic_via(target, mapping):
        raise CheckFailure(f"fiber of {tree!r} is not the selection poset {sizes}")
    # the fiber is downward-closed: take homology on the complex it is
    # the face poset of, not on its barycentric subdivision
    cx = SimplicialComplex.from_face_poset(fiber.elements)
    expected = wedge_betti(sizes, cx.dimension)
    for fieldname in ("Q", 2, 3):
        got = betti(cx, fieldname)
        if got != expected:
            raise CheckFailure(
                f"fiber homology over {fieldname} is {got}, expected {expected} "
                f"for sizes {sizes} in {tree!r}")
    hom = integral_homology(cx)
    if {d: r for d, (r, _) in hom.items()} != expected or any(t for _, t in hom.values()):
        raise CheckFailure(f"fiber of {tree!r} has integral homology {hom}, "
                           f"expected free {expected}")


def check_2_fiber_structure(config: RunConfig) -> dict:
    """Fibers are selection posets; homology is the predicted wedge."""
    fibers = 0
    for tree in _fixture_trees(config.n_max):
        check_fiber(tree)
        fibers += 1
    return {"fibers": fibers}


def check_wedge(sizes) -> None:
    """c03 on one size vector: verify_wedge's report holds."""
    rep = verify_wedge(sizes)
    if not rep.ok:
        raise CheckFailure(f"wedge verification failed for sizes {sizes}: {rep}")


def check_3_wedge_homology(config: RunConfig) -> dict:
    """Selection-poset homology matches the wedge count exhaustively."""
    count = 0
    for k in range(1, 5):
        for sizes in itertools.product(range(1, 5), repeat=k):
            check_wedge(sizes)
            count += 1
    return {"size_vectors": count}


def check_unpaired(n: int, radius: int) -> dict:
    """c04 on one unpaired build: every certificate, the dimension, and at
    rank 4 the split into the three pairings.

    Each class's CompletingBasis must hold cls.a and cls.b and pass
    is_basis, and K has dimension at most n // 2 - 1.  At rank 4, K has
    exactly three components, and the pairings <x1, x2> + <x3, x4>,
    <x1, x3> + <x2, x4> and <x1, x4> + <x2, x3> lie in distinct ones.
    Returns the numbers of elements, uncertified classes and components.
    """
    sub = build_unpaired_radius(n, radius)
    for cls in sub.classes:
        cert = cls.certificate
        if not (isinstance(cert, CompletingBasis) and cls.a in cert.basis
                and cls.b in cert.basis and is_basis(list(cert.basis))):
            raise CheckFailure(f"radius {radius}: completing-basis certificate of "
                               f"{cls} does not check")
    cx = sub.face_complex()
    if cx.dimension > n // 2 - 1:
        raise CheckFailure(f"rank {n} radius {radius}: K has dimension {cx.dimension} "
                           f"> {n // 2 - 1}")
    comps = components(cx)
    if n == 4:
        if len(comps) != 3:
            raise CheckFailure(f"radius {radius}: {len(comps)} components, expected 3")
        comp_of = {v: ci for ci, vs in enumerate(comps) for v in vs}
        seen = set()
        for m in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
            element = frozenset(CanonicalClass((a, (), b), 4) for a, b in m)
            if element not in sub.elements:
                raise CheckFailure(f"radius {radius}: pairing {m} missing from the complex")
            seen.add(comp_of[sub.classes.index(next(iter(element)))])
        if len(seen) != 3:
            raise CheckFailure(f"radius {radius}: pairings fall into {len(seen)} components")
    return {"elements": len(sub.elements), "uncertified": len(sub.params["uncertified"]),
            "components": len(comps)}


def check_4_unpaired_components(config: RunConfig) -> dict:
    """The rank-4 unpaired complex splits into the three pairings."""
    details = {}
    for L in sorted({0, config.radius}):
        got = check_unpaired(4, L)
        details[f"radius_{L}"] = {"elements": got["elements"], "components": got["components"]}
    return details


def check_5_rank3_isolated(config: RunConfig) -> dict:
    """Six pairwise distinct certified classes forming six isolated points."""
    fam = rank3_isolated_family(5)
    if len(fam) != 6:
        raise CheckFailure(f"family has {len(fam)} classes, expected 6")
    bq = betti(SimplicialComplex.from_face_poset({c} for c in fam), "Q")
    if bq.get(0) != 5 or any(v for k, v in bq.items() if k > 0):
        raise CheckFailure(f"family complex has betti {bq}, expected b0~=5 only")
    return {"classes": [str(c) for c in fam]}


def _random_shape(rng: random.Random, n: int) -> TreeShape:
    """A uniform-ish reduced shape grown leaf by leaf, slots shuffled."""
    slot_of = [1, 1]
    edges = [(0, 1)]
    for _ in range(n - 2):
        if rng.random() < 0.5 or not edges:
            v = rng.randrange(len(slot_of))
            slot_of.append(1)
            edges.append((v, len(slot_of) - 1))
        else:
            u, v = edges.pop(rng.randrange(len(edges)))
            t = len(slot_of)
            slot_of.extend([0, 1])
            edges.extend([(u, t), (v, t), (t, t + 1)])
    slots = list(range(1, n + 1))
    rng.shuffle(slots)
    it = iter(slots)
    labeled = [next(it) if s else 0 for s in slot_of]
    return TreeShape(n, tuple(labeled), tuple(tuple(sorted(e)) for e in edges))


def check_6_basis_certification(config: RunConfig) -> dict:
    """200 random visible class sets certify into bases containing them."""
    rng = random.Random(config.seed)
    done = 0
    while done < 200:
        n = rng.choice([3, 4, 5, 6])
        tree = MarkedTree(_random_shape(rng, n), standard_marking(n))
        indices = [i for i in range(1, n // 2 + 1) if rng.random() < 0.8]
        chosen = []
        for i in indices:
            fam = visible_classes(tree, i).classes
            chosen.append(fam[rng.randrange(len(fam))])
        basis = certify_partial_basis(tree, chosen)
        if not is_basis(list(basis)):
            raise CheckFailure(f"certified tuple fails is_basis on {tree!r}")
        built = {core_path(a, b) for a, b in itertools.combinations(basis, 2)}
        for cls in chosen:
            if cls.path not in built:
                raise CheckFailure(f"certified basis misses a representative of {cls}")
        done += 1
    return {"fixtures": done}


def check_7_spine_dimension(config: RunConfig) -> dict:
    """Longest collapse chain has n-1 shapes (order complex dimension n-2)."""
    out = {}
    for n in (3, 4, 5):
        sp = shape_poset(n)
        chain = sp.longest_chain()
        if chain != n - 1:
            raise CheckFailure(f"rank {n}: longest chain {chain}, expected {n - 1}")
        out[f"n{n}"] = {"shapes": len(sp.shapes), "longest_chain": chain}
    return out


def check_8_collapse_monotone(config: RunConfig) -> dict:
    """Visibility survives collapses: visible in T implies visible in S.

    The collapses are the spine poset's relations; shape_poset names each
    one by its canonical shape, and relabeling trivial vertices does not
    change visibility.
    """
    pairs = 0
    checks = 0
    for n in range(2, 5):
        sp = shape_poset(n)
        for shape, below in zip(sp.shapes, sp.below):
            tree_t = MarkedTree(shape, standard_marking(n))
            visible_t = [cls for i in range(1, n // 2 + 1)
                         for cls in visible_classes(tree_t, i).classes]
            for j in sorted(below):
                tree_s = MarkedTree(sp.shapes[j], standard_marking(n))
                pairs += 1
                for cls in visible_t:
                    if not is_visible(tree_s, cls):
                        raise CheckFailure(
                            f"{cls} visible in {tree_t!r} but not in its collapse")
                    checks += 1
    return {"collapse_pairs": pairs, "class_checks": checks}


def check_9_embedding_coherence(config: RunConfig) -> dict:
    """Composition law and basis outputs of the coordinate-conjugation embedding."""
    rng = random.Random(config.seed)

    def rand_aut3():
        imgs = list(generators(3))
        for _ in range(6):
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                imgs[i] = conjugate(imgs[i], imgs[j])
            k, l = rng.randrange(3), rng.randrange(3)
            imgs[k], imgs[l] = imgs[l], imgs[k]
        return make_automorphism(imgs)

    samples = 0
    while samples < 50:
        n = rng.choice([4, 5])
        f3, g3 = rand_aut3(), rand_aut3()
        u = tuple(reduce(random_reduced_word(rng, 3, 2 * rng.randrange(0, 4)).letters, n)
                  for _ in range(n - 3))
        v = tuple(reduce(random_reduced_word(rng, 3, 2 * rng.randrange(0, 4)).letters, n)
                  for _ in range(n - 3))
        phi = semidirect_embed(u, f3)
        psi = semidirect_embed(v, g3)
        if not is_basis(list(phi.images)) or not is_basis(list(psi.images)):
            raise CheckFailure("embedding output fails the basis check")
        # the inverse round trip proves generation without rerunning the moves
        if any(f(f.inverse_images[j]) != x for f in (phi, psi)
               for j, x in enumerate(generators(n))):
            raise CheckFailure("embedding inverse images do not map back to the generators")
        twisted = tuple(u[i] * reduce(f3(reduce(v[i].letters, 3)).letters, n)
                        for i in range(n - 3))
        rhs = semidirect_embed(twisted, compose(f3, g3))
        if compose(phi, psi).images != rhs.images:
            raise CheckFailure("semidirect composition law violated")
        samples += 1
    return {"samples": samples}


def check_10_homology_soundness(config: RunConfig) -> dict:
    """Boundary squares vanish and the classical fixtures come out exactly."""
    triangle = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
    disk = SimplicialComplex.from_maximal([(0, 1, 2)])
    rp2 = SimplicialComplex.from_maximal([
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])
    fixtures = {"triangle": triangle, "disk": disk, "rp2": rp2,
                "cycle22": SimplicialComplex.from_maximal([(0, 2), (0, 3), (1, 2), (1, 3)])}
    for name, cx in fixtures.items():
        if not cx.chain_complex.boundary_squared_is_zero():
            raise CheckFailure(f"boundary square nonzero on {name}")
    if betti(triangle, "Q") != {0: 0, 1: 1}:
        raise CheckFailure("triangle boundary is not a circle")
    if integral_homology(triangle)[1] != (1, ()):
        raise CheckFailure("triangle integral homology wrong")
    if any(v for v in betti(disk, "Q").values()):
        raise CheckFailure("2-simplex is not contractible")
    if integral_homology(rp2) != {0: (0, ()), 1: (0, (2,)), 2: (0, ())}:
        raise CheckFailure("projective plane torsion not detected")
    # torsion visible as a Q vs F2 rank discrepancy
    if betti(rp2, "Q") != {0: 0, 1: 0, 2: 0} or betti(rp2, 2) != {0: 0, 1: 1, 2: 1}:
        raise CheckFailure("rank discrepancy check failed on the projective plane")
    return {"fixtures": sorted(fixtures)}


CRITERIA = [
    (1, "conjugator completeness", 120.0, check_1_conjugator_completeness),
    (2, "fiber structure", 60.0, check_2_fiber_structure),
    (3, "wedge homology sweep", 60.0, check_3_wedge_homology),
    (4, "unpaired rank-4 components", 300.0, check_4_unpaired_components),
    (5, "rank-3 isolated points", 120.0, check_5_rank3_isolated),
    (6, "basis certification", 120.0, check_6_basis_certification),
    (7, "spine dimension", 60.0, check_7_spine_dimension),
    (8, "collapse monotonicity", 60.0, check_8_collapse_monotone),
    (9, "embedding coherence", 30.0, check_9_embedding_coherence),
    (10, "homology engine soundness", 10.0, check_10_homology_soundness),
]


def run_criterion(cid: int, config: RunConfig) -> CriterionResult:
    num, name, budget, fn = next(c for c in CRITERIA if c[0] == cid)
    start = time.monotonic()
    try:
        details = fn(config)
        status = "pass"
    except BudgetExceededError as exc:
        details = {"error": str(exc)}
        status = "budget-exceeded"
    except (CheckFailure, CertificationError) as exc:
        details = {"error": str(exc)}
        status = "fail"
    seconds = time.monotonic() - start
    if status == "pass" and seconds > budget:
        status = "fail"
        details["error"] = f"runtime {seconds:.1f}s exceeded the stated budget {budget:.0f}s"
    return CriterionResult(num, name, status, seconds, budget, details)


def run_all(config: RunConfig) -> dict:
    """Run every criterion; honors the GRUSHKO_BUDGET_SECONDS soft timeout."""
    soft = os.environ.get("GRUSHKO_BUDGET_SECONDS")
    soft_budget = float(soft) if soft else None
    t0 = time.monotonic()
    results = []
    for cid, name, budget, _ in CRITERIA:
        if soft_budget is not None and time.monotonic() - t0 >= soft_budget:
            results.append(CriterionResult(cid, name, "budget-exceeded", 0.0, budget,
                                           {"error": "global soft timeout"}))
            continue
        results.append(run_criterion(cid, config))
    report = {
        "config": {"n_max": config.n_max, "radius": config.radius,
                   "vertex_cap": config.vertex_cap, "seed": config.seed},
        "criteria": [
            {"id": r.cid, "name": r.name, "status": r.status,
             "seconds": round(r.seconds, 2), "budget": r.budget, "details": r.details}
            for r in results
        ],
        "pass": all(r.status == "pass" for r in results),
    }
    return report
