"""The four seeded workloads: inputs, execution and exact output checks.

Each workload has one item type.  Inputs come in rounds of a fixed
composition: every round draws the same number of items from each
stratum (a rank, a pair index, a size vector's multiset, ...), so any seed
gives the same mix of item sizes and a run that completes whole rounds
does comparable work whatever the seed.  The seed picks which members of
each stratum are drawn and the order of the items in a round.

Only names exported by `grushko/__init__.py` are used, so the workloads
keep running while modules behind that surface are replaced.  Any
exception or wrong output is a failed item.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("visibility", "fibers", "wedge", "unpaired")

# c01's length bound on brute-force conjugators
MAX_LEN = 8

# Known sizes of the unpaired builds at this commit, per (rank, radius):
# elements of the complex, classes without a completing basis in the pool,
# and connected components of the realization.  Rank 3 at radius 3 (5-6 s,
# two thirds of it canonical_pair) is left out: one such build would be a
# whole round, and it would make factors, not membership, the main layer.
UNPAIRED_EXPECTED = {
    (4, 0): (9, 0, 3),
    (4, 1): (273, 6, 3),
    (3, 0): (3, 0, 3),
    (3, 1): (12, 3, 12),
    (3, 2): (30, 33, 30),
}

# Items drawn from each stratum per round.  Ranks 2-4 stay in every round
# so small inputs are always part of the mix.
VISIBILITY_QUOTA = {"n2.p1": 1, "n3.p1": 1, "n4.p1": 2, "n4.p2": 2, "n5.p1": 8, "n5.p2": 8}
# A rank-5 fiber costs from 8 ms to 0.4 s, set by how many marked vertices
# lie on the tree path between the two slots of each pair ("stops"), so
# rank-5 trees are drawn per stops class, in about their share of the 396
# shapes; the rare classes with four stops on a pair or three on both
# (16 shapes, 0.2-0.4 s each) share one slot.
FIBERS_QUOTA = {"n2": 1, "n3": 1, "n4": 4, "n5.11": 5, "n5.12": 6, "n5.13": 2, "n5.22": 2,
                "n5.23": 1, "n5.rest": 1}
# Length-4 size vectors in every wedge round, as sorted multisets.  A whole
# c03 sweep (one of each of the 35 multisets) takes ten seconds, [4,4,4,4]
# alone one to two; these keep a round near one second, so that a run has
# enough rounds for its median to ride out the host's slow phases.
WEDGE_LEN4 = ("2344", "2233", "1234")

# Rounds generated per run; runs that need more cycle through them again.
MIN_ROUNDS = 8


class Mismatch(AssertionError):
    """An item's output differs from its expected value."""


@dataclass(frozen=True)
class Item:
    """One unit of work; `expected` is fixed at generation time when known."""

    workload: str
    stratum: str
    args: tuple
    expected: object = None

    def key(self) -> tuple:
        """A printable identity, used to compare item lists across seeds."""
        return (self.workload, self.stratum, tuple(_plain(a) for a in self.args), self.expected)


def _plain(value):
    shape = getattr(value, "shape", None)
    if shape is not None:  # a marked tree: identified by its shape
        return (shape.slot_of, shape.edges)
    return value


def _rounds(rng: random.Random, strata: dict[str, list], quota: dict[str, int]) -> list[list]:
    """Rounds with quota[s] members of stratum s, cycling each seeded order."""
    order = {s: rng.sample(members, len(members)) for s, members in sorted(strata.items())}
    count = max(MIN_ROUNDS, *(math.ceil(len(order[s]) / quota[s]) for s in order))
    pos = dict.fromkeys(order, 0)
    rounds = []
    for _ in range(count):
        rnd = []
        for s, members in order.items():
            for _ in range(quota[s]):
                rnd.append(members[pos[s] % len(members)])
                pos[s] += 1
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def _fixture_trees(g, n: int) -> list:
    """Every reduced shape of rank n in standard marking, in a stable order."""
    shapes = sorted(g.enumerate_shapes(n), key=lambda s: (s.slot_of, s.edges))
    return [g.MarkedTree(shape, g.generators(n)) for shape in shapes]


def make_rounds(g, workload: str, seed: int) -> list[list[Item]]:
    """The seeded item rounds of one workload; g is the grushko package."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "visibility":
        strata = {}
        for n in range(2, 6):
            trees = _fixture_trees(g, n)
            for i in range(1, n // 2 + 1):
                strata[f"n{n}.p{i}"] = [Item(workload, f"n{n}.p{i}", (t, i)) for t in trees]
        return _rounds(rng, strata, VISIBILITY_QUOTA)
    if workload == "fibers":
        strata = {}
        for n in range(2, 6):
            for t in _fixture_trees(g, n):
                s = f"n{n}" if n < 5 else f"n5.{_stops(t)}"
                s = s if s in FIBERS_QUOTA else "n5.rest"
                strata.setdefault(s, []).append(Item(workload, s, (t,)))
        return _rounds(rng, strata, FIBERS_QUOTA)
    if workload == "wedge":
        # one stratum per multiset of sizes: its permutations give isomorphic
        # complexes, so the work per round is the same for every seed, and
        # the rounds cycle through every vector of length <= 3
        strata = {}
        for k in range(1, 5):
            for sizes in itertools.product(range(1, 5), repeat=k):
                s = f"len{k}." + "".join(map(str, sorted(sizes)))
                if k < 4 or s[5:] in WEDGE_LEN4:
                    strata.setdefault(s, []).append(
                        Item(workload, s, (sizes,), _wedge_rank(sizes)))
        return _rounds(rng, strata, dict.fromkeys(strata, 1))
    if workload == "unpaired":
        strata = {f"n{n}.r{r}": [Item(workload, f"n{n}.r{r}", (n, r), exp)]
                  for (n, r), exp in UNPAIRED_EXPECTED.items()}
        return _rounds(rng, strata, dict.fromkeys(strata, 1))
    raise ValueError(f"unknown workload {workload!r}")


def _stops(tree) -> str:
    """Marked vertices on the path between the slots of each pair, sorted."""
    shape = tree.shape
    counts = []
    for i in range(1, tree.n // 2 + 1):
        path = shape.path(tree.vertex_of_slot(2 * i - 1), tree.vertex_of_slot(2 * i))
        counts.append(sum(1 for _, far in path if shape.slot_of[far]))
    return "".join(map(str, sorted(counts)))


def _wedge_rank(sizes) -> int:
    """Predicted top reduced Betti number: prod(size - 1)."""
    return math.prod(s - 1 for s in sizes)


# ---------------------------------------------------------------------------
# execution and checks
# ---------------------------------------------------------------------------

def run_item(g, item: Item) -> None:
    """Run one item through the package; raise Mismatch on a wrong output."""
    CHECKS[item.workload](g, item)


def _check_visibility(g, item: Item) -> None:
    """c01: the segment-conjugator classes equal the brute-forced ones."""
    tree, i = item.args
    fam = set(g.visible_classes(tree, i).classes)
    brute = g.visible_classes_brute(tree, i, MAX_LEN)
    if not fam or fam != brute:
        raise Mismatch(f"{len(fam)} segment classes vs {len(brute)} brute-forced "
                       f"for pair {i} in {tree!r}")


def _wedge_betti(sizes, dim: int, rank: int) -> dict[int, int]:
    """Reduced Betti numbers of a wedge of `rank` spheres of dimension k - 1."""
    top = len(sizes) - 1
    return {d: (rank if d == top else 0) for d in range(dim + 1)}


def _check_fibers(g, item: Item) -> None:
    """c02: the fiber is the selection poset and has the wedge's homology."""
    (tree,) = item.args
    fiber = g.bp_fiber(tree, certify=True)
    sizes = fiber.sizes()
    if not sizes or 0 in sizes:
        raise Mismatch(f"empty visible family in {tree!r}")
    mapping = {
        element: frozenset((fi, fam.classes.index(cls))
                           for cls in element
                           for fi, fam in enumerate(fiber.families) if cls in fam.classes)
        for element in fiber.elements}
    poset = g.Poset.from_leq(fiber.elements, lambda a, b: a <= b)
    if not poset.isomorphic_via(g.join_poset(list(sizes)), mapping):
        raise Mismatch(f"fiber of {tree!r} is not the selection poset {sizes}")
    cx = poset.order_complex()
    expected = _wedge_betti(sizes, cx.dimension, _wedge_rank(sizes))
    for fieldname in ("Q", 2, 3):
        got = g.betti(cx, fieldname)
        if got != expected:
            raise Mismatch(f"fiber Betti numbers over {fieldname}: {got}, expected {expected}")
    hom = g.integral_homology(cx)
    if {d: r for d, (r, _) in hom.items()} != expected or any(t for _, t in hom.values()):
        raise Mismatch(f"fiber integral homology {hom}, expected free {expected}")


def _check_wedge(g, item: Item) -> None:
    """c03: Betti numbers over Q, F2, F3 and Z are the wedge prediction."""
    (sizes,) = item.args
    rep = g.verify_wedge(sizes)
    expected = _wedge_betti(sizes, len(sizes) - 1, item.expected)
    got = (rep.betti_q, rep.betti_f2, rep.betti_f3)
    if any(b != expected for b in got) or not rep.torsion_free or not rep.ok:
        raise Mismatch(f"wedge {sizes}: Betti {got}, torsion-free {rep.torsion_free}, "
                       f"expected {expected}")


def _check_unpaired(g, item: Item) -> None:
    """c04 and the rank-3 points: sizes, components and every certificate."""
    n, radius = item.args
    sub = g.build_unpaired_radius(n, radius)
    report = g.connectivity_report(sub)
    got = (len(sub.elements), len(sub.params["uncertified"]), report.num_components)
    if got != item.expected:
        raise Mismatch(f"rank {n} radius {radius}: (elements, uncertified, components) "
                       f"= {got}, expected {item.expected}")
    for cls in sub.classes:
        basis = cls.certificate.basis
        if cls.a not in basis or cls.b not in basis or not g.is_basis(list(basis)):
            raise Mismatch(f"completing-basis certificate of {cls} does not check")
    if n == 3:
        if report.dimension != 0:
            raise Mismatch(f"rank-3 radius {radius} complex has dimension {report.dimension}")
        return
    # rank 4: the three pairings of the generators lie in different components
    comp_of = {v: ci for ci, vs in enumerate(g.components(sub.order_complex())) for v in vs}
    index = sub.poset().index
    gens = g.generators(n)
    seen = set()
    for pairing in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        element = frozenset(g.canonical_class(g.W2Factor(gens[a], gens[b])) for a, b in pairing)
        if element not in index:
            raise Mismatch(f"radius {radius}: pairing {pairing} missing from the complex")
        seen.add(comp_of[index[element]])
    if len(seen) != 3:
        raise Mismatch(f"radius {radius}: the pairings fall into {len(seen)} components")


CHECKS = {
    "visibility": _check_visibility,
    "fibers": _check_fibers,
    "wedge": _check_wedge,
    "unpaired": _check_unpaired,
}
