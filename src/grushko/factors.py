"""Infinite-dihedral (W_2) factors of W_n and their conjugacy-canonical forms.

A subgroup generated by two distinct involutions a, b of W_n is always
infinite dihedral (W_n has no Klein four subgroup).  Its reflections are
t^k a for t = ab, and the generating pairs of the subgroup are exactly the
adjacent-reflection pairs; conjugacy of two such factors is decided by a
canonical representative pair computed from the cyclic word of t:

  * cyclically reduce t = u c u^-1 and conjugate the pair by u^-1;
  * let z be the primitive root of c (c = z^m); reflections with product a
    rotation of c or c^-1 sit in <z>-orbits, and conjugation by z shifts the
    reflection index by 2, so each conjugacy class meets a bounded, explicit
    candidate set: rotations of c and c^-1, times a bounded window of
    z-shifts within the reachable index parity (every parity when m is odd,
    even shifts only when m is even);
  * the canonical pair is the length-lexicographic minimum over that set.

canonical_pair is pure and its values are immutable, so a caller may pass
a memo dict that it reads and fills.  There is no process-wide cache: each
marked tree carries a memo (MarkedTree.canonical_memo), its own unless the
caller shares one across a sweep, so analysing one tree costs the same
whatever was analysed before it.  The same_class_oracle is an independent
exact decision kept as test-time ground truth: if it ever disagrees with
the canonical form, the canonical form is unsound and the build fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .words import (
    Word,
    conjugate,
    cyclic_reduce,
    identity,
    involution_core,
    parse,
    reduce,
)
from . import membership


class CertificateError(ValueError):
    """A free-factor certificate failed validation."""


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Axiomatic:
    """No evidence attached; reserved for test fixtures."""


@dataclass(frozen=True)
class CompletingBasis:
    """A full involution basis of W_n containing the factor's generators."""

    basis: tuple[Word, ...]


@dataclass(frozen=True)
class VisibleIn:
    """The factor is visible in the given marked Grushko tree."""

    tree: object  # MarkedTree; kept loose to avoid an import cycle


Certificate = Axiomatic | CompletingBasis | VisibleIn


@dataclass(frozen=True)
class W2Factor:
    """A dihedral subgroup <a, b> given by two distinct involutions."""

    a: Word
    b: Word
    certificate: Certificate = field(default_factory=Axiomatic)

    @property
    def rank(self) -> int:
        return self.a.rank

    def conjugated_by(self, g: Word) -> "W2Factor":
        return W2Factor(conjugate(self.a, g), conjugate(self.b, g), self.certificate)

    def __str__(self) -> str:
        return f"<{self.a}, {self.b}>"


def make_factor(a: Word, b: Word, certificate: Certificate | None = None) -> W2Factor:
    """Validate and build a dihedral factor; certificates checked unless Axiomatic."""
    if a.rank != b.rank:
        raise ValueError("generators of mixed rank")
    if not (a.is_involution and b.is_involution):
        raise ValueError("factor generators must be involutions")
    if a == b:
        raise ValueError("degenerate factor: a = b")
    cert = certificate if certificate is not None else Axiomatic()
    f = W2Factor(a, b, cert)
    if isinstance(cert, CompletingBasis):
        if a not in cert.basis or b not in cert.basis:
            raise CertificateError("completing basis does not contain the generators")
        if not membership.is_basis(list(cert.basis)):
            raise CertificateError("completing basis fails the basis check")
    elif isinstance(cert, VisibleIn):
        from . import visibility
        if not visibility.is_visible(cert.tree, f):
            raise CertificateError("visibility check fails in the certifying tree")
    return f


# ---------------------------------------------------------------------------
# canonical conjugacy classes
# ---------------------------------------------------------------------------

def _primitive_root(c: Word) -> tuple[Word, int]:
    """Write the cyclically reduced word c as z^m with z primitive."""
    L = len(c.letters)
    for d in range(1, L + 1):
        if L % d:
            continue
        z = c.letters[:d]
        if z * (L // d) == c.letters:
            return Word(z, c.rank), L // d
    raise AssertionError("unreachable")


def _pair_key(pair: tuple[Word, Word]) -> tuple:
    a, b = pair
    return (len(a) + len(b), len(a), a.letters, b.letters)


def _candidate_pairs(a: Word, b: Word, bound: list | tuple = (math.inf,)):
    """Canonical-form candidates for the conjugacy class of <a, b>.

    Swapping the pair covers rotations of c^-1; the window bound comes from
    |z^j s| >= |j| |z| - |s|, so any candidate beating the j = 0 one in its
    own rotation family has |j| inside the window.

    (e) bound[0] is read at every shift, so a caller may lower it to the
    least |a| + |b| seen (the default yields the whole window).  z^j is
    reduced (crot is cyclically reduced, z its prefix root), so
    s = reduce(z^(+-j) ar) has |s| >= j|z| - |ar|, and |s crot| >= |s| - |crot|.
    This bound 2(j|z| - |ar|) - |crot| on the sum, which _pair_key compares
    first, grows with j, so a family stops once it strictly exceeds bound[0]
    (equal sums are decided later in the key).
    """
    for base_a, base_b in ((a, b), (b, a)):
        t = base_a * base_b
        c, u = cyclic_reduce(t)
        a1 = conjugate(base_a, ~u)  # inverts c; a1 * (u^-1 b u) = c
        z, m = _primitive_root(c)
        cl = c.letters
        zlen = len(z.letters)
        # conjugation by z shifts the reflection index by 2; the other
        # adjacent pairs of the same subgroup shift it by multiples of m
        step = 1 if m % 2 == 1 else 2
        for r in range(len(cl)):
            crot = Word(cl[r:] + cl[:r], c.rank)
            zrot = Word(crot.letters[:zlen], c.rank)
            zinv = ~zrot
            p = Word(cl[:r], c.rank)
            ar = conjugate(a1, ~p)
            window = (3 * len(ar) + len(crot)) // zlen + 2
            for j in range(0, window + 1, step):
                if 2 * (j * zlen - len(ar)) - len(crot) > bound[0]:
                    break
                s = reduce(zrot.letters * j + ar.letters, c.rank)
                yield (s, s * crot)
                if j:
                    sneg = reduce(zinv.letters * j + ar.letters, c.rank)
                    yield (sneg, sneg * crot)


def canonical_pair(a: Word, b: Word, memo: dict | None = None) -> tuple[Word, Word]:
    """Canonical representative pair for the conjugacy class of <a, b>.

    With a memo, the pair is looked up in it by (a, b) and stored there.
    The window search stops at the least sum found (_candidate_pairs (e)).
    """
    if memo is not None:
        hit = memo.get((a, b))
        if hit is not None:
            return hit
    best = best_key = None
    bound = [math.inf]
    for cand in _candidate_pairs(a, b, bound):
        key = _pair_key(cand)
        if best is None or key < best_key:
            best, best_key = cand, key
            bound[0] = key[0]
    assert best is not None
    if memo is not None:
        memo[a, b] = best
    return best


@dataclass(frozen=True)
class CanonicalClass:
    """Conjugacy class of a dihedral factor, keyed by its canonical pair."""

    a: Word
    b: Word
    pair_index: int | None = field(default=None, compare=False)
    certificate: Certificate = field(default_factory=Axiomatic, compare=False)

    @property
    def rank(self) -> int:
        return self.a.rank

    def cores(self) -> tuple[int, int]:
        """Generator cores of the two reflection families (unordered as a set)."""
        return involution_core(self.a)[0], involution_core(self.b)[0]

    def representative(self) -> W2Factor:
        return W2Factor(self.a, self.b, self.certificate)

    def with_certificate(self, cert: Certificate) -> "CanonicalClass":
        return CanonicalClass(self.a, self.b, self.pair_index, cert)

    def __str__(self) -> str:
        p = "none" if self.pair_index is None else str(self.pair_index)
        return f"W2[a={self.a};b={self.b};pair={p}]"


def parse_class(text: str, rank: int) -> CanonicalClass:
    """Parse the stable text form W2[a=...;b=...;pair=...].

    The fields are a, b and an optional pair, each at most once.
    """
    body = text.strip()
    fields = [kv.split("=", 1) for kv in body[3:-1].split(";")]
    parts = dict(f for f in fields if len(f) == 2)
    if not (body.startswith("W2[") and body.endswith("]")) or len(parts) != len(fields) \
            or not {"a", "b"} <= parts.keys() <= {"a", "b", "pair"}:
        raise ValueError(f"bad class literal: {text!r}")
    a = parse(parts["a"], rank)
    b = parse(parts["b"], rank)
    f = make_factor(a, b)
    cls = canonical_class(f)
    want = parts.get("pair", "none")
    got = "none" if cls.pair_index is None else str(cls.pair_index)
    if want != got:
        raise ValueError(f"pair index mismatch in {text!r}: computed {got}")
    return cls


def canonical_class(f: W2Factor, memo: dict | None = None) -> CanonicalClass:
    """The class of f, carrying f's certificate; memo as in canonical_pair."""
    a0, b0 = canonical_pair(f.a, f.b, memo)
    idx = pair_index(f, f.rank)
    return CanonicalClass(a0, b0, idx, f.certificate)


def pair_index(f: W2Factor, n: int) -> int | None:
    """i when the generator cores are exactly {x_{2i-1}, x_{2i}}, else None.

    The unordered core pair is invariant under swapping, adjacent-reflection
    moves and conjugation, so it is computed from any generating pair.
    """
    r = involution_core(f.a)[0]
    s = involution_core(f.b)[0]
    lo, hi = min(r, s), max(r, s)
    if hi == lo + 1 and lo % 2 == 1 and hi <= 2 * (n // 2):
        return (lo + 1) // 2
    return None


def same_class_oracle(f: W2Factor, g: W2Factor) -> bool:
    """Exact test for conjugacy of two dihedral factors.

    In <c, d>, with reflections r_k = (cd)^k c, the generating pairs are the
    adjacent pairs (r_k, r_{k-1}) and (r_k, r_{k+1}).  Conjugation by cd
    shifts k by 2 and conjugation by c sends k to -k, so every generating
    pair of <c, d> is conjugate within <c, d> to (c, d) or (d, c).  Hence
    <a, b> is conjugate to <c, d> iff some w carries (a, b) onto (c, d) or
    onto (d, c).  Write a = u x_j u^-1 and, for the target q1 in {c, d}
    with core j, q1 = v x_j v^-1.  The centralizer of x_j in W_n is <x_j>,
    so w a w^-1 = q1 forces w = v mid u^-1 with mid in {1, x_j}: at most
    four candidates in all.  This path shares no code with canonical_pair
    beyond the word primitives.
    """
    if f.rank != g.rank:
        raise ValueError("rank mismatch")
    j, u = involution_core(f.a)
    ui = ~u
    mids = (identity(f.rank), Word((j,), f.rank))
    for q1, q2 in ((g.a, g.b), (g.b, g.a)):
        k, v = involution_core(q1)
        if k != j:
            continue
        for mid in mids:
            w = v * mid * ui
            if conjugate(f.a, w) == q1 and conjugate(f.b, w) == q2:
                return True
    return False
