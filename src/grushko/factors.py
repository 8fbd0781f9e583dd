"""Infinite-dihedral (W_2) factors of W_n and their conjugacy-canonical forms.

A subgroup generated by two distinct involutions a, b of W_n is always
infinite dihedral (W_n has no Klein four subgroup).  Its reflections are
t^k a for t = ab, and the generating pairs of the subgroup are exactly the
adjacent-reflection pairs.  Conjugacy of two such factors is decided by a
canonical representative pair read off the core path of the subgroup:

  * write a = p x_i p^-1 and b = q x_j q^-1 (involution_core).  Conjugating
    by p^-1 gives <x_i, w x_j w^-1> with w = p^-1 q reduced, and x_i w and
    w x_j give the same subgroup, so it is <x_i, v x_j v^-1>, where v is w
    with one leading x_i and one trailing x_j removed;
  * the folded core graph of this subgroup, without the hair to the
    basepoint, is the path mirror i, v, mirror j: nothing folds, because v
    is reduced, does not start with x_i and does not end with x_j.
    Conjugate subgroups have the same path;
  * w needs no word product: p and q are reduced, so p^-1 q cancels only
    at the junction, where it removes exactly the longest common prefix
    of p and q.  With k its length, p[k] != q[k] (where both exist), so
    w is p[k:] reversed followed by q[k:], already reduced;
  * a generating pair (r x_k r^-1, s x_l s^-1) of any conjugate spells two
    paths of |r| and |s| edges from its basepoint.  Folding them gives the
    core path plus a hair and never adds edges, so |r| + |s| >= |v| and
    |a| + |b| >= 2|v| + 2, with equality exactly when the basepoint lies on
    the path and r, s run from it to opposite ends;
  * _pair_key compares the sum first and |a| next, and |a| = 1 among those
    pairs only with the basepoint at an end.  So the canonical pair is the
    smaller of (x_i, v x_j v^-1) and (x_j, v^-1 x_i v), compared by (i, v)
    against (j, reversed v), in O(|v|) time.

strip and core_path are the one definition of the path (i, v, j), and a
CanonicalClass is stored as its path: its pair index and order are read
off the path, and CanonicalClass.a/.b and canonical_pair render it as the
pair (x_i, v x_j v^-1).

The same_class_oracle is an independent exact decision kept as test-time
ground truth: if it ever disagrees with the canonical form, the canonical
form is unsound and the build fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .words import NotInvolutionError, RankMismatchError, Word, conjugate, identity, involution_core, parse


# ---------------------------------------------------------------------------
# certificates, carried by classes only
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Axiomatic:
    """No evidence attached, as on every class canonical_class returns."""


@dataclass(frozen=True)
class CompletingBasis:
    """A full involution basis of W_n containing the class's generators."""

    basis: tuple[Word, ...]


@dataclass(frozen=True)
class VisibleIn:
    """The class is visible in the given marked Grushko tree."""

    tree: object  # MarkedTree; kept loose so that factors imports only words


Certificate = Axiomatic | CompletingBasis | VisibleIn


@dataclass(frozen=True)
class W2Factor:
    """A dihedral subgroup <a, b> given by two distinct involutions."""

    a: Word
    b: Word

    @property
    def rank(self) -> int:
        return self.a.rank

    def __str__(self) -> str:
        return f"<{self.a}, {self.b}>"


def make_factor(a: Word, b: Word) -> W2Factor:
    """Validate and build a dihedral factor."""
    if a.rank != b.rank:
        raise ValueError("generators of mixed rank")
    if not (a.is_involution and b.is_involution):
        raise ValueError("factor generators must be involutions")
    if a == b:
        raise ValueError("degenerate factor: a = b")
    return W2Factor(a, b)


# ---------------------------------------------------------------------------
# canonical conjugacy classes
# ---------------------------------------------------------------------------

def _pair_key(pair: tuple[Word, Word]) -> tuple:
    """The order canonical_pair minimises: |a| + |b|, |a|, then letters."""
    a, b = pair
    return (len(a) + len(b), len(a), a.letters, b.letters)


Path = tuple[int, tuple[int, ...], int]


def strip(i: int, v: tuple[int, ...], j: int) -> Path:
    """(i, v, j) with one leading x_i and one trailing x_j dropped from v.

    <x_i, v x_j v^-1> is unchanged by x_i v and by v x_j, so the stripped
    path names the same class.
    """
    if v[:1] == (i,):
        v = v[1:]
    if v[-1:] == (j,):
        v = v[:-1]
    return i, v, j


def core_path(a: Word, b: Word) -> Path:
    """The oriented core path (i, v, j) of <a, b>: its canonical pair is
    (x_i, v x_j v^-1).

    v is the reduced p^-1 q, stripped, for a = p x_i p^-1 and b = q x_j q^-1,
    read off the letters (module docstring); of the path and its reverse
    (j, v^-1, i), the smaller by (i, v) is kept.
    Conjugate factors, and both orders of a pair, give the same path.
    """
    if a == b:
        raise ValueError("degenerate factor: a = b")
    for w in (a, b):
        if not w.is_involution:
            raise NotInvolutionError(f"{w} is not an involution")
    if a.rank != b.rank:
        raise RankMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")
    return _path(a.letters, b.letters)


def _path(x: tuple[int, ...], y: tuple[int, ...]) -> Path:
    """core_path of the involutions with the letters x != y, unchecked."""
    p, q = x[:len(x) // 2], y[:len(y) // 2]
    k = 0
    for s, t in zip(p, q):
        if s != t:
            break
        k += 1
    i, v, j = strip(x[len(p)], p[k:][::-1] + q[k:], y[len(q)])
    if (j, v[::-1]) < (i, v):
        return j, v[::-1], i
    return i, v, j


def canonical_pair(a: Word, b: Word) -> tuple[Word, Word]:
    """Canonical representative pair for the conjugacy class of <a, b>.

    The _pair_key minimum over the class, (x_i, v x_j v^-1) for the core
    path (i, v, j) = core_path(a, b), as the module docstring shows.
    """
    cls = CanonicalClass(core_path(a, b), a.rank)
    return cls.a, cls.b


@dataclass(frozen=True)
class CanonicalClass:
    """The conjugacy class of <x_i, v x_j v^-1>, stored as its core path (i, v, j)."""

    path: Path
    rank: int
    certificate: Certificate = field(default_factory=Axiomatic, compare=False)

    @property
    def a(self) -> Word:
        return Word((self.path[0],), self.rank)

    @property
    def b(self) -> Word:
        _, v, j = self.path
        return Word(v + (j,) + v[::-1], self.rank)

    @property
    def pair_index(self) -> int | None:
        return core_pair_index(self.path[0], self.path[2], self.rank)

    def cores(self) -> tuple[int, int]:
        """Generator cores of the two reflection families (unordered as a set)."""
        return self.path[0], self.path[2]

    def key(self) -> tuple:
        """Sort key, the order of (a.key(), b.key()): a = x_i, and b has
        length 2|v| + 1 and starts with v, then x_j."""
        i, v, j = self.path
        return i, len(v), v, j

    def with_certificate(self, cert: Certificate) -> "CanonicalClass":
        return CanonicalClass(self.path, self.rank, cert)

    def __str__(self) -> str:
        return path_text(self.path, self.rank)


@cache
def _letter_names(n: int) -> tuple[str, ...]:
    """The text x1..xn of each letter at rank n, at its index (0 is unused)."""
    return ("",) + tuple(f"x{k}" for k in range(1, n + 1))


def path_text(path: Path, n: int) -> str:
    """The stable text W2[a=...;b=...;pair=...] of the class of a core path
    (i, v, j) at rank n: its canonical pair (x_i, v x_j v^-1) and pair index."""
    i, v, j = path
    pair = core_pair_index(i, j, n)
    names = _letter_names(n)
    b = "*".join([names[x] for x in v + (j,) + v[::-1]])
    return f"W2[a=x{i};b={b};pair={'none' if pair is None else pair}]"


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


def canonical_class(f: W2Factor) -> CanonicalClass:
    """The class of f, with no certificate (Axiomatic)."""
    return CanonicalClass(core_path(f.a, f.b), f.rank)


def core_pair_index(r: int, s: int, n: int) -> int | None:
    """The pair index at rank n of the cores {r, s}: i if they are {2i-1, 2i}, else None."""
    lo, hi = sorted((r, s))
    return (lo + 1) // 2 if hi == lo + 1 and lo % 2 == 1 and hi <= 2 * (n // 2) else None


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
