"""Exact word arithmetic in the free Coxeter group W_n = Z/2 * ... * Z/2.

Elements are reduced words over n involutive generators x_1..x_n; a word
is reduced when no two adjacent letters are equal.  Every operation returns
reduced words, all values are immutable, and the lexicographic order used
throughout the package is length first, then letter sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class RankMismatchError(ValueError):
    """Two words from different ambient ranks were combined."""


class NotInvolutionError(ValueError):
    """involution_core was called on a word that is not an odd palindrome."""


def _reduce_into(stack: list[int], letters: Iterable[int]) -> list[int]:
    # push/pop: x_j x_j cancels; the rewriting is confluent so one pass suffices
    for a in letters:
        if stack and stack[-1] == a:
            stack.pop()
        else:
            stack.append(a)
    return stack


@dataclass(frozen=True, slots=True)
class Word:
    """A reduced word in W_n.  Use :func:`reduce` or :func:`parse` to build one."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        for a, b in zip(self.letters, self.letters[1:]):
            if a == b:
                raise ValueError(f"word {self.letters} is not reduced")
        for a in self.letters:
            if not 1 <= a <= self.rank:
                raise ValueError(f"letter {a} out of range for rank {self.rank}")

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        _check_rank(self, other)
        stack = list(self.letters)
        _reduce_into(stack, other.letters)
        return _trusted(tuple(stack), self.rank)

    def __invert__(self) -> "Word":
        return _trusted(self.letters[::-1], self.rank)

    def key(self) -> tuple:
        """Sort key: length first, then letters."""
        return (len(self.letters), self.letters)

    def __lt__(self, other: "Word") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "Word") -> bool:
        return self.key() <= other.key()

    @property
    def is_involution(self) -> bool:
        """True iff the word is a nonempty odd-length palindrome.

        These are exactly the order-2 elements: reduced g x_j g^-1 forms.
        """
        letters = self.letters
        return len(letters) % 2 == 1 and letters == letters[::-1]

    def __str__(self) -> str:
        if not self.letters:
            return "ε"
        return "*".join(f"x{a}" for a in self.letters)

    def __repr__(self) -> str:
        return f"Word({self})"


_set_letters = Word.letters.__set__
_set_rank = Word.rank.__set__


def _trusted(letters: tuple[int, ...], rank: int) -> Word:
    """A Word whose letters are reduced and in range by construction.

    Skips the checks of ``__post_init__``.  Only this module's operations
    call it, each on letters reduced from valid words of the same rank.
    """
    w = object.__new__(Word)
    _set_letters(w, letters)
    _set_rank(w, rank)
    return w


def _check_rank(a: Word, b: Word) -> None:
    if a.rank != b.rank:
        raise RankMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")


def identity(rank: int) -> Word:
    return Word((), rank)


def generator(j: int, rank: int) -> Word:
    return Word((j,), rank)


def generators(rank: int) -> tuple[Word, ...]:
    return tuple(Word((j,), rank) for j in range(1, rank + 1))


def reduce(letters: Sequence[int], rank: int) -> Word:
    """Reduce an arbitrary letter sequence to the unique normal form."""
    for a in letters:
        if not 1 <= a <= rank:
            raise ValueError(f"letter {a} out of range for rank {rank}")
    return _trusted(tuple(_reduce_into([], letters)), rank)


def _conjugate_letters(a: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of g a g^-1 reduced, for the reduced letters a and g."""
    stack = list(g)
    _reduce_into(stack, a)
    _reduce_into(stack, reversed(g))
    return tuple(stack)


def conjugate(a: Word, g: Word) -> Word:
    """Reduced form of g a g^-1."""
    _check_rank(a, g)
    return _trusted(_conjugate_letters(a.letters, g.letters), a.rank)


def involution_core(a: Word) -> tuple[int, Word]:
    """Split an involution as g x_j g^-1: returns (j, g).

    g is the prefix of length (L-1)/2; raises NotInvolutionError otherwise.
    """
    if not a.is_involution:
        raise NotInvolutionError(f"{a} is not an involution")
    half = len(a.letters) // 2
    return a.letters[half], _trusted(a.letters[:half], a.rank)


def parse(text: str, rank: int) -> Word:
    """Parse a word from text.

    Accepts "x1.x2.x1", "x1*x2*x1", "1 2 1" and the empty word as "" or
    the epsilon sign.  Output formatting uses "x1*x2*x1"; parse/print
    round-trips bit-exact.
    """
    text = text.strip()
    if text in ("", "ε", "e"):
        return identity(rank)
    tokens = [t for t in text.replace("*", " ").replace(".", " ").split() if t]
    letters = []
    for tok in tokens:
        body = tok[1:] if tok[0] in "xX" else tok
        # a letter is a positive decimal; only its range depends on the rank
        if not (body.isascii() and body.isdigit()) or int(body) == 0:
            raise ValueError(f"bad generator token {tok!r} in {text!r}")
        letters.append(int(body))
    return reduce(letters, rank)


def random_reduced_word(rng, rank: int, length: int) -> Word:
    """A uniformly chosen reduced word of exactly the given length (seeded rng)."""
    letters: list[int] = []
    for _ in range(length):
        choices = [j for j in range(1, rank + 1) if not letters or j != letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters), rank)
