"""Test-time reference: the window search for canonical pairs, on letter tuples.

canonical_pair reads the canonical pair off the core path in closed form;
this older search over rotations and z-shifts is kept only to check it
(tests/test_factors.py).  Its cyclic reduction is checked on its own in
tests/test_words.py.
"""


def reduce_letters(letters):
    stack = []
    for x in letters:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def cyclic_reduce(t):
    """t = u c u^-1 with c cyclically reduced, on letter tuples: returns (c, u).

    c has first letter != last letter unless its length is <= 1.
    """
    lo, hi = 0, len(t)
    while hi - lo >= 2 and t[lo] == t[hi - 1]:
        lo += 1
        hi -= 1
    return t[lo:hi], t[:lo]


def primitive_root(c):
    """Write the cyclically reduced c as z^m with z primitive: returns (z, m)."""
    for d in range(1, len(c) + 1):
        if len(c) % d == 0 and c[:d] * (len(c) // d) == c:
            return c[:d], len(c) // d


def window_pairs(a, b):
    """The generating pairs the window search scans for the class of <a, b>.

    Conjugate the pair so that t = ab becomes its cyclically reduced c,
    with c = z^m and z primitive.  Reflections whose product is a rotation
    of c or c^-1 sit in <z>-orbits; conjugation by z shifts the reflection
    index by 2 (so only even shifts when m is even), and
    |z^j s| >= |j| |z| - |s| bounds the shifts j that can beat j = 0.
    Swapping the pair covers the rotations of c^-1.
    """
    for base_a, base_b in ((a.letters, b.letters), (b.letters, a.letters)):
        c, u = cyclic_reduce(reduce_letters(base_a + base_b))
        a1 = reduce_letters(u[::-1] + base_a + u)
        z, m = primitive_root(c)
        step = 1 if m % 2 == 1 else 2
        for r in range(len(c)):
            crot = c[r:] + c[:r]
            zrot = crot[:len(z)]
            ar = reduce_letters(c[:r][::-1] + a1 + c[:r])
            window = (3 * len(ar) + len(crot)) // len(z) + 2
            for j in range(0, window + 1, step):
                for shift in ((zrot, zrot[::-1]) if j else (zrot,)):
                    s = reduce_letters(shift * j + ar)
                    yield s, reduce_letters(s + crot)


def letters_key(pair):
    """_pair_key on letter tuples."""
    s, t = pair
    return (len(s) + len(t), len(s), s, t)
