"""Test-time reference: involutions seeded into the folder one letter at a time.

membership._Folder.add_involution spells an involution's prefix into a
trie at the basepoint and queues only its mirror.  This older seeding
queues one edge event per prefix letter, each on a fresh vertex, and
leaves every identification to the run.  It is kept only to check the
trie seeding (tests/test_membership.py).
"""

from grushko.words import involution_core


def add_involution_by_letters(folder, g):
    """Queue g = p x_j p^-1 as a segment spelling p with a mirror j at its end."""
    j, prefix = involution_core(g)
    u = 0
    for a in prefix.letters:
        v = folder.new_vertex()
        folder.queue.append((u, a, v))
        u = v
    folder.queue.append((u, j, None))
