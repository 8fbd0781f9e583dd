"""Test-time reference: the facet rows of a complex, enumerated on their own.

SimplicialComplex's constructor keeps the rows its face check looks up
(`faces`).  This older pass enumerates the facets of the finished grades a
second time.  It is kept only to check the constructor's rows
(tests/test_topology.py).
"""

import itertools


def face_rows(grades: list[list[tuple]]) -> list[list[tuple[int, ...]]]:
    """faces[k][c]: rows of the faces of k-simplex c, its vertices dropped last
    to first; the one face in degree 0 is the empty simplex, row 0."""
    faces = [[(0,)] * len(grades[0])] if grades else []
    for k in range(1, len(grades)):
        row = {s: i for i, s in enumerate(grades[k - 1])}.__getitem__
        faces.append([tuple(map(row, itertools.combinations(s, k))) for s in grades[k]])
    return faces
