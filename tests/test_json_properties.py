"""Property tests of the JSON documents: round trips and mutated input.

Trees, simplicial complexes and partial-basis complexes survive
to_json/from_json unchanged, and a mutated document given to the CLI exits
with code 2 whenever from_json rejects it, never with a traceback.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from grushko.basis_complex import PartialBasisComplex, _element_key
from grushko.cli import main
from grushko.factors import W2Factor, canonical_class
from grushko.topology import SimplicialComplex
from grushko.trees import MarkedTree, enumerate_shapes
from grushko.words import conjugate, generator, generators, reduce

SHAPES = {n: enumerate_shapes(n) for n in (2, 3, 4)}
PROPERTY = settings(max_examples=40, deadline=None)


def words(n):
    return st.lists(st.integers(1, n), max_size=3).map(lambda letters: reduce(letters, n))


@st.composite
def marked_trees(draw):
    """A shape with a marking reached from the standard one by Whitehead
    moves b_k -> b_j b_k b_j and a global conjugation, so a basis whose
    slot k still has core x_k."""
    n = draw(st.sampled_from(sorted(SHAPES)))
    marking = list(generators(n))
    for k, j in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4)):
        if k != j:
            marking[k - 1] = conjugate(marking[k - 1], marking[j - 1])
    g = draw(words(n))
    return MarkedTree(draw(st.sampled_from(SHAPES[n])),
                      tuple(conjugate(b, g) for b in marking))


@st.composite
def complexes(draw):
    faces = draw(st.lists(st.sets(st.integers(-3, 12), min_size=1, max_size=4), max_size=6))
    return SimplicialComplex.from_maximal(faces)


@st.composite
def partial_basis_complexes(draw):
    n = draw(st.integers(2, 4))
    classes = set()
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        a = conjugate(generator(i, n), draw(words(n)))
        classes.add(canonical_class(W2Factor(a, conjugate(generator(j, n), draw(words(n))))))
    classes = sorted(classes, key=lambda c: (c.a.key(), c.b.key()))
    elements = draw(st.lists(st.frozensets(st.sampled_from(classes), min_size=1), max_size=5))
    params = draw(st.dictionaries(st.text(max_size=4), st.integers() | st.text(max_size=4),
                                  max_size=2))
    return PartialBasisComplex(n, draw(st.booleans()), params, classes,
                               sorted(set(elements), key=_element_key))


@PROPERTY
@given(marked_trees())
def test_tree_json_round_trip(tree):
    assert MarkedTree.from_json(tree.to_json()) == tree


@PROPERTY
@given(complexes())
def test_complex_json_round_trip(cx):
    assert SimplicialComplex.from_json(cx.to_json()) == cx


@PROPERTY
@given(partial_basis_complexes())
def test_partial_basis_json_round_trip(sub):
    assert PartialBasisComplex.from_json(sub.to_json()) == sub


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def _paths(doc, path=()):
    """The key path of every node of a decoded JSON document."""
    yield path
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated(draw, documents):
    """A document with one node replaced by another value, or dropped."""
    doc = json.loads(draw(documents).to_json())
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


def _run_on_stdin(argv, doc):
    """(exit code, stdout, stderr) of the CLI with doc on stdin; any
    exception but SystemExit escapes and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _rejects(from_json, doc) -> bool:
    try:
        from_json(json.dumps(doc))
    except ValueError:
        return True
    return False


def _check_mutated(argv, from_json, doc):
    code, out, err = _run_on_stdin(argv, doc)
    if _rejects(from_json, doc):
        assert code == 2 and out == "" and err.startswith("error: <stdin>: "), (doc, err)
    else:
        assert code in (0, 2), (doc, err)


@PROPERTY
@given(mutated(marked_trees()))
def test_mutated_tree_exits_2(doc):
    _check_mutated(["visible", "--tree", "-", "--pair", "1"], MarkedTree.from_json, doc)


@PROPERTY
@given(mutated(complexes()))
def test_mutated_complex_exits_2(doc):
    _check_mutated(["homology", "--in", "-"], SimplicialComplex.from_json, doc)


@PROPERTY
@given(mutated(partial_basis_complexes()))
def test_mutated_partial_basis_exits_2(doc):
    _check_mutated(["bp", "report", "--in", "-"], PartialBasisComplex.from_json, doc)
