"""Word algebra, Grushko trees, visibility and partial-basis complexes for W_n."""

from .words import Word, conjugate, generators, identity, involution_core, parse, reduce
from .membership import Automorphism, CoreGraph, contains, fold, is_basis, make_automorphism, semidirect_embed
from .factors import CanonicalClass, W2Factor, canonical_class, make_factor, same_class_oracle
from .trees import BSVertex, MarkedTree, TreeShape, bs_path, caterpillar, collapse, enumerate_shapes, fixed_point, shape_poset
from .visibility import VisibleFamily, bp_fiber, certify_partial_basis, is_visible, visible_classes, visible_classes_brute
from .topology import Poset, SimplicialComplex, betti, components, integral_homology, join_poset, verify_wedge
from .basis_complex import PartialBasisComplex, build_from_trees, build_unpaired_radius, connectivity_report, rank3_isolated_family

__version__ = "0.1.0"
