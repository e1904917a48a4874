"""Exact (q,t)-deformed algebra of graph-indexed combinatorial structures.

Thirteen families of structures carried by finite labeled graphs (linear
orders, acyclic orientations, set compositions and partitions, edge flats,
matchings, and their stable/partner-basis variants) form monoids under a
graph-union product and restriction-style coproducts, twisted by a
two-parameter braiding that counts edges and non-edges across a vertex
split.  This package computes those structure maps exactly over integer
(q,t) polynomials, evaluates antipodes by four independent routes, applies
the catalogued structure-preserving maps between families, and rechecks
every claimed identity mechanically on exhaustive small-graph corpora.
"""

from .antipode import (
    CLOSED_FORM_IDS,
    METHODS,
    ORACLE_GATED_IDS,
    antipode,
    antipode_element,
    antipode_table,
)
from .elements import Element, TensorElement, linear_extend
from .enumerators import (
    bell_number,
    flats,
    fubini_number,
    is_flat,
    is_matching,
    matchings,
    ordered_bipartitions,
)
from .errors import GraphParseError, InputError
from .graphs import (
    Graph,
    chromatic_polynomial,
    chromatic_value,
    complete_graph,
    components_partition,
    discrete_graph,
    edge_pair,
)
from .keys import (
    AcyclicOrientation,
    BasisKey,
    FlatM,
    FlatP,
    LinearOrder,
    MatchingM,
    MatchingP,
    PartitionM,
    PartitionP,
    SetCompositionKey,
    UnitKey,
    parse_key,
)
from .monoids import (
    EMPTY_GRAPH,
    MONOID_IDS,
    MONOIDS,
    basis_change,
    braiding_coeff,
    coproduct_component,
    counit_value,
    get_monoid,
    make_element,
    product,
    unit_element,
)
from .morphisms import (
    DIAGRAMS,
    MORPHISM_NAMES,
    MORPHISMS,
    Morphism,
    apply_path,
    get_morphism,
    morphism_apply,
)
from .qtpoly import ONE, Q, T, ZERO, QTPolynomial
from .verify import (
    SUITES,
    CheckRecord,
    VerificationReport,
    check_antipode,
    check_basis_change,
    check_bimonoid,
    check_commutativity,
    check_diagram,
    check_functors,
    check_morphism,
    check_stanley,
    corpus,
    run_suite,
    sampled_graphs,
)

__version__ = "0.1.0"

__all__ = [
    "AcyclicOrientation",
    "BasisKey",
    "CLOSED_FORM_IDS",
    "CheckRecord",
    "DIAGRAMS",
    "EMPTY_GRAPH",
    "Element",
    "FlatM",
    "FlatP",
    "Graph",
    "GraphParseError",
    "InputError",
    "LinearOrder",
    "METHODS",
    "MONOIDS",
    "MONOID_IDS",
    "MORPHISMS",
    "MORPHISM_NAMES",
    "MatchingM",
    "MatchingP",
    "Morphism",
    "ONE",
    "ORACLE_GATED_IDS",
    "PartitionM",
    "PartitionP",
    "Q",
    "QTPolynomial",
    "SUITES",
    "SetCompositionKey",
    "T",
    "TensorElement",
    "UnitKey",
    "VerificationReport",
    "ZERO",
    "antipode",
    "antipode_element",
    "antipode_table",
    "apply_path",
    "basis_change",
    "bell_number",
    "braiding_coeff",
    "check_antipode",
    "check_basis_change",
    "check_bimonoid",
    "check_commutativity",
    "check_diagram",
    "check_functors",
    "check_morphism",
    "check_stanley",
    "chromatic_polynomial",
    "chromatic_value",
    "complete_graph",
    "components_partition",
    "coproduct_component",
    "corpus",
    "counit_value",
    "discrete_graph",
    "edge_pair",
    "flats",
    "fubini_number",
    "get_monoid",
    "get_morphism",
    "is_flat",
    "is_matching",
    "linear_extend",
    "make_element",
    "matchings",
    "morphism_apply",
    "ordered_bipartitions",
    "parse_key",
    "product",
    "run_suite",
    "sampled_graphs",
    "unit_element",
]
