"""Workbench for affine continuous logic over finite metric structures.

Formulas are built from relation and metric atoms with rational scaling,
addition, and inf/sup binders; structures are finite [0,1]-valued metric
spaces with Lipschitz-bounded interpretations.  Everything downstream is
exact rational arithmetic: measure-weighted products of structures, type
hulls with extreme points and faces, affine satisfiability with Farkas
certificates, distance predicates and definability checks, and finite
probability algebras.
"""

from .errors import AffineLogicError, FormatError, InternalError
from .linalg import LinalgError, gauss_solve
from .linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, LinprogError, solve_standard
from .mean import (
    MeanError,
    MeanStructure,
    Ultracharge,
    build_ultramean,
    check_ultramean_identity,
)
from .model import (
    EvalError,
    FiniteStructure,
    FunctionInterp,
    RelationInterp,
    StructureError,
    automorphisms,
    eval_formula,
    eval_table,
    validate_structure,
)
from .definability import (
    DefinabilityError,
    FunctionTable,
    PredicateTable,
    automorphism_invariant,
    check_distance_axioms,
    check_graph_identities,
    distance_predicate,
    function_graph,
    inf_over_definable,
    invariant_type,
    is_definable_predicate,
    is_definable_set,
    lambda_domination,
    predicate_from_formula,
    pushforward,
    zeroset_recover,
)
from .pra import (
    AdditiveFunction,
    AlgebraError,
    MeasureAlgebra,
    build_algebra,
    check_algebra_axioms,
    dcl,
    hahn_max_set,
    interval_distance,
    interval_projection,
    pra_definable_check,
)
from .rationals import format_rational, parse_rational
from .suites import SUITES, SuiteResult, run_suites
from .syntax import (
    Apply,
    Condition,
    Const,
    Formula,
    FormulaError,
    Func,
    Inf,
    LipschitzCertificate,
    One,
    ParseError,
    Scale,
    Signature,
    Sum,
    Sup,
    SymbolInfo,
    Term,
    Var,
    affine_combine,
    certificate,
    check_formula,
    free_vars,
    parse_condition,
    parse_formula,
    render,
    render_condition,
)
from .typespace import (
    BoundaryMeasure,
    DecompositionError,
    FormulaFamily,
    NonUniqueDecompositionError,
    TypeHull,
    TypespaceError,
    TypeVector,
    affine_satisfiable,
    barycenter,
    exposed_face,
    extreme_points,
    factor_through_hull,
    is_face,
    keisler_decompose,
    mixture_type,
    realized_type,
    type_distance,
    type_hull,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
