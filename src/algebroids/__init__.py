"""Exact symbolic exterior calculus for Lie algebroids with polynomial data.

The package is organized in layers:

- expr: exact-rational polynomial scalars (parsing, printing, calculus).
- algebroid: the anchor + structure-function data model, section brackets,
  axiom verification, and the standard constructors.
- calculus: multivectors and forms over a fixed algebroid, with wedge, interior
  product, pairing, Lie derivatives, the exterior derivative, the
  Schouten-Nijenhuis bracket (two independent implementations), and
  reconstruction of an algebroid from its differential.
- poisson: Poisson bivectors on a chart, the sharp map, the cotangent
  algebroid, Koszul bracket, and the Lichnerowicz differential.
- dualpoisson: the linear Poisson structure on the dual bundle and its
  characteristic checks.
- cli: model files and the `algebroids` command-line tool.
"""

from .expr import Expr, ParseError, parse
from .algebroid import (
    Algebroid,
    AxiomReport,
    anchor_push,
    bracket_sections,
    construct_lie_algebra,
    construct_tangent,
    is_tangent,
    new_algebroid,
    verify_axioms,
)
from .calculus import (
    FORM,
    MULTIVECTOR,
    GradedElement,
    OperatorValue,
    ReconstructionError,
    delta_reconstruct,
    exterior_derivative,
    interior_product,
    lie_derivative_form,
    lie_derivative_multivector,
    lie_operator,
    pairing,
    schouten_bracket,
    schouten_oracle,
    wedge,
)
from .poisson import (
    PoissonReport,
    PoissonStructure,
    cotangent_algebroid,
    is_poisson,
    koszul_bracket,
    lichnerowicz_differential,
    new_poisson,
    poisson_bracket,
    sharp,
)
from .dualpoisson import (
    DualChart,
    DualPoissonStructure,
    dual_poisson,
    homogeneity_check,
    phi_function,
    transpose_anchor_check,
)

__all__ = [
    "Expr",
    "ParseError",
    "parse",
    "Algebroid",
    "AxiomReport",
    "anchor_push",
    "bracket_sections",
    "construct_lie_algebra",
    "construct_tangent",
    "is_tangent",
    "new_algebroid",
    "verify_axioms",
    "FORM",
    "MULTIVECTOR",
    "GradedElement",
    "OperatorValue",
    "ReconstructionError",
    "delta_reconstruct",
    "exterior_derivative",
    "interior_product",
    "lie_derivative_form",
    "lie_derivative_multivector",
    "lie_operator",
    "pairing",
    "schouten_bracket",
    "schouten_oracle",
    "wedge",
    "PoissonReport",
    "PoissonStructure",
    "cotangent_algebroid",
    "is_poisson",
    "koszul_bracket",
    "lichnerowicz_differential",
    "new_poisson",
    "poisson_bracket",
    "sharp",
    "DualChart",
    "DualPoissonStructure",
    "dual_poisson",
    "homogeneity_check",
    "phi_function",
    "transpose_anchor_check",
]

__version__ = "0.1.0"
