"""jvu: an exact-arithmetic workbench for U-operator commutation questions
in special Jordan algebras.

The library side computes inside the free associative algebra F<X> over the
rationals or GF(p): symmetrized words, Jordan closure tables, graded ideal
components with membership certificates, and linear-combination solving.
The 27-dimensional side verifies cubic-form identities and zero-product
operator commutation in a concrete exceptional Jordan algebra over split
octonions.  Everything is exact; there is no floating point anywhere.
"""

from .fields import Field, FieldError, field_from_name, make_field
from .freealg import FreePoly, GeneratorSet
from .jordan import (
    JordanElement,
    circ,
    commutator_image,
    jordan_closure_table,
    square,
    symmetric_component_dim,
    u_apply,
    u_lin,
    commutator_identity_residual,
)
from .linalg import (
    AffineSolution,
    ComponentBasis,
    Subspace,
    affine_solve,
    solve_combination,
    to_vector,
    words_of_multidegree,
)
from .ideals import (
    AssocIdealComponent,
    GapWitnessReport,
    OuterIdealComponent,
    assoc_ideal_component,
    cohn_gap_witness,
    outer_ideal_component,
)
from .expr import ParseError, format_poly, parse_expr

__version__ = "0.1.0"

__all__ = [
    "AffineSolution",
    "AssocIdealComponent",
    "ComponentBasis",
    "Field",
    "FieldError",
    "FreePoly",
    "GapWitnessReport",
    "GeneratorSet",
    "JordanElement",
    "OuterIdealComponent",
    "ParseError",
    "Subspace",
    "affine_solve",
    "assoc_ideal_component",
    "circ",
    "cohn_gap_witness",
    "commutator_image",
    "field_from_name",
    "format_poly",
    "jordan_closure_table",
    "make_field",
    "outer_ideal_component",
    "parse_expr",
    "solve_combination",
    "square",
    "symmetric_component_dim",
    "to_vector",
    "u_apply",
    "u_lin",
    "commutator_identity_residual",
    "words_of_multidegree",
]
