"""Exact structure theory of 2x2 max-plus (tropical) matrices.

Green's relations and preorders, idempotents and their families, regularity
witnesses, maximal subgroups, and the two-sided ideal lattice, all decided
by exact rational arithmetic and cross-checkable against a residuation
oracle.
"""

from .semiring import (
    BOTTOM,
    NEG_INF,
    POS_INF,
    ProjPoint,
    TropScalar,
)
from .matrix import (
    ResidualMatrix,
    TropMatrix,
    left_residual,
    monomial_inverse,
    parse_matrix,
    residual_scalar,
    right_residual,
    solves_right,
)
from .geometry import (
    ConvexSet,
    IsoType,
    canonical_set,
    embed_image,
    embeds_isometrically,
    iso_type,
    isometric,
    proj_column_space,
    proj_row_space,
    subset,
)
from .green import (
    GreenRelation,
    d_class_witness,
    j_factorization,
    leq_J,
    leq_L,
    leq_R,
    related,
    witness_Z,
)
from .structure import (
    GroupType,
    IdempotentForm,
    group_type_of_H,
    idempotent_form,
    idempotent_in_H,
    in_idempotent_family,
    is_idempotent,
    regular_witness,
    subgroup_element,
)
from .ideals import (
    IdealDescriptor,
    Ordering,
    decompose,
    ideal_compare,
    ideal_contains,
    ideal_from_generators,
    principal_ideal_of,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "NEG_INF",
    "POS_INF",
    "ConvexSet",
    "GreenRelation",
    "GroupType",
    "IdealDescriptor",
    "IdempotentForm",
    "IsoType",
    "Ordering",
    "ProjPoint",
    "ResidualMatrix",
    "TropMatrix",
    "TropScalar",
    "canonical_set",
    "d_class_witness",
    "decompose",
    "embed_image",
    "embeds_isometrically",
    "group_type_of_H",
    "idempotent_form",
    "idempotent_in_H",
    "ideal_compare",
    "ideal_contains",
    "ideal_from_generators",
    "in_idempotent_family",
    "is_idempotent",
    "iso_type",
    "isometric",
    "j_factorization",
    "left_residual",
    "leq_J",
    "leq_L",
    "leq_R",
    "monomial_inverse",
    "parse_matrix",
    "principal_ideal_of",
    "proj_column_space",
    "proj_row_space",
    "regular_witness",
    "related",
    "residual_scalar",
    "right_residual",
    "solves_right",
    "subgroup_element",
    "subset",
    "witness_Z",
]
