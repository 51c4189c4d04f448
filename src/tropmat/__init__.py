"""Exact structure theory of 2x2 max-plus (tropical) matrices.

Green's relations and preorders, idempotents and their families, regularity
witnesses, maximal subgroups, and the two-sided ideal lattice, all decided
by exact rational arithmetic and cross-checkable against a residuation
oracle.

Importing the package, or ``tropmat.cli``, loads none of the other modules;
the first read of a public name, or of a submodule such as ``tropmat.verify``,
loads them all.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_PUBLIC = {
    "semiring": ("BOTTOM", "NEG_INF", "POS_INF", "ProjPoint", "TropScalar"),
    "matrix": (
        "ResidualMatrix", "TropMatrix", "left_residual", "monomial_inverse",
        "parse_matrix", "residual_scalar", "right_residual", "solves_right",
    ),
    "geometry": (
        "ConvexSet", "IsoType", "canonical_set", "embed_image", "embeds_isometrically",
        "iso_type", "isometric", "proj_column_space", "proj_row_space", "subset",
    ),
    "green": (
        "GreenRelation", "d_class_witness", "j_factorization", "leq_J", "leq_L", "leq_R",
        "related", "witness_Z",
    ),
    "structure": (
        "GroupType", "IdempotentForm", "group_type_of_H", "idempotent_form",
        "idempotent_in_H", "in_idempotent_family", "regular_witness", "subgroup_element",
    ),
    "ideals": (
        "IdealDescriptor", "Ordering", "decompose", "ideal_compare", "ideal_contains",
        "ideal_from_generators", "principal_ideal_of",
    ),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (*_PUBLIC, "sampling", "verify", "cli")

__all__ = list(_OWNER)


def __getattr__(name):
    """On the first read of a public name or a submodule, import every
    submodule, bind every public name here and remove this hook: CPython
    does not specialize attribute reads on a module that defines
    ``__getattr__``, so each later read would cost about three times as much."""
    if name not in _OWNER and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module in _SUBMODULES:
        import_module(f"{__name__}.{module}")
    namespace.update((public, getattr(namespace[_OWNER[public]], public)) for public in _OWNER)
    del namespace["__getattr__"]
    return namespace[name]


def __dir__():
    return sorted({*globals(), *_OWNER, *_SUBMODULES})
