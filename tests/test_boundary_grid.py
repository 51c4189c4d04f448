"""Exhaustive boundary grids: every matrix with entries drawn from a small
set that includes ``-inf``.

Random streams rarely reach the degenerate classes (the zero matrix,
singleton column spaces, half-infinite intervals); these grids reach all of
them, and hold the geometric decisions to the residuation oracle and to the
verified constructions on each one.
"""

from collections import Counter
from itertools import product

import pytest

from tropmat.geometry import iso_type, proj_column_space, proj_row_space
from tropmat.green import (
    GreenRelation,
    d_class_witness,
    j_factorization,
    leq_J,
    leq_L,
    leq_R,
    related,
)
from tropmat.matrix import TropMatrix, solves_right
from tropmat.structure import idempotent_in_H, is_idempotent, regular_witness


def grid(values):
    return [TropMatrix([[a, b], [c, d]]) for a, b, c, d in product(values, repeat=4)]


def spaces(a):
    return proj_column_space(a), proj_row_space(a)


def test_green_decisions_on_every_pair_of_the_81_matrix_grid():
    matrices = grid(["-inf", 0, 1])
    assert len(matrices) == 81
    j_kinds = Counter()
    for a, b in product(matrices, repeat=2):
        assert leq_R(a, b) == solves_right(b, a), (a, b)
        assert leq_L(a, b) == solves_right(b.transpose(), a.transpose()), (a, b)
        if leq_J(a, b):
            x, y = j_factorization(a, b)
            assert x @ b @ y == a, (a, b)
        else:
            with pytest.raises(ValueError):
                j_factorization(a, b)
        d_rel = related(GreenRelation.D, a, b)
        assert d_rel == related(GreenRelation.J, a, b) == (leq_J(a, b) and leq_J(b, a))
        if d_rel:
            z = d_class_witness(a, b)
            assert (proj_column_space(z), proj_row_space(z)) == (
                proj_column_space(b),
                proj_row_space(a),
            ), (a, b)
            j_kinds[iso_type(proj_column_space(a)).kind] += 1
        else:
            with pytest.raises(ValueError):
                d_class_witness(a, b)
    # the grid reaches every isometry type, the empty class included
    assert set(j_kinds) == {"empty", "point", "interval", "halfinf", "fullline"}


def test_regularity_and_idempotents_on_the_256_matrix_grid():
    matrices = grid(["-inf", -1, 0, 1])
    assert len(matrices) == 256
    for a in matrices:
        y = regular_witness(a)
        assert a @ y @ a == a, a
    idempotents = [e for e in matrices if is_idempotent(e)]
    assert len(idempotents) > 20
    for e in idempotents:
        assert idempotent_in_H(*spaces(e)) == e, e
    idempotent_classes = {spaces(e) for e in idempotents}
    empty_classes = {spaces(a) for a in matrices if idempotent_in_H(*spaces(a)) is None}
    assert empty_classes
    assert not empty_classes & idempotent_classes
