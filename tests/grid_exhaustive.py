"""The exhaustive pair grid: every ordered pair of the 256 matrices over
{-inf,-1,0,1}, 65,536 pairs.

The geometric decisions are held to the residuation oracle on each pair:
the one-sided preorders to ``solves_right``, the J-preorder to a verified
``j_factorization``, and D = J to a connecting matrix whose R- and
L-relations are themselves decided by residuation.

They are also held to invariances of semigroup theory that do not depend on
the geometry, which back the no-answers of J, D and the J-preorder as well.
The units of the monoid are the monomial matrices; for a unit u with
inverse v, R and the R-preorder are invariant under (a, b) -> (ua, ub), L
and the L-preorder under (au, bu), H under conjugation (uav, ubv), and J, D
and the J-preorder under (uav, bu).  Transposition swaps R and L, and the R-
and L-preorders.  Units preserve isometry type, so a defect that is itself
unit-invariant passes these checks.

The product and the right residual are held on each pair to references
built from the public scalar operators one entry at a time.

It takes about 8 s (Python 3.11, a shared 2-CPU host), so tier-1 does not
collect it: the file name is outside pytest's ``test_*.py`` pattern.  Run it
with ``PYTHONPATH=src python -m pytest -q tests/grid_exhaustive.py``.
"""

from itertools import product

import pytest

from tropmat.geometry import proj_column_space, proj_row_space
from tropmat.green import (
    GreenRelation,
    d_class_witness,
    j_factorization,
    leq_J,
    leq_L,
    leq_R,
    related,
)
from tropmat.matrix import (
    ResidualMatrix,
    TropMatrix,
    monomial_inverse,
    residual_scalar,
    right_residual,
    solves_right,
)
from tropmat.semiring import BOTTOM


def grid(values):
    return [TropMatrix([[a, b], [c, d]]) for a, b, c, d in product(values, repeat=4)]


def spaces(a):
    return proj_column_space(a), proj_row_space(a)


MATRICES = grid(["-inf", -1, 0, 1])
UNITS = [
    TropMatrix([[0, "-inf"], ["-inf", 1]]),
    TropMatrix([["-inf", 0], [2, "-inf"]]),
]
G = GreenRelation
# For each relation, the copies of a and of b it must agree on, as indices
# into a matrix's moved copies (ua, au, uav).
MOVED = {
    G.R: (0, 0),
    G.LEQ_R: (0, 0),
    G.L: (1, 1),
    G.LEQ_L: (1, 1),
    G.H: (2, 2),
    G.D: (2, 1),
    G.J: (2, 1),
    G.LEQ_J: (2, 1),
}


def solves_left(b, a):
    """Whether a = x @ b is solvable, by residuation on the transposes."""
    return solves_right(b.transpose(), a.transpose())


def test_one_sided_preorders_match_residuation_on_every_pair():
    assert len(MATRICES) == 256
    for a, b in product(MATRICES, repeat=2):
        assert leq_R(a, b) == solves_right(b, a), (a, b)
        assert leq_L(a, b) == solves_left(b, a), (a, b)


def test_j_preorder_matches_verified_factorizations_on_every_pair():
    below = 0
    for a, b in product(MATRICES, repeat=2):
        if leq_J(a, b):
            x, y = j_factorization(a, b)
            assert x @ b @ y == a, (a, b)
            below += 1
        else:
            with pytest.raises(ValueError):
                j_factorization(a, b)
    assert below == 41_753


def test_d_equals_j_on_every_pair():
    related_pairs = 0
    for a, b in product(MATRICES, repeat=2):
        j_rel = leq_J(a, b) and leq_J(b, a)
        assert related(GreenRelation.J, a, b) == j_rel, (a, b)
        assert related(GreenRelation.D, a, b) == j_rel, (a, b)
        if j_rel:
            # a L z R b, each side decided by residuation both ways
            z = d_class_witness(a, b)
            assert solves_right(z, b) and solves_right(b, z), (a, b)
            assert solves_left(z, a) and solves_left(a, z), (a, b)
            related_pairs += 1
        else:
            with pytest.raises(ValueError):
                d_class_witness(a, b)
    assert related_pairs > 0


# Reference versions of the product and the right residual, built from the
# public scalar operators one entry at a time.


def ref_dot(xs, ys):
    acc = BOTTOM
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def columns(m):
    return list(zip(*m.rows))


def ref_product(a, b):
    return TropMatrix([[ref_dot(row, col) for col in columns(b)] for row in a.rows])


def ref_right_residual(a, b):
    # the greatest X with X @ b <= a: X[i,k] = min_j (a[i,j] - b[k,j])
    n = 2
    return ResidualMatrix(
        [
            [min(residual_scalar(a[i, j], b[k, j]) for j in range(n)) for k in range(n)]
            for i in range(n)
        ]
    )


def kernel_mismatches(pairs):
    """The pairs on which ``a @ b`` differs from ``ref_product``, and those
    on which ``right_residual(a, b)`` differs from ``ref_right_residual``."""
    products, residuals = [], []
    for a, b in pairs:
        if a @ b != ref_product(a, b):
            products.append((a, b))
        if right_residual(a, b) != ref_right_residual(a, b):
            residuals.append((a, b))
    return products, residuals


def test_product_and_right_residual_match_their_definitions_on_every_pair():
    assert kernel_mismatches(product(MATRICES, repeat=2)) == ([], [])


def unit_mismatches(u):
    """How many pairs of the grid each relation tells apart from their copies
    moved by the unit u as ``MOVED`` says, and the first such pair of each."""
    v = monomial_inverse(u)
    moved = [(u @ a, a @ u, u @ a @ v) for a in MATRICES]
    mismatches, first = dict.fromkeys(MOVED, 0), {}
    for (a, ma), (b, mb) in product(zip(MATRICES, moved), repeat=2):
        for rel, (i, j) in MOVED.items():
            if related(rel, ma[i], mb[j]) != related(rel, a, b):
                mismatches[rel] += 1
                first.setdefault(rel, (a, b))
    return mismatches, first


@pytest.mark.parametrize("u", UNITS, ids=str)
def test_green_relations_are_invariant_under_a_unit_on_every_pair(u):
    mismatches, first = unit_mismatches(u)
    assert not any(mismatches.values()), (mismatches, first)


def test_transposition_swaps_the_one_sided_relations_on_every_pair():
    swapped = [(G.R, G.L), (G.L, G.R), (G.LEQ_R, G.LEQ_L), (G.LEQ_L, G.LEQ_R)]
    transposes = [a.transpose() for a in MATRICES]
    for (a, at), (b, bt) in product(zip(MATRICES, transposes), repeat=2):
        for rel, dual in swapped:
            assert related(rel, at, bt) == related(dual, a, b), (rel, a, b)
