"""The exhaustive grids: every ordered pair of the 256 matrices over
{-inf,-1,0,1}, 65,536 pairs, and every maximal subgroup of the 1,296
matrices over {-inf,-2,-1,0,1,2}.

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

On the 1,296-matrix grid, each idempotent's H-class is held to the group
type ``group_type_of_H`` names, and each member of a class a subgroup family
parametrizes to that family's element; tier-1 runs the same checks on the
256-matrix grid.

It takes about 8 s (Python 3.11, a shared 2-CPU host), so tier-1 does not
collect it: the file name is outside pytest's ``test_*.py`` pattern.  Run it
with ``PYTHONPATH=src python -m pytest -q tests/grid_exhaustive.py``.
"""

from collections import Counter
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
from tropmat.matrix import TropMatrix, monomial_inverse, solves_right
from tropmat.structure import GroupType, group_type_of_H, is_idempotent, subgroup_element


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


def maximal_subgroup_counts(matrices):
    """Each idempotent's H-class, cut down to the grid, behaves like the
    group ``group_type_of_H`` names: e is the identity, products stay in the
    class, only the wreath product fails to commute, and the elements of
    order two are as many as its S2 factor allows.  Returns the number of
    idempotents, the number of members of their classes, and the group
    types by name."""
    idempotents = [e for e in matrices if is_idempotent(e)]
    types = Counter()
    members = 0
    for e in idempotents:
        kind = group_type_of_H(*spaces(e))
        types[kind.value] += 1
        h_class = [a for a in matrices if spaces(a) == spaces(e)]
        members += len(h_class)
        pairs = list(product(h_class, repeat=2))
        assert all(e @ h == h == h @ e for h in h_class), e
        assert all(spaces(g @ h) == spaces(e) for g, h in pairs), e
        commutes = all(g @ h == h @ g for g, h in pairs)
        assert commutes == (kind is not GroupType.REALS_WREATH_S2), e
        involutions = sum(h != e and h @ h == e for h in h_class)
        if kind in (GroupType.TRIVIAL, GroupType.REALS):
            assert involutions == 0, e
        elif kind is GroupType.REALS_TIMES_S2:
            assert involutions <= 1, e
        else:
            assert involutions >= 1, e
    return len(idempotents), members, types


def family_of(m, n):
    """The subgroup family that parametrizes the H-class at (m, n), with its
    endpoint arguments, or None when no family does: W on ({-inf}, {-inf}),
    X and Y on ([x, y], [-y, -x]), Z on ([x, +inf], [-inf, -x])."""
    if m.is_point and m.lo.is_neg_inf and n == m:
        return "W", ()
    if m.is_empty or m.is_point or n != m.negated():
        return None
    x, y = m.lo, m.hi
    if x.is_finite and y.is_finite:
        return "XY", (x.frac, y.frac)
    if x.is_finite and y.is_pos_inf:
        return "Z", (x.frac,)
    return None


def subgroup_family_counts(matrices):
    """Each grid member h of an H-class a subgroup family parametrizes is
    that family's element at ``a = h[0, 0]``.  Returns how many members each
    family rebuilt, and how many no family parametrizes."""
    counts = Counter()
    for e in filter(is_idempotent, matrices):
        family = family_of(*spaces(e))
        for h in [h for h in matrices if spaces(h) == spaces(e)]:
            if family is None:
                counts["none"] += 1
                continue
            name, args = family
            a = h[0, 0]
            if name == "XY":
                assert h in (subgroup_element("X", a, *args), subgroup_element("Y", a, *args)), h
            else:
                assert h == subgroup_element(name, a, *args), h
            counts[name] += 1
    return counts


def test_maximal_subgroups_on_the_1296_matrix_grid():
    idempotents, members, types = maximal_subgroup_counts(grid(["-inf", -2, -1, 0, 1, 2]))
    assert (idempotents, members) == (63, 292)
    assert types == {"trivial": 1, "reals": 51, "reals-x-s2": 10, "reals-wr-s2": 1}


def test_subgroup_families_rebuild_the_1296_grid_members():
    counts = subgroup_family_counts(grid(["-inf", -2, -1, 0, 1, 2]))
    assert counts == {"W": 5, "XY": 62, "Z": 19, "none": 206}
