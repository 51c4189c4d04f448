"""Exhaustive boundary grids: every matrix with entries drawn from a small
set that includes ``-inf``.

Random streams rarely reach the degenerate classes (the zero matrix,
singleton column spaces, half-infinite intervals); these grids reach all of
them, and hold the geometric decisions to the residuation oracle and to the
verified constructions on each one.  The product, the residual and the space
maps, which compute on raw entry values, are also held to references built
from the public scalar operators; the stored spaces to freshly computed ones,
and ``solves_right`` to the residual it materializes.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from tropmat.geometry import (
    ConvexSet,
    iso_type,
    proj_column_space,
    proj_point_of,
    proj_row_space,
)
from tropmat.green import (
    GreenRelation,
    d_class_witness,
    j_factorization,
    leq_J,
    leq_L,
    leq_R,
    related,
    witness_Z,
)
from tropmat.matrix import (
    ResidualMatrix,
    TropMatrix,
    TropVector,
    left_residual,
    residual_scalar,
    right_residual,
    solves_right,
)
from tropmat.semiring import BOTTOM, ProjPoint, TropScalar
from tropmat.structure import (
    IdempotentForm,
    idempotent_form,
    idempotent_in_H,
    is_idempotent,
    regular_witness,
    subgroup_element,
)


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


# Reference versions of the product, the residual and the space maps, built
# from the public scalar operators one entry at a time.


def ref_dot(xs, ys):
    acc = BOTTOM
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def ref_product(a, b):
    return TropMatrix([[ref_dot(a.row(i), b.column(j)) for j in range(a.n)] for i in range(a.n)])


def ref_left_residual(b, a):
    n = b.n
    rows = []
    for k in range(n):
        row = []
        for j in range(n):
            cands = [residual_scalar(a[i, j], b[i, k]) for i in range(n)]
            row.append(min(cands))
        rows.append(row)
    return ResidualMatrix(rows)


def ref_span(vectors):
    images = [proj_point_of(v) for v in vectors if not v.is_zero]
    if not images:
        return ConvexSet.empty()
    return ConvexSet.interval(min(images), max(images))


def assert_scalars(got, want):
    got = list(got)
    assert got == list(want) and all(type(e) is TropScalar for e in got)
    assert all(e.frac is None or type(e.frac) is Fraction for e in got)


def assert_plain(a):
    # an uncoerced result equals and hashes like its re-parsed copy, and its
    # accessors build scalars (points for a residual) equal to the copy's
    if isinstance(a, ResidualMatrix):
        copy = ResidualMatrix([[str(e) for e in row] for row in a.rows])
        assert a == copy and hash(a) == hash(copy)
        for i, row in enumerate(copy.rows):
            for j, p in enumerate(row):
                assert a.rows[i][j] == p == a[i, j] and type(a[i, j]) is ProjPoint
        return
    if isinstance(a, TropVector):
        copy = TropVector([str(e) for e in a])
        assert a == copy and hash(a) == hash(copy)
        for got in (a.entries, a, [a[i] for i in range(a.n)]):
            assert_scalars(got, copy.entries)
        return
    copy = TropMatrix(a.to_tokens())
    for c in (copy, TropMatrix(a.rows)):
        assert a == c and hash(a) == hash(c)
    for i in range(a.n):
        assert_scalars(a.rows[i], copy.rows[i])
        assert_scalars([a[i, j] for j in range(a.n)], copy.rows[i])
        for vector, want in ((a.row(i), copy.row(i)), (a.column(i), copy.column(i))):
            assert vector == want
            assert_plain(vector)


def test_rewritten_paths_match_the_scalar_reference_on_the_81_matrix_grid():
    matrices = grid(["-inf", 0, 1])
    for a, b in product(matrices, repeat=2):
        ab = a @ b
        assert ab == ref_product(a, b), (a, b)
        for j in range(2):
            v = b.column(j)
            assert a @ v == TropVector(ref_dot(row, v) for row in a.rows), (a, v)
        r = left_residual(b, a)
        assert r == ref_left_residual(b, a), (a, b)
        assert left_residual(a, r) == ref_left_residual(a, r), (a, b)
        for m in (a, ab):
            assert proj_column_space(m) == ref_span([m.column(0), m.column(1)]), m
            assert proj_row_space(m) == ref_span([m.row(0), m.row(1)]), m


def test_spaces_and_iso_types_are_computed_once_per_object():
    for a in grid(["-inf", 0, 1]):
        pc, pr = proj_column_space(a), proj_row_space(a)
        types = iso_type(pc), iso_type(pr)
        assert proj_column_space(a) is pc and proj_row_space(a) is pr, a
        assert iso_type(pc) is types[0] and iso_type(pr) is types[1], a
        fresh = TropMatrix(a.to_tokens())
        assert spaces(fresh) == (pc, pr), a
        assert (iso_type(proj_column_space(fresh)), iso_type(proj_row_space(fresh))) == types, a
    a3 = TropMatrix.identity(3)
    for space_map in (proj_column_space, proj_row_space):
        for _ in range(2):
            with pytest.raises(ValueError, match="specific to 2x2"):
                space_map(a3)


def oracle(b, a):
    # the residuation definition solves_right computes on raw entries
    return b @ left_residual(b, a).witness() == a


def test_solves_right_matches_the_materialized_residual():
    matrices = grid(["-inf", 0, 1])
    for a, b in product(matrices, repeat=2):
        assert solves_right(b, a) == oracle(b, a), (a, b)
    rng = random.Random(20260810)
    for _ in range(200):
        a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
        assert solves_right(b, a) == oracle(b, a), (a, b)
        assert solves_right(b, b @ a), (a, b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        solves_right(TropMatrix.identity(3), matrices[0])


def rand_entry(rng):
    if rng.randrange(4) == 0:
        return "-inf"
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))


def rand_matrix(rng, n):
    return TropMatrix([[rand_entry(rng) for _ in range(n)] for _ in range(n)])


def test_rewritten_paths_match_the_scalar_reference_on_random_3x3_pairs():
    rng = random.Random(20260808)
    for _ in range(200):
        a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
        assert a @ b == ref_product(a, b), (a, b)
        assert left_residual(b, a) == ref_left_residual(b, a), (a, b)


def test_uncoerced_results_equal_and_hash_like_coerced_ones():
    rng = random.Random(20260809)
    for n in (2, 3):
        for _ in range(50):
            a, b = rand_matrix(rng, n), rand_matrix(rng, n)
            products = (a @ b, a.transpose())
            witnesses = (left_residual(b, a).witness(), right_residual(a, b).witness())
            for m in products + witnesses:
                assert_plain(m)
            v = a @ b.column(0)
            assert v == TropVector(v.entries) and hash(v) == hash(TropVector(v.entries))
            assert_plain(v)
            r = left_residual(b, a)
            for res in (r, r.transpose()):
                assert_plain(res)


def test_constructed_matrices_equal_and_hash_like_coerced_ones():
    points = ["-inf", -1, "1/2", "+inf"]
    sets = [ConvexSet.empty()] + [ConvexSet.point(p) for p in points]
    sets += [ConvexSet.interval(p, q) for p, q in combinations(points, 2)]
    for m, n in product(sets, repeat=2):
        e = idempotent_in_H(m, n)
        if e is not None:
            assert_plain(e)
            assert_plain(idempotent_form(e).matrix())
        if iso_type(m) == iso_type(n):
            assert_plain(witness_Z(m, n))
    for family in "WXYZ":
        assert_plain(subgroup_element(family, "3/2", -1, 2))
    # form parameters given as plain ints still build tropical entries
    upper = IdempotentForm("upper", -1, "-2").matrix()
    assert_plain(upper)
    assert upper == TropMatrix([[0, -1], [-2, -3]])
    for n in (1, 2, 3):
        assert_plain(TropMatrix.identity(n))
        assert_plain(TropMatrix.zero(n))
