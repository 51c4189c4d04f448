import json
import random
from itertools import product

import pytest

from tropmat.matrix import (
    ResidualMatrix,
    TropMatrix,
    left_residual,
    monomial_inverse,
    parse_matrix,
    right_residual,
    solves_right,
)
from tropmat.sampling import sample_matrix
from tropmat.semiring import BOTTOM, ProjPoint, TropScalar

SEED = 20260808

I2 = TropMatrix.identity(2)
Z2 = TropMatrix.zero(2)


def leq(a, b):
    """The entrywise order of two matrices."""
    return all(x <= y for r, s in zip(a.rows, b.rows) for x, y in zip(r, s))


def test_mat_mul_examples():
    a = TropMatrix([[0, 1], [2, 3]])
    assert I2 @ a == a
    assert a @ I2 == a
    assert a @ a == TropMatrix([[3, 4], [5, 6]])
    assert Z2 @ a == Z2


def test_mat_add_examples():
    a = TropMatrix([[0, "-inf"], [1, 2]])
    b = TropMatrix([[-1, 3], [0, "-inf"]])
    assert a + a == a
    assert a + Z2 == a
    assert a + b == TropMatrix([[0, 3], [1, 2]])


def test_transpose():
    a = TropMatrix([[0, 1], [2, 3]])
    assert a.transpose() == TropMatrix([[0, 2], [1, 3]])
    assert a.transpose().transpose() == a


def test_transpose_preserves_monomial_patterns():
    # every 2x2 monomial pattern, exhaustively
    for diag, a, b in product([True, False], [-2, 0, 3], [1, -1]):
        if diag:
            m = TropMatrix([[a, "-inf"], ["-inf", b]])
        else:
            m = TropMatrix([["-inf", a], [b, "-inf"]])
        assert m.is_monomial()
        assert m.transpose().is_monomial()


def test_is_monomial():
    assert I2.is_monomial()
    assert TropMatrix([["-inf", 3], [5, "-inf"]]).is_monomial()
    assert not TropMatrix([[0, 0], ["-inf", 0]]).is_monomial()
    assert not Z2.is_monomial()


def test_monomial_inverse_is_two_sided():
    rng = random.Random(SEED)
    for _ in range(300):
        m = sample_matrix(rng, "with-neginf")
        if not m.is_monomial():
            with pytest.raises(ValueError):
                monomial_inverse(m)
            continue
        inv = monomial_inverse(m)
        assert m @ inv == I2
        assert inv @ m == I2


def test_mat_vec_and_scale():
    # the vector (2, 5) as the matrix whose two columns are both it; v @ D
    # scales both columns by lam
    v = TropMatrix([[2, 2], [5, 5]])

    def scaled(lam):
        return v @ TropMatrix([[lam, "-inf"], ["-inf", lam]])

    assert scaled(0) == v
    assert scaled("-inf") == Z2
    assert TropMatrix([[0, "-inf"], [1, 0]]) @ v == TropMatrix([[2, 2], [5, 5]])


def test_left_residual_of_identity_is_the_matrix():
    rng = random.Random(SEED + 1)
    for _ in range(200):
        a = sample_matrix(rng, "with-neginf")
        r = left_residual(I2, a)
        assert all(
            r[i, j] == ProjPoint(a[i, j]) for i in range(2) for j in range(2)
        )


def test_witness_puts_zero_in_unconstrained_coordinates():
    # a -inf column of the divisor leaves its row of the residual at +inf
    b = TropMatrix([[0, "-inf"], [1, "-inf"]])
    r = left_residual(b, TropMatrix([[2, 3], [4, 5]]))
    assert [str(e) for e in r.rows[1]] == ["+inf", "+inf"]
    assert r.witness() == TropMatrix([[2, 3], [0, 0]])


def test_residual_is_greatest_solution_brute_force():
    """B\\B is the maximum of B @ X <= B over an exhaustive grid of X."""
    b = TropMatrix([[0, 1], [2, 3]])
    r = left_residual(b, b)
    assert b @ r.witness() == b
    grid = [BOTTOM] + [TropScalar(v) for v in range(-4, 3)]
    for entries in product(grid, repeat=4):
        x = TropMatrix([entries[:2], entries[2:]])
        if leq(b @ x, b):
            assert r.dominates(x)


def test_solves_right_examples():
    b = TropMatrix([[0, 0], [0, 3]])
    a = TropMatrix([[0, 0], [1, 2]])
    assert solves_right(b, b)
    assert solves_right(b, a)
    assert b @ left_residual(b, a).witness() == a
    assert not solves_right(Z2, a)
    assert solves_right(Z2, Z2)


def test_galois_connection():
    """B @ X <= A entrywise iff X <= left_residual(B, A), +inf maximal."""
    rng = random.Random(SEED + 2)
    for _ in range(500):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        x = sample_matrix(rng, "with-neginf")
        r = left_residual(b, a)
        assert leq(b @ x, a) == r.dominates(x)


def test_right_residual_galois():
    rng = random.Random(SEED + 3)
    for _ in range(300):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        x = sample_matrix(rng, "with-neginf")
        r = right_residual(a, b)
        assert leq(x @ b, a) == r.dominates(x)


def test_product_laws_on_random_triples():
    rng = random.Random(SEED + 4)
    for _ in range(400):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        c = sample_matrix(rng, "with-neginf")
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert (b + c) @ a == b @ a + c @ a


def test_dimension_mismatch_rejected():
    # no operation meets another size: every constructor refuses it
    rows3 = [[0, "-inf", 2], [1, 0, "-inf"], ["-inf", "-inf", 0]]
    for make in (TropMatrix.identity, TropMatrix.zero):
        with pytest.raises(ValueError, match="specific to 2x2 matrices, got 3x3"):
            make(3)
        with pytest.raises(ValueError, match="nonempty"):
            make(0)
    for make in (TropMatrix, ResidualMatrix, lambda rows: parse_matrix(json.dumps(rows))):
        with pytest.raises(ValueError, match="specific to 2x2 matrices, got 3x3"):
            make(rows3)
        with pytest.raises(ValueError, match="got 1x1"):
            make([[0]])
        with pytest.raises(ValueError, match="must be square and nonempty"):
            make([[0, 1], [2]])


def test_parse_matrix_round_trip_and_errors():
    text = '[["0","-inf"],["1/2","3"]]'
    m = parse_matrix(text)
    assert m == TropMatrix([[0, "-inf"], ["1/2", 3]])
    assert parse_matrix(str(m)) == m
    with pytest.raises(ValueError, match="offset"):
        parse_matrix("[[")
    with pytest.raises(ValueError, match=r"entry \(1,0\)"):
        parse_matrix('[["0","1"],["nope","2"]]')
    with pytest.raises(ValueError, match="square"):
        parse_matrix('[["0","1"]]')
