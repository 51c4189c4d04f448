import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from test_boundary_grid import assert_plain
from test_semiring import REFUSED_TOKENS

from tropmat.geometry import proj_column_space, proj_row_space
from tropmat.matrix import (
    ResidualMatrix,
    TropMatrix,
    _lowest,
    left_residual,
    monomial_inverse,
    parse_matrix,
    right_residual,
    solves_right,
)
from tropmat.sampling import sample_matrix
from tropmat.semiring import BOTTOM, ProjPoint, TropScalar, _quote

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


def test_a_free_entry_is_part_of_a_residual_value():
    # a residual stores its witness and flags its +inf entries: +inf and 0
    # share a witness, and the flag alone tells the two values apart
    free = ResidualMatrix([["+inf", "1/2"], ["-inf", 2]])
    zero = ResidualMatrix([[0, "1/2"], ["-inf", 2]])
    assert free != zero and free.rows != zero.rows
    assert free.witness() == zero.witness() == TropMatrix([[0, "1/2"], ["-inf", 2]])
    assert len({free, zero}) == 2
    assert hash(free) == hash(ResidualMatrix([["+inf", "1/2"], ["-inf", 2]]))
    assert free.transpose() == ResidualMatrix([["+inf", "-inf"], ["1/2", 2]])


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


FREE = ResidualMatrix([["+inf", "0"], ["0", "0"]])
LONG = "x" * 100


@pytest.mark.parametrize(
    "call, bad, what",
    [
        # no plain product has a +inf entry, so a residual is not a target
        # of solves_right, nor a divisor of either residual
        (lambda: solves_right(I2, FREE), FREE, "a TropMatrix"),
        (lambda: solves_right(FREE, I2), FREE, "a TropMatrix"),
        (lambda: left_residual(FREE, I2), FREE, "a TropMatrix"),
        (lambda: right_residual(I2, FREE), FREE, "a TropMatrix"),
        (lambda: solves_right(I2, 3), 3, "a TropMatrix"),
        (lambda: left_residual([[0, 0], [0, 0]], I2), [[0, 0], [0, 0]], "a TropMatrix"),
        (lambda: left_residual(I2, LONG), LONG, "a TropMatrix or a ResidualMatrix"),
        (lambda: right_residual(None, I2), None, "a TropMatrix or a ResidualMatrix"),
    ],
    ids=[
        "solves-right-residual-target", "solves-right-residual-divisor",
        "left-residual-divisor", "right-residual-divisor", "solves-right-int",
        "left-residual-list", "left-residual-long-str", "right-residual-none",
    ],
)
def test_residuation_refuses_operands_of_the_wrong_type(call, bad, what):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == f"expected {what}, not {_quote(bad)}"


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


@pytest.mark.parametrize(
    "rows, kind",
    [([b"12", b"34"], "bytes"), (["10", "01"], "str"), ([{1: 0, 2: 0}, {1: 0, 2: 0}], "dict")],
)
def test_rows_other_than_lists_or_tuples_are_refused(rows, kind):
    # read element by element, each would build a 2x2 matrix:
    # [[49,50],[51,52]], [[1,0],[0,1]] and [[1,2],[1,2]]
    for make, what in ((TropMatrix, "matrix"), (ResidualMatrix, "residual matrix")):
        with pytest.raises(TypeError) as exc:
            make(rows)
        assert str(exc.value) == f"{what} rows must be lists or tuples, not {kind}"


def test_repr_round_trips_and_scalar_operands_are_refused():
    a = TropMatrix([["1/2", "-inf"], [0, -3]])
    r = ResidualMatrix([["+inf", "-1/3"], ["-inf", 2]])
    assert eval(repr(a)) == a
    assert eval(repr(r)) == r
    with pytest.raises(TypeError):
        a @ 3
    with pytest.raises(TypeError):
        a + 3


@pytest.mark.parametrize(
    "scalars",
    [
        ["-inf", "-1", "0", "1/2", "2"],
        ["-inf", "-7/4", "-2/3", "0", "5/6", "3", "-12/8", "100/3"],
    ],
    ids=["classify-grid", "mixed-denominators"],
)
def test_to_tokens_matches_the_scalar_strings(scalars):
    for entries in product(scalars, repeat=4):
        m = TropMatrix([entries[:2], entries[2:]])
        assert m.to_tokens() == [[str(e) for e in row] for row in m.rows]


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
    for text in ["5", "[1, 2]"]:
        with pytest.raises(ValueError, match="JSON array of arrays"):
            parse_matrix(text)


@pytest.mark.parametrize(
    "scalars",
    [
        ["-inf", "-7/4", "-2/3", "0", "5/6", "3"],
        ["-inf", "-4/6", "0/5", "-0", "12/8", "+3/9"],
        ["-inf", "-2", "-0", "0", "007", "+5"],
    ],
    ids=["mixed-denominators", "reducible", "integers"],
)
def test_parse_matrix_builds_a_canonical_store(scalars):
    # each token is read straight to ints and the store is built over their
    # lcm without a second reduction: it must be canonical all the same
    for entries in product(scalars, repeat=4):
        rows = [list(entries[:2]), list(entries[2:])]
        a = parse_matrix(json.dumps(rows))
        assert_plain(a)
        b = TropMatrix(rows)
        assert a == b and hash(a) == hash(b), entries
        assert a._den > 0 and gcd(a._den, *[x for x in a._e if x is not None]) == 1


def test_parse_matrix_reads_json_integers_as_tokens():
    a = parse_matrix("[[0,7],[-1,2]]")
    assert_plain(a)
    assert a == TropMatrix([[0, 7], [-1, 2]]) and hash(a) == hash(TropMatrix([[0, 7], [-1, 2]]))


@pytest.mark.parametrize("text", [b'[["0","0"],["0","0"]]', bytearray(b"[[]]"), None, 7])
def test_parse_matrix_takes_only_str(text):
    # bytes are refused on purpose: every caller, the CLI included, has a str
    with pytest.raises(TypeError) as exc:
        parse_matrix(text)
    assert str(exc.value) == f"matrix JSON must be a str, not {type(text).__name__}"


# The messages of parse_matrix, byte for byte.  Entries are read row by row
# before the shape is checked, so a bad token is reported ahead of a bad
# shape.
PARSE_ERRORS = {
    "[[": "bad matrix JSON at offset 2: Expecting value",
    "\ufeff" + '[["0","0"],["0","0"]]': (
        "bad matrix JSON at offset 0: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    ),
    "[" * 100_000: "bad matrix JSON: nested too deeply for arrays of '-inf' or 'p/q' tokens",
    "{}": "matrix must be a JSON array of arrays of scalar tokens",
    "[1,2]": "matrix must be a JSON array of arrays of scalar tokens",
    '[["x","0"]]': "matrix entry (0,0): bad rational token 'x': expected an integer or 'p/q'",
    '[["0","0","x"],["0","0"],["0","0"]]': (
        "matrix entry (0,2): bad rational token 'x': expected an integer or 'p/q'"
    ),
    '[["0","0"],["0","0"],["0","0"]]': "matrix must be square and nonempty",
    '[["0","0"],["0"]]': "matrix must be square and nonempty",
    "[]": "matrix must be square and nonempty",
    '[["0","0","0"],["0","0","0"],["0","0","0"]]': (
        "the classification theory is specific to 2x2 matrices, got 3x3"
    ),
    '[["0","+inf"],["0","0"]]': (
        "matrix entry (0,1): +inf is not a tropical scalar (it only exists projectively)"
    ),
    "[[1.5,0],[0,0]]": (
        "matrix entry (0,0): refusing float 1.5: arithmetic here is exact, pass an int, "
        "Fraction, or 'p/q' string"
    ),
    "[[1e400,0],[0,0]]": (
        "matrix entry (0,0): refusing float inf: arithmetic here is exact, pass an int, "
        "Fraction, or 'p/q' string"
    ),
    "[[true,0],[0,0]]": "matrix entry (0,0): bool is not a tropical scalar",
    "[[null,0],[0,0]]": (
        "matrix entry (0,0): cannot build an exact rational from None: pass an int, "
        "Fraction, or 'p/q' string"
    ),
    '[[["1"],0],[0,0]]': (
        "matrix entry (0,0): cannot build an exact rational from ['1']: pass an int, "
        "Fraction, or 'p/q' string"
    ),
    "[[" + "7" * 5000 + ",0],[0,0]]": (
        "matrix entry (0,0): bad rational token of 5000 characters: expected an integer "
        "or 'p/q' of at most 4000 characters"
    ),
    **{
        json.dumps([["0", "0"], ["0", token]]): f"matrix entry (1,1): {message}"
        for token, message in REFUSED_TOKENS.items()
        if token != "+inf"
    },
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS), ids=range(len(PARSE_ERRORS)))
def test_parse_matrix_keeps_its_messages_and_their_order(text):
    with pytest.raises(ValueError) as exc:
        parse_matrix(text)
    assert str(exc.value) == PARSE_ERRORS[text]


def test_lowest_terms_match_fractions():
    # None is -inf; the grid holds all-None and all-zero entries, negative
    # numerators and every denominator 1-12
    for den in range(1, 13):
        for nums in product([None, 0, 1, -2, 3, -6, 12], repeat=4):
            got, d = _lowest(nums, den)
            assert [None if x is None else Fraction(x, d) for x in got] == [
                None if x is None else Fraction(x, den) for x in nums
            ], (nums, den)
            assert d > 0 and gcd(d, *[x for x in got if x is not None]) == 1, (nums, den)


def test_transposes_witnesses_and_inverses_keep_a_canonical_store():
    # these builders keep their input's store without reducing it again: the
    # result must still be canonical, and a transpose's spaces must be those
    # of a fresh copy
    b = TropMatrix([["1/2", "-inf"], ["-5/3", "7/4"]])
    scalars = ["-inf", "-7/4", "-2/3", "0", "5/6", "3"]
    for entries in product(scalars, repeat=4):
        a = TropMatrix([entries[:2], entries[2:]])
        t = a.transpose()
        assert_plain(t)
        for r in (left_residual(a, b), right_residual(b, a), left_residual(a, a)):
            assert_plain(r.transpose())
            assert_plain(r.witness())
        if a.is_monomial():
            assert_plain(monomial_inverse(a))
        fresh = TropMatrix(t.rows)
        assert proj_column_space(t) == proj_row_space(a) == proj_column_space(fresh), entries
        assert proj_row_space(t) == proj_column_space(a) == proj_row_space(fresh), entries
