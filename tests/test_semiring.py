import operator
import random
from fractions import Fraction
from itertools import product

import pytest

from tropmat.geometry import proj_column_space
from tropmat.matrix import TropMatrix
from tropmat.semiring import (
    BOTTOM,
    INF_DIST,
    MAX_TOKEN_CHARS,
    NEG_INF,
    POS_INF,
    ExtDistance,
    ProjPoint,
    TropScalar,
    _as_fraction,
    _ratio,
    _scalar_ratio,
    delta,
)

SEED = 20260808


def rand_scalar(rng):
    if rng.randrange(5) == 0:
        return BOTTOM
    return TropScalar(Fraction(rng.randrange(-30, 31), rng.randrange(1, 6)))


def rand_point(rng):
    roll = rng.randrange(6)
    if roll == 0:
        return NEG_INF
    if roll == 1:
        return POS_INF
    return ProjPoint(Fraction(rng.randrange(-30, 31), rng.randrange(1, 6)))


def test_t_add_examples():
    assert TropScalar(3) + TropScalar("-inf") == TropScalar(3)
    assert TropScalar(2) + TropScalar(5) == TropScalar(5)
    assert TropScalar(4) + TropScalar(4) == TropScalar(4)


def test_t_mul_examples():
    assert TropScalar(7) * TropScalar(-7) == TropScalar(0)
    assert TropScalar("-inf") * TropScalar(5) == BOTTOM
    assert TropScalar("1/2") * TropScalar("1/3") == TropScalar("5/6")


def ext_sub(a, b):
    """Extended subtraction a - b: the projective image of the vector (b, a),
    the one point of the column space of the matrix whose two columns are
    both (b, a).  The double bottom spans the empty set, which has no point."""
    return proj_column_space(TropMatrix([[b, b], [a, a]])).lo


def test_ext_sub_examples():
    assert ext_sub(5, "-inf") == POS_INF
    assert ext_sub("-inf", 5) == NEG_INF
    assert ext_sub(7, 3) == ProjPoint(4)


def test_ext_sub_rejects_double_bottom():
    with pytest.raises(ValueError):
        ext_sub(BOTTOM, BOTTOM)


def test_delta_examples():
    assert delta(2, 5) == ExtDistance(3)
    assert delta(NEG_INF, NEG_INF) == ExtDistance(0)
    assert delta(3, POS_INF) == INF_DIST
    assert delta(POS_INF, POS_INF) == ExtDistance(0)


def test_semiring_laws_on_random_samples():
    """Associativity, commutativity, distributivity, and both identities."""
    rng = random.Random(SEED)
    zero = TropScalar(0)
    for _ in range(2000):
        a, b, c = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + BOTTOM == a
        assert a * zero == a
        assert a * BOTTOM == BOTTOM
        assert a + a == a


def test_delta_is_a_metric_with_infinity():
    rng = random.Random(SEED + 1)
    for _ in range(2000):
        x, y, z = rand_point(rng), rand_point(rng), rand_point(rng)
        assert (delta(x, y) == ExtDistance(0)) == (x == y)
        assert delta(x, y) == delta(y, x)
        assert delta(x, z) <= delta(x, y) + delta(y, z)


def test_scalar_total_order():
    assert BOTTOM < TropScalar(-1000)
    assert TropScalar("1/3") < TropScalar("1/2")
    assert not BOTTOM < BOTTOM


def test_proj_point_total_order_and_negation():
    assert NEG_INF < ProjPoint(-10**9) < ProjPoint(0) < POS_INF
    assert -NEG_INF == POS_INF
    assert -POS_INF == NEG_INF
    assert -ProjPoint("3/2") == ProjPoint("-3/2")


def test_bottom_has_no_negation():
    with pytest.raises(ValueError):
        -BOTTOM


def test_scalar_tokens_round_trip():
    for token in ["-inf", "0", "7", "-3", "1/2", "-22/7"]:
        assert str(TropScalar(token)) == token
    for token in ["-inf", "+inf", "5/3", "-4"]:
        assert str(ProjPoint(token)) == token


def test_bad_tokens_rejected():
    for bad in ["1.5", "x", "3/0", "1/-2", ""]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            TropScalar(bad)
    with pytest.raises(ValueError):
        TropScalar("+inf")
    with pytest.raises(TypeError):
        TropScalar(0.5)
    assert TropScalar("9" * MAX_TOKEN_CHARS).frac == 10**MAX_TOKEN_CHARS - 1
    with pytest.raises(ValueError, match="at most"):
        TropScalar("9" * (MAX_TOKEN_CHARS + 1))


# Tokens the one reader takes, each checked against Fraction(token): signs,
# -0, leading zeros, zero and reducible ratios, surrounding whitespace, and
# integer and p/q tokens of exactly MAX_TOKEN_CHARS characters once stripped.
READER_GRID = [
    "0", "-0", "+0", "7", "+7", "-7", "007", "-007", "+00", "0/5", "-0/5", "1/2", "+1/2",
    "-1/2", "-4/6", "4/6", "12/8", "-12/4", "003/12", "-10/10", " 5 ", "\t-4/6\n",
    "9" * MAX_TOKEN_CHARS,
    "-" + "9" * (MAX_TOKEN_CHARS - 1),
    "1/" + "3" * (MAX_TOKEN_CHARS - 2),
    "-" + "6" * (MAX_TOKEN_CHARS // 2 - 2) + "/" + "4" * (MAX_TOKEN_CHARS // 2),
    "  " + "8" * MAX_TOKEN_CHARS + "\n",
]


@pytest.mark.parametrize("token", READER_GRID, ids=[str(i) for i in range(len(READER_GRID))])
def test_the_reader_agrees_with_fraction(token):
    f = Fraction(token)
    n, d = _ratio(token)
    assert type(n) is int and type(d) is int
    assert (n, d) == (f.numerator, f.denominator)
    assert _as_fraction(token) == f == TropScalar(token).frac == ProjPoint(token).frac


@pytest.mark.parametrize(
    "token",
    [
        "9" * (MAX_TOKEN_CHARS + 1),
        "9" * (MAX_TOKEN_CHARS - 1) + "/3",
        " " + "9" * (MAX_TOKEN_CHARS + 1) + "\n",
    ],
    ids=["integer", "ratio", "padded"],
)
def test_the_reader_refuses_one_character_over_the_cap(token):
    assert Fraction(token)  # the general parser would take it
    with pytest.raises(ValueError) as exc:
        _ratio(token)
    assert str(exc.value) == (
        f"bad rational token of {MAX_TOKEN_CHARS + 1} characters: expected an integer "
        f"or 'p/q' of at most {MAX_TOKEN_CHARS} characters"
    )


def test_the_cap_is_checked_before_any_int_is_built():
    # 5,000 digits are past CPython's int-from-string limit: the cap's own
    # message shows that no int() call came first
    with pytest.raises(ValueError, match="^bad rational token of 5000 characters"):
        _ratio("7" * 5000)


# The refusal messages of the token grammar, byte for byte.
REFUSED_TOKENS = {
    "1_000": "bad rational token '1_000': expected an integer or 'p/q'",
    "\u0663": "bad rational token '\u0663': expected an integer or 'p/q'",
    "1e3": "bad rational token '1e3': expected an integer or 'p/q'",
    "0x10": "bad rational token '0x10': expected an integer or 'p/q'",
    "3/0": "bad rational token '3/0': expected an integer or 'p/q'",
    "3/-4": "bad rational token '3/-4': expected an integer or 'p/q'",
    "3/04": "bad rational token '3/04': expected an integer or 'p/q'",
    "": "bad rational token '': expected an integer or 'p/q'",
    "1/2/3": "bad rational token '1/2/3': expected an integer or 'p/q'",
    "+inf": "bad rational token '+inf': expected an integer or 'p/q'",
}


@pytest.mark.parametrize("token", list(REFUSED_TOKENS))
def test_refused_tokens_keep_their_messages(token):
    scalar_message = (
        "+inf is not a tropical scalar (it only exists projectively)"
        if token == "+inf"
        else REFUSED_TOKENS[token]
    )
    readers = [(_ratio, REFUSED_TOKENS[token]), (_as_fraction, REFUSED_TOKENS[token])]
    for read, message in readers + [(TropScalar, scalar_message)]:
        with pytest.raises(ValueError) as exc:
            read(token)
        assert str(exc.value) == message, read


def test_proj_point_scalar_conversion():
    assert ProjPoint(TropScalar("-inf")) == NEG_INF
    assert NEG_INF.to_scalar() == BOTTOM
    assert ProjPoint(2).to_scalar() == TropScalar(2)
    with pytest.raises(ValueError):
        POS_INF.to_scalar()


# Each grid is sorted; a value's index is its place in the order.
SCALAR_GRID = ["-inf", -1, Fraction(-1, 2), 0, Fraction(1, 3), 2]
POINT_GRID = SCALAR_GRID + ["+inf"]
DISTANCE_GRID = [0, Fraction(1, 2), 3, "inf"]


def comparisons(x, y):
    return (x < y, x <= y, x > y, x >= y, x == y, x != y)


@pytest.mark.parametrize(
    "cls, grid",
    [(TropScalar, SCALAR_GRID), (ProjPoint, POINT_GRID), (ExtDistance, DISTANCE_GRID)],
)
def test_key_order_is_the_order_of_the_grid_on_every_pair(cls, grid):
    for (i, u), (j, v) in product(enumerate(grid), repeat=2):
        x, y = cls(u), cls(v)  # fresh objects, so equal ones are never identical
        assert comparisons(x, y) == comparisons(i, j), (x, y)
        if i == j:
            assert hash(x) == hash(y), x
        if not isinstance(v, str):
            # a plain int or Fraction operand, on either side
            assert comparisons(x, v) == comparisons(i, j), (x, v)
            assert comparisons(v, x) == comparisons(j, i), (v, x)
            if i == j:
                assert hash(x) == hash(v), x


@pytest.mark.parametrize("cls", [TropScalar, ProjPoint, ExtDistance])
def test_bool_operands_are_refused(cls):
    zero, one = cls(0), cls(1)
    assert zero == 0 and zero != False  # noqa: E712
    assert one == 1 and one != True  # noqa: E712
    for op in (lambda x: x < True, lambda x: x <= False, lambda x: x > True, lambda x: x >= False):
        with pytest.raises(TypeError):
            op(one)
    with pytest.raises(TypeError):
        cls(True)


def test_a_scalar_never_equals_a_point():
    for s, p in product(SCALAR_GRID, POINT_GRID):
        assert TropScalar(s) != ProjPoint(p) and ProjPoint(p) != TropScalar(s), (s, p)
        assert not TropScalar(s) == ProjPoint(p)


# the binary operators each class defines, beside the four order comparisons
OPERATORS = {
    TropScalar: (operator.add, operator.mul),
    ProjPoint: (),
    ExtDistance: (operator.add,),
}


@pytest.mark.parametrize("cls", [TropScalar, ProjPoint, ExtDistance])
def test_string_operands_are_refused(cls):
    one = cls(1)
    assert one != "1" and not one == "1" and "1" != one
    ops = (operator.lt, operator.le, operator.gt, operator.ge) + OPERATORS[cls]
    for op in ops:
        for args in ((one, "2"), ("2", one)):
            with pytest.raises(TypeError, match=f"{cls.__name__} with the string '2'"):
                op(*args)
    with pytest.raises(TypeError, match="with the string 'xxxx.*… \\(5000 characters\\)"):
        one < "x" * 5000
    # floats keep the message that names the exact alternatives
    with pytest.raises(TypeError, match="refusing float 1.5"):
        one < 1.5


def test_a_plain_operand_a_class_refuses_equals_none_of_its_values():
    for d in (ExtDistance(3), ExtDistance(0), INF_DIST):
        assert d != -1 and not d == -1 and -1 != d
        assert d != Fraction(-1, 2) and not Fraction(-1, 2) == d


_EXACT = "arithmetic here is exact, pass an int, Fraction, or 'p/q' string"
_NOT_EXACT = "cannot build an exact rational from {}: pass an int, Fraction, or 'p/q' string"
_BAD_TOKEN = "bad rational token {}: expected an integer or 'p/q'"
# _scalar_ratio on each kind of input, each answer or refusal pinned
SCALAR_RATIOS = [
    (TropScalar(3), (3, 1)),
    (TropScalar("-1/2"), (-1, 2)),
    (BOTTOM, (None, 1)),
    (0, (0, 1)),
    (-7, (-7, 1)),
    (10**30, (10**30, 1)),
    (Fraction(6, 4), (3, 2)),
    (Fraction(-1, 3), (-1, 3)),
    (" -inf ", (None, 1)),
    ("3/6", (1, 2)),
    (" -4 ", (-4, 1)),
    (True, (TypeError, "bool is not a tropical scalar")),
    (False, (TypeError, "bool is not a tropical scalar")),
    (0.5, (TypeError, f"refusing float 0.5: {_EXACT}")),
    (1.0, (TypeError, f"refusing float 1.0: {_EXACT}")),
    (None, (TypeError, _NOT_EXACT.format("None"))),
    (ProjPoint(1), (TypeError, _NOT_EXACT.format("ProjPoint('1')"))),
    (NEG_INF, (TypeError, _NOT_EXACT.format("ProjPoint('-inf')"))),
    (POS_INF, (TypeError, _NOT_EXACT.format("ProjPoint('+inf')"))),
    ("+inf", (ValueError, "+inf is not a tropical scalar (it only exists projectively)")),
    ("inf", (ValueError, _BAD_TOKEN.format("'inf'"))),
    ("1/0", (ValueError, _BAD_TOKEN.format("'1/0'"))),
    ("1.5", (ValueError, _BAD_TOKEN.format("'1.5'"))),
    ("", (ValueError, _BAD_TOKEN.format("''"))),
    (
        "9" * 4001,
        (
            ValueError,
            "bad rational token of 4001 characters: expected an integer or 'p/q' of at most "
            "4000 characters",
        ),
    ),
]


@pytest.mark.parametrize(
    "value, expected", SCALAR_RATIOS, ids=[repr(v)[:20] for v, _ in SCALAR_RATIOS]
)
def test_scalar_ratio_answers_and_refusals_are_pinned(value, expected):
    if isinstance(expected[0], type):
        with pytest.raises(expected[0]) as exc:
            _scalar_ratio(value)
        assert str(exc.value) == expected[1]
    else:
        assert _scalar_ratio(value) == expected
