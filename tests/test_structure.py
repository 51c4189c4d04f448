import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from tropmat.geometry import (
    ConvexSet,
    proj_column_space,
    proj_row_space,
)
from tropmat.green import witness_Z
from tropmat.matrix import TropMatrix, monomial_inverse, solves_right
from tropmat.sampling import sample_matrix
from tropmat.semiring import BOTTOM, NEG_INF, POS_INF, ProjPoint, TropScalar
from tropmat.structure import (
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

SEED = 20260808

I2 = TropMatrix.identity(2)
Z2 = TropMatrix.zero(2)


def column_matrix(v):
    """The matrix whose two columns are both the vector v = (x, y): a vector
    is a member of a's column space exactly when this matrix is a @ X for
    some X, and a acts on it as on v."""
    x, y = v
    return TropMatrix([[x, x], [y, y]])


def test_is_idempotent_examples():
    assert is_idempotent(TropMatrix([[0, -1], [-2, -3]]))
    assert is_idempotent(I2)
    assert not is_idempotent(TropMatrix([[1, "-inf"], ["-inf", 0]]))
    assert is_idempotent(Z2)


def test_idempotent_form_examples():
    assert idempotent_form(Z2) == IdempotentForm("zero")
    assert idempotent_form(TropMatrix([[0, -5], [-7, 0]])) == IdempotentForm(
        "diagonal", TropScalar(-5), TropScalar(-7)
    )
    assert idempotent_form(TropMatrix([[0, "-inf"], ["-inf", "-inf"]])) == (
        IdempotentForm("upper", BOTTOM, BOTTOM)
    )
    assert idempotent_form(TropMatrix([["-inf", "-inf"], ["-inf", 0]])) == (
        IdempotentForm("lower", BOTTOM, BOTTOM)
    )


def test_idempotent_form_priority_on_overlaps():
    # x + y = 0 lands in every parametrized family; priority picks diagonal
    e = TropMatrix([[0, -3], [3, 0]])
    assert idempotent_form(e).kind == "diagonal"
    assert idempotent_form(I2) == IdempotentForm("diagonal", BOTTOM, BOTTOM)


def test_idempotent_form_rejects_non_idempotents():
    with pytest.raises(ValueError):
        idempotent_form(TropMatrix([[1, "-inf"], ["-inf", 0]]))


def test_form_reconstruction():
    rng = random.Random(SEED)
    seen = set()
    for _ in range(2000):
        a = sample_matrix(rng, "boundary")
        if is_idempotent(a):
            f = idempotent_form(a)
            assert f.matrix() == a
            seen.add(f.kind)
    assert seen == {"zero", "diagonal", "upper", "lower"}


def test_exhaustive_grid_idempotent_classification():
    """Bruteforce squaring agrees with the four-family shape test."""
    grid = [BOTTOM] + [TropScalar(v) for v in (-2, -1, 0, 1, 2)]
    count = 0
    for a, b, c, d in product(grid, repeat=4):
        m = TropMatrix([[a, b], [c, d]])
        assert is_idempotent(m) == in_idempotent_family(m)
        count += 1
    assert count == 1296


def test_idempotent_in_H_examples():
    assert idempotent_in_H(ConvexSet.point(NEG_INF), ConvexSet.point(POS_INF)) is None
    e = idempotent_in_H(ConvexSet.interval(1, 3), ConvexSet.interval(-3, -1))
    assert e == TropMatrix([[0, -3], [1, 0]])
    e = idempotent_in_H(ConvexSet.point(2), ConvexSet.point(-5))
    assert e == TropMatrix([[0, -5], [2, -3]])
    assert idempotent_in_H(ConvexSet.empty(), ConvexSet.empty()) == Z2


def test_idempotent_in_H_positive_sum_orientation():
    # the lower-family branch must still put the column space at M
    e = idempotent_in_H(ConvexSet.point(2), ConvexSet.point(5))
    assert e is not None
    assert proj_column_space(e) == ConvexSet.point(2)
    assert proj_row_space(e) == ConvexSet.point(5)


def test_idempotent_in_H_exhaustive_endpoint_grid():
    """Existence matches the two conditions: mutually negated non-singletons,
    or singleton pairs avoiding the mixed infinite pair."""
    points = [NEG_INF, ProjPoint(-2), ProjPoint("-1/2"), ProjPoint(0),
              ProjPoint("1/2"), ProjPoint(2), POS_INF]
    sets = [ConvexSet.empty()]
    sets += [ConvexSet.point(p) for p in points]
    sets += [
        ConvexSet.interval(p, q)
        for i, p in enumerate(points)
        for q in points[i + 1:]
    ]
    found_kinds = set()
    for m in sets:
        for n in sets:
            e = idempotent_in_H(m, n)
            if m.is_point and n.is_point:
                expected = {m.lo, n.lo} != {NEG_INF, POS_INF}
            else:
                expected = m == n.negated() and not n.is_point
            assert (e is not None) == expected, (m, n)
            if e is None:
                continue
            assert is_idempotent(e)
            assert proj_column_space(e) == m
            assert proj_row_space(e) == n
            for j in range(2):
                v = column_matrix((e[0, j], e[1, j]))
                assert solves_right(e, v)
                assert e @ v == v
            found_kinds.add(idempotent_form(e).kind)
    assert found_kinds == {"zero", "diagonal", "upper", "lower"}


def test_the_H_class_idempotent_is_the_witness_Z_matrix():
    """On the 46 sets with endpoints in a nine-point grid, each idempotent
    ``idempotent_in_H`` returns is the matrix ``witness_Z`` builds for the
    same pair, token for token."""
    points = [ProjPoint(p) for p in ("-inf", -2, -1, "-1/2", 0, "1/3", 1, 2, "+inf")]
    sets = [ConvexSet.empty()] + [ConvexSet.point(p) for p in points]
    sets += [ConvexSet.interval(p, q) for p, q in combinations(points, 2)]
    assert len(sets) == 46
    found = 0
    for m, n in product(sets, repeat=2):
        e = idempotent_in_H(m, n)
        if e is not None:
            assert e.to_tokens() == witness_Z(m, n).to_tokens(), (m, n)
            found += 1
    assert found == 101


def test_non_isometric_H_class_has_no_idempotent():
    assert idempotent_in_H(ConvexSet.point(0), ConvexSet.interval(0, 1)) is None
    assert idempotent_in_H(ConvexSet.interval(0, 1), ConvexSet.interval(-2, 0)) is None


def test_regular_witness_examples():
    e = TropMatrix([[0, -3], [1, 0]])
    assert e @ e @ e == e  # any idempotent regularizes itself
    y = regular_witness(e)
    assert e @ y @ e == e
    u = TropMatrix([["-inf", 3], [-5, "-inf"]])
    assert regular_witness(u) == monomial_inverse(u)
    a = TropMatrix([[0, 0], [1, 2]])
    y = regular_witness(a)
    assert y == TropMatrix([[0, -2], [-1, -2]])
    assert a @ y @ a == a


def test_regular_witness_on_degenerate_shapes():
    cases = [
        Z2,
        TropMatrix([["-inf", "-inf"], [1, 2]]),
        TropMatrix([[1, "-inf"], [2, "-inf"]]),
        TropMatrix([["-inf", 5], ["-inf", "-inf"]]),
        I2,
    ]
    for a in cases:
        y = regular_witness(a)
        assert a @ y @ a == a


def test_regular_witness_randomized():
    rng = random.Random(SEED + 1)
    for _ in range(2000):
        a = sample_matrix(rng, "with-neginf")
        y = regular_witness(a)
        assert a @ y @ a == a


def test_subgroup_element_examples():
    w = subgroup_element
    assert w("W", 2) @ w("W", 3) == w("W", 5)
    x0 = subgroup_element("X", 0, 1, 2)
    x1 = subgroup_element("X", 1, 1, 2)
    assert x0 == TropMatrix([[0, -2], [1, 0]])
    assert x0 @ x1 == x1
    ya = subgroup_element("Y", 2, 1, 2)
    yb = subgroup_element("Y", -3, 1, 2)
    assert ya @ yb == subgroup_element("X", 2 - 3 + 1, 1, 2)


def test_group_laws_randomized():
    rng = random.Random(SEED + 2)
    for _ in range(500):
        a = Fraction(rng.randrange(-18, 19), rng.randrange(1, 4))
        b = Fraction(rng.randrange(-18, 19), rng.randrange(1, 4))
        x = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
        y = x + Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
        assert subgroup_element("W", a) @ subgroup_element("W", b) == subgroup_element("W", a + b)
        xa = subgroup_element("X", a, x, y)
        xb = subgroup_element("X", b, x, y)
        ya = subgroup_element("Y", a, x, y)
        yb = subgroup_element("Y", b, x, y)
        assert xa @ xb == subgroup_element("X", a + b, x, y)
        assert xa @ yb == subgroup_element("Y", a + b, x, y)
        assert yb @ xa == subgroup_element("Y", a + b, x, y)
        assert ya @ yb == subgroup_element("X", a + b + (y - x), x, y)
        za = subgroup_element("Z", a, x)
        zb = subgroup_element("Z", b, x)
        assert za @ zb == subgroup_element("Z", a + b, x)
        flip = subgroup_element("Y", (x - y) / 2, x, y)
        assert flip @ flip == subgroup_element("X", 0, x, y)


def test_subgroup_elements_live_in_their_H_class():
    # X and Y elements: column space [x, y], row space [-y, -x]
    x, y = Fraction(1), Fraction(5, 2)
    for fam in ("X", "Y"):
        g = subgroup_element(fam, "7/3", x, y)
        assert proj_column_space(g) == ConvexSet.interval(x, y)
        assert proj_row_space(g) == ConvexSet.interval(-y, -x)
    z = subgroup_element("Z", -4, x)
    assert proj_column_space(z) == ConvexSet.interval(ProjPoint(x), POS_INF)
    assert proj_row_space(z) == ConvexSet.interval(NEG_INF, ProjPoint(-x))
    w = subgroup_element("W", 9)
    assert proj_column_space(w) == ConvexSet.point(NEG_INF)


def test_subgroup_element_validation():
    with pytest.raises(ValueError):
        subgroup_element("Q", 0)
    with pytest.raises(ValueError):
        subgroup_element("X", 0, 2, 1)
    with pytest.raises(ValueError):
        subgroup_element("X", 0)
    with pytest.raises(ValueError):
        subgroup_element("Z", 0)
    with pytest.raises(ValueError):
        subgroup_element("Z", 0, "-inf")
    with pytest.raises(ValueError):
        subgroup_element("W", "-inf")


def test_group_type_examples():
    assert group_type_of_H(ConvexSet.empty(), ConvexSet.empty()) is GroupType.TRIVIAL
    assert group_type_of_H(ConvexSet.point(NEG_INF), ConvexSet.point(NEG_INF)) is GroupType.REALS
    assert group_type_of_H(
        ConvexSet.interval(1, 3), ConvexSet.interval(-3, -1)
    ) is GroupType.REALS_TIMES_S2
    assert group_type_of_H(
        ConvexSet.interval(2, POS_INF), ConvexSet.interval(NEG_INF, -2)
    ) is GroupType.REALS
    assert group_type_of_H(
        ConvexSet.full_line(), ConvexSet.full_line()
    ) is GroupType.REALS_WREATH_S2


def test_group_type_rejects_idempotent_free_H_classes():
    with pytest.raises(ValueError):
        group_type_of_H(ConvexSet.point(NEG_INF), ConvexSet.point(POS_INF))
    with pytest.raises(ValueError):
        group_type_of_H(ConvexSet.interval(0, 1), ConvexSet.interval(5, 6))


def test_fixes_image():
    """An idempotent fixes every member of its column space: it acts as a
    projection onto its image."""
    e = TropMatrix([[0, -3], [1, 0]])
    members = [(0, 1), (BOTTOM, BOTTOM), (e[0, 0], e[1, 0]), (e[0, 1], e[1, 1])]
    for v in map(column_matrix, members):
        assert solves_right(e, v)
        assert e @ v == v
    assert not is_idempotent(TropMatrix([[1, "-inf"], ["-inf", 0]]))
    assert not solves_right(e, column_matrix((5, 2)))
