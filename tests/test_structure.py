import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import maxplus_reference as ref
import pytest

from tropmat import green, structure
from tropmat.geometry import (
    ConvexSet,
    proj_column_space,
    proj_row_space,
)
from tropmat.green import witness_Z
from tropmat.matrix import (
    ResidualMatrix, TropMatrix, VerificationError, monomial_inverse, solves_right
)
from tropmat.sampling import sample_matrix
from tropmat.semiring import BOTTOM, NEG_INF, POS_INF, ProjPoint, TropScalar
from tropmat.structure import (
    GroupType,
    IdempotentForm,
    group_type_of_H,
    idempotent_form,
    idempotent_in_H,
    in_idempotent_family,
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
    e, a = TropMatrix([[0, -1], [-2, -3]]), TropMatrix([[1, "-inf"], ["-inf", 0]])
    assert e @ e == e
    assert I2 @ I2 == I2
    assert a @ a != a
    assert Z2 @ Z2 == Z2


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


def test_idempotent_form_refuses_a_form_outside_its_family():
    # x*y > 0, a nonzero family missing a parameter, and zero with parameters
    for args in [("upper", 1, 1), ("diagonal",), ("zero", 3, 4), ("lower", 1, None)]:
        with pytest.raises(ValueError):
            IdempotentForm(*args)
    with pytest.raises(ValueError, match="3000 characters") as exc:
        IdempotentForm("upper", "1" * 3000, 0)
    assert len(str(exc.value)) < 400


def test_idempotent_form_stores_its_parameters_as_scalars():
    f, g = IdempotentForm("upper", -1, "-2"), IdempotentForm("upper", -1, -2)
    assert f == g and hash(f) == hash(g)
    assert type(f.x) is TropScalar and type(f.y) is TropScalar


def test_idempotent_form_rejects_non_idempotents():
    with pytest.raises(ValueError):
        idempotent_form(TropMatrix([[1, "-inf"], ["-inf", 0]]))


def test_form_reconstruction():
    rng = random.Random(SEED)
    seen = set()
    for _ in range(2000):
        a = sample_matrix(rng, "boundary")
        if a @ a == a:
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
        assert (m @ m == m) == in_idempotent_family(m)
        if m @ m == m:
            assert idempotent_form(m).matrix() == m
        count += 1
    assert count == 1296


def test_idempotent_form_matrix_equals_the_coercing_definition():
    # parameters over denominators 1, 2 and 3, with x + y <= 0; the
    # definitions are built on the reference's tropical product
    values = [BOTTOM] + [TropScalar(v) for v in ("-3/2", "-1/3", "0", "1/2", "2/3")]
    definitions = {
        "upper": lambda x, y, xy: [[0, x], [y, xy]],
        "diagonal": lambda x, y, xy: [[0, x], [y, 0]],
        "lower": lambda x, y, xy: [[xy, x], [y, 0]],
    }
    pairs = []
    for x, y in product(values, repeat=2):
        xy = ref.times(ref.value(x), ref.value(y))
        if xy is None or xy <= 0:
            pairs.append((x, y, ref.text(xy)))
    assert len(pairs) == 24
    for x, y, xy in pairs:
        for kind, rows in definitions.items():
            want = TropMatrix(rows(x, y, xy))
            assert IdempotentForm(kind, x, y).matrix() == want, (kind, x, y)
    assert IdempotentForm("zero").matrix() == Z2


def test_idempotent_families_on_a_mixed_denominator_grid():
    """The 625 matrices over {-inf, -1/2, 0, 1/3, 1}: unlike the 1,296-matrix
    integer grid, they store denominators up to 6."""
    grid = [BOTTOM] + [TropScalar(v) for v in ("-1/2", "0", "1/3", "1")]
    kinds = Counter()
    for a, b, c, d in product(grid, repeat=4):
        m = TropMatrix([[a, b], [c, d]])
        assert in_idempotent_family(m) == (m @ m == m), m
        if m @ m == m:
            form = idempotent_form(m)
            assert form.matrix() == m, m
            kinds[form.kind] += 1
    assert kinds == {"zero": 1, "diagonal": 15, "upper": 11, "lower": 11}


def test_idempotent_form_check_fires_on_a_matrix_in_no_family(monkeypatch):
    monkeypatch.setattr(structure, "_family_form", lambda a: None)
    with pytest.raises(VerificationError, match="is in no family"):
        idempotent_form(I2)


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
            assert e @ e == e
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


def test_miller_clifford_on_the_256_matrix_grid():
    """Miller-Clifford (Howie, Prop. 2.3.7): ab lies in R_a and L_b exactly
    when L_a meets R_b in an H-class with an idempotent.  The left side is a
    product and two spaces; the right side is the idempotent rule, at the
    column space of b and the row space of a.  Checked on all 65,536 pairs
    of matrices over {-inf, -1, 0, 1}."""
    matrices = [
        TropMatrix([[p, q], [r, s]]) for p, q, r, s in product([BOTTOM, -1, 0, 1], repeat=4)
    ]
    holds = 0
    for a, b in product(matrices, repeat=2):
        ab = a @ b
        in_rl = (
            proj_column_space(ab) == proj_column_space(a)
            and proj_row_space(ab) == proj_row_space(b)
        )
        has_e = idempotent_in_H(proj_column_space(b), proj_row_space(a)) is not None
        assert in_rl == has_e, (a, b)
        holds += has_e
    assert holds == 6224


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


def test_regular_witness_check_fires_on_a_wrong_residual(monkeypatch):
    # an all -inf residual has the zero witness, and a @ 0 @ a is zero, not a
    zero = ResidualMatrix([["-inf", "-inf"], ["-inf", "-inf"]])
    monkeypatch.setattr(structure, "left_residual", lambda b, a: zero)
    with pytest.raises(VerificationError, match="regularity witness defect"):
        regular_witness(TropMatrix([[0, 0], [1, 2]]))


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


def test_subgroup_element_equals_the_public_construction():
    # parameters over denominators 1 to 4, passed as Fractions, ints and tokens
    values = sorted({Fraction(p, q) for p in (-5, -2, 0, 1, 3) for q in (1, 2, 3, 4)})
    for i, a in enumerate(values):
        arg = (a, str(a), a.numerator if a.denominator == 1 else a)[i % 3]
        assert subgroup_element("W", arg) == TropMatrix([[a, "-inf"], ["-inf", "-inf"]])
        for x in values:
            assert subgroup_element("Z", arg, x) == TropMatrix([[a, "-inf"], [a + x, a]])
        for x, y in combinations(values, 2):
            assert subgroup_element("X", arg, x, y) == TropMatrix([[a, a - y], [a + x, a]])
            assert subgroup_element("Y", arg, x, y) == TropMatrix([[a, a - x], [a + y, a]])


@pytest.mark.parametrize(
    "wrong, message",
    [(I2, "witness construction defect"), (TropMatrix([[1, 1], [1, 1]]), "idempotent construction")],
    ids=["wrong-spaces", "not-idempotent"],
)
def test_idempotent_in_H_checks_fire_on_a_wrong_witness(monkeypatch, wrong, message):
    # [[1, 1], [1, 1]] has the spaces {0} and {0} but is not idempotent, so
    # only the idempotency check can catch it
    monkeypatch.setattr(green, "_singleton_witness", lambda *args: wrong)
    with pytest.raises(VerificationError, match=message):
        idempotent_in_H(ConvexSet.point(0), ConvexSet.point(0))


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
    # every refusal, with its exact type and message
    family = "unknown family {}: expected one of ('W', 'X', 'Y', 'Z')"
    group = "the group parameter must be a rational, not -inf"
    order = "interval endpoints must be rationals with x < y"
    token = "bad rational token {}: expected an integer or 'p/q'"
    floats = "refusing float {}: arithmetic here is exact, pass an int, Fraction, or 'p/q' string"
    cases = [
        (("Q", 0), ValueError, family.format("'Q'")),
        (("w", 0, 1, 2), ValueError, family.format("'w'")),
        (("W", "-inf"), ValueError, group),
        (("X", "-inf", 0, 1), ValueError, group),
        (("Z", " -inf ", 1), ValueError, group),
        (("Z", 0), ValueError, "family Z needs the finite interval endpoint x"),
        (("Z", 0, None, 5), ValueError, "family Z needs the finite interval endpoint x"),
        (("Z", 0, "-inf"), ValueError, "the interval endpoint x must be a rational, not -inf"),
        (("X", 0), ValueError, "family X needs interval endpoints x < y"),
        (("X", 0, None, 1), ValueError, "family X needs interval endpoints x < y"),
        (("Y", 0, 1), ValueError, "family Y needs interval endpoints x < y"),
        (("X", 0, "-inf", 1), ValueError, order),
        (("Y", 0, 0, "-inf"), ValueError, order),
        (("X", 0, 1, 1), ValueError, order),
        (("Y", 0, "1/2", Fraction(2, 4)), ValueError, order),
        (("X", 0, 2, 1), ValueError, order),
        (("Y", 0, "1/3", "2/7"), ValueError, order),
        (("X", 0, "-2/7", "-1/3"), ValueError, order),
        (("X", 0, "1e3", 5), ValueError, token.format("'1e3'")),
        (("W", "abc"), ValueError, token.format("'abc'")),
        (("Z", 0, "x"), ValueError, token.format("'x'")),
        (("X", 0, 0, "+inf"), ValueError, "+inf is not a tropical scalar (it only exists "
         "projectively)"),
        (("X", 0.5, 0, 1), TypeError, floats.format("0.5")),
        (("Z", 0, 1.5), TypeError, floats.format("1.5")),
        (("Y", 0, 0, -2.0), TypeError, floats.format("-2.0")),
        (("X", True, 0, 1), TypeError, "bool is not a tropical scalar"),
        (("Z", 0, False), TypeError, "bool is not a tropical scalar"),
        (("Y", 0, 0, True), TypeError, "bool is not a tropical scalar"),
    ]
    for args, kind, message in cases:
        with pytest.raises(kind) as caught:
            subgroup_element(*args)
        assert type(caught.value) is kind and str(caught.value) == message, args
    # the order is decided exactly across denominators and signs, and the
    # families ignore the parameters they do not take
    assert subgroup_element("X", 0, "2/7", "1/3") == TropMatrix([[0, "-1/3"], ["2/7", 0]])
    assert subgroup_element("Y", 0, "-1/3", "-2/7") == TropMatrix([[0, "1/3"], ["-2/7", 0]])
    w = subgroup_element("W", "3/6", "abc", 1.5)
    assert w == TropMatrix([["1/2", "-inf"], ["-inf", "-inf"]])
    assert subgroup_element("Z", "1/2", "1/3", "x") == TropMatrix([["1/2", "-inf"], ["5/6", "1/2"]])


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


# the 37 sets with endpoints over denominators 1, 2 and 3 (as in test_green)
_MIXED = ["-inf", "-3/2", "-1/3", "0", "1/2", "2/3", "5", "+inf"]
_MIXED_SETS = [ConvexSet.empty()] + [
    ConvexSet.parse(f"[{lo},{hi}]") for lo, hi in combinations_with_replacement(_MIXED, 2)
]
# SHA-256 of the answers below, pinned from the construction-based decision
GROUP_TYPE_GRID_SHA256 = "93867c18cdbd6630121002661a6ba89646281c105595db133245e7b62d8caa1f"


def test_group_type_of_H_builds_no_matrix(monkeypatch):
    def build(m, n):
        pytest.fail(f"group_type_of_H built the idempotent of ({m}, {n})")

    monkeypatch.setattr(structure, "_witness_Z", build)
    lines, counts = [], Counter()
    for m, n in product(_MIXED_SETS, repeat=2):
        try:
            answer = group_type_of_H(m, n).value
            counts[answer] += 1
        except ValueError as exc:
            answer = f"ValueError: {exc}"
            counts["none"] += 1
        lines.append(json.dumps([str(m), str(n), answer]))
    assert counts == {"none": 1303, "reals": 64, "trivial": 1, "reals-wr-s2": 1}
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GROUP_TYPE_GRID_SHA256


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
    a = TropMatrix([[1, "-inf"], ["-inf", 0]])
    assert a @ a != a
    assert not solves_right(e, column_matrix((5, 2)))
