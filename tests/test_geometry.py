import random
from fractions import Fraction

import pytest

from tropmat.cli import _diameter
from tropmat.geometry import (
    ConvexSet,
    IsoType,
    canonical_set,
    embed_image,
    embeds_isometrically,
    iso_type,
    isometric,
    proj_column_space,
    proj_row_space,
    subset,
)
from tropmat.matrix import TropMatrix, solves_right
from tropmat.sampling import sample_convex_set, sample_matrix, sample_scalar
from tropmat.semiring import BOTTOM, NEG_INF, POS_INF, ExtDistance, INF_DIST, ProjPoint

SEED = 20260808

FULL = ConvexSet.full_line()


def test_column_space_examples():
    assert proj_column_space(TropMatrix([[0, 0], [1, 2]])) == ConvexSet.interval(1, 2)
    assert proj_column_space(TropMatrix([["-inf", 3], ["-inf", 5]])) == ConvexSet.point(2)
    assert proj_column_space(TropMatrix([[3, "-inf"], ["-inf", 4]])) == FULL
    assert proj_column_space(TropMatrix.zero(2)) == ConvexSet.empty()


def test_row_space_examples():
    assert proj_row_space(TropMatrix.identity(2)) == FULL
    assert proj_row_space(TropMatrix.zero(2)) == ConvexSet.empty()
    a = TropMatrix([[0, 1], [2, 3]])
    assert _diameter(iso_type(proj_row_space(a))) == _diameter(iso_type(proj_column_space(a)))


def test_diameter_examples():
    assert _diameter(iso_type(ConvexSet.empty())) == str(ExtDistance(0))
    assert _diameter(iso_type(ConvexSet.interval(1, 4))) == str(ExtDistance(3))
    assert _diameter(iso_type(ConvexSet.interval(0, POS_INF))) == str(INF_DIST)
    assert _diameter(iso_type(ConvexSet.point(NEG_INF))) == str(ExtDistance(0))


def test_isometric_examples():
    assert isometric(ConvexSet.interval(NEG_INF, 0), ConvexSet.interval(0, POS_INF))
    assert isometric(ConvexSet.interval(0, 1), ConvexSet.interval(5, 6))
    assert not isometric(ConvexSet.interval(0, 1), ConvexSet.interval(0, 2))
    assert isometric(ConvexSet.point(NEG_INF), ConvexSet.point(7))


def test_iso_type_examples():
    assert iso_type(ConvexSet.interval(NEG_INF, 3)) == IsoType("halfinf")
    assert iso_type(ConvexSet.point(POS_INF)) == IsoType("point")
    assert iso_type(FULL) == IsoType("fullline")
    assert iso_type(ConvexSet.interval("1/2", 2)) == IsoType("interval", Fraction(3, 2))


def test_embeds_isometrically_examples():
    assert embeds_isometrically(ConvexSet.interval(0, 1), ConvexSet.interval(5, 7))
    assert not embeds_isometrically(ConvexSet.interval(0, POS_INF), ConvexSet.interval(0, 5))
    assert embeds_isometrically(ConvexSet.empty(), ConvexSet.empty())
    halfinf, fullline = canonical_set(IsoType("halfinf")), canonical_set(IsoType("fullline"))
    assert embeds_isometrically(halfinf, fullline)
    assert not embeds_isometrically(fullline, halfinf)


def test_embedding_is_a_partial_order_on_types():
    rng = random.Random(SEED)
    types = [canonical_set(iso_type(sample_convex_set(rng))) for _ in range(200)]
    for s in types:
        assert embeds_isometrically(s, s)
    for s in types[:50]:
        for t in types[:50]:
            if embeds_isometrically(s, t) and embeds_isometrically(t, s):
                assert s == t
            for u in types[:20]:
                if embeds_isometrically(s, t) and embeds_isometrically(t, u):
                    assert embeds_isometrically(s, u)


def test_iso_type_agrees_with_isometric():
    rng = random.Random(SEED + 1)
    for _ in range(500):
        s, t = sample_convex_set(rng), sample_convex_set(rng)
        assert isometric(s, t) == (iso_type(s) == iso_type(t))


def test_subset_examples():
    assert subset(ConvexSet.interval(1, 2), ConvexSet.interval(0, 3))
    assert subset(ConvexSet.point(2), ConvexSet.interval(0, 3))
    assert not subset(ConvexSet.interval(0, 3), ConvexSet.interval(1, 2))
    assert subset(ConvexSet.empty(), ConvexSet.empty())


def test_interval_normalization():
    assert ConvexSet.interval(5, 1) == ConvexSet.interval(1, 5)
    assert ConvexSet.interval(2, 2) == ConvexSet.point(2)
    assert ConvexSet.interval(2, 2).is_point


def test_duality_on_random_matrices():
    rng = random.Random(SEED + 2)
    for _ in range(2000):
        a = sample_matrix(rng, "with-neginf")
        assert isometric(proj_column_space(a), proj_row_space(a))


def in_column_space(v, a):
    """Whether the vector v = (x, y) is a tropical linear combination of a's
    columns: whether the matrix whose two columns are both v is a @ X for
    some X."""
    x, y = v
    return solves_right(a, TropMatrix([[x, x], [y, y]]))


def sample_vector(rng, profile):
    return sample_scalar(rng, profile), sample_scalar(rng, profile)


def test_membership_examples():
    a = TropMatrix([[0, 0], [1, 2]])
    assert not in_column_space((2, 5), a)
    assert in_column_space((2, 4), a)
    assert in_column_space((BOTTOM, BOTTOM), a)
    for j in range(2):
        assert in_column_space((a[0, j], a[1, j]), a)


def test_membership_closed_under_scaling():
    rng = random.Random(SEED + 3)
    hits = 0
    for _ in range(800):
        a = sample_matrix(rng, "with-neginf")
        v = sample_vector(rng, "with-neginf")
        if in_column_space(v, a):
            hits += 1
            lam = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
            assert in_column_space([e * lam for e in v], a)
    assert hits > 50


def test_membership_agrees_with_projective_geometry():
    """Residuation and interval membership answer identically."""
    rng = random.Random(SEED + 4)
    for _ in range(1500):
        a = sample_matrix(rng, "with-neginf")
        x, y = sample_vector(rng, "with-neginf")
        v = TropMatrix([[x, x], [y, y]])
        algebraic = solves_right(a, v)
        if v.is_zero:
            geometric = True
        elif a.is_zero:
            geometric = False
        else:
            geometric = proj_column_space(a).contains(proj_column_space(v).lo)
        assert algebraic == geometric


def test_product_columns_stay_in_left_factor_space():
    rng = random.Random(SEED + 5)
    for _ in range(800):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        assert subset(proj_column_space(a @ b), proj_column_space(a))


def test_embed_image_is_a_real_embedding():
    rng = random.Random(SEED + 6)
    for _ in range(600):
        s, t = sample_convex_set(rng), sample_convex_set(rng)
        if not embeds_isometrically(s, t):
            with pytest.raises(ValueError):
                embed_image(s, t)
            continue
        image = embed_image(s, t)
        assert subset(image, t)
        assert isometric(image, s)


def test_canonical_set_round_trips_types():
    for t in [
        IsoType("empty"),
        IsoType("point"),
        IsoType("interval", Fraction(7, 2)),
        IsoType("halfinf"),
        IsoType("fullline"),
    ]:
        assert iso_type(canonical_set(t)) == t
        assert IsoType.parse(str(t)) == t


@pytest.mark.parametrize("bad", [0.5, True], ids=["float", "bool"])
def test_iso_type_rejects_a_diameter_outside_the_rational_grammar(bad):
    with pytest.raises(TypeError):
        IsoType("interval", bad)


def test_iso_type_diameter_takes_the_rational_grammar():
    t = IsoType("interval", "1/2")
    assert t == IsoType("interval", Fraction(1, 2))
    assert str(t) == "interval:1/2"
    assert canonical_set(t) == ConvexSet.interval(0, Fraction(1, 2))
    assert type(IsoType("interval", 3).diameter) is Fraction


def test_set_parsing_round_trip():
    for text in ["empty", "{-inf}", "{5/2}", "[-inf,+inf]", "[1,2]", "[-inf,0]"]:
        assert str(ConvexSet.parse(text)) == text
    with pytest.raises(ValueError):
        ConvexSet.parse("[2,1]")
    with pytest.raises(ValueError):
        ConvexSet.parse("(0,1)")
    with pytest.raises(ValueError):
        ConvexSet.parse("[1,2,3]")


def test_convex_set_constructor_checks_its_endpoints():
    # out of order, and one endpoint missing: each used to build a set that
    # its own repr, contains, iso_type or equality got wrong
    for lo, hi in [(ProjPoint(3), ProjPoint(1)), (3, 1), (None, ProjPoint(1)), (ProjPoint(1), None)]:
        with pytest.raises(ValueError):
            ConvexSet(lo, hi)
    s = ConvexSet(1, 3)
    assert s.lo.is_finite and s == ConvexSet.interval(1, 3)
    assert ConvexSet.parse(str(s)) == s
    assert s.contains(2) and iso_type(s) == IsoType("interval", 2)
    assert ConvexSet(None, None) == ConvexSet.empty()
    assert ConvexSet("-inf", "+inf") == FULL
    assert ConvexSet(ProjPoint(2), 2).is_point


def test_non_square_matrices_rejected():
    with pytest.raises(ValueError):
        proj_column_space(TropMatrix.identity(3))
