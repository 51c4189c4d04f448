import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import lcm

import maxplus_reference as ref
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
from tropmat.sampling import _draw, sample_convex_set, sample_matrix
from tropmat.semiring import (
    BOTTOM,
    NEG_INF,
    POS_INF,
    ProjPoint,
    TropScalar,
    _scalar,
)

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
    # the reference's distance between the endpoints; the empty set has none
    assert _diameter(iso_type(ConvexSet.empty())) == "0"
    sets = [ConvexSet.interval(1, 4), ConvexSet.interval(0, POS_INF), ConvexSet.point(NEG_INF)]
    for s, want in zip(sets, ["3", "inf", "0"]):
        d = ref.distance(*ref.ends(s))
        assert _diameter(iso_type(s)) == ("inf" if d is ref.INF else str(d)) == want, s


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
    return _scalar(_draw(rng, profile)), _scalar(_draw(rng, profile))


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
            scaled = [ref.text(ref.times(ref.value(e), lam)) for e in v]
            assert in_column_space(scaled, a)
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
            pc = proj_column_space(a)
            geometric = pc.lo <= proj_column_space(v).lo <= pc.hi
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


# endpoints over denominators 1, 2 and 3, so that a pair of sets mixes them
_GRID = ["-inf", "-3/2", "-1/3", "0", "1/2", "2/3", "5", "+inf"]
_GRID_SETS = [ConvexSet.empty()] + [
    ConvexSet.parse(f"[{lo},{hi}]") for lo, hi in itertools.combinations_with_replacement(_GRID, 2)
]
# SHA-256 of the images below, pinned: a change to one byte of them fails here
EMBED_GRID_PAIRS = 797
EMBED_GRID_SHA256 = "a5a1b1092a592fbb366c679b6a656f205385dc716a007c5d0abd5ccfac21e562"


def test_embed_image_on_the_mixed_denominator_grid_is_pinned():
    lines = [
        json.dumps([str(s), str(t), str(embed_image(s, t))])
        for s in _GRID_SETS
        for t in _GRID_SETS
        if embeds_isometrically(s, t)
    ]
    assert len(_GRID_SETS) == 37 and len(lines) == EMBED_GRID_PAIRS
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EMBED_GRID_SHA256


def _forms(token):
    """An endpoint of the grid in every type that holds it: its token, a
    ProjPoint, a TropScalar, a Fraction and an int."""
    forms = [token, ProjPoint(token)]
    if token != "+inf":
        forms.append(TropScalar(token))
    if not token.endswith("inf"):
        forms.append(Fraction(token))
        if forms[-1].denominator == 1:
            forms.append(int(forms[-1]))
    return forms


def test_every_construction_path_builds_one_canonical_set():
    # each ordered endpoint pair of the grid, each endpoint in each of its
    # types, through the constructor, interval both ways, point and parse
    built = 0
    for lo, hi in itertools.combinations_with_replacement(_GRID, 2):
        text = "{" + lo + "}" if lo == hi else f"[{lo},{hi}]"
        den = lcm(*(Fraction(t).denominator for t in (lo, hi) if not t.endswith("inf")))
        for a, b in itertools.product(_forms(lo), _forms(hi)):
            first = ConvexSet(a, b)
            sets = [first, ConvexSet.interval(a, b), ConvexSet.interval(b, a)]
            if lo == hi:
                sets += [ConvexSet.point(a), ConvexSet.point(b)]
            sets.append(ConvexSet.parse(str(first)))
            for s in sets:
                assert s == first and hash(s) == hash(first), (s, first)
                assert str(s) == text and s._den == den, (s, s._den, den)
            built += len(sets)
    assert built == 2430


# each refusal of the construction path, its type and message pinned
_LONG = "1" * 3000
_BOTH = "a convex set has both endpoints or neither"
_NONE = "cannot build an exact rational from None: pass an int, Fraction, or 'p/q' string"
_SHAPES = "expected 'empty', '{p}', or '[lo,hi]'"
_TWO = "expected two comma-separated endpoints"
_TOKEN = "bad rational token {}: expected an integer or 'p/q'"
_NO_ENDS = "the empty set has no endpoints"
_SET_REFUSALS = {
    "lo-none": (lambda: ConvexSet(None, 1), ValueError, _BOTH),
    "hi-none": (lambda: ConvexSet(POS_INF, None), ValueError, _BOTH),
    "order": (lambda: ConvexSet(3, 1), ValueError, "convex set endpoints out of order: 3 > 1"),
    "order-points": (
        lambda: ConvexSet(ProjPoint("+inf"), ProjPoint("1/2")),
        ValueError,
        "convex set endpoints out of order: +inf > 1/2",
    ),
    "order-long": (
        lambda: ConvexSet(_LONG, 0),
        ValueError,
        f"convex set endpoints out of order: {_LONG[:64]}… (3000 characters) > 0",
    ),
    "parse-order": (
        lambda: ConvexSet.parse("[2,1]"),
        ValueError,
        "bad set literal '[2,1]': endpoints out of order",
    ),
    "parse-order-inf": (
        lambda: ConvexSet.parse("[+inf,-inf]"),
        ValueError,
        "bad set literal '[+inf,-inf]': endpoints out of order",
    ),
    "point-none": (lambda: ConvexSet.point(None), TypeError, _NONE),
    "interval-none": (lambda: ConvexSet.interval(1, None), TypeError, _NONE),
    "point-bool": (lambda: ConvexSet.point(True), TypeError, "bool is not a tropical scalar"),
    "open-brace": (
        lambda: ConvexSet.parse("{+inf"), ValueError, f"bad set literal '{{+inf': {_SHAPES}"
    ),
    "three-endpoints": (
        lambda: ConvexSet.parse("[1,2,3]"), ValueError, f"bad set literal '[1,2,3]': {_TWO}"
    ),
    "no-endpoints": (lambda: ConvexSet.parse("[]"), ValueError, f"bad set literal '[]': {_TWO}"),
    "no-point": (lambda: ConvexSet.parse("{ }"), ValueError, _TOKEN.format("''")),
    "bad-lo": (lambda: ConvexSet.parse("[x,y]"), ValueError, _TOKEN.format("'x'")),
    "bad-hi": (lambda: ConvexSet.parse("[1, 1.5]"), ValueError, _TOKEN.format("'1.5'")),
    "bad-point": (lambda: ConvexSet.parse("{ 1e3 }"), ValueError, _TOKEN.format("'1e3'")),
    "bad-inf": (lambda: ConvexSet.parse("{inf}"), ValueError, _TOKEN.format("'inf'")),
    "bad-ctor": (lambda: ConvexSet(1, "1/0"), ValueError, _TOKEN.format("'1/0'")),
    "empty-lo": (lambda: ConvexSet.empty().lo, ValueError, _NO_ENDS),
    "empty-hi": (lambda: ConvexSet(None, None).hi, ValueError, _NO_ENDS),
}


@pytest.mark.parametrize("build, error, message", _SET_REFUSALS.values(), ids=_SET_REFUSALS)
def test_construction_refusals_are_pinned(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_canonical_set_is_pinned_for_every_type():
    kinds = ["empty", "point", "interval:7/2", "halfinf", "fullline"]
    got = [(str(s), s._den) for s in (canonical_set(IsoType.parse(k)) for k in kinds)]
    assert got == [("empty", 1), ("{0}", 1), ("[0,7/2]", 2), ("[-inf,0]", 1), ("[-inf,+inf]", 1)]


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
    for kind, diameter in [("interval", 0), ("point", 1)]:
        with pytest.raises(ValueError, match="diameter"):
            IsoType(kind, diameter)


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
    # its own repr, membership, iso_type or equality got wrong
    for lo, hi in [(ProjPoint(3), ProjPoint(1)), (3, 1), (None, ProjPoint(1)), (ProjPoint(1), None)]:
        with pytest.raises(ValueError):
            ConvexSet(lo, hi)
    s = ConvexSet(1, 3)
    assert s.lo.is_finite and s == ConvexSet.interval(1, 3)
    assert ConvexSet.parse(str(s)) == s
    assert subset(ConvexSet.point(2), s) and iso_type(s) == IsoType("interval", 2)
    assert ConvexSet(None, None) == ConvexSet.empty()
    assert ConvexSet("-inf", "+inf") == FULL
    assert ConvexSet(ProjPoint(2), 2).is_point
    # endpoints out of order are cut in the message, as any quoted input is
    with pytest.raises(ValueError, match="3000 characters") as exc:
        ConvexSet("1" * 3000, 0)
    assert len(str(exc.value)) < 400


def test_the_empty_set_and_the_repr():
    e = ConvexSet.empty()
    with pytest.raises(ValueError, match="no endpoints"):
        e.hi
    assert not subset(ConvexSet.point(0), e)
    assert (e == "empty") is False
    for s in (e, ConvexSet.point(NEG_INF), ConvexSet(Fraction(-1, 3), POS_INF)):
        assert eval(repr(s)) == s


def test_non_square_matrices_rejected():
    with pytest.raises(ValueError):
        proj_column_space(TropMatrix.identity(3))
