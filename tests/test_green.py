import hashlib
import itertools
import json
import random

import pytest

from tropmat import green
from tropmat.cli import _rclass
from tropmat.geometry import (
    ConvexSet,
    isometric,
    proj_column_space,
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
from tropmat.matrix import ResidualMatrix, TropMatrix, VerificationError, solves_right
from tropmat.sampling import sample_isometric_pair, sample_matrix
from tropmat.semiring import NEG_INF, POS_INF
from tropmat.structure import regular_witness

SEED = 20260808

I2 = TropMatrix.identity(2)
Z2 = TropMatrix.zero(2)


def test_leq_R_examples():
    a = TropMatrix([[0, 0], [1, 2]])
    b = TropMatrix([[0, 0], [0, 3]])
    assert leq_R(a, b)
    assert solves_right(b, a)
    assert leq_R(Z2, b)
    assert not leq_R(I2, b)


def test_leq_L_examples():
    a = TropMatrix([[0, 1], [0, 3]])
    b = TropMatrix([[0, 0], [2, 3]])
    assert leq_L(a, b) == leq_R(a.transpose(), b.transpose())
    assert leq_L(a, I2)
    assert leq_L(b, I2)
    assert leq_L(TropMatrix([[0, 0], [1, 2]]).transpose(), TropMatrix([[0, 0], [0, 3]]).transpose())


def test_leq_J_examples():
    a = TropMatrix([[0, 0], [0, 1]])  # column space [0, 1]
    b = TropMatrix([[0, 0], [5, 7]])  # column space [5, 7]
    assert leq_J(a, b)
    assert leq_J(b, I2)
    half = TropMatrix([["-inf", 0], [0, 0]])  # column space [0, +inf]
    wide = TropMatrix([[0, 0], [0, 9]])
    assert proj_column_space(half) == ConvexSet.interval(0, POS_INF)
    assert not leq_J(half, wide)


def test_related_examples():
    a = TropMatrix([[0, 0], [1, 2]])
    b = TropMatrix([[3, 3], [4, 5]])
    assert related(GreenRelation.R, a, b)
    c = TropMatrix([[0, 0], [0, 1]])
    d = TropMatrix([[0, 0], [5, 6]])
    assert related(GreenRelation.J, c, d)
    assert not related(GreenRelation.R, c, d)
    assert related(GreenRelation.H, a, a)


def test_related_refuses_what_is_not_a_relation():
    # R is false and leq_J true on this pair, so reading a non-member as
    # leq_J would answer True
    a = TropMatrix([[0, 0], [1, 2]])
    b = TropMatrix([[0, 0], [5, 7]])
    answers = {rel.value: related(rel, a, b) for rel in GreenRelation}
    assert answers == {
        "R": False, "L": False, "H": False, "D": False, "J": False,
        "leqR": False, "leqL": True, "leqJ": True,
    }
    # an unhashable value is refused with the same text
    for rel, text in (("R", "'R'"), (None, "None"), ([], "[]")):
        with pytest.raises(TypeError) as exc:
            related(rel, a, b)
        assert str(exc.value) == f"unknown relation {text}: expected a GreenRelation"


def test_preorders_through_related():
    a = TropMatrix([[0, 0], [1, 2]])
    b = TropMatrix([[0, 0], [0, 3]])
    assert related(GreenRelation.LEQ_R, a, b)
    assert not related(GreenRelation.LEQ_R, b, a)
    assert related(GreenRelation.LEQ_J, a, b)


def r_class_of(a):
    return _rclass(proj_column_space(a))


def test_r_class_examples():
    assert r_class_of(TropMatrix([[2, "-inf"], ["-inf", "-inf"]])) == ("point-neginf", {})
    assert r_class_of(TropMatrix([[5, 7], ["-inf", "-inf"]])) == ("point-neginf", {})
    assert r_class_of(Z2) == ("zero", {})
    assert r_class_of(TropMatrix([[0, "-inf"], ["-inf", 5]])) == ("fullline", {})
    assert r_class_of(TropMatrix([["-inf", "-inf"], [1, 0]])) == ("point-posinf", {})
    assert r_class_of(TropMatrix([[0, 0], [1, 2]])) == ("interval", {"x": "1", "y": "2"})
    assert r_class_of(TropMatrix([[0, 0], ["-inf", 2]])) == ("half-low", {"y": "2"})
    assert r_class_of(TropMatrix([["-inf", 0], [1, 2]])) == ("half-high", {"y": "2"})


def test_r_class_descriptor_characterizes_R():
    rng = random.Random(SEED)
    for _ in range(1500):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        assert (r_class_of(a) == r_class_of(b)) == related(GreenRelation.R, a, b)


def test_witness_Z_examples():
    z = witness_Z(ConvexSet.point(1), ConvexSet.point(-3))
    assert z == TropMatrix([[0, -3], [1, -2]])
    z = witness_Z(ConvexSet.point(POS_INF), ConvexSet.point(NEG_INF))
    assert z == TropMatrix([["-inf", "-inf"], [0, "-inf"]])
    z = witness_Z(ConvexSet.interval(1, 3), ConvexSet.interval(10, 12))
    assert z == TropMatrix([[0, 10], [1, 13]])
    assert proj_column_space(z) == ConvexSet.interval(1, 3)
    assert proj_row_space(z) == ConvexSet.interval(10, 12)


def test_witness_Z_rejects_non_isometric():
    with pytest.raises(ValueError):
        witness_Z(ConvexSet.interval(0, 1), ConvexSet.interval(0, 2))
    with pytest.raises(ValueError):
        witness_Z(ConvexSet.empty(), ConvexSet.point(0))


def test_witness_Z_on_random_isometric_pairs():
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        m, n = sample_isometric_pair(rng)
        z = witness_Z(m, n)
        assert proj_column_space(z) == m
        assert proj_row_space(z) == n
    # spot-check the half-infinite orientation mix explicitly
    for m, n in [
        (ConvexSet.interval(NEG_INF, 2), ConvexSet.interval(NEG_INF, -5)),
        (ConvexSet.interval(NEG_INF, 2), ConvexSet.interval(-5, POS_INF)),
        (ConvexSet.interval(2, POS_INF), ConvexSet.interval(-5, POS_INF)),
        (ConvexSet.interval(2, POS_INF), ConvexSet.interval(NEG_INF, -5)),
    ]:
        z = witness_Z(m, n)
        assert proj_column_space(z) == m and proj_row_space(z) == n


def test_all_singleton_witnesses():
    points = [NEG_INF, POS_INF, -2, 0, "7/2"]
    for x in points:
        for y in points:
            m, n = ConvexSet.point(x), ConvexSet.point(y)
            z = witness_Z(m, n)
            assert proj_column_space(z) == m and proj_row_space(z) == n


# endpoints over denominators 1, 2 and 3, so that a pair of sets mixes them
_GRID = ["-inf", "-3/2", "-1/3", "0", "1/2", "2/3", "5", "+inf"]
_GRID_SETS = [ConvexSet.empty()] + [
    ConvexSet.parse(f"[{lo},{hi}]") for lo, hi in itertools.combinations_with_replacement(_GRID, 2)
]
# SHA-256 of the witnesses below, pinned: a change to one byte of them fails here
WITNESS_GRID_PAIRS = 225
WITNESS_GRID_SHA256 = "04712d389eb1b0d39a69534c99b3926c1ac56f5d328089f5401edd2d22a39223"


def test_witness_Z_on_the_mixed_denominator_grid_is_pinned():
    lines = [
        json.dumps([str(m), str(n), witness_Z(m, n).to_tokens()])
        for m in _GRID_SETS
        for n in _GRID_SETS
        if isometric(m, n)
    ]
    assert len(_GRID_SETS) == 37 and len(lines) == WITNESS_GRID_PAIRS
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WITNESS_GRID_SHA256


@pytest.mark.parametrize(
    "wrong, m",
    [(I2, ConvexSet.point(0)), (Z2, ConvexSet.point(POS_INF))],
    ids=["full-line", "empty"],
)
def test_witness_Z_check_fires_on_a_wrong_singleton_witness(monkeypatch, wrong, m):
    monkeypatch.setattr(green, "_singleton_witness", lambda *args: wrong)
    with pytest.raises(VerificationError, match="witness construction defect"):
        witness_Z(m, m)


def test_j_factorization_check_fires_on_an_image_outside_the_target(monkeypatch):
    # {5} is J-below b, whose column space [0, 1] does not contain it; an
    # "image" that is an isometric copy outside t leaves z outside b's right
    # ideal.  (Returning t itself fails earlier: witness_Z refuses the
    # non-isometric pair with a ValueError.)
    a, b = TropMatrix([[0, 0], [5, 5]]), TropMatrix([[0, 0], [0, 1]])
    x, y = j_factorization(a, b)
    assert x @ b @ y == a
    monkeypatch.setattr(green, "embed_image", lambda s, t: s)
    with pytest.raises(VerificationError, match="z must be right-divisible by b"):
        j_factorization(a, b)


def test_j_factorization_check_fires_on_a_wrong_left_factor(monkeypatch):
    # z is right-divisible by b, but a zero left factor x cannot give a
    a, b = TropMatrix([[0, 0], [5, 5]]), TropMatrix([[0, 0], [0, 1]])
    zero = ResidualMatrix([["-inf", "-inf"], ["-inf", "-inf"]])
    monkeypatch.setattr(green, "right_residual", lambda a, z: zero)
    with pytest.raises(VerificationError, match="a must be left-divisible by z"):
        j_factorization(a, b)


def test_d_class_witness():
    a = TropMatrix([[0, 0], [0, 1]])
    b = TropMatrix([[0, 0], [5, 6]])
    z = d_class_witness(a, b)
    assert proj_column_space(z) == proj_column_space(b)
    assert proj_row_space(z) == proj_row_space(a)
    assert d_class_witness(Z2, Z2) == Z2
    with pytest.raises(ValueError):
        d_class_witness(a, I2)


def test_oracle_agreement():
    """Geometric preorder decisions match the residuation oracle."""
    rng = random.Random(SEED + 2)
    for _ in range(2000):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        assert leq_R(a, b) == solves_right(b, a)
        assert leq_L(a, b) == solves_right(b.transpose(), a.transpose())


def test_d_equals_j_on_random_pairs():
    rng = random.Random(SEED + 3)
    for _ in range(1500):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        assert related(GreenRelation.D, a, b) == related(GreenRelation.J, a, b)


def test_j_factorization_soundness():
    rng = random.Random(SEED + 4)
    produced = 0
    for _ in range(600):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        if leq_J(a, b):
            x, y = j_factorization(a, b)
            assert x @ b @ y == a
            produced += 1
        else:
            with pytest.raises(ValueError):
                j_factorization(a, b)
    assert produced > 100


def test_monotone_closure():
    rng = random.Random(SEED + 5)
    for _ in range(800):
        a = sample_matrix(rng, "with-neginf")
        x = sample_matrix(rng, "with-neginf")
        y = sample_matrix(rng, "with-neginf")
        assert leq_R(a @ x, a)
        assert leq_L(x @ a, a)
        assert leq_J(x @ a @ y, a)


def test_relation_token_round_trip():
    for member in GreenRelation:
        assert GreenRelation(member.value) is member
        # a member passes through unchanged
        assert GreenRelation(member) is member
    valid = "expected one of R, L, H, D, J, leqR, leqL, leqJ"
    # an unhashable token is refused as a bad value, not with a TypeError
    for token, text in (("K", "'K'"), ("r", "'r'"), (["R"], "['R']"), (None, "None")):
        with pytest.raises(ValueError) as exc:
            GreenRelation(token)
        assert str(exc.value) == f"unknown relation {text}: {valid}"
    # an over-long token is quoted cut, not echoed whole
    with pytest.raises(ValueError, match="5000 characters") as exc:
        GreenRelation("K" * 5000)
    assert len(str(exc.value)) < 400


def test_only_2x2_accepted():
    # a 3x3 operand is refused at construction, before any decision runs
    with pytest.raises(ValueError, match="specific to 2x2"):
        leq_R(TropMatrix.identity(3), I2)
    with pytest.raises(ValueError, match="specific to 2x2"):
        related(GreenRelation.J, I2, TropMatrix([[0, 0, 0]] * 3))


def test_witnesses_of_integer_matrices_are_integer():
    """On the 1,296 matrices over {-inf, -2, ..., 2}, every regularity,
    D-class and J-factorization witness has integer entries, so Green's
    relations of the integer submonoid would be the restrictions of the full
    monoid's.  This is pinned on the grid, not proved."""
    grid = [
        TropMatrix([[p, q], [r, s]])
        for p, q, r, s in itertools.product(["-inf", -2, -1, 0, 1, 2], repeat=4)
    ]
    assert [a for a in grid if regular_witness(a)._den != 1] == []
    rng = random.Random(SEED)
    d_pairs = j_pairs = 0
    for _ in range(2000):
        a, b = rng.choice(grid), rng.choice(grid)
        for x, y in ((a, b), (b, a)):
            if related(GreenRelation.D, x, y):
                d_pairs += 1
                assert d_class_witness(x, y)._den == 1, (x, y)
            if leq_J(x, y):
                j_pairs += 1
                assert [f._den for f in j_factorization(x, y)] == [1, 1], (x, y)
    assert (d_pairs, j_pairs) == (848, 2424)


def test_witnesses_of_finitary_matrices_are_finitary():
    """On the 625 matrices over {-2, ..., 2}, none with a -inf entry, every
    regularity, D-class and J-factorization witness has no -inf entry
    either, so Green's relations of the finitary submonoid FM2 would be the
    restrictions of the full monoid's.  This is pinned on the grid, not
    proved."""
    grid = [
        TropMatrix([[p, q], [r, s]]) for p, q, r, s in itertools.product(range(-2, 3), repeat=4)
    ]

    def finitary(m):
        return None not in m._e

    assert [a for a in grid if not finitary(regular_witness(a))] == []
    rng = random.Random(SEED)
    d_pairs = j_pairs = 0
    for _ in range(2000):
        a, b = rng.choice(grid), rng.choice(grid)
        for x, y in ((a, b), (b, a)):
            if related(GreenRelation.D, x, y):
                d_pairs += 1
                assert finitary(d_class_witness(x, y)), (x, y)
            if leq_J(x, y):
                j_pairs += 1
                assert all(map(finitary, j_factorization(x, y))), (x, y)
    assert (d_pairs, j_pairs) == (752, 2376)
