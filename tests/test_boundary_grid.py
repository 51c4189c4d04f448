"""Exhaustive boundary grids: every matrix with entries drawn from a small
set that includes ``-inf``.

Random streams rarely reach the degenerate classes (the zero matrix,
singleton column spaces, half-infinite intervals); these grids reach all of
them, and hold the geometric decisions, column membership included, to the
residuation oracle and to the verified constructions on each one.  The
product, the residual and the space maps, which compute on integer
numerators, are also held to references built from the public scalar
operators; the stored spaces to freshly computed ones, each relation asked
first on fresh matrices to its set rule, set strings to their endpoints,
and ``solves_right`` to the residual it materializes on both grids.  The ``classify``
diameter is held to the endpoint distance, its R-class name to the relation
R, principal-ideal membership to the J-preorder, and the grid part of each
maximal subgroup to its group type and to its family's ``subgroup_element``.
The set decisions are held to a reference on ``Fraction`` endpoints, and the
Green relations on the 65,536-pair grid to their invariance under one unit
(``tests/grid_exhaustive.py`` holds that check and runs it for two).  The
product and both residuals are held to the scalar reference on 20,000
seeded pairs too, as that file holds the product and the right residual on
every pair, and each of those two checks is shown to catch a mutant of its
kernel; so are the residual checks and ``solves_right`` a mutant of the one
witness rule, and the right residual of a residual target a mutant that
reads its ``+inf`` flags untransposed.  The maximal-subgroup checks also run
on the 1,296 matrices over {-inf,-2,-1,0,1,2}.
"""

import __future__
import inspect
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, cycle, islice, product
from math import lcm

import pytest

from tropmat import cli, matrix
from tropmat.geometry import (
    ConvexSet,
    IsoType,
    embeds_isometrically,
    iso_type,
    isometric,
    proj_column_space,
    proj_row_space,
    subset,
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
from tropmat.ideals import IdealDescriptor, ideal_contains, principal_ideal_of
from tropmat.matrix import (
    ResidualMatrix,
    TropMatrix,
    left_residual,
    residual_scalar,
    right_residual,
    solves_right,
)
from tropmat.sampling import PROFILES, sample_convex_set, sample_matrix
from tropmat.semiring import BOTTOM, NEG_INF, POS_INF, ProjPoint, TropScalar, delta
from tropmat.structure import (
    GroupType,
    IdempotentForm,
    group_type_of_H,
    idempotent_form,
    idempotent_in_H,
    regular_witness,
    subgroup_element,
)

# tests/ is on sys.path under pytest's default import mode; the check bodies
# imported from there assert, so pytest must rewrite them to run under -O
pytest.register_assert_rewrite("grid_exhaustive")
from grid_exhaustive import (  # noqa: E402
    UNITS,
    columns,
    grid,
    kernel_mismatches,
    ref_product,
    ref_right_residual,
    spaces,
    unit_mismatches,
)


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


def test_column_membership_by_both_routes_on_the_256_matrix_grid():
    # v = (x, y) lies in a's column space exactly when V = [v v] is a @ X
    # for some X (residuation) and exactly when V is R-below a (geometry);
    # the random oracle suite almost never draws two equal columns
    values = ["-inf", -1, 0, 1]
    members = 0
    for a in grid(values):
        pc = proj_column_space(a)
        for x, y in product(values, repeat=2):
            v = TropMatrix([[x, x], [y, y]])
            member = solves_right(a, v)
            assert member == leq_R(v, a), (a, v)
            if v.is_zero:
                assert member, a
            else:
                p = proj_column_space(v).lo
                assert member == (not a.is_zero and pc.lo <= p <= pc.hi), (a, v)
            members += member
    assert members == 1977


def test_regularity_and_idempotents_on_the_256_matrix_grid():
    matrices = grid(["-inf", -1, 0, 1])
    assert len(matrices) == 256
    for a in matrices:
        y = regular_witness(a)
        assert a @ y @ a == a, a
    idempotents = [e for e in matrices if e @ e == e]
    assert len(idempotents) > 20
    for e in idempotents:
        assert idempotent_in_H(*spaces(e)) == e, e
    idempotent_classes = {spaces(e) for e in idempotents}
    empty_classes = {spaces(a) for a in matrices if idempotent_in_H(*spaces(a)) is None}
    assert empty_classes
    assert not empty_classes & idempotent_classes


def maximal_subgroup_counts(matrices):
    """Each idempotent's H-class, cut down to the grid, behaves like the
    group ``group_type_of_H`` names: e is the identity, products stay in the
    class, only the wreath product fails to commute, and the elements of
    order two are as many as its S2 factor allows.  Returns the number of
    idempotents, the number of members of their classes, and the group
    types by name."""
    idempotents = [e for e in matrices if e @ e == e]
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
    if m.is_point and m.lo == NEG_INF and n == m:
        return "W", ()
    if m.is_empty or m.is_point or n != m.negated():
        return None
    x, y = m.lo, m.hi
    if x.is_finite and y.is_finite:
        return "XY", (x.frac, y.frac)
    if x.is_finite and y == POS_INF:
        return "Z", (x.frac,)
    return None


def subgroup_family_counts(matrices):
    """Each grid member h of an H-class a subgroup family parametrizes is
    that family's element at ``a = h[0, 0]``.  Returns how many members each
    family rebuilt, and how many no family parametrizes."""
    counts = Counter()
    for e in [e for e in matrices if e @ e == e]:
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


def test_maximal_subgroups_on_the_256_matrix_grid():
    idempotents, members, types = maximal_subgroup_counts(grid(["-inf", -1, 0, 1]))
    assert idempotents == 32
    assert members == 92
    assert types == {"trivial": 1, "reals": 27, "reals-x-s2": 3, "reals-wr-s2": 1}


def test_subgroup_families_rebuild_the_256_grid_members():
    counts = subgroup_family_counts(grid(["-inf", -1, 0, 1]))
    assert counts == {"W": 3, "XY": 12, "Z": 7, "none": 70}


def test_maximal_subgroups_on_the_1296_matrix_grid():
    idempotents, members, types = maximal_subgroup_counts(grid(["-inf", -2, -1, 0, 1, 2]))
    assert (idempotents, members) == (63, 292)
    assert types == {"trivial": 1, "reals": 51, "reals-x-s2": 10, "reals-wr-s2": 1}


def test_subgroup_families_rebuild_the_1296_grid_members():
    counts = subgroup_family_counts(grid(["-inf", -2, -1, 0, 1, 2]))
    assert counts == {"W": 5, "XY": 62, "Z": 19, "none": 206}


def test_classify_diameter_on_the_256_matrix_grid(capsys):
    seen = set()
    for a in grid(["-inf", -1, 0, 1]):
        assert cli.main(["classify", str(a)]) == 0
        got = json.loads(capsys.readouterr().out)["diameter"]
        pc = proj_column_space(a)
        want = "0" if pc.is_empty or pc.is_point else str(delta(pc.lo, pc.hi))
        assert got == want, a
        seen.add(got)
    assert seen == {"0", "1", "2", "3", "4", "inf"}


RCLASS_KINDS = {
    "zero",
    "point-neginf",
    "point",
    "point-posinf",
    "half-low",
    "interval",
    "half-high",
    "fullline",
}


def test_classify_rclass_on_the_256_matrix_grid(capsys):
    matrices = grid(["-inf", -1, 0, 1])
    names = []
    for a in matrices:
        assert cli.main(["classify", str(a)]) == 0
        out = json.loads(capsys.readouterr().out)
        pc = proj_column_space(a)
        ends = [] if pc.is_empty else [pc.lo] if pc.is_point else [pc.lo, pc.hi]
        finite = [str(p) for p in ends if p.is_finite]
        # the finite endpoints in order, named x and y, a lone one y
        assert list(out["rclass_params"].values()) == finite, a
        assert list(out["rclass_params"]) == ["x", "y"][2 - len(finite):], a
        names.append((out["rclass"], tuple(out["rclass_params"].items())))
    assert {kind for kind, _ in names} == RCLASS_KINDS
    for (a, name_a), (b, name_b) in product(zip(matrices, names), repeat=2):
        assert (name_a == name_b) == related(GreenRelation.R, a, b), (a, b)


def test_principal_ideal_membership_is_the_J_preorder_on_the_256_matrix_grid():
    matrices = grid(["-inf", -1, 0, 1])
    for b in matrices:
        d = principal_ideal_of(b)
        for a in matrices:
            assert ideal_contains(d, a) == leq_J(a, b), (a, b)


def test_membership_is_the_type_rule_on_the_256_matrix_grid():
    # a matrix of isometry type t lies in d exactly when the closed key of t,
    # the type's key extended by 1, is at most d's key
    widths = [Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4, 5]
    types = [IsoType(k) for k in ("empty", "point", "halfinf", "fullline")]
    types += [IsoType("interval", w) for w in widths]
    descriptors = [IdealDescriptor.closed(t) for t in types]
    descriptors += [IdealDescriptor.open_finite(w) for w in widths] + [IdealDescriptor.open_line()]
    answers = Counter()
    for a in grid(["-inf", -1, 0, 1]):
        t = iso_type(proj_column_space(a))
        for d in descriptors:
            member = ideal_contains(d, a)
            assert member == ((*t.key(), 1) <= d.key()), (d, a)
            answers[member] += 1
    assert answers[True] and answers[False]


def test_green_relations_are_invariant_under_one_unit_on_the_65536_pair_grid():
    mismatches, first = unit_mismatches(UNITS[0])
    assert not any(mismatches.values()), (mismatches, first)


# Reference versions of the left residual and the space maps, built from the
# public scalar operators one entry at a time, as grid_exhaustive builds the
# product and the right residual.


def ref_left_residual(b, a):
    n = 2
    rows = []
    for k in range(n):
        row = []
        for j in range(n):
            cands = [residual_scalar(a[i, j], b[i, k]) for i in range(n)]
            row.append(min(cands))
        rows.append(row)
    return ResidualMatrix(rows)


def ref_image(x1, x2):
    """The projective image x2 - x1 of the nonzero pair of scalars (x1, x2)."""
    if x1 == BOTTOM:
        return POS_INF
    return ProjPoint(x2 * -x1)


def ref_span(vectors):
    images = [ref_image(x1, x2) for x1, x2 in vectors if (x1, x2) != (BOTTOM, BOTTOM)]
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
    copy = TropMatrix(a.to_tokens())
    for c in (copy, TropMatrix(a.rows)):
        assert a == c and hash(a) == hash(c)
    for i in range(2):
        assert_scalars(a.rows[i], copy.rows[i])
        assert_scalars([a[i, j] for j in range(2)], copy.rows[i])


def test_rewritten_paths_match_the_scalar_reference_on_the_81_matrix_grid():
    matrices = grid(["-inf", 0, 1])
    for a, b in product(matrices, repeat=2):
        ab = a @ b
        assert ab == ref_product(a, b), (a, b)
        r = left_residual(b, a)
        assert r == ref_left_residual(b, a), (a, b)
        assert left_residual(a, r) == ref_left_residual(a, r), (a, b)
        assert right_residual(r, a) == ref_right_residual(r, a), (a, b)
        for m in (a, ab):
            assert proj_column_space(m) == ref_span(columns(m)), m
            assert proj_row_space(m) == ref_span(m.rows), m


def ref_witness(r):
    return TropMatrix([[0 if p == POS_INF else p.to_scalar() for p in row] for row in r.rows])


def test_kernels_match_the_scalar_reference_on_the_half_and_third_grid():
    # every entry of the {-inf,-1,0,1} grids is an integer, so each matrix
    # there stores den 1; over {-inf, 1/2, -1/3} products cancel
    # (1/2 + 1/2 = 1) and mix (1/2 - 1/3 = 1/6), so results must come back
    # to the lowest common denominator of their entries
    matrices = grid(["-inf", "1/2", "-1/3"])
    assert len(matrices) == 81
    dens, checked = set(), set()
    for a, b in product(matrices, repeat=2):
        ab, total = a @ b, a + b
        assert ab == ref_product(a, b), (a, b)
        ref_total = TropMatrix([[a[i, j] + b[i, j] for j in range(2)] for i in range(2)])
        assert total == ref_total, (a, b)
        r, s = left_residual(b, a), right_residual(a, b)
        ref_r, ref_s = ref_left_residual(b, a), ref_right_residual(a, b)
        assert r == ref_r and r.witness() == ref_witness(ref_r), (a, b)
        assert s == ref_s and s.witness() == ref_witness(ref_s), (a, b)
        for m in (ab, total):
            assert proj_column_space(m) == ref_span(columns(m)), m
            assert proj_row_space(m) == ref_span(m.rows), m
        # results equal as stored share one check; a result not in lowest
        # terms differs, as stored, from its value's canonical form, so it
        # is checked on its own
        results = {ab, total, ab.transpose(), r, r.transpose(), s, r.witness(), s.witness()}
        for m in results - checked:
            assert_plain(m)
            checked.add(m)
        fracs = [e.frac for row in ab.rows + total.rows for e in row]
        dens.update(f.denominator for f in fracs if f is not None)
    assert dens == {1, 2, 3, 6}
    for a in matrices:
        t = a.transpose()
        assert t == TropMatrix([[a[j, i] for j in range(2)] for i in range(2)]), a
        for m in (a, t):
            assert proj_column_space(m) == ref_span(columns(m)), m
            assert proj_row_space(m) == ref_span(m.rows), m
        assert_plain(t)


def test_spaces_and_iso_types_are_computed_once_per_object():
    for a in grid(["-inf", 0, 1]):
        pc, pr = proj_column_space(a), proj_row_space(a)
        types = iso_type(pc), iso_type(pr)
        assert proj_column_space(a) is pc and proj_row_space(a) is pr, a
        assert iso_type(pc) is types[0] and iso_type(pr) is types[1], a
        fresh = TropMatrix(a.to_tokens())
        assert spaces(fresh) == (pc, pr), a
        assert (iso_type(proj_column_space(fresh)), iso_type(proj_row_space(fresh))) == types, a
    # no space map meets a 3x3 matrix: it is refused at construction
    for make in (TropMatrix.identity, TropMatrix.zero):
        with pytest.raises(ValueError, match="specific to 2x2"):
            make(3)


def fresh(a):
    # a new matrix equal to a, with no space stored yet
    return a.transpose().transpose()


def ref_relations(a_spaces, b_spaces):
    """Each relation's set rule on the (column, row) spaces of a and b."""
    (ca, ra), (cb, rb) = a_spaces, b_spaces
    ta, tb = iso_type(ca), iso_type(cb)
    return {
        GreenRelation.R: ca == cb,
        GreenRelation.L: ra == rb,
        GreenRelation.H: ca == cb and ra == rb,
        GreenRelation.D: ta == tb,
        GreenRelation.J: ta == tb,
        GreenRelation.LEQ_R: subset(ca, cb),
        GreenRelation.LEQ_L: subset(ra, rb),
        GreenRelation.LEQ_J: ta.key() <= tb.key(),
    }


@pytest.mark.parametrize("values", [["-inf", 0, 1], ["-inf", "1/2", "-1/3"]])
def test_each_relation_asked_first_on_a_fresh_pair(values):
    # related reads the spaces a matrix stores and computes the missing
    # ones; the reference reads spaces computed on separate copies
    matrices = grid(values)
    refs = [spaces(TropMatrix(a.to_tokens())) for a in matrices]
    assert all(m._pc is m._pr is None for m in map(fresh, matrices))
    for (a, a_spaces), (b, b_spaces) in product(zip(matrices, refs), repeat=2):
        want = ref_relations(a_spaces, b_spaces)
        for rel in GreenRelation:
            x, y = fresh(a), fresh(b)
            assert related(rel, x, y) == want[rel], (rel, a, b)
            # again, with one side warm and the other fresh
            assert related(rel, x, fresh(b)) == want[rel], (rel, a, b)
            assert related(rel, fresh(a), y) == want[rel], (rel, a, b)


def test_set_strings_spell_their_endpoints():
    sets = [s for a in grid(["-inf", "1/2", "-1/3"]) for s in spaces(a)]
    rng = random.Random(20260809)
    sets += [sample_convex_set(rng) for _ in range(2000)]
    kinds = set()
    for s in sets:
        if s.is_empty:
            want = "empty"
        elif s.is_point:
            want = "{" + str(s.lo) + "}"
        else:
            want = f"[{s.lo},{s.hi}]"
        assert str(s) == want, want
        kinds.add(iso_type(s).kind)
    assert kinds == {"empty", "point", "interval", "halfinf", "fullline"}


# A reference for the set decisions, built from the public endpoint points
# and the Fraction values of their diameters.


def ref_endpoints(s):
    return None if s.is_empty else (s.lo, s.hi)


def ref_subset(s, t):
    return s.is_empty or (not t.is_empty and t.lo <= s.lo and s.hi <= t.hi)


def ref_iso(s):
    """The rank of s's isometry type in the embedding order, and its diameter."""
    if s.is_empty or s.is_point:
        return (0 if s.is_empty else 1), 0
    lo, hi = s.lo, s.hi
    if lo.is_finite and hi.is_finite:
        return 2, hi.frac - lo.frac
    return (4 if lo == NEG_INF and hi == POS_INF else 3), 0


def ref_den(s):
    return lcm(*[p.frac.denominator for p in ref_endpoints(s) or () if p.is_finite])


def test_set_decisions_across_denominators_match_a_fraction_reference():
    found = []
    for values in (["-inf", -1, 0, 1], ["-inf", "-1/2", 0, "1/3"]):
        for space in (proj_column_space, proj_row_space):
            found.append({str(space(a)): space(a) for a in grid(values)})
    # a set found twice is two equal objects, from different matrices
    sets = [s for distinct in found for s in distinct.values()]
    cross_den = equal_objects = 0
    for s, t in product(sets, repeat=2):
        equal = ref_endpoints(s) == ref_endpoints(t)
        assert (s == t) == equal, (s, t)
        if equal:
            assert hash(s) == hash(t), (s, t)
            equal_objects += s is not t
        assert subset(s, t) == ref_subset(s, t), (s, t)
        assert isometric(s, t) == (ref_iso(s) == ref_iso(t)), (s, t)
        assert embeds_isometrically(s, t) == (ref_iso(s) <= ref_iso(t)), (s, t)
        cross_den += ref_den(s) != ref_den(t)
    for s in sets:
        assert ConvexSet.parse(str(s)) == s, s
        if not s.is_empty:
            assert ConvexSet(s.lo, s.hi) == s, s
    assert (len(sets), cross_den, equal_objects) == (150, 14_904, 206)


def oracle(b, a):
    # the residuation definition solves_right computes on raw entries
    return b @ left_residual(b, a).witness() == a


def test_solves_right_matches_the_materialized_residual():
    # over {-inf, 1/2, -1/3} most pairs store different denominators, so
    # solves_right rescales them first
    rescaled = 0
    for values in (["-inf", 0, 1], ["-inf", "1/2", "-1/3"]):
        for a, b in product(grid(values), repeat=2):
            assert solves_right(b, a) == oracle(b, a), (a, b)
            rescaled += a._den != b._den
    assert rescaled == 3_610  # 6,561 less the 1 + 15**2 + 15**2 + 50**2 pairs of one den
    matrices = grid(["-inf", 0, 1])
    rng = random.Random(20260810)
    for _ in range(200):
        a, b = rand_matrix(rng), rand_matrix(rng)
        assert solves_right(b, a) == oracle(b, a), (a, b)
        assert solves_right(b, b @ a), (a, b)
    with pytest.raises(ValueError, match="specific to 2x2"):
        solves_right(TropMatrix.identity(3), matrices[0])


def rand_entry(rng):
    if rng.randrange(4) == 0:
        return "-inf"
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))


def rand_matrix(rng):
    return TropMatrix([[rand_entry(rng) for _ in range(2)] for _ in range(2)])


def seeded_pairs(n):
    """n pairs of ``sample_matrix``, cycling through its three profiles."""
    rng = random.Random(20261020)
    return [(sample_matrix(rng, p), sample_matrix(rng, p)) for p in islice(cycle(PROFILES), n)]


def test_rewritten_paths_match_the_scalar_reference_on_random_2x2_pairs():
    rng = random.Random(20260808)
    pairs = [(rand_matrix(rng), rand_matrix(rng)) for _ in range(200)] + seeded_pairs(20_000)
    assert kernel_mismatches(pairs) == ([], [])
    for a, b in pairs:
        assert left_residual(b, a) == ref_left_residual(b, a), (a, b)


def mutant(monkeypatch, name, old, new):
    """Rebind ``matrix.<name>`` to a copy compiled from its source with the
    one occurrence of old replaced by new."""
    source = inspect.getsource(getattr(matrix, name))
    assert source.count(old) == 1, old
    code = compile(
        source.replace(old, new), matrix.__file__, "exec",
        __future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = dict(vars(matrix))
    exec(code, namespace)
    monkeypatch.setattr(matrix, name, namespace[name])


@pytest.mark.parametrize(
    "name, old, new, caught",
    [
        # the product kernel without the second max term of its first entry
        ("_product", "_dot(p, e, q, g)", "_dot(p, e, None, None)", 0),
        # the residual kernel writing the right residual's entries untransposed
        ("_residual", "x1, x2, t1, t2 = x2, x1, t2, t1", "pass", 1),
    ],
    ids=["product-drops-a-max-term", "right-residual-untransposed"],
)
def test_each_kernel_check_catches_a_mutant(monkeypatch, name, old, new, caught):
    mutant(monkeypatch, name, old, new)
    mismatches = kernel_mismatches(seeded_pairs(2_000))
    assert mismatches[caught] and not mismatches[1 - caught]


def test_a_mutant_of_the_witness_rule_fails_the_residual_and_solves_right_checks(monkeypatch):
    # both residuals and solves_right read their witness entries from
    # _column, so a mutant taking the larger term of x1's min shows in each
    mutant(monkeypatch, "_column", "t1 - q < t2 - s", "t1 - q > t2 - s")
    assert kernel_mismatches(seeded_pairs(2_000))[1]
    pairs = list(product(grid(["-inf", 0, 1]), repeat=2))
    assert any(left_residual(b, a) != ref_left_residual(b, a) for a, b in pairs)
    assert any(leq_R(a, b) != solves_right(b, a) for a, b in pairs)


def test_the_right_residual_of_a_residual_target_catches_a_mutant(monkeypatch):
    # the right residual reads the +inf flags of its target transposed, as
    # it reads the entries; a mutant that leaves the flags in place differs
    old = "q, r, f, g, ff, fg = r, q, g, f, fg, ff"
    mutant(monkeypatch, "_residual", old, "q, r, f, g = r, q, g, f")
    pairs = product(grid(["-inf", 0, 1]), repeat=2)
    targets = [(left_residual(b, a), a) for a, b in pairs]
    assert any(right_residual(r, a) != ref_right_residual(r, a) for r, a in targets)


def test_uncoerced_results_equal_and_hash_like_coerced_ones():
    rng = random.Random(20260809)
    for _ in range(50):
        a, b = rand_matrix(rng), rand_matrix(rng)
        products = (a @ b, a.transpose())
        witnesses = (left_residual(b, a).witness(), right_residual(a, b).witness())
        for m in products + witnesses:
            assert_plain(m)
        v = a @ TropMatrix([[b[0, 0]] * 2, [b[1, 0]] * 2])
        assert v == TropMatrix(v.rows) and hash(v) == hash(TropMatrix(v.rows))
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
    # subgroup_element builds its store in lowest terms without reducing it
    ends = [-1, "-2/3", 0, "1/4", "3/2", 2]
    for a, (x, y) in product(["3/2", 0, "-5/6", 4], combinations(ends, 2)):
        for family in "WXYZ":
            assert_plain(subgroup_element(family, a, x, y))
    # form parameters given as plain ints still build tropical entries
    upper = IdempotentForm("upper", -1, "-2").matrix()
    assert_plain(upper)
    assert upper == TropMatrix([[0, -1], [-2, -3]])
    assert_plain(TropMatrix.identity(2))
    assert_plain(TropMatrix.zero(2))
