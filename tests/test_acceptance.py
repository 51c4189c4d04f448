"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline; without -s pytest's own per-test PASS/FAIL report carries the
same information.  Everything is exact: the only tolerances are zero.
"""

import hashlib
import random
import re
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from tropmat.geometry import (
    ConvexSet,
    iso_type,
    isometric,
    proj_column_space,
    proj_row_space,
)
from tropmat.green import (
    GreenRelation,
    d_class_witness,
    leq_L,
    leq_R,
    related,
    witness_Z,
)
from tropmat.ideals import (
    Ordering,
    ideal_compare,
    ideal_contains,
    ideal_from_generators,
    principal_ideal_of,
)
from tropmat.matrix import TropMatrix, VerificationError, solves_right
from tropmat.sampling import (
    sample_descriptor,
    sample_isometric_pair,
    sample_matrix,
)
from tropmat.semiring import BOTTOM, NEG_INF, POS_INF, ProjPoint, TropScalar
from tropmat.structure import (
    idempotent_in_H,
    in_idempotent_family,
    regular_witness,
    subgroup_element,
)
import tropmat.verify as verify_mod
from tropmat.verify import SUITES, matrix_with_iso_type, run_suite

SEED = 42


def report(number, name, detail):
    print(f"criterion {number} ({name}): PASS ({detail})")


def test_criterion_1_oracle_agreement():
    rng = random.Random(SEED)
    started = time.perf_counter()
    agreements = 0
    n = 10_000
    for _ in range(n):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        assert leq_R(a, b) == solves_right(b, a), (a, b)
        assert leq_L(a, b) == solves_right(b.transpose(), a.transpose()), (a, b)
        agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == n
    report(1, "oracle agreement", f"{n} pairs, 100% agreement, {elapsed:.2f}s")


def test_criterion_2_duality():
    rng = random.Random(SEED)
    n = 10_000
    for _ in range(n):
        a = sample_matrix(rng, "with-neginf")
        assert isometric(proj_column_space(a), proj_row_space(a)), a
    report(2, "column/row space duality", f"{n} matrices, 100%")


def test_criterion_3_d_equals_j_with_witnesses():
    rng = random.Random(SEED)
    n = 10_000
    j_related = 0
    for _ in range(n):
        a = sample_matrix(rng, "with-neginf")
        b = sample_matrix(rng, "with-neginf")
        d_rel = related(GreenRelation.D, a, b)
        j_rel = related(GreenRelation.J, a, b)
        assert d_rel == j_rel, (a, b)
        if j_rel:
            j_related += 1
            z = d_class_witness(a, b)
            assert proj_column_space(z) == proj_column_space(b), (a, b, z)
            assert proj_row_space(z) == proj_row_space(a), (a, b, z)
    assert j_related > 0
    report(3, "D = J with witnesses", f"{n} pairs, {j_related} J-related, 100%")


def test_criterion_4_idempotent_grid():
    grid = [BOTTOM] + [TropScalar(v) for v in (-2, -1, 0, 1, 2)]
    brute = set()
    classified = set()
    total = 0
    for a, b, c, d in product(grid, repeat=4):
        m = TropMatrix([[a, b], [c, d]])
        total += 1
        if m @ m == m:
            brute.add(m)
        if in_idempotent_family(m):
            classified.add(m)
    assert total == 1296
    assert brute == classified
    report(
        4,
        "exhaustive idempotent classification",
        f"{total} matrices, {len(brute)} idempotents, sets identical",
    )


def test_criterion_5_regularity():
    rng = random.Random(SEED)
    n = 10_000
    profiles = ("with-neginf", "dense-rational", "boundary")
    for i in range(n):
        a = sample_matrix(rng, profiles[i % 3])
        roll = rng.randrange(10)
        if roll == 0:
            a = TropMatrix.zero(2)
        elif roll == 1:
            rows = [list(r) for r in a.rows]
            rows[rng.randrange(2)] = [BOTTOM, BOTTOM]
            a = TropMatrix(rows)
        elif roll == 2:
            rows = [list(r) for r in a.rows]
            j = rng.randrange(2)
            rows[0][j] = BOTTOM
            rows[1][j] = BOTTOM
            a = TropMatrix(rows)
        y = regular_witness(a)
        assert a @ y @ a == a, (a, y)
    report(5, "regularity", f"{n} matrices incl. degenerate profiles, 100%")


def test_criterion_6_group_laws():
    rng = random.Random(SEED)
    n = 1000
    for _ in range(n):
        a = Fraction(rng.randrange(-40, 41), rng.randrange(1, 5))
        b = Fraction(rng.randrange(-40, 41), rng.randrange(1, 5))
        x = Fraction(rng.randrange(-20, 21), rng.randrange(1, 5))
        y = x + Fraction(rng.randrange(1, 21), rng.randrange(1, 5))
        assert subgroup_element("W", a) @ subgroup_element("W", b) == (
            subgroup_element("W", a + b)
        )
        xa = subgroup_element("X", a, x, y)
        xb = subgroup_element("X", b, x, y)
        ya = subgroup_element("Y", a, x, y)
        yb = subgroup_element("Y", b, x, y)
        assert xa @ xb == subgroup_element("X", a + b, x, y)
        assert xa @ yb == subgroup_element("Y", a + b, x, y)
        assert yb @ xa == subgroup_element("Y", a + b, x, y)
        assert ya @ yb == subgroup_element("X", a + b + (y - x), x, y)
        assert subgroup_element("Z", a, x) @ subgroup_element("Z", b, x) == (
            subgroup_element("Z", a + b, x)
        )
        flip = subgroup_element("Y", (x - y) / 2, x, y)
        assert flip @ flip == subgroup_element("X", 0, x, y)
    report(6, "maximal subgroup laws", f"{n} parameter tuples x 6 laws, exact")


def test_criterion_7_h_class_idempotent_criterion():
    points = [NEG_INF, ProjPoint(-2), ProjPoint(0), ProjPoint(3), POS_INF]
    sets = [ConvexSet.empty()]
    sets += [ConvexSet.point(p) for p in points]
    sets += [
        ConvexSet.interval(p, q)
        for i, p in enumerate(points)
        for q in points[i + 1:]
    ]
    pairs = existing = 0
    for m in sets:
        for n in sets:
            pairs += 1
            e = idempotent_in_H(m, n)
            if m.is_point and n.is_point:
                expected = {m.lo, n.lo} != {NEG_INF, POS_INF}
            else:
                expected = m == n.negated() and not n.is_point
            assert (e is not None) == expected, (m, n)
            if e is not None:
                existing += 1
                assert e @ e == e, (m, n, e)
                assert proj_column_space(e) == m, (m, n, e)
                assert proj_row_space(e) == n, (m, n, e)
    report(
        7,
        "H-class idempotent criterion",
        f"{pairs} (M,N) pairs, {existing} idempotents, all verified",
    )


def test_criterion_8_ideal_order():
    rng = random.Random(SEED)
    n = 1000
    flips = {
        Ordering.LESS: Ordering.GREATER,
        Ordering.GREATER: Ordering.LESS,
        Ordering.EQUAL: Ordering.EQUAL,
    }
    for _ in range(n):
        d1 = sample_descriptor(rng)
        d2 = sample_descriptor(rng)
        d3 = sample_descriptor(rng)
        order = ideal_compare(d1, d2)
        assert ideal_compare(d2, d1) == flips[order]
        if ideal_compare(d1, d2) is not Ordering.GREATER and (
            ideal_compare(d2, d3) is not Ordering.GREATER
        ):
            assert ideal_compare(d1, d3) is not Ordering.GREATER
        if order is Ordering.EQUAL:
            assert d1 == d2
        else:
            lo, hi = (d1, d2) if order is Ordering.LESS else (d2, d1)
            probe = sample_matrix(rng, "with-neginf")
            if ideal_contains(lo, probe):
                assert ideal_contains(hi, probe)
            assert any(
                ideal_contains(hi, matrix_with_iso_type(iso_type(s)))
                and not ideal_contains(lo, matrix_with_iso_type(iso_type(s)))
                for s in _strictness_candidates(lo, hi)
            ), (lo, hi)
        gens = [sample_matrix(rng, "with-neginf") for _ in range(rng.randrange(1, 5))]
        generated = ideal_from_generators(gens)
        best = max((principal_ideal_of(g) for g in gens), key=lambda d: d.key())
        assert generated == best
    report(8, "ideal total order", f"{n} descriptor pairs, monotone + strict")


def _strictness_candidates(lo, hi):
    widths = {Fraction(1)}
    for d in (lo, hi):
        if d.kind == "open":
            widths.update({d.width, d.width / 2})
        elif d.kind == "closed" and d.iso.kind == "interval":
            widths.update({d.iso.diameter, d.iso.diameter / 2, d.iso.diameter + 1})
    if lo.kind == "open" and hi.kind == "open":
        widths.add((lo.width + hi.width) / 2)
    if lo.kind == "closed" and lo.iso.kind == "interval" and hi.kind == "open":
        widths.add((lo.iso.diameter + hi.width) / 2)
    out = [ConvexSet.empty(), ConvexSet.point(0)]
    out += [ConvexSet.interval(0, w) for w in sorted(widths)]
    out += [ConvexSet.interval(NEG_INF, 0), ConvexSet.full_line()]
    return out


def test_criterion_9_witness_constructions():
    rng = random.Random(SEED)
    n = 1000
    kinds = set()
    for _ in range(n):
        m, nset = sample_isometric_pair(rng)
        z = witness_Z(m, nset)
        assert proj_column_space(z) == m, (m, nset, z)
        assert proj_row_space(z) == nset, (m, nset, z)
        kinds.add(iso_type(m).kind)
    assert kinds == {"empty", "point", "interval", "halfinf", "fullline"}
    report(9, "witness constructions", f"{n} isometric pairs over all 5 type cases")


def test_named_verification_suites_all_green():
    """The CLI-facing suites replay the same invariants; none may fail."""
    for name in sorted(SUITES):
        result = run_suite(name, 500, SEED)
        assert result.failed == 0, (name, result.failures)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_passing_suite_prints_no_matrix(monkeypatch, suite):
    # a failure message prints the sampled matrices; a sample that passes
    # builds no message, so a clean run never prints one
    printed = []
    to_text = TropMatrix.__str__
    monkeypatch.setattr(TropMatrix, "__str__", lambda m: printed.append(m) or to_text(m))
    result = run_suite(suite, 50, SEED)
    assert result.failed == 0 and printed == []


def _shifted_subgroup_element(kind, a, *rest):
    return subgroup_element(kind, a + 1, *rest)


# One decision of each suite broken in the suite's own namespace, with the
# exact tally of run_suite(name, 40, 3): the failure messages print the
# sampled matrices and descriptors, so the digest of the five kept messages
# pins each suite's stream, and every suite shows that it can fail.
BROKEN_DECISIONS = [
    ("duality", "isometric", lambda *args: False, 0, 40,
     "a470fce710aec2421a95ece0256e3e324b444d77a921a2ed17cb1e01e46db19c"),
    ("d-equals-j", "leq_J", lambda *args: False, 31, 9,
     "23f596af388600a9ee7a59dbfb22c1179fff142f7c80adc38b306a30148f80d7"),
    ("regularity", "regular_witness", lambda a: TropMatrix.zero(2), 9, 31,
     "7152a7c04798b62863674dde2d4ddfc30de2e77d97b53facc085467d41bc82d7"),
    ("idempotent-grid", "in_idempotent_family", lambda *args: False, 1233, 63,
     "78af8204a245f8961321253df7f4a07e91476f9ca33045e45afe10ad290279b5"),
    ("group-laws", "subgroup_element", _shifted_subgroup_element, 0, 40,
     "5df95de9e5be994fcd8a197d0cd7f6f349a822d8cf8d739cc042504e26c006b2"),
    ("oracle-agreement", "solves_right", lambda *args: False, 28, 12,
     "b2a5551e85d2f26e861074ccef305ca6288145c939f91469a8327479417cd66f"),
    ("ideal-order", "ideal_contains", lambda *args: True, 2, 38,
     "30c94cfe0ce8446ddde5d05c720e0af84d75855f7d2d0bf2cb78b9aede7b6c70"),
]


@pytest.mark.parametrize(
    "suite, name, fake, passed, failed, failures_sha256",
    BROKEN_DECISIONS,
    ids=[row[0] for row in BROKEN_DECISIONS],
)
def test_each_suite_fails_on_a_broken_decision(
    monkeypatch, suite, name, fake, passed, failed, failures_sha256
):
    monkeypatch.setattr(verify_mod, name, fake)
    result = run_suite(suite, 40, 3)
    digest = hashlib.sha256("\n".join(result.failures).encode()).hexdigest()
    assert (result.passed, result.failed, len(result.failures)) == (passed, failed, 5)
    assert digest == failures_sha256


def test_the_regularity_suite_reports_a_raising_witness_with_its_matrix(monkeypatch):
    seen = []

    def defect(a):
        seen.append(a)
        raise VerificationError("regularity witness defect")

    monkeypatch.setattr(verify_mod, "regular_witness", defect)
    result = run_suite("regularity", 5, 3)
    assert (result.passed, result.failed, len(seen)) == (0, 5, 5)
    assert result.failures == tuple(f"regularity witness defect for {a}" for a in seen)


def test_suites_pinned_failures_and_readme_agree():
    # a new suite arrives with its pinned broken decision and its README entry
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"Suites:(.*?)\.", readme, flags=re.S).group(1)
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(SUITES)
    assert sorted(row[0] for row in BROKEN_DECISIONS) == sorted(SUITES)
