"""Seeded verification suites for the structure theorems.

Each suite replays one of the theorem-backed invariants on a deterministic
sample stream and counts successes; a nonzero failure count means a defect
in the library, never an expected outcome.  A suite is only its per-sample
check in ``SUITES``; ``run_suite`` is the one driver that seeds the stream
and tallies the checks.  The suites back both the ``verify`` CLI subcommand
and the acceptance tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .geometry import (
    IsoType,
    _Record,
    canonical_set,
    isometric,
    proj_column_space,
    proj_row_space,
)
from .green import GreenRelation, d_class_witness, leq_J, leq_L, leq_R, related, witness_Z
from .ideals import (
    IdealDescriptor,
    Ordering,
    ideal_compare,
    ideal_contains,
    ideal_from_generators,
    principal_ideal_of,
)
from .matrix import TropMatrix, solves_right
from .sampling import (
    PROFILES,
    RNG_ALGORITHM,
    sample_descriptor,
    sample_matrix,
)
from .semiring import _quote
from .structure import (
    in_idempotent_family,
    regular_witness,
    subgroup_element,
)


class SuiteResult(_Record):
    """The tally of one suite run: its sample count, the passed and failed
    counts, which sum to it, and the first five failure messages."""

    __slots__ = ("suite", "samples", "seed", "rng", "passed", "failed", "failures")


def matrix_with_iso_type(t: IsoType) -> TropMatrix:
    """A concrete matrix whose projective column space has the given type."""
    s = canonical_set(t)
    return witness_Z(s, s)


def _duality(rng: random.Random, i: int) -> str | None:
    a = sample_matrix(rng, "with-neginf")
    if not isometric(proj_column_space(a), proj_row_space(a)):
        return f"column/row spaces of {a} are not isometric"


def _d_equals_j(rng: random.Random, i: int) -> str | None:
    a = sample_matrix(rng, "with-neginf")
    b = sample_matrix(rng, "with-neginf")
    d_rel = related(GreenRelation.D, a, b)
    j_rel = related(GreenRelation.J, a, b)
    mutual = leq_J(a, b) and leq_J(b, a)
    ok = d_rel == j_rel == mutual
    if j_rel and ok:
        z = d_class_witness(a, b)
        ok = (
            proj_column_space(z) == proj_column_space(b)
            and proj_row_space(z) == proj_row_space(a)
        )
    if not ok:
        return f"D/J disagreement or bad witness for {a}, {b}"


def _zero_row(a: TropMatrix, i: int) -> TropMatrix:
    p, q, r, s = a._e
    return TropMatrix._over((None, None, r, s) if i == 0 else (p, q, None, None), a._den)


def _regularity(rng: random.Random, i: int) -> str | None:
    a = sample_matrix(rng, PROFILES[i % len(PROFILES)])
    roll = rng.randrange(8)
    if roll == 0:
        a = TropMatrix.zero(2)
    elif roll == 1:
        a = _zero_row(a, rng.randrange(2))
    elif roll == 2:
        a = _zero_row(a.transpose(), rng.randrange(2)).transpose()
    try:
        y = regular_witness(a)
    except AssertionError as exc:
        return f"{exc} for {a}"
    if a @ y @ a != a:
        return f"witness failed to regularize {a}"


_GRID = (None, -2, -1, 0, 1, 2)  # -inf and the integers -2..2
_GRID_SAMPLES = len(_GRID) ** 4  # idempotent-grid runs all 1,296 matrices
_MAX_SAMPLES = 1_000_000  # a run of the slowest suite, ideal-order, takes minutes


def _idempotent_grid(rng: random.Random, i: int) -> str | None:
    # the i-th matrix in itertools.product(_GRID, repeat=4) order
    p, q, r, s = [_GRID[i // 6**k % 6] for k in (3, 2, 1, 0)]
    m = TropMatrix._over((p, q, r, s), 1, True)  # ints over 1 are in lowest terms
    if (m @ m == m) != in_idempotent_family(m):
        return f"brute-force and family classification disagree on {m}"


def _group_laws(rng: random.Random, i: int) -> str | None:
    a = Fraction(rng.randrange(-20, 21), rng.randrange(1, 4))
    b = Fraction(rng.randrange(-20, 21), rng.randrange(1, 4))
    x = Fraction(rng.randrange(-12, 13), rng.randrange(1, 4))
    y = x + Fraction(rng.randrange(1, 13), rng.randrange(1, 4))
    w_law = subgroup_element("W", a) @ subgroup_element("W", b) == subgroup_element("W", a + b)
    xa, xb = subgroup_element("X", a, x, y), subgroup_element("X", b, x, y)
    ya, yb = subgroup_element("Y", a, x, y), subgroup_element("Y", b, x, y)
    x_law = xa @ xb == subgroup_element("X", a + b, x, y)
    xy_law = (
        xa @ yb == subgroup_element("Y", a + b, x, y)
        and yb @ xa == subgroup_element("Y", a + b, x, y)
    )
    yy_law = ya @ yb == subgroup_element("X", a + b + (y - x), x, y)
    z_law = subgroup_element("Z", a, x) @ subgroup_element("Z", b, x) == (
        subgroup_element("Z", a + b, x)
    )
    flip = subgroup_element("Y", (x - y) / 2, x, y)
    involution = flip @ flip == subgroup_element("X", 0, x, y)
    if not (w_law and x_law and xy_law and yy_law and z_law and involution):
        return f"group law failure for a={a}, b={b}, interval [{x},{y}]"


def _oracle_agreement(rng: random.Random, i: int) -> str | None:
    a = sample_matrix(rng, "with-neginf")
    b = sample_matrix(rng, "with-neginf")
    right_ok = leq_R(a, b) == solves_right(b, a)
    left_ok = leq_L(a, b) == solves_right(b.transpose(), a.transpose())
    if not (right_ok and left_ok):
        return f"geometric and residuation answers disagree for {a}, {b}"


def _strict_type(lo: IdealDescriptor, hi: IdealDescriptor) -> IsoType:
    """An isometry type in the ideal of hi and not in that of lo, given lo < hi.

    A closed hi holds its own type, which no smaller ideal holds.  Otherwise
    the witness is an interval wider than m, the width or interval diameter
    of lo (0 for the other kinds), and narrower than hi's width, if any.
    """
    if hi.kind == "closed":
        return hi.iso
    m = lo.key()[1]  # the middle of a descriptor key is exactly that m
    return IsoType("interval", (m + hi.width) / 2 if hi.kind == "open" else m + 1)


_FLIPS = {
    Ordering.LESS: Ordering.GREATER,
    Ordering.GREATER: Ordering.LESS,
    Ordering.EQUAL: Ordering.EQUAL,
}


def _ideal_order(rng: random.Random, i: int) -> str | None:
    d1 = sample_descriptor(rng)
    d2 = sample_descriptor(rng)
    cmp12 = ideal_compare(d1, d2)
    cmp21 = ideal_compare(d2, d1)
    ok = cmp21 == _FLIPS[cmp12]
    if cmp12 == Ordering.EQUAL:
        ok = ok and d1 == d2
    else:
        lo, hi = (d1, d2) if cmp12 == Ordering.LESS else (d2, d1)
        strict = matrix_with_iso_type(_strict_type(lo, hi))
        ok = ok and ideal_contains(hi, strict) and not ideal_contains(lo, strict)
        probe = sample_matrix(rng, "with-neginf")
        if ideal_contains(lo, probe):
            ok = ok and ideal_contains(hi, probe)
    gens = [sample_matrix(rng, "with-neginf") for _ in range(rng.randrange(1, 4))]
    generated = ideal_from_generators(gens)
    best = max((principal_ideal_of(g) for g in gens), key=lambda d: d.key())
    ok = ok and generated == best
    ok = ok and all(ideal_contains(generated, g) for g in gens)
    alt = sample_descriptor(rng)
    if ideal_compare(alt, generated) == Ordering.LESS:
        ok = ok and not all(ideal_contains(alt, g) for g in gens)
    if not ok:
        return f"ideal order inconsistency for {d1}, {d2}"


SUITES = {
    "duality": _duality,
    "d-equals-j": _d_equals_j,
    "regularity": _regularity,
    "idempotent-grid": _idempotent_grid,
    "group-laws": _group_laws,
    "oracle-agreement": _oracle_agreement,
    "ideal-order": _ideal_order,
}


def run_suite(name: str, samples: int, seed: int) -> SuiteResult:
    """Run ``SUITES[name]`` on indices 0..samples-1 of one stream seeded by
    seed: each check returns None for a pass and its failure message for a
    failure.  ``idempotent-grid`` is exhaustive; it ignores samples in range."""
    if name not in SUITES:
        valid = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {_quote(name)}: expected one of {valid}")
    if samples <= 0:
        raise ValueError("samples must be positive")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"samples must be at most {_MAX_SAMPLES:,}")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if name == "idempotent-grid":
        samples = _GRID_SAMPLES
    sample, rng = SUITES[name], random.Random(seed)
    failed, failures = 0, []
    for i in range(samples):
        message = sample(rng, i)
        if message is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(message)
    return SuiteResult(
        name, samples, seed, RNG_ALGORITHM, samples - failed, failed, tuple(failures)
    )
