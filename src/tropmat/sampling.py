"""Seeded deterministic sampling of matrices, sets, and ideal descriptors.

All streams are driven by ``random.Random`` (Mersenne Twister), so a given
seed reproduces the same objects on every platform; the verification
suites and the acceptance tests both consume these generators.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .geometry import ConvexSet, iso_type
from .ideals import IdealDescriptor
from .matrix import TropMatrix, _stored
from .semiring import NEG_INF, POS_INF, ProjPoint, _quote

RNG_ALGORITHM = "mt19937"

PROFILES = ("dense-rational", "with-neginf", "boundary")

_BOUNDARY_GRID = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-24, 25), rng.randrange(1, 5))


def _draw(rng: random.Random, profile: str) -> Fraction | None:
    """One entry's value under a profile, None for ``-inf``: the draw rule
    behind ``sample_matrix``."""
    if profile == "dense-rational":
        return _random_rational(rng)
    if profile == "with-neginf":
        if rng.randrange(4) == 0:
            return None
        return _random_rational(rng)
    if profile == "boundary":
        if rng.randrange(3) == 0:
            return None
        return rng.choice(_BOUNDARY_GRID)
    raise ValueError(f"unknown profile {_quote(profile)}: expected one of {PROFILES}")


def sample_matrix(rng: random.Random, profile: str) -> TropMatrix:
    # four draws, row by row: the order every seeded stream depends on
    return TropMatrix._over(*_stored([_draw(rng, profile) for _ in range(4)]), True)


def sample_proj_point(rng: random.Random) -> ProjPoint:
    roll = rng.randrange(6)
    if roll == 0:
        return NEG_INF
    if roll == 1:
        return POS_INF
    return ProjPoint(_random_rational(rng))


def sample_convex_set(rng: random.Random) -> ConvexSet:
    roll = rng.randrange(10)
    if roll == 0:
        return ConvexSet.empty()
    if roll <= 3:
        return ConvexSet.point(sample_proj_point(rng))
    p, q = sample_proj_point(rng), sample_proj_point(rng)
    while q == p:
        q = sample_proj_point(rng)
    return ConvexSet.interval(p, q)


def sample_isometric_pair(rng: random.Random) -> tuple[ConvexSet, ConvexSet]:
    """A random closed convex set together with a random isometric partner."""
    s = sample_convex_set(rng)
    if s.is_empty:
        return s, ConvexSet.empty()
    if s.is_point:
        return s, ConvexSet.point(sample_proj_point(rng))
    lo, hi = s.lo, s.hi
    if lo == NEG_INF and hi == POS_INF:
        return s, ConvexSet.full_line()
    if lo.is_finite and hi.is_finite:
        shift = _random_rational(rng)
        d = hi.frac - lo.frac
        return s, ConvexSet(shift, shift + d)
    end = _random_rational(rng)
    if rng.randrange(2) == 0:
        return s, ConvexSet(NEG_INF, end)
    return s, ConvexSet(end, POS_INF)


def sample_descriptor(rng: random.Random) -> IdealDescriptor:
    roll = rng.randrange(8)
    if roll == 0:
        return IdealDescriptor.open_line()
    if roll <= 2:
        w = abs(_random_rational(rng)) + Fraction(1, 3)
        return IdealDescriptor.open_finite(w)
    return IdealDescriptor.closed(iso_type(sample_convex_set(rng)))
