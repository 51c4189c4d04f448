"""Green's preorders and equivalences on 2x2 tropical matrices.

The right preorder (divisibility ``A = B @ X``) is equivalent to containment
of projective column spaces, the left preorder to containment of row spaces,
and the two-sided preorder to isometric embedding of column spaces.  The
relations D and J coincide and hold exactly when the column spaces are
isometric; the constructive content of that collapse is ``witness_Z``, which
builds a matrix with a prescribed (isometric) column-space / row-space pair,
and ``j_factorization``, which materializes X, Y with ``X @ B @ Y = A``
whenever A is J-below B.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .geometry import (
    ConvexSet,
    embed_image,
    embeds_isometrically,
    isometric,
    iso_type,
    proj_column_space,
    proj_row_space,
    subset,
)
from .matrix import TropMatrix, VerificationError, left_residual, right_residual
from .semiring import _ZERO, ProjPoint, _mul, _quote


class GreenRelation(enum.Enum):
    """The five Green's equivalences and the three associated preorders."""

    R = "R"
    L = "L"
    H = "H"
    D = "D"
    J = "J"
    LEQ_R = "leqR"
    LEQ_L = "leqL"
    LEQ_J = "leqJ"

    @classmethod
    def from_token(cls, token: str) -> "GreenRelation":
        for member in cls:
            if member.value == token:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown relation {_quote(token)}: expected one of {valid}")


@dataclass(frozen=True)
class RClass:
    """Canonical descriptor of an R-class.

    The eight kinds mirror the eight shapes a projective column space can
    take: nothing, a point (at -inf, finite, or at +inf), a half-infinite
    interval bounded above or below, a finite interval, or the whole line.
    Parameters are the finite endpoints.
    """

    kind: str
    x: Fraction | None = None
    y: Fraction | None = None

    _KINDS = (
        "zero",
        "point-neginf",
        "point",
        "point-posinf",
        "half-low",
        "interval",
        "half-high",
        "fullline",
    )

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown R-class kind {self.kind!r}")

    def params(self) -> dict[str, str]:
        out = {}
        if self.x is not None:
            out["x"] = str(self.x)
        if self.y is not None:
            out["y"] = str(self.y)
        return out


def leq_R(a: TropMatrix, b: TropMatrix) -> bool:
    """Right divisibility a = b x, decided as containment of projective
    column spaces."""
    return subset(proj_column_space(a), proj_column_space(b))


def leq_L(a: TropMatrix, b: TropMatrix) -> bool:
    """Left divisibility a = x b, decided as containment of projective row
    spaces."""
    return subset(proj_row_space(a), proj_row_space(b))


def leq_J(a: TropMatrix, b: TropMatrix) -> bool:
    """Two-sided divisibility a = x b y, decided as isometric embedding of
    projective column spaces."""
    return embeds_isometrically(proj_column_space(a), proj_column_space(b))


def related(rel: GreenRelation, a: TropMatrix, b: TropMatrix) -> bool:
    """Decide any of the Green's relations or preorders for a 2x2 pair."""
    if rel is GreenRelation.R:
        return proj_column_space(a) == proj_column_space(b)
    if rel is GreenRelation.L:
        return proj_row_space(a) == proj_row_space(b)
    if rel is GreenRelation.H:
        return proj_column_space(a) == proj_column_space(b) and proj_row_space(
            a
        ) == proj_row_space(b)
    if rel in (GreenRelation.D, GreenRelation.J):
        return isometric(proj_column_space(a), proj_column_space(b))
    if rel is GreenRelation.LEQ_R:
        return leq_R(a, b)
    if rel is GreenRelation.LEQ_L:
        return leq_L(a, b)
    return leq_J(a, b)


def r_class_of(a: TropMatrix) -> RClass:
    """The canonical R-class descriptor of a 2x2 matrix, read off its
    projective column space."""
    pc = proj_column_space(a)
    if pc.is_empty:
        return RClass("zero")
    if pc.is_point:
        p = pc.lo
        if p.is_neg_inf:
            return RClass("point-neginf")
        if p.is_pos_inf:
            return RClass("point-posinf")
        return RClass("point", y=p.frac)
    lo, hi = pc.lo, pc.hi
    if lo.is_neg_inf and hi.is_pos_inf:
        return RClass("fullline")
    if lo.is_neg_inf:
        return RClass("half-low", y=hi.frac)
    if hi.is_pos_inf:
        return RClass("half-high", y=lo.frac)
    return RClass("interval", x=lo.frac, y=hi.frac)


def _singleton_witness(x: ProjPoint, y: ProjPoint) -> TropMatrix:
    """A matrix with column space {x} and row space {y}: the nilpotent one
    for the mixed pair {-inf, +inf}, otherwise the idempotent of the upper
    family when x + y <= 0 and of the lower family when it is positive."""
    if x.is_pos_inf and y.is_neg_inf:
        return TropMatrix._of(((None, None), (_ZERO, None)))
    if x.is_neg_inf and y.is_pos_inf:
        return TropMatrix._of(((None, _ZERO), (None, None)))
    if not x.is_pos_inf and not y.is_pos_inf:
        xy = _mul(x.frac, y.frac)
        if xy is None or xy <= 0:
            return TropMatrix._of(((_ZERO, y.frac), (x.frac, xy)))
    # both exceed -inf and the sum is positive (or infinite): negating lands
    # both back in the plain carrier
    nx, ny = (-x).frac, (-y).frac
    return TropMatrix._of(((_mul(nx, ny), nx), (ny, _ZERO)))


def witness_Z(m: ConvexSet, n: ConvexSet) -> TropMatrix:
    """A matrix whose projective column space is m and row space is n.

    Such a matrix exists exactly when m and n are isometric; non-isometric
    pairs are rejected.  The construction is by cases on the isometry type
    and is deterministic; its output is re-verified before returning.
    """
    if not isometric(m, n):
        raise ValueError(f"no matrix has column space {m} and row space {n}: not isometric")
    t = iso_type(m)
    if t.kind == "empty":
        z = TropMatrix.zero(2)
    elif t.kind == "fullline":
        z = TropMatrix.identity(2)
    elif t.kind == "point":
        z = _singleton_witness(m.lo, n.lo)
    elif t.kind == "interval":
        x, y = m.lo.frac, m.hi.frac
        w = n.lo.frac
        z = TropMatrix._of(((_ZERO, w), (x, w + y)))
    else:  # one infinite endpoint on each side
        if m.lo.is_neg_inf:
            y = m.hi.frac
            if n.lo.is_neg_inf:
                z = TropMatrix._of(((_ZERO, n.hi.frac), (y, None)))
            else:
                x = n.lo.frac
                z = TropMatrix._of(((_ZERO, x), (None, x + y)))
        else:
            y = m.lo.frac
            if n.hi.is_pos_inf:
                zv = n.lo.frac
                z = TropMatrix._of(((None, zv - y), (_ZERO, zv)))
            else:
                zv = n.hi.frac
                z = TropMatrix._of(((_ZERO, None), (y, y + zv)))
    if proj_column_space(z) != m or proj_row_space(z) != n:
        raise VerificationError(f"witness construction defect for ({m}, {n})")
    return z


def d_class_witness(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """For a D-related pair, a matrix Z with the column space of b and the
    row space of a (the connecting element of the D-chain b R Z L a)."""
    if not related(GreenRelation.D, a, b):
        raise ValueError("matrices are not D-related")
    return witness_Z(proj_column_space(b), proj_row_space(a))


def j_factorization(a: TropMatrix, b: TropMatrix) -> tuple[TropMatrix, TropMatrix]:
    """Matrices (x, y) with ``x @ b @ y = a``, whenever a is J-below b.

    Constructed by embedding a's column space isometrically inside b's,
    building the connecting matrix for that image, and solving the two
    one-sided divisibilities by residuation.  The factorization is verified
    exactly before returning.
    """
    if not leq_J(a, b):
        raise ValueError("left operand is not J-below the right operand")
    image = embed_image(proj_column_space(a), proj_column_space(b))
    z = witness_Z(image, proj_row_space(a))
    y = left_residual(b, z).witness()
    if b @ y != z:
        raise VerificationError("residuation defect: z must be right-divisible by b")
    x = right_residual(a, z).witness()
    if x @ z != a:
        raise VerificationError("residuation defect: a must be left-divisible by z")
    if x @ b @ y != a:
        raise VerificationError("j-factorization defect: x @ b @ y differs from a")
    return x, y
