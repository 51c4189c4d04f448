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
from .semiring import _ZERO, ProjPoint, _cut, _mul, _quote


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


# ``related`` compares with these: a lookup on the enum class is slow on 3.11
_R, _L, _H, _D, _J, _LEQ_R, _LEQ_L, _LEQ_J = GreenRelation


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
    if rel is _R:
        return proj_column_space(a) == proj_column_space(b)
    if rel is _L:
        return proj_row_space(a) == proj_row_space(b)
    if rel is _H:
        return proj_column_space(a) == proj_column_space(b) and proj_row_space(
            a
        ) == proj_row_space(b)
    if rel is _D or rel is _J:
        return isometric(proj_column_space(a), proj_column_space(b))
    if rel is _LEQ_R:
        return leq_R(a, b)
    if rel is _LEQ_L:
        return leq_L(a, b)
    return leq_J(a, b)


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
        raise ValueError(
            f"no matrix has column space {_cut(m)} and row space {_cut(n)}: not isometric"
        )
    return _witness_Z(m, n)


def _witness_Z(m: ConvexSet, n: ConvexSet) -> TropMatrix:
    """The construction of ``witness_Z`` for an isometric pair (m, n), by
    cases on the isometry type, checked before returning."""
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
        raise VerificationError(f"witness construction defect for ({_cut(m)}, {_cut(n)})")
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
