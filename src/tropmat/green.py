"""Green's preorders and equivalences on 2x2 tropical matrices.

The right preorder (divisibility ``A = B @ X``) is equivalent to containment
of projective column spaces, the left preorder to containment of row spaces,
and the two-sided preorder to isometric embedding of column spaces.  The
relations D and J coincide and hold exactly when the column spaces are
isometric; the constructive content of that collapse is ``witness_Z``, which
builds a matrix with a prescribed (isometric) column-space / row-space pair,
and ``j_factorization``, which materializes X, Y with ``X @ B @ Y = A``
whenever A is J-below B.  ``witness_Z`` and ``_family``, the one builder of
the upper, diagonal and lower idempotents, compute on int numerators over
one denominator and build no Fraction.
"""

from __future__ import annotations

from math import lcm

from .geometry import (
    ConvexSet,
    _Enum,
    _ends,
    _iso_key,
    embed_image,
    embeds_isometrically,
    isometric,
    proj_column_space,
    proj_row_space,
    subset,
)
from .matrix import TropMatrix, VerificationError, _product, left_residual, right_residual
from .semiring import _cut, _quote


class GreenRelation(_Enum):
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
    def _missing_(cls, token):
        # ``GreenRelation(token)`` found no member: name the valid tokens
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown relation {_quote(token)}: expected one of {valid}")


# ``related`` compares with these: a lookup on the enum class is slow on 3.11
_R, _L, _H, _, _, _LEQ_R, _LEQ_L, _LEQ_J = GreenRelation


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
    """Decide any of the Green's relations or preorders for a 2x2 pair, by
    one set rule on the spaces the matrices store (computed on a miss)."""
    if type(rel) is not GreenRelation:  # no hash, so an unhashable value is refused too
        raise TypeError(f"unknown relation {_quote(rel)}: expected a GreenRelation")
    if rel is _L or rel is _LEQ_L:
        s, t = a._pr or proj_row_space(a), b._pr or proj_row_space(b)
        return s == t if rel is _L else subset(s, t)
    s, t = a._pc or proj_column_space(a), b._pc or proj_column_space(b)
    if rel is _R:
        return s == t
    if rel is _LEQ_R:
        return subset(s, t)
    if rel is _LEQ_J:
        return embeds_isometrically(s, t)
    if rel is _H:
        return s == t and (a._pr or proj_row_space(a)) == (b._pr or proj_row_space(b))
    return isometric(s, t)  # D and J


def _family(kind: str, x, y, den: int) -> TropMatrix:
    """The idempotent of the upper, diagonal or lower family with parameters
    x and y, numerators over den (None for ``-inf``): ``[[0, x], [y, x+y]]``,
    ``[[0, x], [y, 0]]`` or ``[[x+y, x], [y, 0]]``."""
    if kind == "diagonal":
        return TropMatrix._over((0, x, y, 0), den)
    xy = None if x is None or y is None else x + y
    return TropMatrix._over((0, x, y, xy) if kind == "upper" else (xy, x, y, 0), den)


def _singleton_witness(x: tuple, y: tuple, den: int) -> TropMatrix:
    """A matrix with column space {x} and row space {y}, given as keys over
    den: the nilpotent one for the mixed pair {-inf, +inf}, otherwise the
    idempotent of the upper family with parameters (y, x) when x + y <= 0,
    and of the lower family with parameters (-x, -y) when it is positive."""
    (kx, x), (ky, y) = x, y
    if kx and kx == -ky:
        return TropMatrix._over((None, None, 0, None) if kx == 1 else (None, 0, None, None), 1)
    if kx != 1 and ky != 1 and (x is None or y is None or x + y <= 0):
        return _family("upper", y, x, den)
    # both exceed -inf and the sum is positive (or infinite): negating lands
    # both back in the plain carrier, a +inf (numerator None) on -inf
    return _family("lower", None if x is None else -x, None if y is None else -y, den)


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
    rank = _iso_key(m)[0]
    if rank == 0:
        z = TropMatrix.zero(2)
    elif rank == 4:
        z = TropMatrix.identity(2)
    else:
        # the cases' formulas on the endpoint numerators over one denominator
        den = lcm(m._den, n._den)
        (ka, a), (_, b) = _ends(m, den)
        (kc, c), (kd, d) = _ends(n, den)
        if rank == 1:
            z = _singleton_witness((ka, a), (kc, c), den)
        elif rank == 2:
            z = TropMatrix._over((0, c, a, c + b), den)
        elif ka:  # m = [-inf, b]; one infinite endpoint on each side
            z = TropMatrix._over((0, d, b, None) if kc else (0, c, None, c + b), den)
        else:  # m = [a, +inf]
            z = TropMatrix._over((None, c - a, 0, c) if kd else (0, None, a, a + d), den)
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
    exactly before returning, each product compared as a store.
    """
    if not leq_J(a, b):
        raise ValueError("left operand is not J-below the right operand")
    image = embed_image(proj_column_space(a), proj_column_space(b))
    z = witness_Z(image, proj_row_space(a))
    y = left_residual(b, z).witness()
    if _product(b._e, b._den, y._e, y._den) != (z._e, z._den):
        raise VerificationError("residuation defect: z must be right-divisible by b")
    x = right_residual(a, z).witness()
    if _product(x._e, x._den, z._e, z._den) != (a._e, a._den):
        raise VerificationError("residuation defect: a must be left-divisible by z")
    nums, den = _product(x._e, x._den, b._e, b._den)
    if _product(nums, den, y._e, y._den) != (a._e, a._den):
        raise VerificationError("j-factorization defect: x @ b @ y differs from a")
    return x, y
