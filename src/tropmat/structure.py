"""Idempotents, regularity witnesses, and maximal subgroups of 2x2 tropical
matrices.

Every 2x2 idempotent falls into one of four parametrized families (upper,
diagonal, lower, zero), each constrained by a nonpositive tropical product
of its off-diagonal parameters.  An H-class indexed by a column-space /
row-space pair (M, N) contains an idempotent iff M and N are mutually
negated singletons-or-intervals in the precise sense of ``_has_idempotent``;
those H-classes are the maximal subgroups, and their abstract type depends
only on the shape of M: trivial, the reals, the reals times the order-2
group, or the reals wreath the order-2 group.  The idempotent of such a
class is the matrix ``green.witness_Z`` builds for (M, N).
``IdempotentForm`` names a family and its parameters, refusing a form
outside its family; ``green._family`` builds its matrix, and a matrix is in
a family exactly when the form read off its entries rebuilds it.
"""

from __future__ import annotations

from math import lcm

from .geometry import _ISO_KINDS, ConvexSet, _Enum, _iso_key, _Record
from .green import _family, _witness_Z
from .matrix import TropMatrix, VerificationError, _product, _stored, left_residual, right_residual
from .semiring import TropScalar, _cut, _quote, _scalar_ratio


class IdempotentForm(_Record):
    """One of the four idempotent families, with its parameters.

    upper:    [[0, x], [y, x*y]]      diagonal: [[0, x], [y, 0]]
    lower:    [[x*y, x], [y, 0]]      zero:     all -inf
    (tropical product x*y = x + y, constrained <= 0).  The parameters are
    stored as ``TropScalar``s, and a form outside its family is refused.
    """

    __slots__ = ("kind", "x", "y")

    def __init__(self, kind: str, x: TropScalar | None = None, y: TropScalar | None = None):
        if kind not in ("zero", "diagonal", "upper", "lower"):
            raise ValueError(f"unknown idempotent family {_quote(kind)}")
        if kind == "zero":
            if x is not None or y is not None:
                raise ValueError(f"the zero family has no parameters, got x={_cut(x)}, y={_cut(y)}")
        elif x is None or y is None:
            raise ValueError(f"the {kind} family needs both parameters x and y")
        else:
            x, y = TropScalar(x), TropScalar(y)
            fx, fy = x._k[1], y._k[1]
            if fx is not None and fy is not None and fx + fy > 0:
                raise ValueError(f"the {kind} family needs x*y <= 0, got x={_cut(x)}, y={_cut(y)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def matrix(self) -> TropMatrix:
        if self.kind == "zero":
            return TropMatrix.zero(2)
        (x, y), den = _stored((self.x.frac, self.y.frac))
        return _family(self.kind, x, y, den)

    def params(self) -> dict[str, str]:
        if self.kind == "zero":
            return {}
        return {"x": str(self.x), "y": str(self.y)}


class GroupType(_Enum):
    """Abstract isomorphism type of a maximal subgroup."""

    TRIVIAL = "trivial"
    REALS = "reals"
    REALS_TIMES_S2 = "reals-x-s2"
    REALS_WREATH_S2 = "reals-wr-s2"


def _family_form(a: TropMatrix) -> IdempotentForm | None:
    """The form of the idempotent family a belongs to, read off its stored
    entries with the priority of ``idempotent_form``; None outside them."""
    if a.is_zero:
        return IdempotentForm("zero")
    p, q, r, s = a._e
    if q is not None and r is not None and q + r > 0:
        return None
    kind = ("diagonal" if s == 0 else "upper") if p == 0 else "lower"
    if _family(kind, q, r, a._den) != a:
        return None
    return IdempotentForm(kind, a[0, 1], a[1, 0])


def in_idempotent_family(a: TropMatrix) -> bool:
    """Shape-based membership test for the four idempotent families, the
    classification side of the exhaustive idempotent check: no product."""
    return _family_form(a) is not None


def idempotent_form(e: TropMatrix) -> IdempotentForm:
    """Classify an idempotent into its family, with fixed priority zero,
    diagonal, upper, lower when parameters land on an overlap.  Family
    members are idempotent, so only a matrix in no family is squared."""
    form = _family_form(e)
    if form is None:
        if e @ e != e:
            raise ValueError("matrix is not idempotent")
        raise VerificationError(f"the idempotent {_cut(e)} is in no family")
    return form


def _has_idempotent(m: ConvexSet, n: ConvexSet) -> bool:
    """Whether the H-class with column space m and row space n contains an
    idempotent: exactly when (i) m = {x} and n = {y} are singletons with
    {x, y} not the mixed pair {-inf, +inf}, or (ii) m is the pointwise
    negation of n and n is not a singleton.  Both clauses imply that m and
    n are isometric."""
    if m.is_point and n.is_point:
        kx = m._lo[0]  # the kinds of x and y: -1, 0 or 1 for -inf, finite, +inf
        return not kx or kx != -n._lo[0]
    return not n.is_point and m == n.negated()


def idempotent_in_H(m: ConvexSet, n: ConvexSet) -> TropMatrix | None:
    """The idempotent in the H-class with column space m and row space n,
    or None when that H-class has none (or is empty), as ``_has_idempotent``
    decides.  The idempotent is the matrix ``witness_Z(m, n)`` builds,
    checked to be idempotent."""
    if not _has_idempotent(m, n):
        return None
    e = _witness_Z(m, n)
    if _product(e._e, e._den, e._e, e._den) != (e._e, e._den):
        raise VerificationError(f"idempotent construction defect for ({_cut(m)}, {_cut(n)})")
    return e


_GROUP_OF_KIND = {
    "empty": GroupType.TRIVIAL,
    "point": GroupType.REALS,
    "interval": GroupType.REALS_TIMES_S2,
    "halfinf": GroupType.REALS,
    "fullline": GroupType.REALS_WREATH_S2,
}
_GROUP_TYPES = tuple(_GROUP_OF_KIND[k] for k in _ISO_KINDS)  # by the rank of M's isometry type


def group_type_of_H(m: ConvexSet, n: ConvexSet) -> GroupType:
    """The abstract group carried by the maximal subgroup at (m, n)."""
    if not _has_idempotent(m, n):
        raise ValueError(f"the H-class at ({_cut(m)}, {_cut(n)}) contains no idempotent")
    return _GROUP_TYPES[_iso_key(m)[0]]


def regular_witness(a: TropMatrix) -> TropMatrix:
    """A matrix y with ``a @ y @ a = a``, verified exactly before returning.

    The candidate is the greatest subsolution of ``a @ y @ a <= a`` obtained
    by two nested residuals (the outer one divides the inner residual), with
    unconstrained coordinates set to 0, and ``a @ y @ a`` is compared with
    a as a store.  Every 2x2 tropical matrix admits such a witness; a
    verification failure would be a defect, never a normal return.
    """
    y = left_residual(a, right_residual(a, a)).witness()
    nums, den = _product(a._e, a._den, y._e, y._den)
    if _product(nums, den, a._e, a._den) != (a._e, a._den):
        raise VerificationError("regularity witness defect")
    return y


_FAMILY_NAMES = ("W", "X", "Y", "Z")


def subgroup_element(family: str, a, x=None, y=None) -> TropMatrix:
    """An element of one of the explicit maximal-subgroup families.

    W(a)            = [[a, -inf], [-inf, -inf]]      (singleton classes)
    X(a; x, y)      = [[a, a-y], [a+x, a]]           (interval [x, y], x < y)
    Y(a; x, y)      = [[a, a-x], [a+y, a]]           (same interval)
    Z(a; x)         = [[a, -inf], [a+x, a]]          (half-infinite classes)

    The X elements form the identity component; Y(.)**2 lands back in it,
    realizing the order-2 part of the interval subgroups.
    """
    if family not in _FAMILY_NAMES:
        raise ValueError(f"unknown family {_quote(family)}: expected one of {_FAMILY_NAMES}")
    a, da = _scalar_ratio(a)
    if a is None:
        raise ValueError("the group parameter must be a rational, not -inf")
    if family == "W":
        return TropMatrix._over((a, None, None, None), da, True)
    # each entry is a, or a plus or minus a parameter, so over the lcm of
    # the reduced denominators the numerators are already in lowest terms
    if family == "Z":
        if x is None:
            raise ValueError("family Z needs the finite interval endpoint x")
        x, dx = _scalar_ratio(x)
        if x is None:
            raise ValueError("the interval endpoint x must be a rational, not -inf")
        den = lcm(da, dx)
        a, x = a * (den // da), x * (den // dx)
        return TropMatrix._over((a, None, a + x, a), den, True)
    if x is None or y is None:
        raise ValueError(f"family {family} needs interval endpoints x < y")
    (x, dx), (y, dy) = _scalar_ratio(x), _scalar_ratio(y)
    if x is None or y is None or x * dy >= y * dx:
        raise ValueError("interval endpoints must be rationals with x < y")
    den = lcm(da, dx, dy)
    a, x, y = a * (den // da), x * (den // dx), y * (den // dy)
    entries = (a, a - y, a + x, a) if family == "X" else (a, a - x, a + y, a)
    return TropMatrix._over(entries, den, True)
