"""Idempotents, regularity witnesses, and maximal subgroups of 2x2 tropical
matrices.

Every 2x2 idempotent falls into one of four parametrized families (upper,
diagonal, lower, zero), each constrained by a nonpositive tropical product
of its off-diagonal parameters.  An H-class indexed by a column-space /
row-space pair (M, N) contains an idempotent iff M and N are mutually
negated singletons-or-intervals in the precise sense of
``idempotent_in_H``; those H-classes are the maximal subgroups, and their
abstract type depends only on the shape of M: trivial, the reals, the reals
times the order-2 group, or the reals wreath the order-2 group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .geometry import (
    ConvexSet,
    _require_2x2,
    in_column_space,
    iso_type,
    proj_column_space,
    proj_row_space,
)
from .green import _singleton_witness
from .matrix import TropMatrix, TropVector, VerificationError, left_residual, right_residual
from .semiring import _ZERO, TropScalar, _quote


@dataclass(frozen=True)
class IdempotentForm:
    """One of the four idempotent families, with its parameters.

    upper:    [[0, x], [y, x*y]]      diagonal: [[0, x], [y, 0]]
    lower:    [[x*y, x], [y, 0]]      zero:     all -inf
    (tropical product x*y = x + y, constrained <= 0).
    """

    kind: str
    x: TropScalar | None = None
    y: TropScalar | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "diagonal", "upper", "lower"):
            raise ValueError(f"unknown idempotent family {self.kind!r}")

    def matrix(self) -> TropMatrix:
        if self.kind == "zero":
            return TropMatrix.zero(2)
        # the fields are not validated, so the parameters are coerced once
        x, y = TropScalar(self.x), TropScalar(self.y)
        if self.kind == "diagonal":
            return TropMatrix([[0, x], [y, 0]])
        if self.kind == "upper":
            return TropMatrix([[0, x], [y, x * y]])
        return TropMatrix([[x * y, x], [y, 0]])

    def params(self) -> dict[str, str]:
        if self.kind == "zero":
            return {}
        return {"x": str(self.x), "y": str(self.y)}


class GroupType(enum.Enum):
    """Abstract isomorphism type of a maximal subgroup."""

    TRIVIAL = "trivial"
    REALS = "reals"
    REALS_TIMES_S2 = "reals-x-s2"
    REALS_WREATH_S2 = "reals-wr-s2"


def is_idempotent(a: TropMatrix) -> bool:
    return a @ a == a


def in_idempotent_family(a: TropMatrix) -> bool:
    """Shape-based membership test for the four idempotent families.

    Used as the classification side of the exhaustive idempotent check; it
    never multiplies matrices.
    """
    _require_2x2(a)
    if a.is_zero:
        return True
    prod = a[0, 1] * a[1, 0]
    if a[0, 0] == 0 and a[1, 1] == 0:
        return prod <= 0
    if a[0, 0] == 0 and a[1, 1] == prod:
        return prod <= 0
    if a[1, 1] == 0 and a[0, 0] == prod:
        return prod <= 0
    return False


def idempotent_form(e: TropMatrix) -> IdempotentForm:
    """Classify an idempotent into its family, with fixed priority zero,
    diagonal, upper, lower when parameters land on an overlap."""
    _require_2x2(e)
    if not is_idempotent(e):
        raise ValueError("matrix is not idempotent")
    if e.is_zero:
        return IdempotentForm("zero")
    x, y = e[0, 1], e[1, 0]
    if e[0, 0] == 0 and e[1, 1] == 0:
        return IdempotentForm("diagonal", x, y)
    if e[0, 0] == 0:
        return IdempotentForm("upper", x, y)
    return IdempotentForm("lower", x, y)


def idempotent_in_H(m: ConvexSet, n: ConvexSet) -> TropMatrix | None:
    """The idempotent in the H-class with column space m and row space n,
    or None when that H-class has none (or is empty).

    An idempotent exists exactly when (i) m = {x} and n = {y} are singletons
    with {x, y} not the mixed pair {-inf, +inf}, or (ii) m is the pointwise
    negation of n and n is not a singleton.
    """
    if m.is_point and n.is_point:
        x, y = m.lo, n.lo
        if (x.is_neg_inf and y.is_pos_inf) or (x.is_pos_inf and y.is_neg_inf):
            return None
        e = _singleton_witness(x, y)
    elif m == n.negated() and not n.is_point:
        if m.is_empty:
            e = TropMatrix.zero(2)
        else:
            # m = [x, y] with x < y, so y > -inf and x < +inf
            e = TropMatrix._of(((_ZERO, (-m.hi).frac), (m.lo.frac, _ZERO)))
    else:
        return None
    if not (is_idempotent(e) and proj_column_space(e) == m and proj_row_space(e) == n):
        raise VerificationError(f"idempotent construction defect for ({m}, {n})")
    return e


def group_type_of_H(m: ConvexSet, n: ConvexSet) -> GroupType:
    """The abstract group carried by the maximal subgroup at (m, n)."""
    if idempotent_in_H(m, n) is None:
        raise ValueError(f"the H-class at ({m}, {n}) contains no idempotent")
    t = iso_type(m)
    if t.kind == "empty":
        return GroupType.TRIVIAL
    if t.kind in ("point", "halfinf"):
        return GroupType.REALS
    if t.kind == "interval":
        return GroupType.REALS_TIMES_S2
    return GroupType.REALS_WREATH_S2


def regular_witness(a: TropMatrix) -> TropMatrix:
    """A matrix y with ``a @ y @ a = a``, verified exactly before returning.

    The candidate is the greatest subsolution of ``a @ y @ a <= a`` obtained
    by two nested residuals (the outer one divides the inner residual), with
    unconstrained coordinates set to 0.  Every 2x2 tropical matrix admits
    such a witness; a verification failure would be a defect, never a
    normal return.
    """
    _require_2x2(a)
    y = left_residual(a, right_residual(a, a)).witness()
    if a @ y @ a != a:
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
    af = TropScalar(a).frac
    if af is None:
        raise ValueError("the group parameter must be a rational, not -inf")
    if family == "W":
        return TropMatrix._of(((af, None), (None, None)))
    if family == "Z":
        if x is None:
            raise ValueError("family Z needs the finite interval endpoint x")
        xf = TropScalar(x).frac
        if xf is None:
            raise ValueError("the interval endpoint x must be a rational, not -inf")
        return TropMatrix._of(((af, None), (af + xf, af)))
    if x is None or y is None:
        raise ValueError(f"family {family} needs interval endpoints x < y")
    xf, yf = TropScalar(x).frac, TropScalar(y).frac
    if xf is None or yf is None or xf >= yf:
        raise ValueError("interval endpoints must be rationals with x < y")
    if family == "X":
        return TropMatrix._of(((af, af - yf), (af + xf, af)))
    return TropMatrix._of(((af, af - xf), (af + yf, af)))


def fixes_image(e: TropMatrix, v: TropVector) -> bool:
    """Whether the idempotent e fixes v; true for every member of e's column
    space (idempotents act as projections onto their image)."""
    if not is_idempotent(e):
        raise ValueError("matrix is not idempotent")
    if not in_column_space(v, e):
        raise ValueError("vector is outside the idempotent's column space")
    return e @ v == v
