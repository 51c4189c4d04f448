"""The two-sided ideal calculus of the 2x2 tropical matrix monoid.

Every two-sided ideal is faithfully described by a single convex subset of
the projective line drawn from: the closed convex sets (isometry types), the
open intervals of finite diameter, and the open full line.  A matrix belongs
to the ideal iff its projective column space embeds isometrically into the
descriptor; for an open descriptor of width w that means finite diameter
strictly below w.  The descriptors, hence the ideals, are totally ordered,
and an ideal is principal iff its descriptor is closed; the non-principal
ones are exactly a principal ideal minus its generating J-class.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .geometry import IsoType, _Enum, _Record, iso_type, proj_column_space
from .matrix import TropMatrix
from .semiring import _ZERO, _as_fraction, _cut, _quote


class IdealDescriptor(_Record):
    """Descriptor of a two-sided ideal: a closed isometry type, an open
    interval of finite positive width, or the open full line.

    The width is an int, Fraction or ``p/q`` token, stored as a Fraction.
    Half-infinite open intervals are unrepresentable by construction: no
    ideal corresponds to one.
    """

    __slots__ = ("kind", "iso", "width", "_key")  # kind: "closed" | "open" | "openline"

    def __init__(self, kind: str, iso: IsoType | None = None, width: Fraction | None = None):
        if width is not None and type(width) is not Fraction:
            width = _as_fraction(width)
        if kind == "closed":
            if not isinstance(iso, IsoType) or width is not None:
                raise ValueError("closed descriptors carry exactly an isometry type")
            key = (*iso.key(), 1)
        elif kind == "open":
            if iso is not None or width is None or width <= 0:
                raise ValueError("open descriptors carry exactly a positive width")
            key = (2, width, 0)
        elif kind == "openline":
            if iso is not None or width is not None:
                raise ValueError("the open-line descriptor carries no parameters")
            key = (3, _ZERO, 0)
        else:
            raise ValueError(f"unknown descriptor kind {_quote(kind)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "iso", iso)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "_key", key)

    @classmethod
    def closed(cls, t: IsoType) -> "IdealDescriptor":
        return cls("closed", iso=t)

    @classmethod
    def open_finite(cls, w) -> "IdealDescriptor":
        return cls("open", width=w)

    @classmethod
    def open_line(cls) -> "IdealDescriptor":
        return cls("openline")

    def key(self) -> tuple:
        """Sort key realizing the containment order of the ideals.

        Closed empty < closed point < ... open(w) < closed interval(w) <
        open(w') ... < open line < closed half-infinite < closed full line:
        a closed descriptor extends its type's key by 1, and an open one
        sits just below the closed type it stops short of.
        """
        return self._key

    def __str__(self):
        if self.kind == "closed":
            return f"closed:{self.iso}"
        if self.kind == "open":
            return f"open:{self.width}"
        return "openline"

    @staticmethod
    def parse(text: str) -> "IdealDescriptor":
        token = text.strip()
        if token == "openline":
            return IdealDescriptor.open_line()
        if token.startswith("open:"):
            try:
                w = _as_fraction(token[len("open:"):])
            except ValueError as exc:
                raise ValueError(f"bad open-ideal width in {_quote(text)}: {exc}") from exc
            if w <= 0:
                raise ValueError(f"open-ideal width must be positive, got {_cut(w)}")
            return IdealDescriptor.open_finite(w)
        if token.startswith("closed:"):
            return IdealDescriptor.closed(IsoType.parse(token[len("closed:"):]))
        raise ValueError(
            f"bad ideal descriptor {_quote(text)}: expected closed:<type>, open:<w>, or openline"
        )


class Ordering(_Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


# ``ideal_compare`` returns these: a lookup on the enum class is slow on 3.11
_LESS, _EQUAL, _GREATER = Ordering
_key_of = operator.attrgetter("_key")


def ideal_contains(d: IdealDescriptor, a: TropMatrix) -> bool:
    """Membership of a matrix in the ideal d: its principal ideal lies in d."""
    try:
        return principal_ideal_of(a)._key <= d._key
    except AttributeError:
        raise TypeError(f"expected an IdealDescriptor, not {_quote(d)}") from None


def principal_ideal_of(b: TropMatrix) -> IdealDescriptor:
    """The descriptor of the principal ideal generated by b, built once per
    column space: the closed descriptor of that space's isometry type."""
    try:
        s = proj_column_space(b)
    except AttributeError:
        raise TypeError(f"expected a TropMatrix, not {_quote(b)}") from None
    d = s._ideal
    if d is None:
        d = s._ideal = IdealDescriptor.closed(iso_type(s))
    return d


def ideal_compare(d1: IdealDescriptor, d2: IdealDescriptor) -> Ordering:
    """The total containment order on ideals."""
    try:
        k1, k2 = d1._key, d2._key
    except AttributeError:
        bad = d2 if isinstance(d1, IdealDescriptor) else d1
        raise TypeError(f"expected an IdealDescriptor, not {_quote(bad)}") from None
    return _LESS if k1 < k2 else _GREATER if k1 > k2 else _EQUAL


def ideal_from_generators(generators: list[TropMatrix]) -> IdealDescriptor:
    """The ideal generated by finitely many matrices: the maximum of their
    principal descriptors, so finitely generated ideals are principal."""
    if (top := max(map(principal_ideal_of, generators), key=_key_of, default=None)) is None:
        raise ValueError("need at least one generator")
    return top


def decompose(d: IdealDescriptor) -> tuple[IdealDescriptor, IsoType | None]:
    """Express an ideal as (principal ideal, removed J-class or None).

    Open descriptors name the least closed descriptor strictly above every
    member class; removing that class's own J-class recovers the ideal.
    """
    if d.kind == "closed":
        return (d, None)
    if d.kind == "open":
        t = IsoType("interval", d.width)
    else:
        t = IsoType("halfinf")
    return (IdealDescriptor.closed(t), t)
