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

from fractions import Fraction

from .geometry import IsoType, _Enum, _Record, iso_type, proj_column_space
from .matrix import TropMatrix, _token
from .semiring import _as_fraction, _cut, _quote


class IdealDescriptor(_Record):
    """Descriptor of a two-sided ideal: a closed isometry type, an open
    interval of finite positive width, or the open full line.

    The width is an int, Fraction or ``p/q`` token, stored as a Fraction.
    Half-infinite open intervals are unrepresentable by construction: no
    ideal corresponds to one.  ``__init__`` derives the int order key
    ``(rank, num, den, closed)``, the first ``str()`` spells the text from
    it, and the first ``decompose`` of an open descriptor stores its pair.
    """

    # kind: "closed" | "open" | "openline"
    __slots__ = ("kind", "iso", "width", "_key", "_text", "_parts")
    _key_slot = "_key"

    def __init__(self, kind: str, iso: IsoType | None = None, width: Fraction | None = None):
        if width is not None and type(width) is not Fraction:
            width = _as_fraction(width)
        if kind == "closed":
            # type, not isinstance: a subclass's instance is unequal to the
            # IsoType whose key it has
            if type(iso) is not IsoType or width is not None:
                raise ValueError("closed descriptors carry exactly an isometry type")
            key = (*iso._ikey, 1)
        elif kind == "open":
            if iso is not None or width is None or width.numerator <= 0:
                raise ValueError("open descriptors carry exactly a positive width")
            key = (2, width.numerator, width.denominator, 0)
        elif kind == "openline":
            if iso is not None or width is not None:
                raise ValueError("the open-line descriptor carries no parameters")
            key = (3, 0, 1, 0)
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
        rank, num, den, closed = self._key
        return (rank, Fraction(num, den), closed)

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            kind = self.kind
            if kind == "closed":
                text = "closed:" + str(self.iso)
            elif kind == "open":
                text = "open:" + _token(self._key[1], self._key[2])
            else:
                text = kind
            object.__setattr__(self, "_text", text)
            return text

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


def _order(k1: tuple, k2: tuple) -> int:
    """Negative, zero or positive as the ideal of the int key k1 lies below,
    equals or lies above that of k2: rank first, then the widths compared
    as ``n1 * d2`` against ``n2 * d1``, then the closed flag."""
    r1, n1, d1, c1 = k1
    r2, n2, d2, c2 = k2
    return r1 - r2 or n1 * d2 - n2 * d1 or c1 - c2


def ideal_contains(d: IdealDescriptor, a: TropMatrix) -> bool:
    """Membership of a matrix in the ideal d: its principal ideal lies in d."""
    try:
        return _order(principal_ideal_of(a)._key, d._key) <= 0
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
    c = _order(k1, k2)
    return _LESS if c < 0 else _GREATER if c else _EQUAL


def ideal_from_generators(generators: list[TropMatrix]) -> IdealDescriptor:
    """The ideal generated by finitely many matrices: the maximum of their
    principal descriptors (the first of equal ones), so finitely generated
    ideals are principal."""
    top = None
    for d in map(principal_ideal_of, generators):
        if top is None or _order(d._key, top._key) > 0:
            top = d
    if top is None:
        raise ValueError("need at least one generator")
    return top


def decompose(d: IdealDescriptor) -> tuple[IdealDescriptor, IsoType | None]:
    """Express an ideal as (principal ideal, removed J-class or None).

    Open descriptors name the least closed descriptor strictly above every
    member class; removing that class's own J-class recovers the ideal.
    The pair of an open descriptor is built on the first call and returned
    by every later one.
    """
    if d.kind == "closed":
        return (d, None)
    try:
        return d._parts
    except AttributeError:
        t = IsoType("interval", d.width) if d.kind == "open" else IsoType("halfinf")
        parts = (IdealDescriptor.closed(t), t)
        object.__setattr__(d, "_parts", parts)
        return parts
