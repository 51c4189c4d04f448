"""Projective column/row spaces of 2x2 matrices and their isometry theory.

A 2-generated convex set in the projective tropical line is empty, a single
point, or a closed interval; these are the values of the column-space and
row-space maps and they index the R- and L-classes of the matrix monoid.
Isometry between two such sets is decided combinatorially through a
five-way isometry type (empty, point, finite interval of a given diameter,
half-infinite interval, full line), and isometric *embedding* totally
orders the types.  Orientation-reversing isometries are allowed, so the two
half-infinite orientations form a single type.  A set stores int keys for
its endpoints and isometry type, so the set decisions compare ints.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import TropMatrix, _frac, _lowest, _stored
from .semiring import (
    NEG_INF,
    POS_INF,
    _NEG_KEY,
    _POS_KEY,
    _ZERO,
    ProjPoint,
    _as_fraction,
    _cut,
    _image,
    _point,
    _quote,
)


class ConvexSet:
    """A closed convex subset of the projective line.

    Canonical form: empty (no endpoints), a point (equal endpoints), or an
    interval with ``lo < hi`` strictly.  ``ConvexSet(lo, hi)`` takes both
    endpoints in order, or None for both; ``empty()``, ``point()`` and
    ``interval()`` also build sets, the latter sorting its endpoints and
    collapsing equal ones to a point.

    Stored as order keys ``(kind, numerator)`` over one positive int
    denominator in lowest terms; ``lo`` and ``hi`` build fresh ``ProjPoint``s.
    """

    # _ikey and _iso hold the isometry key and type once computed.
    __slots__ = ("_lo", "_hi", "_den", "_ikey", "_iso")

    def __init__(self, lo, hi):
        self._lo = self._hi = self._ikey = self._iso = None
        self._den = 1
        if lo is not None or hi is not None:
            if lo is None or hi is None:
                raise ValueError("a convex set has both endpoints or neither")
            lo, hi = ProjPoint(lo), ProjPoint(hi)
            if hi < lo:
                raise ValueError(f"convex set endpoints out of order: {lo} > {hi}")
            (x, y), self._den = _stored((lo.frac, hi.frac))
            self._lo, self._hi = (lo._k[0], x), (hi._k[0], y)

    @classmethod
    def _of(cls, lo: tuple | None, hi: tuple | None, den: int) -> "ConvexSet":
        """The set of the keys lo <= hi over den in lowest terms, unchecked."""
        s = object.__new__(cls)
        s._lo, s._hi, s._den = lo, hi, den
        s._ikey = s._iso = None
        return s

    @classmethod
    def empty(cls) -> "ConvexSet":
        return cls._of(None, None, 1)

    @classmethod
    def point(cls, p) -> "ConvexSet":
        return cls.interval(p, p)

    @classmethod
    def interval(cls, a, b) -> "ConvexSet":
        a, b = ProjPoint(a), ProjPoint(b)
        if b < a:
            a, b = b, a
        return cls(a, b)

    @classmethod
    def full_line(cls) -> "ConvexSet":
        return cls._of(_NEG_KEY, _POS_KEY, 1)

    @property
    def is_empty(self) -> bool:
        return self._lo is None

    @property
    def is_point(self) -> bool:
        return self._lo is not None and self._lo == self._hi

    @property
    def is_interval(self) -> bool:
        return self._lo is not None and self._lo != self._hi

    @property
    def lo(self) -> ProjPoint:
        if self._lo is None:
            raise ValueError("the empty set has no endpoints")
        return _proj(self._lo, self._den)

    @property
    def hi(self) -> ProjPoint:
        if self._hi is None:
            raise ValueError("the empty set has no endpoints")
        return _proj(self._hi, self._den)

    def contains(self, p) -> bool:
        if self._lo is None:
            return False
        return self.lo <= ProjPoint(p) <= self.hi

    def negated(self) -> "ConvexSet":
        """The pointwise negation; swaps and negates the endpoints."""
        if self._lo is None:
            return self
        lo, hi = [(-kind, None if x is None else -x) for kind, x in (self._hi, self._lo)]
        return ConvexSet._of(lo, hi, self._den)

    def __eq__(self, other):
        if not isinstance(other, ConvexSet):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi and self._den == other._den

    def __hash__(self):
        return hash((self._lo, self._hi, self._den))

    def __str__(self):
        if self.is_empty:
            return "empty"
        if self.is_point:
            return "{" + str(self.lo) + "}"
        return f"[{self.lo},{self.hi}]"

    def __repr__(self):
        return f"ConvexSet.parse({str(self)!r})"

    @staticmethod
    def parse(text: str) -> "ConvexSet":
        token = text.strip()
        if token == "empty":
            return ConvexSet.empty()
        if token.startswith("{") and token.endswith("}"):
            return ConvexSet.point(ProjPoint(token[1:-1].strip()))
        if token.startswith("[") and token.endswith("]"):
            parts = token[1:-1].split(",")
            if len(parts) != 2:
                raise ValueError(
                    f"bad set literal {_quote(text)}: expected two comma-separated endpoints"
                )
            lo, hi = ProjPoint(parts[0].strip()), ProjPoint(parts[1].strip())
            if hi < lo:
                raise ValueError(f"bad set literal {_quote(text)}: endpoints out of order")
            return ConvexSet.interval(lo, hi)
        raise ValueError(
            f"bad set literal {_quote(text)}: expected 'empty', '{{p}}', or '[lo,hi]'"
        )


_ISO_RANK = {"empty": 0, "point": 1, "interval": 2, "halfinf": 3, "fullline": 4}
_ISO_KINDS = tuple(_ISO_RANK)  # the kinds by rank


class _Record:
    """Base of the value classes.  A subclass names its fields in
    ``__slots__``, sets them once in ``__init__`` through
    ``object.__setattr__`` and returns them, in that order, from
    ``_fields``.  Two records are equal when they are of one type with equal
    fields, hash as the tuple of their fields and print like
    ``IsoType(kind='point', diameter=None)``; assigning or deleting a field
    raises ``AttributeError``.  ``_fields`` spells its tuple out rather than
    looping over ``__slots__``: equality and hashing sit on hot paths, and
    the loop made them several times slower."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        # the field names are the __slots__ of the class that declares them;
        # a subclass adding no fields declares __slots__ = ()
        names = next(c.__slots__ for c in type(self).__mro__ if c.__slots__)
        fields = zip(names, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which does not
        # assign through the frozen __setattr__
        return type(self), self._fields()


class IsoType(_Record):
    """Isometry class of a closed convex subset of the projective line.

    ``interval`` carries its (positive, finite) diameter, an int, Fraction
    or ``p/q`` token stored as a Fraction; the other kinds carry none.
    Isometric embedding totally orders the types, realized by ``key()``.
    """

    __slots__ = ("kind", "diameter")

    def __init__(self, kind: str, diameter: Fraction | None = None):
        if kind not in _ISO_RANK:
            raise ValueError(f"unknown isometry type {_quote(kind)}")
        if diameter is not None and type(diameter) is not Fraction:
            diameter = _as_fraction(diameter)
        if kind == "interval":
            if diameter is None or diameter <= 0:
                raise ValueError("interval types carry a positive finite diameter")
        elif diameter is not None:
            raise ValueError(f"{kind} types carry no diameter")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "diameter", diameter)

    def _fields(self) -> tuple:
        return (self.kind, self.diameter)

    def key(self) -> tuple[int, Fraction]:
        return (_ISO_RANK[self.kind], self.diameter or _ZERO)

    def __str__(self):
        if self.kind == "interval":
            return f"interval:{self.diameter}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "IsoType":
        token = text.strip()
        if token.startswith("interval:"):
            return IsoType("interval", token[len("interval:"):])
        return IsoType(token)


def _proj(key: tuple, den: int) -> ProjPoint:
    """The point of an order key, its value a numerator over den."""
    kind, x = key
    return _point((kind, _frac(x, den)))


def _key_le(x: tuple, dx: int, y: tuple, dy: int) -> bool:
    """Whether the key x over dx is at most the key y over dy."""
    return x <= y if x[0] or y[0] else x[1] * dy <= y[1] * dx


def _span(x1, x2, y1, y2, den: int) -> ConvexSet:
    """The projective span of the 2-vectors (x1, x2) and (y1, y2), each entry
    a numerator over den or None for ``-inf``.

    Empty when both vectors are zero; a point when one is (the image of the
    other); otherwise the closed interval spanned by the two images, whose
    keys are stored in lowest terms.
    """
    if x1 is None and x2 is None:
        x1, x2, y1, y2 = y1, y2, x1, x2
        if x1 is None and x2 is None:
            return ConvexSet.empty()
    p = _image(x1, x2)
    q = p if y1 is None and y2 is None else _image(y1, y2)
    if q < p:
        p, q = q, p
    if den != 1:
        (x, y), den = _lowest((p[1], q[1]), den)
        p, q = (p[0], x), (q[0], y)
    return ConvexSet._of(p, q, den)


def proj_column_space(a: TropMatrix) -> ConvexSet:
    """The projectivised column space of a 2x2 matrix: the span of the
    images of its two columns.  Computed once per matrix; every call
    returns the same immutable set."""
    pc = a._pc
    if pc is None:
        p, q, r, s = a._e
        pc = a._pc = _span(p, r, q, s, a._den)
    return pc


def proj_row_space(a: TropMatrix) -> ConvexSet:
    """The projectivised row space: the span of the images of the two rows,
    i.e. the column space of the transpose.  Computed once per matrix."""
    pr = a._pr
    if pr is None:
        p, q, r, s = a._e
        pr = a._pr = _span(p, q, r, s, a._den)
    return pr


def _iso_key(s: ConvexSet) -> tuple[int, int, int]:
    """The isometry key of s, computed once per set: its kind's rank, then its
    diameter's numerator and denominator in lowest terms (0 and 1 if none)."""
    k = s._ikey
    if k is None:
        lo, hi = s._lo, s._hi
        if lo is None or lo == hi:
            k = (0 if lo is None else 1, 0, 1)
        elif lo[0] or hi[0]:
            k = (4 if lo[0] < 0 < hi[0] else 3, 0, 1)
        else:
            (d,), den = _lowest((hi[1] - lo[1],), s._den)
            k = (2, d, den)
        s._ikey = k
    return k


def iso_type(s: ConvexSet) -> IsoType:
    """The isometry type of s, computed once per set."""
    t = s._iso
    if t is None:
        rank, d, den = _iso_key(s)
        t = s._iso = IsoType(_ISO_KINDS[rank], Fraction(d, den) if rank == 2 else None)
    return t


def isometric(s: ConvexSet, t: ConvexSet) -> bool:
    """Whether a distance-preserving bijection exists (orientation may flip):
    equivalent to having equal isometry types."""
    return _iso_key(s) == _iso_key(t)


def embeds_isometrically(s: ConvexSet, t: ConvexSet) -> bool:
    """Whether s embeds isometrically into t.

    The embedding order is total on isometry types: empty, then points, then
    finite intervals by diameter, then half-infinite intervals, then the full
    line.
    """
    (r, d, e), (rt, dt, et) = _iso_key(s), _iso_key(t)
    return r < rt or (r == rt and d * et <= dt * e)


def subset(s: ConvexSet, t: ConvexSet) -> bool:
    """Literal containment of closed convex sets."""
    if s._lo is None:
        return True
    if t._lo is None:
        return False
    if s._den == t._den:
        return t._lo <= s._lo and s._hi <= t._hi
    return _key_le(t._lo, t._den, s._lo, s._den) and _key_le(s._hi, s._den, t._hi, t._den)


def embed_image(s: ConvexSet, t: ConvexSet) -> ConvexSet:
    """A concrete isometric copy of s inside t.

    Exists exactly when s embeds isometrically in t; raises otherwise.  An
    isometric t is its own copy; a bounded s is anchored at a finite
    endpoint of t, or at 0 when t is the full line.
    """
    if not embeds_isometrically(s, t):
        raise ValueError(f"{_cut(s)} does not embed isometrically in {_cut(t)}")
    if isometric(s, t):
        return t
    if s.is_empty:
        return s
    st = iso_type(s)
    if st.kind == "halfinf":  # t is the full line
        return ConvexSet.interval(ProjPoint(0), POS_INF)
    d = st.diameter or _ZERO  # 0 for a point
    if t.lo.is_finite:
        return ConvexSet.interval(t.lo, ProjPoint(t.lo.frac + d))
    if t.hi.is_finite:
        return ConvexSet.interval(ProjPoint(t.hi.frac - d), t.hi)
    return ConvexSet.interval(ProjPoint(0), ProjPoint(d))


def canonical_set(t: IsoType) -> ConvexSet:
    """A canonical representative of an isometry type."""
    if t.kind == "empty":
        return ConvexSet.empty()
    if t.kind == "point":
        return ConvexSet.point(ProjPoint(0))
    if t.kind == "interval":
        return ConvexSet.interval(ProjPoint(0), ProjPoint(t.diameter))
    if t.kind == "halfinf":
        return ConvexSet.interval(NEG_INF, ProjPoint(0))
    return ConvexSet.full_line()
