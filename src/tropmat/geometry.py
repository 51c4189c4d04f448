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

import enum
import operator
from fractions import Fraction
from math import gcd, lcm

from .matrix import TropMatrix, _frac, _stored, _token
from .semiring import (
    NEG_INF,
    _NEG_KEY,
    _POS_KEY,
    ProjPoint,
    _as_fraction,
    _cut,
    _point,
    _quote,
)


class ConvexSet:
    """A closed convex subset of the projective line.

    Canonical form: empty (no endpoints), a point (equal endpoints), or an
    interval with ``lo < hi`` strictly.  ``ConvexSet(lo, hi)``, the one
    validated constructor, takes both endpoints in order, or None for both;
    ``point()`` and ``interval()`` coerce their endpoints once and call it,
    the latter sorting them first.

    Stored as order keys ``(kind, numerator)`` over one positive int
    denominator in lowest terms; ``lo`` and ``hi`` build fresh ``ProjPoint``s.
    """

    # _ikey, _iso and _ideal hold the isometry key, type and principal ideal.
    __slots__ = ("_lo", "_hi", "_den", "_ikey", "_iso", "_ideal")

    def __init__(self, lo, hi):
        self._lo = self._hi = self._ikey = self._iso = self._ideal = None
        self._den = 1
        if lo is not None or hi is not None:
            if lo is None or hi is None:
                raise ValueError("a convex set has both endpoints or neither")
            lo, hi = ProjPoint(lo), ProjPoint(hi)
            if hi < lo:
                raise ValueError(f"convex set endpoints out of order: {_cut(lo)} > {_cut(hi)}")
            (x, y), self._den = _stored((lo.frac, hi.frac))
            self._lo, self._hi = (lo._k[0], x), (hi._k[0], y)

    @classmethod
    def _of(cls, lo: tuple | None, hi: tuple | None, den: int) -> "ConvexSet":
        """The set of the keys lo <= hi over den in lowest terms, unchecked."""
        s = object.__new__(cls)
        s._lo, s._hi, s._den = lo, hi, den
        s._ikey = s._iso = s._ideal = None
        return s

    @classmethod
    def empty(cls) -> "ConvexSet":
        return cls._of(None, None, 1)

    @classmethod
    def point(cls, p) -> "ConvexSet":
        p = ProjPoint(p)  # refuses None, which cls(None, None) reads as empty
        return cls(p, p)

    @classmethod
    def interval(cls, a, b) -> "ConvexSet":
        a, b = ProjPoint(a), ProjPoint(b)
        return cls(a, b) if a <= b else cls(b, a)

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
    def lo(self) -> ProjPoint:
        return _proj(self._lo, self._den)

    @property
    def hi(self) -> ProjPoint:
        return _proj(self._hi, self._den)

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
        # spelled from the keys as ``str`` spells the points lo and hi
        lo, hi, den = self._lo, self._hi, self._den
        if lo is None:
            return "empty"
        text = "+inf" if lo[0] == 1 else _token(lo[1], den)
        if lo == hi:
            return "{" + text + "}"
        return f"[{text},{'+inf' if hi[0] == 1 else _token(hi[1], den)}]"

    def __repr__(self):
        return f"ConvexSet.parse({str(self)!r})"

    @staticmethod
    def parse(text: str) -> "ConvexSet":
        token = text.strip()
        if token == "empty":
            return ConvexSet.empty()
        if token.startswith("{") and token.endswith("}"):
            return ConvexSet.point(token[1:-1].strip())
        if token.startswith("[") and token.endswith("]"):
            parts = token[1:-1].split(",")
            if len(parts) != 2:
                raise ValueError(
                    f"bad set literal {_quote(text)}: expected two comma-separated endpoints"
                )
            lo, hi = ProjPoint(parts[0].strip()), ProjPoint(parts[1].strip())
            if hi < lo:
                raise ValueError(f"bad set literal {_quote(text)}: endpoints out of order")
            return ConvexSet(lo, hi)
        raise ValueError(
            f"bad set literal {_quote(text)}: expected 'empty', '{{p}}', or '[lo,hi]'"
        )


_ISO_RANK = {"empty": 0, "point": 1, "interval": 2, "halfinf": 3, "fullline": 4}
_ISO_KINDS = tuple(_ISO_RANK)  # the kinds by rank


class _Record:
    """Base of the value classes.  A subclass names its fields once, in
    ``__slots__``; a subclass adding none declares ``__slots__ = ()`` and
    keeps its base's.  A slot named with a leading underscore is no field:
    it holds a value derived from the fields, by ``__init__`` or, left unset
    there, on first use; it is never printed or pickled.
    ``_Record(*values)`` stores one value per field, in order; a subclass
    that checks its values stores them itself through ``object.__setattr__``.
    Two records are equal when they are of one type with equal fields, hash
    as the tuple of their fields and print like
    ``IsoType(kind='point', diameter=None)``; assigning or deleting a field
    raises ``AttributeError``.  A class names in ``_key_slot`` a derived slot
    that determines its fields one to one, such as the int keys of
    ``IsoType`` and ``IdealDescriptor``, to compare and hash on it instead.
    Each class reads its fields through one ``operator.attrgetter``,
    ``_get``, and compares through ``_eq``: equality and hashing sit on hot
    paths, where a loop over the names is several times slower."""

    __slots__ = ()
    _key_slot = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = next(c.__slots__ for c in cls.__mro__ if c.__slots__)
        names = cls._names = tuple(n for n in slots if n[0] != "_")
        get = operator.attrgetter(*names)
        cls._get = get if len(names) > 1 else staticmethod(lambda record: (get(record),))
        # read from the class dict: through the class a staticmethod unwraps
        cls._eq = operator.attrgetter(cls._key_slot) if cls._key_slot else vars(cls)["_get"]

    def __init__(self, *values):
        names = self._names
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(names)} fields, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._eq(self) == other._eq(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._eq(self))

    def __repr__(self):
        fields = zip(self._names, self._get(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which does not
        # assign through the frozen __setattr__ and derives the _ slots
        return type(self), self._get(self)


class _Members(enum.EnumMeta):
    # 3.11 iterates an enum by a Python generator over its names; no enum
    # here has aliases, so the member map's values are the members in order
    def __iter__(cls):
        return iter(cls._member_map_.values())


class _Enum(enum.Enum, metaclass=_Members):
    # members are singletons compared by identity, so hash them by identity
    # at C speed; 3.11's Enum.__hash__ is the Python-level hash(self._name_)
    __hash__ = object.__hash__


class IsoType(_Record):
    """Isometry class of a closed convex subset of the projective line.

    ``interval`` carries its (positive, finite) diameter, an int, Fraction
    or ``p/q`` token stored as a Fraction; the other kinds carry none.
    Isometric embedding totally orders the types, realized by ``key()``.
    ``__init__`` derives the int isometry key ``(rank, num, den)`` of
    ``_iso_key``, and the first ``str()`` spells the text from it.
    """

    __slots__ = ("kind", "diameter", "_ikey", "_text")
    _key_slot = "_ikey"

    def __init__(self, kind: str, diameter: Fraction | None = None):
        if kind not in _ISO_KINDS:  # a tuple, so an unhashable kind is refused too
            raise ValueError(f"unknown isometry type {_quote(kind)}")
        if diameter is not None and type(diameter) is not Fraction:
            diameter = _as_fraction(diameter)
        if kind == "interval":
            if diameter is None or diameter.numerator <= 0:
                raise ValueError("interval types carry a positive finite diameter")
            key = (2, diameter.numerator, diameter.denominator)
        elif diameter is not None:
            raise ValueError(f"{kind} types carry no diameter")
        else:
            key = (_ISO_RANK[kind], 0, 1)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "_ikey", key)

    @classmethod
    def _of(cls, key: tuple[int, int, int]) -> "IsoType":
        """The type of the int key ``(rank, num, den)`` in lowest terms, unchecked."""
        t = object.__new__(cls)
        rank, num, den = key
        object.__setattr__(t, "kind", _ISO_KINDS[rank])
        object.__setattr__(t, "diameter", Fraction(num, den) if rank == 2 else None)
        object.__setattr__(t, "_ikey", key)
        return t

    def key(self) -> tuple[int, Fraction]:
        rank, num, den = self._ikey
        return (rank, Fraction(num, den))

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            rank, num, den = self._ikey
            text = "interval:" + _token(num, den) if rank == 2 else self.kind
            object.__setattr__(self, "_text", text)
            return text

    @staticmethod
    def parse(text: str) -> "IsoType":
        token = text.strip()
        if token.startswith("interval:"):
            return IsoType("interval", token[len("interval:"):])
        return IsoType(token)


def _proj(key: tuple | None, den: int) -> ProjPoint:
    """The point of an order key, its value a numerator over den; the None
    key of the empty set is refused."""
    if key is None:
        raise ValueError("the empty set has no endpoints")
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
    keys are stored in lowest terms.  The image of (x1, x2) is the key of
    ``x2 - x1``: ``-inf`` when x2 is, ``+inf`` when only x1 is.
    """
    if x1 is None and x2 is None:
        x1, x2, y1, y2 = y1, y2, x1, x2
        if x1 is None and x2 is None:
            return ConvexSet.empty()
    p = _NEG_KEY if x2 is None else _POS_KEY if x1 is None else (0, x2 - x1)
    if y1 is None and y2 is None:
        q = p
    else:
        q = _NEG_KEY if y2 is None else _POS_KEY if y1 is None else (0, y2 - y1)
        if q < p:
            p, q = q, p
    (kp, x), (kq, y) = p, q
    g = gcd(den, x or 0, y or 0)
    if g != 1:  # None and 0 stay as they are
        p, q, den = (kp, x and x // g), (kq, y and y // g), den // g
    s = object.__new__(ConvexSet)  # ConvexSet._of, without its frame
    s._lo, s._hi, s._den = p, q, den
    s._ikey = s._iso = s._ideal = None
    return s


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
            d, den = hi[1] - lo[1], s._den
            g = gcd(d, den)
            k = (2, d // g, den // g)
        s._ikey = k
    return k


def iso_type(s: ConvexSet) -> IsoType:
    """The isometry type of s, computed once per set."""
    t = s._iso
    if t is None:
        t = s._iso = IsoType._of(_iso_key(s))
    return t


def isometric(s: ConvexSet, t: ConvexSet) -> bool:
    """Whether a distance-preserving bijection exists (orientation may flip):
    equivalent to having equal isometry types."""
    return (s._ikey or _iso_key(s)) == (t._ikey or _iso_key(t))


def embeds_isometrically(s: ConvexSet, t: ConvexSet) -> bool:
    """Whether s embeds isometrically into t.

    The embedding order is total on isometry types: empty, then points, then
    finite intervals by diameter, then half-infinite intervals, then the full
    line.
    """
    (r, d, e), (rt, dt, et) = s._ikey or _iso_key(s), t._ikey or _iso_key(t)
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


def _ends(s: ConvexSet, den: int) -> list[tuple]:
    """The endpoint keys of the nonempty set s with their numerators over
    den, a multiple of its denominator."""
    k = den // s._den
    return [(kind, None if x is None else x * k) for kind, x in (s._lo, s._hi)]


def embed_image(s: ConvexSet, t: ConvexSet) -> ConvexSet:
    """A concrete isometric copy of s inside t.

    Exists exactly when s embeds isometrically in t; raises otherwise.  An
    isometric t is its own copy; a bounded s is anchored at a finite
    endpoint of t, or at 0 when t is the full line.  Built on the int keys:
    the diameter of s and the endpoints of t over one denominator.
    """
    if not embeds_isometrically(s, t):
        raise ValueError(f"{_cut(s)} does not embed isometrically in {_cut(t)}")
    if isometric(s, t):
        return t
    if s.is_empty:
        return s
    rank, d, dd = _iso_key(s)  # a point has diameter 0 over 1
    if rank == 3:  # t is the full line
        return ConvexSet._of((0, 0), _POS_KEY, 1)
    den = lcm(t._den, dd)
    d *= den // dd
    (kl, lo), (kh, hi) = _ends(t, den)
    lo, hi = (lo, lo + d) if not kl else (hi - d, hi) if not kh else (0, d)
    g = gcd(den, lo, hi)
    return ConvexSet._of((0, lo // g), (0, hi // g), den // g)


def canonical_set(t: IsoType) -> ConvexSet:
    """A canonical representative of an isometry type."""
    if t.kind == "empty":
        return ConvexSet.empty()
    if t.kind == "point":
        return ConvexSet(0, 0)
    if t.kind == "interval":
        return ConvexSet(0, t.diameter)
    if t.kind == "halfinf":
        return ConvexSet(NEG_INF, 0)
    return ConvexSet.full_line()
