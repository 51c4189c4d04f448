"""Exact arithmetic on the max-plus semiring and its projective line.

The scalar carrier is the rationals extended by a bottom element ``-inf``:
tropical addition is max (so ``-inf`` is the additive identity) and tropical
multiplication is ordinary addition (so 0 is the multiplicative identity and
``-inf`` is absorbing).  Projectivising nonzero pairs of scalars also needs a
top element ``+inf``, giving the two-point compactification of the rational
line, which carries the distance ``delta``:  |y - x| between rationals, 0
between equal infinities, infinite otherwise.

Everything here is exact: scalars are arbitrary-precision ``Fraction`` values
and the infinities are explicit variants, never sentinel numerics.  The
classification machinery built on top compares endpoints for *equality*, so
there is deliberately no floating-point mode.
"""

from __future__ import annotations

import re
from fractions import Fraction

_new = object.__new__
_ZERO = Fraction(0)

_RATIONAL_TOKEN = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
# Longest rational token accepted, in characters.  It sits below CPython's
# default 4300-digit limit on int-from-string conversion, so an over-long
# token is refused here, with the same message on every interpreter.
MAX_TOKEN_CHARS = 4000
# Longest piece of user text an error message quotes, in characters.
_QUOTE_CHARS = 64


def _quote(value) -> str:
    """``repr`` of user input for an error message.  A string (or another
    value's repr) longer than ``_QUOTE_CHARS`` is cut, marked by an ellipsis
    and its full length, so an over-long input is not echoed back whole."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _QUOTE_CHARS:
        return repr(value)
    return f"{text[:_QUOTE_CHARS]!r}… ({len(text)} characters)"


def _as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or ``p/q`` token to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a tropical scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        token = value.strip()
        if len(token) > MAX_TOKEN_CHARS:
            raise ValueError(
                f"bad rational token of {len(token)} characters: expected an "
                f"integer or 'p/q' of at most {MAX_TOKEN_CHARS} characters"
            )
        if not _RATIONAL_TOKEN.match(token):
            raise ValueError(
                f"bad rational token {_quote(value)}: expected an integer or 'p/q'"
            )
        return Fraction(token)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: arithmetic here is exact, pass an int, "
            "Fraction, or 'p/q' string"
        )
    raise TypeError(
        f"cannot build an exact rational from {_quote(value)}: pass an int, "
        "Fraction, or 'p/q' string"
    )


class TropScalar:
    """A max-plus scalar: an exact rational, or the bottom element ``-inf``.

    Operators follow the tropical convention: ``a + b`` is max, ``a * b`` is
    rational addition.  The order is total with ``-inf`` least.  Instances
    are immutable and hashable; ``TropScalar("-inf")``, ``TropScalar(3)``,
    ``TropScalar("1/2")`` and ``TropScalar(Fraction(1, 2))`` all work.
    """

    __slots__ = ("_f",)

    def __init__(self, value):
        if isinstance(value, TropScalar):
            self._f = value._f
        elif isinstance(value, str) and value.strip() == "-inf":
            self._f = None
        elif isinstance(value, str) and value.strip() == "+inf":
            raise ValueError("+inf is not a tropical scalar (it only exists projectively)")
        else:
            self._f = _as_fraction(value)

    @classmethod
    def bottom(cls) -> "TropScalar":
        s = object.__new__(cls)
        s._f = None
        return s

    @property
    def is_bottom(self) -> bool:
        return self._f is None

    @property
    def frac(self) -> Fraction | None:
        """The rational value, or None for ``-inf``."""
        return self._f

    def _coerce(self, other) -> "TropScalar":
        return other if isinstance(other, TropScalar) else TropScalar(other)

    def __add__(self, other):
        other = self._coerce(other)
        return self if other <= self else other

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        return _scalar(_mul(self._f, other._f))

    __rmul__ = __mul__

    def __neg__(self):
        if self._f is None:
            raise ValueError("-inf has no tropical multiplicative inverse")
        return _scalar(-self._f)

    def __eq__(self, other):
        if isinstance(other, TropScalar):
            return self._f == other._f
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._f == TropScalar(other)._f
        return NotImplemented

    def __hash__(self):
        return hash(self._f) if self._f is not None else hash(("trop", "-inf"))

    def __lt__(self, other):
        other = self._coerce(other)
        if self._f is None:
            return other._f is not None
        if other._f is None:
            return False
        return self._f < other._f

    def __le__(self, other):
        other = self._coerce(other)
        return self < other or self == other

    def __gt__(self, other):
        return self._coerce(other) < self

    def __ge__(self, other):
        return self._coerce(other) <= self

    def __str__(self):
        return "-inf" if self._f is None else str(self._f)

    def __repr__(self):
        return f"TropScalar({str(self)!r})"


BOTTOM = TropScalar.bottom()


def _mul(x: Fraction | None, y: Fraction | None) -> Fraction | None:
    """The raw tropical product x + y, None standing for ``-inf``."""
    return None if x is None or y is None else x + y


def _scalar(f: Fraction | None) -> TropScalar:
    """Wrap a raw value (a Fraction, or None for ``-inf``) without coercing it."""
    if f is None:
        return BOTTOM
    s = _new(TropScalar)
    s._f = f
    return s


class ProjPoint:
    """A point of the projective tropical line: a rational, ``-inf`` or ``+inf``.

    Totally ordered with ``-inf`` least and ``+inf`` greatest.  Negation is
    defined everywhere and swaps the infinities.
    """

    __slots__ = ("_kind", "_f")  # _kind: -1 bottom, 0 finite, +1 top

    def __init__(self, value):
        if isinstance(value, ProjPoint):
            self._kind, self._f = value._kind, value._f
        elif isinstance(value, TropScalar):
            if value.is_bottom:
                self._kind, self._f = -1, None
            else:
                self._kind, self._f = 0, value.frac
        elif isinstance(value, str) and value.strip() == "-inf":
            self._kind, self._f = -1, None
        elif isinstance(value, str) and value.strip() == "+inf":
            self._kind, self._f = 1, None
        else:
            self._kind, self._f = 0, _as_fraction(value)

    @classmethod
    def neg_inf(cls) -> "ProjPoint":
        return cls("-inf")

    @classmethod
    def pos_inf(cls) -> "ProjPoint":
        return cls("+inf")

    @property
    def is_finite(self) -> bool:
        return self._kind == 0

    @property
    def is_neg_inf(self) -> bool:
        return self._kind == -1

    @property
    def is_pos_inf(self) -> bool:
        return self._kind == 1

    @property
    def frac(self) -> Fraction | None:
        """The rational value, or None at either infinity."""
        return self._f

    def to_scalar(self) -> TropScalar:
        """Reinterpret as a tropical scalar; rejects ``+inf``."""
        if self._kind == 1:
            raise ValueError("+inf is not a tropical scalar")
        return _scalar(self._f)

    def _key(self):
        return (self._kind, _ZERO if self._f is None else self._f)

    def _coerce(self, other) -> "ProjPoint":
        return other if isinstance(other, ProjPoint) else ProjPoint(other)

    def __neg__(self):
        return _point(-self._kind, None if self._f is None else -self._f)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            if not isinstance(other, (int, Fraction)) or isinstance(other, bool):
                return NotImplemented
            other = ProjPoint(other)
        return self._kind == other._kind and self._f == other._f

    def __hash__(self):
        return hash(self._f) if self._kind == 0 else hash(("proj", self._kind))

    def __lt__(self, other):
        return self._key() < self._coerce(other)._key()

    def __le__(self, other):
        return self._key() <= self._coerce(other)._key()

    def __gt__(self, other):
        return self._key() > self._coerce(other)._key()

    def __ge__(self, other):
        return self._key() >= self._coerce(other)._key()

    def __str__(self):
        if self._kind == -1:
            return "-inf"
        if self._kind == 1:
            return "+inf"
        return str(self._f)

    def __repr__(self):
        return f"ProjPoint({str(self)!r})"


NEG_INF = ProjPoint.neg_inf()
POS_INF = ProjPoint.pos_inf()


def _point(kind: int, f: Fraction | None) -> ProjPoint:
    """Wrap raw parts (kind -1, 0, +1 for ``-inf``, finite, ``+inf``; the
    Fraction, or None at the infinities) without coercing them."""
    if kind:
        return POS_INF if kind == 1 else NEG_INF
    p = _new(ProjPoint)
    p._kind = 0
    p._f = f
    return p


def _image(x1: Fraction | None, x2: Fraction | None) -> ProjPoint:
    """The projective image ``x2 - x1`` of the raw pair (x1, x2), None
    standing for ``-inf``: the rule behind ``ext_sub`` and the space maps."""
    if x2 is None:
        if x1 is None:
            raise ValueError("the zero vector (-inf, -inf) has no projective image")
        return NEG_INF
    if x1 is None:
        return POS_INF
    return _point(0, x2 - x1)


def ext_sub(a, b) -> ProjPoint:
    """Extended subtraction a - b of tropical scalars, landing projectively.

    Returns the rational difference when both arguments are rational, ``+inf``
    when only b is ``-inf``, and ``-inf`` when only a is.  The pair
    (-inf, -inf) is rejected: it is the zero vector's coordinate pattern,
    which has no projective image.
    """
    return _image(TropScalar(b)._f, TropScalar(a)._f)


class ExtDistance:
    """A distance value: a nonnegative exact rational, or infinite.

    Supports addition (infinity absorbs) and total order (infinity greatest),
    which is all the triangle inequality and diameter comparisons need.
    """

    __slots__ = ("_f",)

    def __init__(self, value):
        if isinstance(value, ExtDistance):
            self._f = value._f
        elif isinstance(value, str) and value.strip() == "inf":
            self._f = None
        else:
            f = _as_fraction(value)
            if f < 0:
                raise ValueError(f"distances are nonnegative, got {f}")
            self._f = f

    @classmethod
    def infinite(cls) -> "ExtDistance":
        d = object.__new__(cls)
        d._f = None
        return d

    @property
    def is_infinite(self) -> bool:
        return self._f is None

    @property
    def frac(self) -> Fraction | None:
        return self._f

    def _coerce(self, other) -> "ExtDistance":
        return other if isinstance(other, ExtDistance) else ExtDistance(other)

    def __add__(self, other):
        other = self._coerce(other)
        if self._f is None or other._f is None:
            return INF_DIST
        return ExtDistance(self._f + other._f)

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = ExtDistance(other)
        if not isinstance(other, ExtDistance):
            return NotImplemented
        return self._f == other._f

    def __hash__(self):
        return hash(self._f) if self._f is not None else hash(("dist", "inf"))

    def _key(self):
        return (1, Fraction(0)) if self._f is None else (0, self._f)

    def __lt__(self, other):
        return self._key() < self._coerce(other)._key()

    def __le__(self, other):
        return self._key() <= self._coerce(other)._key()

    def __gt__(self, other):
        return self._key() > self._coerce(other)._key()

    def __ge__(self, other):
        return self._key() >= self._coerce(other)._key()

    def __str__(self):
        return "inf" if self._f is None else str(self._f)

    def __repr__(self):
        return f"ExtDistance({str(self)!r})"


INF_DIST = ExtDistance.infinite()


def delta(x, y) -> ExtDistance:
    """The projective-line distance: |y - x| on rationals, 0 between equal
    infinities, infinite otherwise."""
    x, y = ProjPoint(x), ProjPoint(y)
    if x.is_finite and y.is_finite:
        return ExtDistance(abs(y.frac - x.frac))
    if x == y:
        return ExtDistance(0)
    return INF_DIST
