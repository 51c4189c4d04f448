"""Exact arithmetic on the max-plus semiring and its projective line.

The scalar carrier is the rationals extended by a bottom element ``-inf``:
tropical addition is max (so ``-inf`` is the additive identity) and tropical
multiplication is ordinary addition (so 0 is the multiplicative identity and
``-inf`` is absorbing).  Projectivising nonzero pairs of scalars also needs a
top element ``+inf``, giving the two-point compactification of the rational
line, which carries the distance ``delta``:  |y - x| between rationals, 0
between equal infinities, infinite otherwise.

Everything here is exact: scalars are arbitrary-precision ``Fraction`` values,
read once from a ``p/q`` token into a reduced pair of ints (``_ratio``), and
the infinities are explicit variants, never sentinel numerics.  The
classification machinery built on top compares endpoints for *equality*, so
there is deliberately no floating-point mode.

A scalar, a projective point and a distance each store one order key
``(kind, value)``: kind -1, 0 or +1 for ``-inf``, finite or ``+inf``, and
value the Fraction, or None at the infinities.  Two keys of the same
infinite kind are equal, so keys order like the values as plain tuples; the
matrix kernels compare keys of the same shape, with int numerators over one
denominator for values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_new = object.__new__

# ASCII digits only: ``\d`` would also match the other Unicode digits.
_RATIONAL_TOKEN = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")
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


def _cut(value) -> str:
    """``str`` of a value for an error message, unquoted; past ``_QUOTE_CHARS``
    characters it is cut and marked as ``_quote`` marks a cut."""
    text = str(value)
    if len(text) <= _QUOTE_CHARS:
        return text
    return f"{text[:_QUOTE_CHARS]}… ({len(text)} characters)"


def _ratio(value: str) -> tuple[int, int]:
    """A ``p/q`` or integer token read once, straight to ints: its numerator
    and positive denominator in lowest terms, the length cap checked first."""
    token = value.strip()
    if len(token) > MAX_TOKEN_CHARS:
        raise ValueError(
            f"bad rational token of {len(token)} characters: expected an "
            f"integer or 'p/q' of at most {MAX_TOKEN_CHARS} characters"
        )
    m = _RATIONAL_TOKEN.fullmatch(token)
    if m is None:
        raise ValueError(f"bad rational token {_quote(value)}: expected an integer or 'p/q'")
    p, q = int(m[1]), int(m[2] or 1)
    g = gcd(p, q)
    return p // g, q // g


def _as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or ``p/q`` token (read once into ints) to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a tropical scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_ratio(value))
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: arithmetic here is exact, pass an int, "
            "Fraction, or 'p/q' string"
        )
    raise TypeError(
        f"cannot build an exact rational from {_quote(value)}: pass an int, "
        "Fraction, or 'p/q' string"
    )


class _Key:
    """The comparison core of the values of the extended line.

    Each value stores its order key ``_k = (kind, value)`` (see the module
    docstring), and every comparison, equality and hash is one of keys.  A
    plain int or Fraction operand is coerced to the class first (one it
    refuses equals no value); a string operand is refused.  Values of
    different classes are never equal.
    """

    __slots__ = ("_k",)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, str):
            name = type(self).__name__
            raise TypeError(f"cannot compare or combine {name} with the string {_quote(other)}")
        return type(self)(other)

    @property
    def frac(self) -> Fraction | None:
        """The rational value, or None at an infinity."""
        return self._k[1]

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self._k == other._k
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            try:
                return self._k == type(self)(other)._k
            except ValueError:  # a value the class refuses equals none of its own
                return False
        return NotImplemented

    def __hash__(self):
        kind, f = self._k
        return hash(f if kind == 0 else self._k)

    def __lt__(self, other):
        return self._k < self._coerce(other)._k

    def __le__(self, other):
        return self._k <= self._coerce(other)._k

    def __gt__(self, other):
        return self._k > self._coerce(other)._k

    def __ge__(self, other):
        return self._k >= self._coerce(other)._k

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


_NEG_KEY = (-1, None)
_POS_KEY = (1, None)


class TropScalar(_Key):
    """A max-plus scalar: an exact rational, or the bottom element ``-inf``.

    Operators follow the tropical convention: ``a + b`` is max, ``a * b`` is
    rational addition.  The order is total with ``-inf`` least.  Instances
    are immutable and hashable; ``TropScalar("-inf")``, ``TropScalar(3)``,
    ``TropScalar("1/2")`` and ``TropScalar(Fraction(1, 2))`` all work.
    """

    __slots__ = ()

    def __init__(self, value):
        self._k = _scalar_key(value)

    def __add__(self, other):
        other = self._coerce(other)
        return self if other._k <= self._k else other

    __radd__ = __add__

    def __mul__(self, other):
        x, y = self._k[1], self._coerce(other)._k[1]
        return _scalar(None if x is None or y is None else x + y)

    __rmul__ = __mul__

    def __neg__(self):
        kind, f = self._k
        if kind:
            raise ValueError("-inf has no tropical multiplicative inverse")
        return _scalar(-f)

    def __str__(self):
        kind, f = self._k
        return "-inf" if kind else str(f)


def _scalar_key(value) -> tuple:
    """The order key of a tropical scalar given as a ``TropScalar``, an int,
    a Fraction, or a ``-inf`` or ``p/q`` token; ``+inf`` is refused."""
    if isinstance(value, TropScalar):
        return value._k
    if isinstance(value, str):
        x, d = _scalar_ratio(value)
        return _NEG_KEY if x is None else (0, Fraction(x, d))
    return 0, _as_fraction(value)


def _scalar_ratio(value) -> tuple[int | None, int]:
    """The reduced numerator and denominator of a scalar as ``_scalar_key``
    takes it, ``(None, 1)`` for ``-inf``; a token builds no Fraction."""
    if not isinstance(value, str):  # first, so a CLI token pays for no fast path
        if type(value) is Fraction:
            return value.as_integer_ratio()
        if type(value) is int:  # a bool is refused by _as_fraction
            return value, 1
        f = value._k[1] if isinstance(value, TropScalar) else _as_fraction(value)
        return (None, 1) if f is None else (f.numerator, f.denominator)
    token = value.strip()
    if token == "-inf":
        return None, 1
    if token == "+inf":
        raise ValueError("+inf is not a tropical scalar (it only exists projectively)")
    return _ratio(value)


BOTTOM = TropScalar("-inf")


def _scalar(f: Fraction | None) -> TropScalar:
    """Wrap a raw value (a Fraction, or None for ``-inf``) without coercing it."""
    if f is None:
        return BOTTOM
    s = _new(TropScalar)
    s._k = (0, f)
    return s


class ProjPoint(_Key):
    """A point of the projective tropical line: a rational, ``-inf`` or ``+inf``.

    Totally ordered with ``-inf`` least and ``+inf`` greatest.  Negation is
    defined everywhere and swaps the infinities.  Built from a point, a
    ``+inf`` token, or anything ``TropScalar`` accepts.
    """

    __slots__ = ()

    def __init__(self, value):
        if isinstance(value, ProjPoint):
            self._k = value._k
        elif isinstance(value, str) and value.strip() == "+inf":
            self._k = _POS_KEY
        else:
            self._k = _scalar_key(value)

    @property
    def is_finite(self) -> bool:
        return self._k[0] == 0

    def to_scalar(self) -> TropScalar:
        """Reinterpret as a tropical scalar; rejects ``+inf``."""
        if self._k[0] == 1:
            raise ValueError("+inf is not a tropical scalar")
        return _scalar(self._k[1])

    def __neg__(self):
        kind, f = self._k
        return _point((-kind, None if f is None else -f))

    def __str__(self):
        kind, f = self._k
        if kind:
            return "+inf" if kind == 1 else "-inf"
        return str(f)


NEG_INF = ProjPoint("-inf")
POS_INF = ProjPoint("+inf")


def _point(k: tuple) -> ProjPoint:
    """Wrap an order key (kind, value), the value None at the infinities,
    without coercing it."""
    p = _new(ProjPoint)
    p._k = k
    return p


class ExtDistance(_Key):
    """A distance value: a nonnegative exact rational, or infinite.

    Supports addition (infinity absorbs) and total order (infinity greatest),
    which is all the triangle inequality and diameter comparisons need.
    """

    __slots__ = ()

    def __init__(self, value):
        if isinstance(value, ExtDistance):
            self._k = value._k
        elif isinstance(value, str) and value.strip() == "inf":
            self._k = _POS_KEY
        else:
            f = _as_fraction(value)
            if f < 0:
                raise ValueError(f"distances are nonnegative, got {f}")
            self._k = (0, f)

    def __add__(self, other):
        other = self._coerce(other)
        if self._k[0] or other._k[0]:
            return INF_DIST
        return ExtDistance(self._k[1] + other._k[1])

    __radd__ = __add__

    def __str__(self):
        kind, f = self._k
        return "inf" if kind else str(f)


INF_DIST = ExtDistance("inf")


def delta(x, y) -> ExtDistance:
    """The projective-line distance: |y - x| on rationals, 0 between equal
    infinities, infinite otherwise."""
    x, y = ProjPoint(x), ProjPoint(y)
    if x.is_finite and y.is_finite:
        return ExtDistance(abs(y.frac - x.frac))
    if x == y:
        return ExtDistance(0)
    return INF_DIST
