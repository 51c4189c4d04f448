"""Projective column/row spaces of 2x2 matrices and their isometry theory.

A 2-generated convex set in the projective tropical line is empty, a single
point, or a closed interval; these are the values of the column-space and
row-space maps and they index the R- and L-classes of the matrix monoid.
Isometry between two such sets is decided combinatorially through a
five-way isometry type (empty, point, finite interval of a given diameter,
half-infinite interval, full line), and isometric *embedding* totally
orders the types.  Orientation-reversing isometries are allowed, so the two
half-infinite orientations form a single type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import TropMatrix, TropVector, solves_right
from .semiring import (
    NEG_INF,
    POS_INF,
    ExtDistance,
    ProjPoint,
    _as_fraction,
    _image,
    _quote,
    delta,
)


class ConvexSet:
    """A closed convex subset of the projective line.

    Canonical form: empty (no endpoints), a point (equal endpoints), or an
    interval with ``lo < hi`` strictly.  Construct through ``empty()``,
    ``point()`` and ``interval()``; the latter sorts its endpoints and
    collapses equal ones to a point.
    """

    # _iso holds the isometry type once iso_type has computed it.
    __slots__ = ("_lo", "_hi", "_iso")

    def __init__(self, lo: ProjPoint | None, hi: ProjPoint | None):
        self._lo = lo
        self._hi = hi
        self._iso = None

    @classmethod
    def empty(cls) -> "ConvexSet":
        return cls(None, None)

    @classmethod
    def point(cls, p) -> "ConvexSet":
        p = ProjPoint(p)
        return cls(p, p)

    @classmethod
    def interval(cls, a, b) -> "ConvexSet":
        a, b = ProjPoint(a), ProjPoint(b)
        if b < a:
            a, b = b, a
        return cls(a, b)

    @classmethod
    def full_line(cls) -> "ConvexSet":
        return cls(NEG_INF, POS_INF)

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
        return self._lo

    @property
    def hi(self) -> ProjPoint:
        if self._hi is None:
            raise ValueError("the empty set has no endpoints")
        return self._hi

    def contains(self, p) -> bool:
        if self._lo is None:
            return False
        p = ProjPoint(p)
        return self._lo <= p <= self._hi

    def negated(self) -> "ConvexSet":
        """The pointwise negation; swaps and negates the endpoints."""
        if self._lo is None:
            return self
        return ConvexSet(-self._hi, -self._lo)

    def __eq__(self, other):
        if not isinstance(other, ConvexSet):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self):
        return hash((self._lo, self._hi))

    def __str__(self):
        if self.is_empty:
            return "empty"
        if self.is_point:
            return "{" + str(self._lo) + "}"
        return f"[{self._lo},{self._hi}]"

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
_NO_DIAMETER = Fraction(0)


@dataclass(frozen=True)
class IsoType:
    """Isometry class of a closed convex subset of the projective line.

    ``interval`` carries its (positive, finite) diameter; the other kinds
    carry none.  Isometric embedding totally orders the types, realized by
    ``key()``.
    """

    kind: str
    diameter: Fraction | None = None

    def __post_init__(self):
        if self.kind not in _ISO_RANK:
            raise ValueError(f"unknown isometry type {_quote(self.kind)}")
        if self.kind == "interval":
            if self.diameter is None or self.diameter <= 0:
                raise ValueError("interval types carry a positive finite diameter")
        elif self.diameter is not None:
            raise ValueError(f"{self.kind} types carry no diameter")

    def key(self) -> tuple[int, Fraction]:
        return (_ISO_RANK[self.kind], self.diameter or _NO_DIAMETER)

    def __str__(self):
        if self.kind == "interval":
            return f"interval:{self.diameter}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "IsoType":
        token = text.strip()
        if token.startswith("interval:"):
            return IsoType("interval", _as_fraction(token[len("interval:"):]))
        return IsoType(token)


def _require_2x2(a: TropMatrix):
    if a.n != 2:
        raise ValueError(f"the classification theory is specific to 2x2 matrices, got {a.n}x{a.n}")


def proj_point_of(v: TropVector) -> ProjPoint:
    """The projective image of a nonzero 2-vector (x1, x2), namely x2 - x1
    under extended subtraction."""
    if v.n != 2:
        raise ValueError("projectivisation here is for 2-vectors")
    return _image(*v._entries)


def _span(x1, x2, y1, y2) -> ConvexSet:
    """The projective span of the raw 2-vectors (x1, x2) and (y1, y2), each
    entry a Fraction or None for ``-inf``.

    Empty when both vectors are zero; a point when one is (the image of the
    other); otherwise the closed interval spanned by the two images.
    """
    if x1 is None and x2 is None:
        if y1 is None and y2 is None:
            return ConvexSet.empty()
        p = _image(y1, y2)
        return ConvexSet(p, p)
    p = _image(x1, x2)
    if y1 is None and y2 is None:
        return ConvexSet(p, p)
    q = _image(y1, y2)
    return ConvexSet(q, p) if q < p else ConvexSet(p, q)


def proj_column_space(a: TropMatrix) -> ConvexSet:
    """The projectivised column space of a 2x2 matrix: the span of the
    images of its two columns.  Computed once per matrix; every call
    returns the same immutable set."""
    pc = a._pc
    if pc is None:
        _require_2x2(a)
        (p, q), (r, s) = a._rows
        pc = a._pc = _span(p, r, q, s)
    return pc


def proj_row_space(a: TropMatrix) -> ConvexSet:
    """The projectivised row space: the span of the images of the two rows,
    i.e. the column space of the transpose.  Computed once per matrix."""
    pr = a._pr
    if pr is None:
        _require_2x2(a)
        (p, q), (r, s) = a._rows
        pr = a._pr = _span(p, q, r, s)
    return pr


def diameter(s: ConvexSet) -> ExtDistance:
    """sup of pairwise distances: 0 for the empty set and points, the
    endpoint distance for intervals."""
    if s.is_empty or s.is_point:
        return ExtDistance(0)
    return delta(s.lo, s.hi)


def iso_type(s: ConvexSet) -> IsoType:
    """The isometry type of s, computed once per set."""
    t = s._iso
    if t is None:
        if s.is_empty:
            t = IsoType("empty")
        elif s.is_point:
            t = IsoType("point")
        elif s.lo.is_neg_inf and s.hi.is_pos_inf:
            t = IsoType("fullline")
        elif s.lo.is_neg_inf or s.hi.is_pos_inf:
            t = IsoType("halfinf")
        else:
            t = IsoType("interval", s.hi.frac - s.lo.frac)
        s._iso = t
    return t


def isometric(s: ConvexSet, t: ConvexSet) -> bool:
    """Whether a distance-preserving bijection exists (orientation may flip):
    equivalent to having equal isometry types."""
    return iso_type(s) == iso_type(t)


def _as_iso_type(x) -> IsoType:
    if isinstance(x, IsoType):
        return x
    if isinstance(x, ConvexSet):
        return iso_type(x)
    raise TypeError(f"expected a convex set or isometry type, got {x!r}")


def embeds_isometrically(s, t) -> bool:
    """Whether s embeds isometrically into t (arguments may be sets or types).

    The embedding order is total on isometry types: empty, then points, then
    finite intervals by diameter, then half-infinite intervals, then the full
    line.
    """
    return _as_iso_type(s).key() <= _as_iso_type(t).key()


def subset(s: ConvexSet, t: ConvexSet) -> bool:
    """Literal containment of closed convex sets."""
    if s.is_empty:
        return True
    if t.is_empty:
        return False
    return t.lo <= s.lo and s.hi <= t.hi


def in_column_space(v: TropVector, a: TropMatrix) -> bool:
    """Whether v is a tropical linear combination of a's columns.

    Decided by residuation, as right divisibility of the matrix whose two
    columns are both v.  The zero vector is always a member (scale every
    column by ``-inf``).
    """
    _require_2x2(a)
    if a.n != v.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {v.n}")
    return solves_right(a, TropMatrix._of(tuple((f, f) for f in v._entries)))


def embed_image(s: ConvexSet, t: ConvexSet) -> ConvexSet:
    """A concrete isometric copy of s inside t.

    Exists exactly when s embeds isometrically in t; raises otherwise.
    """
    if not embeds_isometrically(s, t):
        raise ValueError(f"{s} does not embed isometrically in {t}")
    if s.is_empty:
        return ConvexSet.empty()
    if s.is_point:
        if t.is_point or t.lo.is_finite:
            return ConvexSet.point(t.lo)
        if t.hi.is_finite:
            return ConvexSet.point(t.hi)
        return ConvexSet.point(ProjPoint(0))
    st = iso_type(s)
    if st.kind == "interval":
        d = st.diameter
        if t.lo.is_finite:
            return ConvexSet.interval(t.lo, ProjPoint(t.lo.frac + d))
        if t.hi.is_finite:
            return ConvexSet.interval(ProjPoint(t.hi.frac - d), t.hi)
        return ConvexSet.interval(ProjPoint(0), ProjPoint(d))
    if st.kind == "halfinf":
        if iso_type(t).kind == "halfinf":
            return t
        return ConvexSet.interval(ProjPoint(0), POS_INF)
    return t  # full line only embeds in the full line


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
