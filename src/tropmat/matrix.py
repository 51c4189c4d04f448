"""Tropical 2x2 matrix arithmetic, plus the residuation solver.

Matrices are 2x2 grids of exact max-plus scalars, the only shape the
classification theory has; every constructor refuses another.  The product
is ``(A @ B)[i,j] = max_k A[i,k] + B[k,j]``.  A column vector v is asked
about as the matrix ``[v v]`` whose two columns are both v.  Residuation
computes the greatest X with ``B @ X <= A`` entrywise (the left residual) or
with ``X @ B <= A`` (the right residual, the transpose of the left residual
of the transposes).  Residual entries live in the completed carrier that
also contains ``+inf``: a residual coordinate is ``+inf`` exactly when
nothing constrains it, i.e. every term of its min has a ``-inf`` divisor
entry or a ``+inf`` target entry.  One rule, ``_column``, computes the
entries of a residual column by column as the entries of its witness, the
concrete solution over the plain semiring that puts 0 at each ``+inf``;
``solves_right`` decides with the same rule.  This makes ``A = B @ X``
decidable:  it is solvable iff that witness attains A.

Each matrix and residual matrix stores its entries ``(p, q, r, s)`` flat,
row by row, as ``int`` numerators (None for ``-inf``) over one positive
``int`` denominator, the lcm of their reduced denominators: a canonical
form, held in ``_Store``.  Max and + commute with scaling by a positive
integer, so the kernels rescale two operands to the lcm of their
denominators (``_common``, the one rescale), compute on ints and reduce the
result; only the public accessors build ``Fraction`` values.  Transposes,
residual witnesses and the monomial inverse only move or negate canonical
entries, and the JSON decoder and ``subgroup_element`` build theirs in
lowest terms, so none reduces again.  ``parse_matrix`` reads a canonical
literal in one match of ``_LITERAL`` and reduces its store once; every
other input goes through the JSON decoder, which gives every error message.

There is one product kernel, ``_product``, from two stores to the store of
their product.  ``@`` wraps it in a matrix; the witness constructions
(``j_factorization``, ``regular_witness``, ``idempotent_in_H``) run their
checks on it directly, comparing stores and building no matrix.  Both
residuals share one kernel, ``_residual``, which returns
``ResidualMatrix._over`` of its ``_column`` results: the right residual reads
the entry tuples transposed and writes X's entries transposed back.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

from .semiring import (
    _NEG_KEY, _POS_KEY, _RATIONAL_TOKEN, MAX_TOKEN_CHARS, ProjPoint, TropScalar, _point,
    _quote, _scalar, _scalar_key, _scalar_ratio, _str,
)


class VerificationError(AssertionError):
    """A construction failed the exact check it runs before returning.

    Raised explicitly, so the check also runs under ``python -O``; it is a
    library defect, never an answer about the input.
    """


def _frac(x, den) -> Fraction | None:
    """The value of the numerator x over den; None (``-inf``) stays None."""
    return None if x is None else Fraction(x, den)


def _token(x, den) -> str:
    """``str(Fraction(x, den))``, or ``-inf`` for None, without the Fraction."""
    if x is None:
        return "-inf"
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _check_shape(n: int, square: bool, what: str) -> None:
    """Refuse an n-row grid unless it is square (``square``) and 2x2."""
    if n <= 0 or not square:
        raise ValueError(f"{what} must be square and nonempty")
    if n != 2:
        raise ValueError(f"the classification theory is specific to 2x2 matrices, got {n}x{n}")


def _row(row, what: str):
    """row, if it is a list or tuple; a TypeError naming its type otherwise,
    as a str, bytes or dict row would be read element by element."""
    if isinstance(row, (list, tuple)):
        return row
    raise TypeError(f"{what} rows must be lists or tuples, not {type(row).__name__}")


def _flat(rows, what: str = "matrix") -> tuple:
    """The entries (p, q, r, s) of rows that form a 2x2 grid, row by row; a
    ValueError for any other shape."""
    _check_shape(len(rows), all(len(row) == len(rows) for row in rows), what)
    (p, q), (r, s) = rows
    return p, q, r, s


def _stored(vals) -> tuple[tuple, int]:
    """The stored form of Fractions (or ints; None for ``-inf``): their
    numerators over den, the lcm of their reduced denominators.  It is
    already in lowest terms: a prime dividing den divides some entry's
    reduced denominator to the full power, so not that entry's numerator."""
    den = lcm(*[f.denominator for f in vals if f is not None])
    return tuple([None if f is None else f.numerator * (den // f.denominator) for f in vals]), den


def _lowest(nums: tuple, den: int) -> tuple[tuple, int]:
    """The four numerators over den in lowest terms, which is the stored
    form: both divided by the gcd of den and every finite numerator."""
    p, q, r, s = nums
    g = gcd(den, p or 0, q or 0, r or 0, s or 0)
    if g == 1:
        return nums, den
    # ``x and x // g`` keeps None (``-inf``) as None and 0 as 0
    return (p and p // g, q and q // g, r and r // g, s and s // g), den // g


def _rescaled(nums: tuple, k: int) -> tuple:
    """The four numerators multiplied by the positive int k."""
    if k == 1:
        return nums
    p, q, r, s = nums
    return p and p * k, q and q * k, r and r * k, s and s * k


def _common(x: tuple, dx: int, y: tuple, dy: int) -> tuple[tuple, tuple, int]:
    """The entries x over dx and y over dy, both over the lcm of the two
    denominators, and that lcm: the one rescale of two operands."""
    if dx == dy:
        return x, y, dx
    den = lcm(dx, dy)
    return _rescaled(x, den // dx), _rescaled(y, den // dy), den


def _product(x: tuple, dx: int, y: tuple, dy: int) -> tuple[tuple, int]:
    """The store of the max-plus product of the stores (x, dx) and (y, dy):
    the one product kernel, on numerators over the lcm of the
    denominators."""
    (p, q, r, s), (e, f, g, h), den = _common(x, dx, y, dy)
    return _lowest((_dot(p, e, q, g), _dot(p, f, q, h), _dot(r, e, s, g), _dot(r, f, s, h)), den)


def _dot(x1, y1, x2, y2):
    """The max-plus inner product max(x1 + y1, x2 + y2) of numerators over
    one denominator; None is ``-inf``."""
    if x1 is None or y1 is None:
        return None if x2 is None or y2 is None else x2 + y2
    if x2 is None or y2 is None:
        return x1 + y1
    a, b = x1 + y1, x2 + y2
    return a if a > b else b


def _max(x, y):
    """The tropical sum max(x, y) of two numerators over one denominator;
    None is ``-inf``."""
    return y if x is None or (y is not None and y > x) else x


class _Store:
    """The store of a matrix or residual matrix: its flat entries ``_e``
    (see the module docstring) over the positive int ``_den``, in canonical
    form, and the flags ``_free`` of its ``+inf`` entries, so two values of
    one type are equal exactly when their stores are.  ``rows``, ``[i, j]``
    and the repr read the entries here, each through the subclass's
    ``_entry(x, free)``, which builds the value of the numerator x."""

    __slots__ = ("_e", "_den")

    _free = (False, False, False, False)  # only a residual matrix has +inf

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._den == other._den and self._e == other._e and self._free == other._free

    def __hash__(self):
        return hash((self._e, self._den, self._free))

    @property
    def rows(self) -> tuple[tuple, tuple]:
        p, q, r, s = map(self._entry, self._e, self._free)
        return (p, q), (r, s)

    def __getitem__(self, ij):
        i, j = ij
        k = (0, 2)[i] + (0, 1)[j]
        return self._entry(self._e[k], self._free[k])

    def __repr__(self):
        return f"{type(self).__name__}({[[str(e) for e in row] for row in self.rows]!r})"


class TropMatrix(_Store):
    """A 2x2 matrix of tropical scalars.

    ``A @ B`` is the max-plus product and ``A + B`` the entrywise max; the
    action on a column vector v is ``A @ [v v]``.  Instances are immutable.
    Entries are stored as int numerators over one denominator, as the
    module docstring describes; ``rows`` and ``[i, j]`` build fresh, equal
    scalars.
    """

    # _pc and _pr hold the projective column and row spaces once geometry
    # has computed them; an immutable matrix never needs them cleared.
    __slots__ = ("_pc", "_pr")

    def __init__(self, rows):
        rows = [[_scalar_key(e)[1] for e in _row(row, "matrix")] for row in rows]
        self._e, self._den = _stored(_flat(rows))
        self._pc = self._pr = None

    @classmethod
    def _over(cls, nums: tuple, den: int, lowest: bool = False) -> "TropMatrix":
        """The matrix of the numerators (p, q, r, s) over den, brought to
        lowest terms unless the caller knows they are (``lowest``)."""
        m = object.__new__(cls)
        m._e, m._den = (nums, den) if lowest else _lowest(nums, den)
        m._pc = m._pr = None
        return m

    @classmethod
    def identity(cls, n: int) -> "TropMatrix":
        _check_shape(n, True, "matrix")
        return cls._over((0, None, None, 0), 1)

    @classmethod
    def zero(cls, n: int) -> "TropMatrix":
        _check_shape(n, True, "matrix")
        return cls._over((None, None, None, None), 1)

    def _entry(self, x, free) -> TropScalar:
        return _scalar(_frac(x, self._den))

    @property
    def is_zero(self) -> bool:
        return self._e == (None, None, None, None)

    def __matmul__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        nums, den = _product(self._e, self._den, other._e, other._den)
        return TropMatrix._over(nums, den, True)

    def __add__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        xs, ys, den = _common(self._e, self._den, other._e, other._den)
        return TropMatrix._over(tuple(map(_max, xs, ys)), den)

    def transpose(self) -> "TropMatrix":
        p, q, r, s = self._e
        return TropMatrix._over((p, r, q, s), self._den, True)

    def is_monomial(self) -> bool:
        """True iff exactly one entry per row and per column is not ``-inf``.

        These are precisely the invertible elements of the matrix monoid.
        """
        finite = tuple(x is not None for x in self._e)
        return finite in ((True, False, False, True), (False, True, True, False))

    def to_tokens(self) -> list[list[str]]:
        p, q, r, s = [_token(x, self._den) for x in self._e]
        return [[p, q], [r, s]]

    def __str__(self):
        return json.dumps(self.to_tokens())


# integers stay strings, so they meet the one rational grammar and its cap;
# built once, as ``json.loads(text, parse_int=str)`` would build it per call
_DECODER = json.JSONDecoder(parse_int=str)

# the canonical literal: two rows of two quoted tokens, each ``-inf`` or of
# the one rational grammar, with only JSON whitespace around ``[``, ``,``, ``]``
_WS, _TOKEN = r"[ \t\n\r]*", f'"(?:-inf|{_RATIONAL_TOKEN.pattern})"'
_ROW = rf"\[{_WS}{_TOKEN}{_WS},{_WS}{_TOKEN}{_WS}\]"
_LITERAL = re.compile(rf"{_WS}\[{_WS}{_ROW}{_WS},{_WS}{_ROW}{_WS}\]{_WS}")


def parse_matrix(text: str) -> TropMatrix:
    """Parse the JSON interchange form, e.g. ``[["0","-inf"],["1/2","3"]]``: a canonical
    literal within the token cap (so no token is over it) by one match, else by the decoder."""
    m = _LITERAL.fullmatch(text) if type(text) is str and len(text) <= MAX_TOKEN_CHARS else None
    if m is None:
        return _decode_matrix(text)
    nums = [None if x is None else int(x) for x in m.group(1, 3, 5, 7)]
    dens = [1 if x is None else int(x) for x in m.group(2, 4, 6, 8)]
    den = lcm(*dens)  # of the unreduced denominators: ``_over`` brings it to lowest terms
    return TropMatrix._over(tuple([x and x * (den // d) for x, d in zip(nums, dens)]), den)


def _decode_matrix(text: str) -> TropMatrix:
    """``parse_matrix`` of any text by the JSON decoder, which gives every error message."""
    _str(text, "matrix JSON")
    try:
        if text.startswith("\ufeff"):  # refused with json.loads's message
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        data = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad matrix JSON at offset {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise ValueError(
            "bad matrix JSON: nested too deeply for arrays of '-inf' or 'p/q' tokens"
        ) from None
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix must be a JSON array of arrays of scalar tokens")
    rows = []
    for i, row in enumerate(data):
        out = []
        for j, tok in enumerate(row):
            try:
                out.append(_scalar_ratio(tok))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"matrix entry ({i},{j}): {exc}") from exc
        rows.append(out)
    pairs = _flat(rows)
    den = lcm(*[d for _, d in pairs])  # the numerators over it are in lowest terms: see ``_stored``
    return TropMatrix._over(tuple([x and x * (den // d) for x, d in pairs]), den, True)


def monomial_inverse(a: TropMatrix) -> TropMatrix:
    """The two-sided inverse of a monomial matrix: negate each finite entry
    and transpose its position."""
    if not a.is_monomial():
        raise ValueError("matrix is not monomial, hence not invertible")
    p, q, r, s = a._e
    inverse = (-p, None, None, -s) if q is None else (None, -r, -q, None)
    return TropMatrix._over(inverse, a._den, True)


def residual_scalar(target, divisor) -> ProjPoint:
    """The greatest t with divisor + t <= target, in the completed order.

    Unconstrained when the divisor is ``-inf`` (yielding ``+inf``), and
    ``-inf`` when a ``-inf`` target meets a finite divisor.  The target may
    itself be ``+inf`` (residuals of residuals), which is also unconstraining.
    """
    (kind, t), d = ProjPoint(target)._k, _scalar_key(divisor)[1]
    if d is None or kind == 1:
        return _point(_POS_KEY)
    return _point(_NEG_KEY if kind == -1 else (0, t - d))


class ResidualMatrix(_Store):
    """Greatest-subsolution 2x2 matrix over the completed carrier.

    Entries are projective-line values; ``+inf`` marks coordinates the
    divisor leaves unconstrained.  ``witness()`` returns a concrete plain
    solution by putting 0 in those coordinates (any finite value there
    multiplies only ``-inf`` entries of the divisor, so the choice is free).
    The store is that witness, canonical as in ``TropMatrix``, and the flags
    ``_free`` of the ``+inf`` entries, whose numerators are 0; ``rows`` and
    ``[i, j]`` build fresh, equal points.
    """

    __slots__ = ("_free",)

    def __init__(self, rows):
        what = "residual matrix"
        keys = _flat([[ProjPoint(e)._k for e in _row(row, what)] for row in rows], what)
        self._e, self._den = _stored([0 if kind == 1 else f for kind, f in keys])
        self._free = tuple([kind == 1 for kind, _ in keys])

    @classmethod
    def _over(cls, nums: tuple, free: tuple, den: int, lowest: bool = False) -> "ResidualMatrix":
        """The residual matrix of the witness numerators (p, q, r, s) over
        den, brought to lowest terms unless they are (``lowest``), with
        ``+inf`` where free."""
        m = object.__new__(cls)
        m._e, m._den = (nums, den) if lowest else _lowest(nums, den)
        m._free = free
        return m

    def _entry(self, x, free) -> ProjPoint:
        return _point(_POS_KEY if free else _NEG_KEY if x is None else (0, Fraction(x, self._den)))

    def transpose(self) -> "ResidualMatrix":
        (p, q, r, s), (fp, fq, fr, fs) = self._e, self._free
        return ResidualMatrix._over((p, r, q, s), (fp, fr, fq, fs), self._den, True)

    def witness(self) -> TropMatrix:
        return TropMatrix._over(self._e, self._den, True)


def _column(t1, t2, p, q, r, s) -> tuple:
    """The one witness rule: the entries x0 = min(t1 - p, t2 - r) and
    x1 = min(t1 - q, t2 - s) of the greatest x with ``[[p, q], [r, s]] @ x
    <= (t1, t2)``, on numerators over one denominator.  A ``-inf`` divisor
    entry drops its term (both dropped leave ``+inf``, witness entry 0), and
    a ``-inf`` target entry over a finite divisor entry gives ``-inf``."""
    if p is None:
        x0 = 0 if r is None else None if t2 is None else t2 - r
    elif t1 is None or (r is not None and t2 is None):
        x0 = None
    else:
        x0 = t1 - p if r is None or t1 - p < t2 - r else t2 - r
    if q is None:
        x1 = 0 if s is None else None if t2 is None else t2 - s
    elif t1 is None or (s is not None and t2 is None):
        x1 = None
    else:
        x1 = t1 - q if s is None or t1 - q < t2 - s else t2 - s
    return x0, x1


def _residual(b: TropMatrix, a: TropMatrix | ResidualMatrix, right: bool) -> ResidualMatrix:
    """The one residual kernel: the greatest X with ``b @ X <= a`` or, when
    ``right``, with ``X @ b <= a``.  The right residual is the transpose of
    the left residual of the transposes, so it reads the entry tuples of b
    and a transposed and writes X's entries transposed back."""
    if not isinstance(b, TropMatrix):
        raise TypeError(f"expected a TropMatrix, not {_quote(b)}")
    if not isinstance(a, _Store):
        raise TypeError(f"expected a TropMatrix or a ResidualMatrix, not {_quote(a)}")
    (p, q, r, s), (e, f, g, h), den = _common(b._e, b._den, a._e, a._den)
    fe, ff, fg, fh = a._free
    if right:
        q, r, f, g, ff, fg = r, q, g, f, fg, ff
    # a +inf target entry drops its row of b from its column's min
    p0, q0 = (None, None) if fe else (p, q)
    r0, s0 = (None, None) if fg else (r, s)
    p1, q1 = (None, None) if ff else (p, q)
    r1, s1 = (None, None) if fh else (r, s)
    (x0, x2), (x1, x3) = _column(e, g, p0, q0, r0, s0), _column(f, h, p1, q1, r1, s1)
    t0, t1 = p0 is None and r0 is None, p1 is None and r1 is None
    t2, t3 = q0 is None and s0 is None, q1 is None and s1 is None
    if right:
        x1, x2, t1, t2 = x2, x1, t2, t1
    return ResidualMatrix._over((x0, x1, x2, x3), (t0, t1, t2, t3), den)


def left_residual(b: TropMatrix, a: TropMatrix | ResidualMatrix) -> ResidualMatrix:
    """The greatest X with ``b @ X <= a`` entrywise: X[k,j] = min_i (a[i,j] - b[i,k])
    under the residuated subtraction of ``residual_scalar``.

    The target a may itself be a residual, whose ``+inf`` entries leave their
    coordinates unconstrained: such a term drops out of the min, as a term
    over a ``-inf`` divisor entry does."""
    return _residual(b, a, False)


def right_residual(a: TropMatrix | ResidualMatrix, b: TropMatrix) -> ResidualMatrix:
    """The greatest X with ``X @ b <= a``: X[i,k] = min_j (a[i,j] - b[k,j]), the
    transpose dual of left_residual; the target a may be a residual there too."""
    return _residual(b, a, True)


def solves_right(b: TropMatrix, a: TropMatrix) -> bool:
    """Whether ``a = b @ X`` is solvable, i.e. a lies in b's right ideal.

    Decided by residuation: the equation is solvable iff the materialized
    greatest subsolution attains a, checked column by column.
    """
    if not isinstance(b, TropMatrix) or not isinstance(a, TropMatrix):
        bad = a if isinstance(b, TropMatrix) else b
        raise TypeError(f"expected a TropMatrix, not {_quote(bad)}")
    (p, q, r, s), (e, f, g, h), _ = _common(b._e, b._den, a._e, a._den)
    # unrolled: a loop over the two columns made the call about 15% slower
    x0, x1 = _column(e, g, p, q, r, s)
    if _dot(p, x0, q, x1) != e or _dot(r, x0, s, x1) != g:
        return False
    x0, x1 = _column(f, h, p, q, r, s)
    return _dot(p, x0, q, x1) == f and _dot(r, x0, s, x1) == h
