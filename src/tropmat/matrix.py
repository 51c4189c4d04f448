"""Tropical 2x2 matrix arithmetic, plus the residuation solver.

Matrices are 2x2 grids of exact max-plus scalars, the only shape the
classification theory has; every constructor refuses another.  The product
is ``(A @ B)[i,j] = max_k A[i,k] + B[k,j]``.  A column vector v is asked
about as the matrix ``[v v]`` whose two columns are both v.  Residuation
computes the greatest X with ``B @ X <= A`` entrywise.  Residual entries live
in the completed carrier that also contains ``+inf`` (a residual coordinate
is ``+inf`` exactly when nothing constrains it, i.e. the matching column of
the divisor is the zero vector); such entries are quarantined in
``ResidualMatrix`` and replaced by 0 when a concrete solution over the plain
semiring is materialized.  This makes ``A = B @ X`` decidable:  it is
solvable iff the materialized greatest subsolution attains A.

Each matrix and residual matrix stores one positive ``int`` denominator
``den``, the lcm of the reduced denominators of its finite entries, and its
entries ``(p, q, r, s)`` flat, row by row, as ``int`` numerators over it
(None for ``-inf``), in the store the two share, ``_Store``.  That form is
canonical, so ``_Store``'s one equality and hash compare it structurally.
Max and + commute with scaling by a positive integer, so the kernels rescale
two operands to the lcm of their denominators, compute on ints and bring the
result to lowest terms; only the public accessors build ``Fraction`` values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

from .semiring import _NEG_KEY, _POS_KEY, ProjPoint, TropScalar, _point, _scalar, _scalar_key


class VerificationError(AssertionError):
    """A construction failed the exact check it runs before returning.

    Raised explicitly, so the check also runs under ``python -O``; it is a
    library defect, never an answer about the input.
    """


def _frac(x, den) -> Fraction | None:
    """The value of the numerator x over den; None (``-inf``) stays None."""
    return None if x is None else Fraction(x, den)


def _token(x, den) -> str:
    return "-inf" if x is None else str(Fraction(x, den))


def _check_shape(n: int, square: bool, what: str) -> None:
    """Refuse an n-row grid unless it is square (``square``) and 2x2."""
    if n <= 0 or not square:
        raise ValueError(f"{what} must be square and nonempty")
    if n != 2:
        raise ValueError(f"the classification theory is specific to 2x2 matrices, got {n}x{n}")


def _flat(rows, what: str = "matrix") -> tuple:
    """The entries (p, q, r, s) of rows that form a 2x2 grid, row by row; a
    ValueError for any other shape."""
    _check_shape(len(rows), all(len(row) == len(rows) for row in rows), what)
    (p, q), (r, s) = rows
    return p, q, r, s


def _at(e: tuple, ij):
    """The entry (i, j) of flat 2x2 entries e, indexed as a nested grid."""
    i, j = ij
    return e[(0, 2)[i] + (0, 1)[j]]


def _stored(vals) -> tuple[tuple, int]:
    """The stored form of Fractions (or ints; None for ``-inf``): their
    numerators over den, the lcm of their reduced denominators.  It is
    already in lowest terms: a prime dividing den divides some entry's
    reduced denominator to the full power, so not that entry's numerator."""
    den = lcm(*[f.denominator for f in vals if f is not None])
    return tuple([None if f is None else f.numerator * (den // f.denominator) for f in vals]), den


def _lowest(nums: tuple, den: int) -> tuple[tuple, int]:
    """Numerators over den in lowest terms, which is the stored form: both
    divided by the gcd of den and every finite numerator."""
    if den != 1:
        g = gcd(den, *(x for x in nums if x is not None))
        if g != 1:
            return tuple([None if x is None else x // g for x in nums]), den // g
    return nums, den


def _rescaled(nums: tuple, k: int) -> tuple:
    """Numerators multiplied by the positive int k."""
    if k == 1:
        return nums
    return tuple([None if x is None else x * k for x in nums])


def _common(x: "_Store", y: "_Store") -> tuple[tuple, tuple, int]:
    """The entries of two stores over the lcm of their denominators, and
    that lcm."""
    dx, dy = x._den, y._den
    if dx == dy:
        return x._e, y._e, dx
    den = lcm(dx, dy)
    return _rescaled(x._e, den // dx), _rescaled(y._e, den // dy), den


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
    form, so two values of one type are equal exactly when their stores
    are."""

    __slots__ = ("_e", "_den")

    n = 2  # the dimension of every matrix

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._den == other._den and self._e == other._e

    def __hash__(self):
        return hash((self._e, self._den))


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
        self._e, self._den = _stored(_flat([[_scalar_key(e)[1] for e in row] for row in rows]))
        self._pc = self._pr = None

    @classmethod
    def _of(cls, rows) -> "TropMatrix":
        """The matrix of 2x2 rows of Fractions (None for ``-inf``), without
        coercion."""
        m = object.__new__(cls)
        m._e, m._den = _stored(_flat(rows))
        m._pc = m._pr = None
        return m

    @classmethod
    def _over(cls, nums: tuple, den: int) -> "TropMatrix":
        """The matrix of the numerators (p, q, r, s) over den, brought to
        lowest terms."""
        m = object.__new__(cls)
        m._e, m._den = _lowest(nums, den)
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

    @property
    def rows(self) -> tuple[tuple[TropScalar, ...], ...]:
        p, q, r, s = [_scalar(_frac(x, self._den)) for x in self._e]
        return (p, q), (r, s)

    @property
    def is_zero(self) -> bool:
        return self._e == (None, None, None, None)

    def __getitem__(self, ij) -> TropScalar:
        return _scalar(_frac(_at(self._e, ij), self._den))

    def __matmul__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        (p, q, r, s), (e, f, g, h), den = _common(self, other)
        return TropMatrix._over(
            (_dot(p, e, q, g), _dot(p, f, q, h), _dot(r, e, s, g), _dot(r, f, s, h)), den
        )

    def __add__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        xs, ys, den = _common(self, other)
        return TropMatrix._over(tuple(map(_max, xs, ys)), den)

    def transpose(self) -> "TropMatrix":
        p, q, r, s = self._e
        return TropMatrix._over((p, r, q, s), self._den)

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

    def __repr__(self):
        return f"TropMatrix({self.to_tokens()!r})"


def parse_matrix(text: str) -> TropMatrix:
    """Parse the JSON interchange form, e.g. ``[["0","-inf"],["1/2","3"]]``."""
    try:
        # integers stay strings, so they meet the one rational grammar and
        # its length cap
        data = json.loads(text, parse_int=str)
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
                out.append(_scalar_key(tok)[1])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"matrix entry ({i},{j}): {exc}") from exc
        rows.append(out)
    return TropMatrix._of(rows)


def monomial_inverse(a: TropMatrix) -> TropMatrix:
    """The two-sided inverse of a monomial matrix: negate each finite entry
    and transpose its position."""
    if not a.is_monomial():
        raise ValueError("matrix is not monomial, hence not invertible")
    p, q, r, s = a._e
    return TropMatrix._over(tuple([None if x is None else -x for x in (p, r, q, s)]), a._den)


def _residual(t: tuple, d) -> tuple:
    """The rule of ``residual_scalar``: the target's order key t and the
    divisor d (None for ``-inf``) in, the result's order key out.  Values
    are Fractions, or numerators over one denominator."""
    kind = t[0]
    if d is None or kind == 1:
        return _POS_KEY
    if kind == -1:
        return _NEG_KEY
    return 0, t[1] - d


def _plain(k: tuple):
    """The witness numerator of a residual entry's key: 0 for ``+inf``,
    which no divisor entry constrains, else its own value."""
    return 0 if k[0] == 1 else k[1]


def residual_scalar(target, divisor) -> ProjPoint:
    """The greatest t with divisor + t <= target, in the completed order.

    Unconstrained when the divisor is ``-inf`` (yielding ``+inf``), and
    ``-inf`` when a ``-inf`` target meets a finite divisor.  The target may
    itself be ``+inf`` (residuals of residuals), which is also unconstraining.
    """
    return _point(_residual(ProjPoint(target)._k, _scalar_key(divisor)[1]))


class ResidualMatrix(_Store):
    """Greatest-subsolution 2x2 matrix over the completed carrier.

    Entries are projective-line values; ``+inf`` marks coordinates the
    divisor leaves unconstrained.  ``witness()`` returns a concrete plain
    solution by putting 0 in those coordinates (any finite value there
    multiplies only ``-inf`` entries of the divisor, so the choice is free).
    Entries are stored as the order keys of their points (see ``semiring``)
    with an int numerator over the matrix's one denominator for the value,
    canonical as in ``TropMatrix``; ``rows`` and ``[i, j]`` build fresh,
    equal points.
    """

    __slots__ = ()

    def __init__(self, rows):
        keys = _flat([[ProjPoint(e)._k for e in row] for row in rows], "residual matrix")
        nums, self._den = _stored([f for _, f in keys])
        self._e = tuple([(k[0], x) for k, x in zip(keys, nums)])

    @classmethod
    def _over(cls, keys: tuple, den: int) -> "ResidualMatrix":
        """The residual matrix of the (kind, num) keys (p, q, r, s) over den,
        brought to lowest terms."""
        if den != 1:
            g = gcd(den, *(x for _, x in keys if x is not None))
            if g != 1:
                den //= g
                keys = tuple([(kind, None if x is None else x // g) for kind, x in keys])
        m = object.__new__(cls)
        m._e = keys
        m._den = den
        return m

    @property
    def rows(self) -> tuple[tuple[ProjPoint, ...], ...]:
        p, q, r, s = [_point((k, _frac(x, self._den))) for k, x in self._e]
        return (p, q), (r, s)

    def __getitem__(self, ij) -> ProjPoint:
        kind, x = _at(self._e, ij)
        return _point((kind, _frac(x, self._den)))

    def transpose(self) -> "ResidualMatrix":
        p, q, r, s = self._e
        return ResidualMatrix._over((p, r, q, s), self._den)

    def witness(self) -> TropMatrix:
        return TropMatrix._over(tuple(map(_plain, self._e)), self._den)

    def dominates(self, x: TropMatrix) -> bool:
        """Entrywise x <= self, with ``+inf`` maximal."""
        return all(
            ProjPoint(e) <= p for r, s in zip(x.rows, self.rows) for e, p in zip(r, s)
        )

    def __repr__(self):
        return f"ResidualMatrix({[[str(e) for e in row] for row in self.rows]!r})"


def left_residual(b: TropMatrix, a: TropMatrix | ResidualMatrix) -> ResidualMatrix:
    """The greatest X with ``b @ X <= a`` entrywise: X[k,j] = min_i (a[i,j] - b[i,k])
    under the residuated subtraction of ``residual_scalar``.

    The target a may itself be a residual, whose ``+inf`` entries leave their
    coordinates unconstrained."""
    den = lcm(b._den, a._den)
    k = den // a._den
    if isinstance(a, ResidualMatrix):
        t = [(kind, None if x is None else x * k) for kind, x in a._e]
    else:
        t = [_NEG_KEY if x is None else (0, x) for x in _rescaled(a._e, k)]
    p, q, r, s = _rescaled(b._e, den // b._den)
    return ResidualMatrix._over(
        (
            min(_residual(t[0], p), _residual(t[2], r)),
            min(_residual(t[1], p), _residual(t[3], r)),
            min(_residual(t[0], q), _residual(t[2], s)),
            min(_residual(t[1], q), _residual(t[3], s)),
        ),
        den,
    )


def right_residual(a: TropMatrix, b: TropMatrix) -> ResidualMatrix:
    """The greatest X with ``X @ b <= a``; the transpose dual of left_residual."""
    return left_residual(b.transpose(), a.transpose()).transpose()


def _least(t1, d1, t2, d2):
    """The witness entry min(t1 - d1, t2 - d2) of a greatest subsolution,
    on numerators over one denominator: a ``-inf`` divisor entry drops its
    term (both dropped leave ``+inf``, whose witness entry is 0), and a
    ``-inf`` target entry over a finite divisor entry gives ``-inf``."""
    if d1 is None:
        if d2 is None:
            return 0
        return None if t2 is None else t2 - d2
    if t1 is None:
        return None
    if d2 is None:
        return t1 - d1
    return None if t2 is None else min(t1 - d1, t2 - d2)


def solves_right(b: TropMatrix, a: TropMatrix) -> bool:
    """Whether ``a = b @ X`` is solvable, i.e. a lies in b's right ideal.

    Decided by residuation: the equation is solvable iff the materialized
    greatest subsolution attains a.
    """
    (p, q, r, s), (e, f, g, h), _ = _common(b, a)
    x00, x10 = _least(e, p, g, r), _least(e, q, g, s)
    x01, x11 = _least(f, p, h, r), _least(f, q, h, s)
    return (
        _dot(p, x00, q, x10) == e
        and _dot(p, x01, q, x11) == f
        and _dot(r, x00, s, x10) == g
        and _dot(r, x01, s, x11) == h
    )
