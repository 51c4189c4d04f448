"""Tropical matrix and vector arithmetic, plus the residuation solver.

Matrices are square grids of exact max-plus scalars for arbitrary n; the
product is ``(A @ B)[i,j] = max_k A[i,k] + B[k,j]``.  Residuation computes
the greatest X with ``B @ X <= A`` entrywise.  Residual entries live in the
completed carrier that also contains ``+inf`` (a residual coordinate is
``+inf`` exactly when nothing constrains it, i.e. the matching column of the
divisor is the zero vector); such entries are quarantined in
``ResidualMatrix`` and replaced by 0 when a concrete solution over the plain
semiring is materialized.  This makes ``A = B @ X`` decidable:  it is
solvable iff the materialized greatest subsolution attains A.

Each matrix, vector and residual matrix stores one positive ``int``
denominator ``den``, the lcm of the reduced denominators of its finite
entries, and ``int`` numerators over it (None for ``-inf``), in the store
the three share, ``_Store``.  That form is canonical, so ``_Store``'s one
equality and hash compare it structurally.  Max and + commute with scaling
by a positive integer, so the kernels rescale two operands to the lcm of
their denominators, compute on ints and bring the result to lowest terms;
only the public accessors build ``Fraction`` values.
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


def _same_size(x, y):
    """Reject a pair of matrices or vectors of different dimensions."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")


def _frac(x, den) -> Fraction | None:
    """The value of the numerator x over den; None (``-inf``) stays None."""
    return None if x is None else Fraction(x, den)


def _token(x, den) -> str:
    return "-inf" if x is None else str(Fraction(x, den))


def _square(rows, what: str = "matrix"):
    """Rows that form a square, nonempty grid; a ValueError otherwise."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError(f"{what} must be square and nonempty")
    return rows


def _stored(rows) -> tuple[tuple[tuple, ...], int]:
    """The stored form of rows of Fractions (or ints; None for ``-inf``):
    numerator rows over den, the lcm of the entries' reduced denominators.
    It is already in lowest terms: a prime dividing den divides some entry's
    reduced denominator to the full power, so not that entry's numerator."""
    den = lcm(*[f.denominator for row in rows for f in row if f is not None])
    return (
        tuple([
            tuple([None if f is None else f.numerator * (den // f.denominator) for f in row])
            for row in rows
        ]),
        den,
    )


def _lowest(rows, den) -> tuple[tuple[tuple, ...], int]:
    """Numerator rows over den in lowest terms, which is the stored form:
    both divided by the gcd of den and every finite numerator."""
    if den != 1:
        g = gcd(den, *(x for row in rows for x in row if x is not None))
        if g != 1:
            rows = tuple(tuple(None if x is None else x // g for x in row) for row in rows)
            return rows, den // g
    return rows, den


def _rescaled(rows, k: int) -> tuple:
    """Numerator rows multiplied by the positive int k."""
    if k == 1:
        return rows
    return tuple(tuple(None if x is None else x * k for x in row) for row in rows)


def _common(xs, dx: int, ys, dy: int) -> tuple[tuple, tuple, int]:
    """Two sets of numerator rows over the lcm of their denominators dx and
    dy, and that lcm."""
    if dx == dy:
        return xs, ys, dx
    den = lcm(dx, dy)
    return _rescaled(xs, den // dx), _rescaled(ys, den // dy), den


class _Store:
    """The store of a vector, matrix or residual matrix: its numerators
    ``_rows`` (a vector's one row, a matrix's tuple of rows) over the
    positive int ``_den``, in canonical form, so two values of one type are
    equal exactly when their stores are."""

    __slots__ = ("_rows", "_den")

    @property
    def n(self) -> int:
        return len(self._rows)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._den == other._den and self._rows == other._rows

    def __hash__(self):
        return hash((self._rows, self._den))


class TropVector(_Store):
    """An n-tuple of tropical scalars.  Entries are stored as int numerators
    (None for ``-inf``) over one denominator, in the canonical form the
    module docstring describes; indexing and iteration build fresh, equal
    scalars."""

    __slots__ = ()

    def __init__(self, entries):
        entries = tuple(_scalar_key(e)[1] for e in entries)
        if not entries:
            raise ValueError("vectors must have positive dimension")
        (self._rows,), self._den = _stored((entries,))

    @classmethod
    def _over(cls, entries: tuple, den: int) -> "TropVector":
        """The vector of numerators over den, brought to lowest terms."""
        v = object.__new__(cls)
        (v._rows,), v._den = _lowest((entries,), den)
        return v

    @classmethod
    def zero(cls, n: int) -> "TropVector":
        return cls(["-inf"] * n)

    @property
    def entries(self) -> tuple[TropScalar, ...]:
        return tuple(self)

    @property
    def is_zero(self) -> bool:
        return all(f is None for f in self._rows)

    def scaled(self, lam) -> "TropVector":
        lam = TropScalar(lam)
        return TropVector([lam * e for e in self])

    def __getitem__(self, i: int) -> TropScalar:
        return _scalar(_frac(self._rows[i], self._den))

    def __iter__(self):
        den = self._den
        return (_scalar(_frac(x, den)) for x in self._rows)

    def _tokens(self) -> list[str]:
        return [_token(x, self._den) for x in self._rows]

    def __str__(self):
        return "(" + ", ".join(self._tokens()) + ")"

    def __repr__(self):
        return f"TropVector({self._tokens()!r})"


class TropMatrix(_Store):
    """An n-by-n matrix of tropical scalars.

    ``A @ B`` is the max-plus product, ``A + B`` the entrywise max, and
    ``A @ v`` the action on column vectors.  Instances are immutable.
    Entries are stored as int numerators over one denominator, as in
    ``TropVector``; ``rows``, ``[i, j]``, ``row`` and ``column`` build
    fresh, equal scalars.
    """

    # _pc and _pr hold the projective column and row spaces once geometry
    # has computed them; an immutable matrix never needs them cleared.
    __slots__ = ("_pc", "_pr")

    def __init__(self, rows):
        self._rows, self._den = _stored(_square([[_scalar_key(e)[1] for e in row] for row in rows]))
        self._pc = self._pr = None

    @classmethod
    def _of(cls, rows) -> "TropMatrix":
        """The matrix of square rows of Fractions (None for ``-inf``),
        without coercion or checks."""
        m = object.__new__(cls)
        m._rows, m._den = _stored(rows)
        m._pc = m._pr = None
        return m

    @classmethod
    def _over(cls, rows: tuple[tuple, ...], den: int) -> "TropMatrix":
        """The matrix of square numerator rows over den, brought to lowest terms."""
        m = object.__new__(cls)
        m._rows, m._den = _lowest(rows, den)
        m._pc = m._pr = None
        return m

    @classmethod
    def identity(cls, n: int) -> "TropMatrix":
        rows = tuple(tuple(0 if i == j else None for j in range(n)) for i in range(n))
        return cls._over(_square(rows), 1)

    @classmethod
    def zero(cls, n: int) -> "TropMatrix":
        return cls._over(_square(tuple((None,) * n for _ in range(n))), 1)

    @property
    def rows(self) -> tuple[tuple[TropScalar, ...], ...]:
        den = self._den
        return tuple(tuple(_scalar(_frac(x, den)) for x in row) for row in self._rows)

    def row(self, i: int) -> TropVector:
        return TropVector._over(self._rows[i], self._den)

    def column(self, j: int) -> TropVector:
        return TropVector._over(tuple(row[j] for row in self._rows), self._den)

    @property
    def is_zero(self) -> bool:
        return all(f is None for row in self._rows for f in row)

    def __getitem__(self, ij) -> TropScalar:
        i, j = ij
        return _scalar(_frac(self._rows[i][j], self._den))

    def __matmul__(self, other):
        if isinstance(other, TropVector):
            _same_size(self, other)
            rows, (v,), den = _common(self._rows, self._den, (other._rows,), other._den)
            return TropVector._over(tuple(_dot(row, v) for row in rows), den)
        if isinstance(other, TropMatrix):
            _same_size(self, other)
            rows, cols, den = _common(self._rows, self._den, other._rows, other._den)
            cols = list(zip(*cols))
            return TropMatrix._over(
                tuple([tuple([_dot(row, col) for col in cols]) for row in rows]), den
            )
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        _same_size(self, other)
        xs, ys, den = _common(self._rows, self._den, other._rows, other._den)
        return TropMatrix._over(tuple(map(_max_row, xs, ys)), den)

    def transpose(self) -> "TropMatrix":
        return TropMatrix._over(tuple(zip(*self._rows)), self._den)

    def is_monomial(self) -> bool:
        """True iff exactly one entry per row and per column is not ``-inf``.

        These are precisely the invertible elements of the matrix monoid.
        """
        return all(
            sum(f is not None for f in line) == 1
            for line in self._rows + tuple(zip(*self._rows))
        )

    def to_tokens(self) -> list[list[str]]:
        den = self._den
        return [[_token(x, den) for x in row] for row in self._rows]

    def __str__(self):
        return json.dumps(self.to_tokens())

    def __repr__(self):
        return f"TropMatrix({self.to_tokens()!r})"


def _max_row(xs, ys) -> tuple:
    """The tropical sum of two numerator rows over one denominator: the
    entrywise max; None is ``-inf``."""
    return tuple(y if x is None or (y is not None and y > x) else x for x, y in zip(xs, ys))


def _dot(xs, ys):
    """The max-plus inner product max_k (xs[k] + ys[k]) of two numerator
    rows over one denominator; None is ``-inf``."""
    best = None
    for x, y in zip(xs, ys):
        if x is not None and y is not None:
            s = x + y
            if best is None or s > best:
                best = s
    return best


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
    return TropMatrix._of(_square(rows))


def monomial_inverse(a: TropMatrix) -> TropMatrix:
    """The two-sided inverse of a monomial matrix: negate each finite entry
    and transpose its position."""
    if not a.is_monomial():
        raise ValueError("matrix is not monomial, hence not invertible")
    return TropMatrix._over(
        tuple(tuple(None if x is None else -x for x in col) for col in zip(*a._rows)), a._den
    )


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
    """Greatest-subsolution matrix over the completed carrier.

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
        keys = _square([[ProjPoint(e)._k for e in row] for row in rows], "residual matrix")
        nums, self._den = _stored([[f for _, f in row] for row in keys])
        self._rows = tuple(
            tuple((k[0], x) for k, x in zip(krow, xrow)) for krow, xrow in zip(keys, nums)
        )

    @classmethod
    def _over(cls, rows: tuple[tuple[tuple, ...], ...], den: int) -> "ResidualMatrix":
        """The residual matrix of square rows of (kind, num) keys over den,
        brought to lowest terms."""
        if den != 1:
            g = gcd(den, *(x for row in rows for _, x in row if x is not None))
            if g != 1:
                den //= g
                rows = tuple(
                    tuple((kind, None if x is None else x // g) for kind, x in row) for row in rows
                )
        m = object.__new__(cls)
        m._rows = rows
        m._den = den
        return m

    @property
    def rows(self) -> tuple[tuple[ProjPoint, ...], ...]:
        den = self._den
        return tuple(tuple(_point((k, _frac(x, den))) for k, x in row) for row in self._rows)

    def __getitem__(self, ij) -> ProjPoint:
        i, j = ij
        kind, x = self._rows[i][j]
        return _point((kind, _frac(x, self._den)))

    def transpose(self) -> "ResidualMatrix":
        return ResidualMatrix._over(tuple(zip(*self._rows)), self._den)

    def witness(self) -> TropMatrix:
        return TropMatrix._over(
            tuple(tuple(map(_plain, row)) for row in self._rows), self._den
        )

    def dominates(self, x: TropMatrix) -> bool:
        """Entrywise x <= self, with ``+inf`` maximal."""
        _same_size(self, x)
        return all(
            ProjPoint(e) <= p for r, s in zip(x.rows, self.rows) for e, p in zip(r, s)
        )

    def __repr__(self):
        return f"ResidualMatrix({[[str(e) for e in row] for row in self.rows]!r})"


def _left_residual_raw(divisor, target) -> tuple:
    """The loop of ``left_residual`` on numerators over one denominator: the
    divisor's rows and the target's rows of keys in, the residual's rows of
    keys out, not yet in lowest terms."""
    n = len(divisor)
    return tuple(
        tuple(min(_residual(target[i][j], divisor[i][k]) for i in range(n)) for j in range(n))
        for k in range(n)
    )


def left_residual(b: TropMatrix, a: TropMatrix | ResidualMatrix) -> ResidualMatrix:
    """The greatest X with ``b @ X <= a`` entrywise: X[k,j] = min_i (a[i,j] - b[i,k])
    under the residuated subtraction of ``residual_scalar``.

    The target a may itself be a residual, whose ``+inf`` entries leave their
    coordinates unconstrained."""
    _same_size(b, a)
    den = lcm(b._den, a._den)
    k = den // a._den
    if isinstance(a, ResidualMatrix):
        target = [[(kind, None if x is None else x * k) for kind, x in row] for row in a._rows]
    else:
        target = [[_NEG_KEY if x is None else (0, x) for x in row] for row in _rescaled(a._rows, k)]
    divisor = _rescaled(b._rows, den // b._den)
    return ResidualMatrix._over(_left_residual_raw(divisor, target), den)


def right_residual(a: TropMatrix, b: TropMatrix) -> ResidualMatrix:
    """The greatest X with ``X @ b <= a``; the transpose dual of left_residual."""
    return left_residual(b.transpose(), a.transpose()).transpose()


def _least(t1, d1, t2, d2):
    """The witness entry min(t1 - d1, t2 - d2) of a 2x2 greatest subsolution,
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
    _same_size(b, a)
    if b.n != 2:
        return b @ left_residual(b, a).witness() == a
    # unrolled, it runs in about a third of the time of the general path
    ((p, q), (r, s)), ((e, f), (g, h)), _ = _common(b._rows, b._den, a._rows, a._den)
    x0 = (_least(e, p, g, r), _least(e, q, g, s))
    x1 = (_least(f, p, h, r), _least(f, q, h, s))
    return (
        _dot((p, q), x0) == e
        and _dot((p, q), x1) == f
        and _dot((r, s), x0) == g
        and _dot((r, s), x1) == h
    )
