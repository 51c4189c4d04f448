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
"""

from __future__ import annotations

import json

from .semiring import _ZERO, ProjPoint, TropScalar, _point, _scalar


class VerificationError(AssertionError):
    """A construction failed the exact check it runs before returning.

    Raised explicitly, so the check also runs under ``python -O``; it is a
    library defect, never an answer about the input.
    """


def _same_size(x, y):
    """Reject a pair of matrices or vectors of different dimensions."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")


def _token(f) -> str:
    return "-inf" if f is None else str(f)


class TropVector:
    """An n-tuple of tropical scalars.  Entries are stored raw (a Fraction,
    or None for ``-inf``); indexing and iteration build fresh, equal scalars."""

    __slots__ = ("_entries",)

    def __init__(self, entries):
        self._entries = tuple(TropScalar(e)._f for e in entries)
        if not self._entries:
            raise ValueError("vectors must have positive dimension")

    @classmethod
    def _of(cls, entries: tuple) -> "TropVector":
        """Wrap a tuple of raw values as it is, without coercion or checks."""
        v = object.__new__(cls)
        v._entries = entries
        return v

    @classmethod
    def zero(cls, n: int) -> "TropVector":
        return cls(["-inf"] * n)

    @property
    def n(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[TropScalar, ...]:
        return tuple(map(_scalar, self._entries))

    @property
    def is_zero(self) -> bool:
        return all(f is None for f in self._entries)

    def scaled(self, lam) -> "TropVector":
        lam = TropScalar(lam)
        return TropVector([lam * e for e in self])

    def __getitem__(self, i: int) -> TropScalar:
        return _scalar(self._entries[i])

    def __iter__(self):
        return map(_scalar, self._entries)

    def __eq__(self, other):
        if not isinstance(other, TropVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __str__(self):
        return "(" + ", ".join(map(_token, self._entries)) + ")"

    def __repr__(self):
        return f"TropVector({list(map(_token, self._entries))!r})"


class TropMatrix:
    """An n-by-n matrix of tropical scalars.

    ``A @ B`` is the max-plus product, ``A + B`` the entrywise max, and
    ``A @ v`` the action on column vectors.  Instances are immutable.
    Entries are stored raw, as in ``TropVector``; ``rows``, ``[i, j]``,
    ``row`` and ``column`` build fresh, equal scalars.
    """

    # _pc and _pr hold the projective column and row spaces once geometry
    # has computed them; an immutable matrix never needs them cleared.
    __slots__ = ("_rows", "_pc", "_pr")

    def __init__(self, rows):
        self._rows = tuple(tuple(TropScalar(e)._f for e in row) for row in rows)
        n = len(self._rows)
        if n == 0 or any(len(row) != n for row in self._rows):
            raise ValueError("matrix must be square and nonempty")
        self._pc = self._pr = None

    @classmethod
    def _of(cls, rows: tuple[tuple, ...]) -> "TropMatrix":
        """Wrap square rows of raw values as they are, without coercion or checks."""
        m = object.__new__(cls)
        m._rows = rows
        m._pc = m._pr = None
        return m

    @classmethod
    def identity(cls, n: int) -> "TropMatrix":
        if n < 1:
            raise ValueError("matrix must be square and nonempty")
        return cls._of(
            tuple(tuple(_ZERO if i == j else None for j in range(n)) for i in range(n))
        )

    @classmethod
    def zero(cls, n: int) -> "TropMatrix":
        if n < 1:
            raise ValueError("matrix must be square and nonempty")
        return cls._of(tuple((None,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[TropScalar, ...], ...]:
        return tuple(tuple(map(_scalar, row)) for row in self._rows)

    def row(self, i: int) -> TropVector:
        return TropVector._of(self._rows[i])

    def column(self, j: int) -> TropVector:
        return TropVector._of(tuple(row[j] for row in self._rows))

    @property
    def is_zero(self) -> bool:
        return all(f is None for row in self._rows for f in row)

    def __getitem__(self, ij) -> TropScalar:
        i, j = ij
        return _scalar(self._rows[i][j])

    def __matmul__(self, other):
        if isinstance(other, TropVector):
            _same_size(self, other)
            v = other._entries
            return TropVector._of(tuple(_dot(row, v) for row in self._rows))
        if isinstance(other, TropMatrix):
            _same_size(self, other)
            cols = list(zip(*other._rows))
            return TropMatrix._of(
                tuple(tuple(_dot(row, col) for col in cols) for row in self._rows)
            )
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        _same_size(self, other)
        return TropMatrix._of(tuple(map(_max_row, self._rows, other._rows)))

    def transpose(self) -> "TropMatrix":
        return TropMatrix._of(tuple(zip(*self._rows)))

    def is_monomial(self) -> bool:
        """True iff exactly one entry per row and per column is not ``-inf``.

        These are precisely the invertible elements of the matrix monoid.
        """
        return all(
            sum(f is not None for f in line) == 1
            for line in self._rows + tuple(zip(*self._rows))
        )

    def to_tokens(self) -> list[list[str]]:
        return [list(map(_token, row)) for row in self._rows]

    def __eq__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __str__(self):
        return json.dumps(self.to_tokens())

    def __repr__(self):
        return f"TropMatrix({self.to_tokens()!r})"


def _max_row(xs, ys) -> tuple:
    """The raw tropical sum of two rows: the entrywise max; None is ``-inf``."""
    return tuple(y if x is None or (y is not None and y > x) else x for x, y in zip(xs, ys))


def _dot(xs, ys):
    """The raw max-plus inner product max_k (xs[k] + ys[k]); None is ``-inf``."""
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
                out.append(TropScalar(tok))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"matrix entry ({i},{j}): {exc}") from exc
        rows.append(out)
    return TropMatrix(rows)


def monomial_inverse(a: TropMatrix) -> TropMatrix:
    """The two-sided inverse of a monomial matrix: negate each finite entry
    and transpose its position."""
    if not a.is_monomial():
        raise ValueError("matrix is not monomial, hence not invertible")
    return TropMatrix._of(
        tuple(tuple(None if f is None else -f for f in col) for col in zip(*a._rows))
    )


def _residual(kind: int, t, d) -> tuple:
    """The raw rule of ``residual_scalar``: the target as ``ProjPoint`` parts
    (kind, t), the divisor d as a Fraction or None for ``-inf``; the result
    as (kind, frac) parts."""
    if d is None or kind == 1:
        return 1, None
    if kind == -1:
        return -1, None
    return 0, t - d


def _plain(kind: int, f):
    """The raw witness entry of a residual entry given as (kind, frac) parts:
    0 for ``+inf``, which no divisor entry constrains, else its own value."""
    return _ZERO if kind == 1 else f


def residual_scalar(target, divisor) -> ProjPoint:
    """The greatest t with divisor + t <= target, in the completed order.

    Unconstrained when the divisor is ``-inf`` (yielding ``+inf``), and
    ``-inf`` when a ``-inf`` target meets a finite divisor.  The target may
    itself be ``+inf`` (residuals of residuals), which is also unconstraining.
    """
    target = target if isinstance(target, ProjPoint) else ProjPoint(target)
    return _point(*_residual(target._kind, target._f, TropScalar(divisor)._f))


class ResidualMatrix:
    """Greatest-subsolution matrix over the completed carrier.

    Entries are projective-line values; ``+inf`` marks coordinates the
    divisor leaves unconstrained.  ``witness()`` returns a concrete plain
    solution by putting 0 in those coordinates (any finite value there
    multiplies only ``-inf`` entries of the divisor, so the choice is free).
    Entries are stored as raw (kind, frac) parts; ``rows`` and ``[i, j]``
    build fresh, equal points.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = tuple(tuple((p._kind, p._f) for p in map(ProjPoint, row)) for row in rows)
        n = len(self._rows)
        if n == 0 or any(len(row) != n for row in self._rows):
            raise ValueError("residual matrix must be square and nonempty")

    @classmethod
    def _of(cls, rows: tuple[tuple[tuple, ...], ...]) -> "ResidualMatrix":
        """Wrap square rows of (kind, frac) parts as they are, without checks."""
        m = object.__new__(cls)
        m._rows = rows
        return m

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[ProjPoint, ...], ...]:
        return tuple(tuple(_point(*e) for e in row) for row in self._rows)

    def __getitem__(self, ij) -> ProjPoint:
        i, j = ij
        return _point(*self._rows[i][j])

    def transpose(self) -> "ResidualMatrix":
        return ResidualMatrix._of(tuple(zip(*self._rows)))

    def witness(self) -> TropMatrix:
        return TropMatrix._of(tuple(tuple(_plain(*e) for e in row) for row in self._rows))

    def dominates(self, x: TropMatrix) -> bool:
        """Entrywise x <= self, with ``+inf`` maximal."""
        _same_size(self, x)
        return all(
            ProjPoint(e) <= p for r, s in zip(x.rows, self.rows) for e, p in zip(r, s)
        )

    def __eq__(self, other):
        if not isinstance(other, ResidualMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"ResidualMatrix({[[str(e) for e in row] for row in self.rows]!r})"


def _parts(raw) -> list[list[tuple]]:
    """Raw rows of a plain matrix as the (kind, frac) parts of points."""
    return [[(-1, None) if f is None else (0, f) for f in row] for row in raw]


def _left_residual_raw(divisor, target) -> tuple:
    """The raw loop of ``left_residual``: the divisor's raw rows and the
    target's (kind, frac) rows in, the residual's (kind, frac) rows out."""
    n = len(divisor)
    rows = []
    for k in range(n):
        row = []
        for j in range(n):
            kind, f = 1, None  # +inf, the unit of min
            for i in range(n):
                ck, cf = _residual(*target[i][j], divisor[i][k])
                if ck < kind or (ck == kind == 0 and cf < f):
                    kind, f = ck, cf
            row.append((kind, f))
        rows.append(tuple(row))
    return tuple(rows)


def left_residual(b: TropMatrix, a: TropMatrix | ResidualMatrix) -> ResidualMatrix:
    """The greatest X with ``b @ X <= a`` entrywise: X[k,j] = min_i (a[i,j] - b[i,k])
    under the residuated subtraction of ``residual_scalar``.

    The target a may itself be a residual, whose ``+inf`` entries leave their
    coordinates unconstrained."""
    _same_size(b, a)
    target = a._rows if isinstance(a, ResidualMatrix) else _parts(a._rows)
    return ResidualMatrix._of(_left_residual_raw(b._rows, target))


def right_residual(a: TropMatrix, b: TropMatrix) -> ResidualMatrix:
    """The greatest X with ``X @ b <= a``; the transpose dual of left_residual."""
    return left_residual(b.transpose(), a.transpose()).transpose()


def solves_right(b: TropMatrix, a: TropMatrix) -> bool:
    """Whether ``a = b @ X`` is solvable, i.e. a lies in b's right ideal.

    Decided by residuation: the equation is solvable iff the materialized
    greatest subsolution attains a.
    """
    _same_size(b, a)
    x = _left_residual_raw(b._rows, _parts(a._rows))
    cols = list(zip(*([_plain(*e) for e in row] for row in x)))
    for row, want in zip(b._rows, a._rows):
        for col, t in zip(cols, want):
            if _dot(row, col) != t:
                return False
    return True
