"""An independent max-plus reference for the tests: the 2x2 product, the
entrywise max, both residuals and their witness, the projective image and
span of vectors, and the endpoint distance, computed one entry at a time.

A value is a ``Fraction``, None for ``-inf``, or the marker ``INF`` for
``+inf``, which only residuals and projective points reach.  A matrix is a
pair of rows.  Nothing here imports the library: library values are read
through their public text (``value``, ``read``, ``ends``), so the library's
int kernels and its scalar classes are checked against arithmetic they do
not share.  The module holds no ``assert``; the tests that import it do the
checking.  Its file name is outside pytest's ``test_*.py`` pattern.
"""

from fractions import Fraction
from functools import cache


class _PlusInf:
    """The type of ``INF``: the top of the completed carrier."""

    __slots__ = ()

    def __repr__(self):
        return "+inf"


INF = _PlusInf()


def value(x):
    """The reference value of a library scalar or point, read from its text
    (a token or an int reads as itself)."""
    return _parse(str(x))


@cache
def _parse(token: str):
    return None if token == "-inf" else INF if token == "+inf" else Fraction(token)


def text(x) -> str:
    """The library token of a reference value."""
    return "-inf" if x is None else str(x)


def read(m) -> tuple:
    """The rows of a library matrix or residual matrix, as reference values."""
    return tuple(tuple(map(value, row)) for row in m.rows)


def ends(s):
    """The endpoints of a library convex set as reference values; None when
    it is empty."""
    return None if s.is_empty else (value(s.lo), value(s.hi))


def key(x) -> tuple:
    """The order key of a value: ``-inf`` least, ``INF`` greatest."""
    return (-1, 0) if x is None else (1, 0) if x is INF else (0, x)


def times(x, y):
    """The tropical product x + y of two scalars; ``-inf`` absorbs."""
    return None if x is None or y is None else x + y


def product(a, b) -> tuple:
    """The max-plus product: entry (i, j) is max over k of a[i][k] + b[k][j]."""
    return tuple(
        tuple(max((times(x, y) for x, y in zip(row, col)), key=key) for col in zip(*b))
        for row in a
    )


def maximum(a, b) -> tuple:
    """The entrywise max, the tropical sum; ``maximum(x, r) == r`` says x <= r."""
    return tuple(tuple(max(x, y, key=key) for x, y in zip(r, s)) for r, s in zip(a, b))


def residual(t, d):
    """The greatest x with d + x <= t: ``INF`` when the divisor d is ``-inf``
    or the target t is ``INF``, ``-inf`` when t is ``-inf``."""
    if d is None or t is INF:
        return INF
    return None if t is None else t - d


def left_residual(b, a) -> tuple:
    """The greatest X with b @ X <= a: X[k][j] = min over i of a[i][j] - b[i][k]."""
    return tuple(
        tuple(min((residual(a[i][j], b[i][k]) for i in range(2)), key=key) for j in range(2))
        for k in range(2)
    )


def right_residual(a, b) -> tuple:
    """The greatest X with X @ b <= a: X[i][k] = min over j of a[i][j] - b[k][j]."""
    return tuple(
        tuple(min((residual(a[i][j], b[k][j]) for j in range(2)), key=key) for k in range(2))
        for i in range(2)
    )


def witness(r) -> tuple:
    """The plain solution of a residual: 0 in place of each ``INF``."""
    return tuple(tuple(Fraction(0) if x is INF else x for x in row) for row in r)


def image(x1, x2):
    """The projective image x2 - x1 of a nonzero vector (x1, x2)."""
    if x1 is None:
        return INF
    return None if x2 is None else x2 - x1


def span(vectors):
    """The least and greatest image of the nonzero vectors; None when every
    vector is zero, whose span is empty."""
    images = [image(x1, x2) for x1, x2 in vectors if (x1, x2) != (None, None)]
    return (min(images, key=key), max(images, key=key)) if images else None


def distance(x, y):
    """The endpoint distance of the projective line: abs(y - x) between
    rationals, 0 between equal infinities, ``INF`` otherwise."""
    if key(x)[0] == key(y)[0] == 0:
        return abs(y - x)
    return Fraction(0) if x is y else INF
