"""Exact Gaussian elimination over the field elements as they come.

Entries are ints, Fractions, or RadExprs where an entry is irrational, so
nothing here ever becomes a float.  The stationarity system holds an integer
multiple of each chord (see solver), so for rational positions the whole
system is rational, and RadExpr entries appear only for radical positions.
A rational system is eliminated on integer rows, fraction-free: each row is
cleared of its denominators and kept primitive by its gcd, and the echelon
is returned as those integer rows, each pivot row a multiple of the reduced
row by its pivot.  Any other system runs the field pass, reduced-row-echelon
with exact field inverses and pivots one, which is also the oracle the
integer pass is tested against.  The readers, kernel_from_rref and
particular_from_rref, read each pivot row over its pivot, so both echelons
give the same Fractions; no other entry of an integer echelon is divided.
Small dense systems only (a stationarity system is 2N x (N+E) with N <= 12).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .exact import RadExpr

Scalar = Union[int, Fraction, RadExpr]
Matrix = list[list[Scalar]]
Vector = list[Scalar]


def _field(x) -> Scalar:
    return x if isinstance(x, (Fraction, RadExpr)) else Fraction(x)


def rref(rows, rhs=None) -> tuple[Matrix, list[int], Vector | None]:
    """Reduced row echelon form; returns (matrix, pivot columns, reduced rhs).

    The rhs rides along as a last column that the pivot loop never reaches.
    Rows and rhs of ints and Fractions alone take the integer pass and come
    back as ints, each pivot row the field pass's row times its pivot; any
    other entry takes the field pass, whose pivots are one.  Read a pivot row
    through kernel_from_rref and particular_from_rref, which divide by the
    pivot.  Below the rank the coefficients are zero in both passes, and the
    reduced rhs there is zero in one exactly when it is zero in the other.
    """
    rational = (int, Fraction)
    if all(isinstance(x, rational) for row in rows for x in row) and (
        rhs is None or all(isinstance(y, rational) for y in rhs)
    ):
        return _rref_integer(rows, rhs)
    return _rref_field(rows, rhs)


def _rref_field(rows, rhs=None) -> tuple[Matrix, list[int], Vector | None]:
    """rref by exact field inverses, for RadExpr entries.

    A zero entry is one whose truth value is false, and it is skipped in the
    row updates: x - f * 0 is x.
    """
    ncols = len(rows[0]) if rows else 0
    m = [[_field(x) for x in row] for row in rows]
    if rhs is not None:
        for row, y in zip(m, rhs, strict=True):
            row.append(_field(y))
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((rr for rr in range(r, nrows) if m[rr][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        for rr in range(nrows):
            factor = m[rr][c]
            if rr != r and factor:
                m[rr] = [x - factor * y if y else x for x, y in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
    b = [row.pop() for row in m] if rhs is not None else None
    return m, pivots, b


def _rref_integer(rows, rhs=None) -> tuple[Matrix, list[int], Vector | None]:
    """rref of a rational system on integer rows (fraction-free Gauss-Jordan).

    Each row is cleared to integers over the lcm of its denominators, and an
    update with pivot p and factor f is p * x - f * y, divided by the gcd of
    the row.  Every integer row is then a nonzero rational multiple of the
    row that the field pass holds in its place, and nothing is divided back:
    a pivot row is read over its pivot, and below the rank only whether the
    rhs is zero is ever read.  This is fraction-free elimination after
    Bareiss (Math. Comp. 22, 1968), with a gcd in place of the exact
    division by the previous pivot.
    """
    ncols = len(rows[0]) if rows else 0
    if rhs is not None:
        rows = [[*row, y] for row, y in zip(rows, rhs, strict=True)]
    m: list[list[int]] = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        m.append([x // g for x in ints] if g > 1 else ints)
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((rr for rr in range(r, nrows) if m[rr][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        p = prow[c]
        for rr in range(nrows):
            f = m[rr][c]
            if rr != r and f:
                row = [p * x - f * y for x, y in zip(m[rr], prow)]
                g = gcd(*row)  # 0 only for a row that stays zero
                m[rr] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    b = [row.pop() for row in m] if rhs is not None else None
    return m, pivots, b


def _over(x: Scalar, pivot: Scalar) -> Scalar:
    """An entry of a pivot row over its pivot: a Fraction for an integer
    row, the entry itself for a field row, whose pivot is one."""
    return Fraction(x, pivot) if isinstance(pivot, int) else x


def kernel_from_rref(m: Matrix, pivots: list[int], ncols: int) -> list[Vector]:
    """One basis vector per free column, unit in that coordinate."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            if m[r][f]:
                vec[p] = _over(-m[r][f], m[r][p])
        basis.append(vec)
    return basis


def particular_from_rref(
    m: Matrix, pivots: list[int], b: Vector, ncols: int
) -> Vector | None:
    """A solution with all free coordinates zero, or None if inconsistent:
    the rows of m below the pivot rows are zero, so b must vanish there."""
    if any(b[len(pivots):]):
        return None
    vec = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        if b[r]:
            vec[p] = _over(b[r], m[r][p])
    return vec


def matvec(rows, vec) -> list[RadExpr]:
    return [
        sum((RadExpr.of(a) * RadExpr.of(x) for a, x in zip(row, vec)), RadExpr.of(0))
        for row in rows
    ]
