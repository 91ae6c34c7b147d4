"""Exact Gaussian elimination over the field elements as they come.

Entries are Fractions, or RadExprs where an entry is irrational; ints are
taken as Fractions, so nothing here ever becomes a float.  The stationarity
system scales each chord column by its length |w - v| (see solver), so for
rational positions the whole elimination runs on Fractions and RadExpr
entries appear only for radical positions.  Small dense systems only (a
stationarity system is 2N x (N+E) with N <= 12), so the plain
reduced-row-echelon pass with exact field inverses is plenty.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .exact import RadExpr

Scalar = Union[Fraction, RadExpr]
Matrix = list[list[Scalar]]
Vector = list[Scalar]


def _field(x) -> Scalar:
    return x if isinstance(x, (Fraction, RadExpr)) else Fraction(x)


def rref(rows, rhs=None) -> tuple[Matrix, list[int], Vector | None]:
    """Reduced row echelon form; returns (matrix, pivot columns, reduced rhs).

    The rhs rides along as a last column that the pivot loop never reaches.
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


def kernel_from_rref(m: Matrix, pivots: list[int], ncols: int) -> list[Vector]:
    """One basis vector per free column, unit in that coordinate."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
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
        vec[p] = b[r]
    return vec


def matvec(rows, vec) -> list[RadExpr]:
    return [
        sum((RadExpr.of(a) * RadExpr.of(x) for a, x in zip(row, vec)), RadExpr.of(0))
        for row in rows
    ]
