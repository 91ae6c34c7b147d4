"""Exact Gaussian elimination over the field elements as they come.

Entries are Fractions, or RadExprs where an entry is irrational; ints are
taken as Fractions, so nothing here ever becomes a float.  The stationarity
system scales each chord column by its length |w - v| (see solver), so for
rational positions the whole system is rational, and RadExpr entries appear
only for radical positions.  A rational system is eliminated on integer rows:
each row is cleared of its denominators and kept primitive by its gcd, so no
Fraction is built until the pivot rows are divided by their pivots at the
end.  Any other system runs the field pass, reduced-row-echelon with exact
field inverses, which is also the oracle the integer pass is tested against.
Small dense systems only (a stationarity system is 2N x (N+E) with N <= 12).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    Rows and rhs of ints and Fractions alone take the integer pass, any other
    entry the field pass; both give the same Fractions, the rows below the
    rank and their reduced rhs included.
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
    the row.  Every integer row is then a rational multiple num/den of the row
    that the field pass holds in its place; the pair is kept, since a row
    below the rank returns its rhs divided by it.  A pivot row returns over its
    pivot, where the field pass holds a one.
    """
    ncols = len(rows[0]) if rows else 0
    if rhs is not None:
        rows = [[*row, y] for row, y in zip(rows, rhs, strict=True)]
    m: list[list[int]] = []
    scales: list[tuple[int, int]] = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        m.append(ints)
        scales.append((den, g))
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((rr for rr in range(r, nrows) if m[rr][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
        prow = m[r]
        p = prow[c]
        for rr in range(nrows):
            f = m[rr][c]
            if rr != r and f:
                row = [p * x - f * y for x, y in zip(m[rr], prow)]
                g = gcd(*row)  # 0 only for a row that stays zero
                if g > 1:
                    row = [x // g for x in row]
                m[rr] = row
                num, den = scales[rr]
                scales[rr] = (num * p, den * g)
        pivots.append(c)
        r += 1
    zero = Fraction(0)
    out: Matrix = []
    for k, row in enumerate(m):
        if k < r:
            p = row[pivots[k]]
            out.append([Fraction(x, p) if x else zero for x in row])
        else:
            # the coefficients vanish below the rank; the rhs need not
            out.append([zero] * ncols)
            if rhs is not None:
                num, den = scales[k]
                out[-1].append(Fraction(row[-1] * den, num) if row[-1] else zero)
    b = [row.pop() for row in out] if rhs is not None else None
    return out, pivots, b


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
