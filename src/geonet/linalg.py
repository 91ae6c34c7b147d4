"""Exact Gaussian elimination over the radical scalars.

Small dense systems only (a stationarity system is 2N x (N+E) with N <= 12),
so the plain reduced-row-echelon pass with exact field inverses is plenty.
"""

from __future__ import annotations

from .exact import RadExpr

Matrix = list[list[RadExpr]]
Vector = list[RadExpr]


def rref(rows, rhs=None) -> tuple[Matrix, list[int], Vector | None]:
    """Reduced row echelon form; returns (matrix, pivot columns, reduced rhs).

    The rhs rides along as a last column that the pivot loop never reaches.
    """
    ncols = len(rows[0]) if rows else 0
    m = [[RadExpr.of(x) for x in row] for row in rows]
    if rhs is not None:
        for row, y in zip(m, rhs, strict=True):
            row.append(RadExpr.of(y))
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((rr for rr in range(r, nrows) if not m[rr][c].is_zero()), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for rr in range(nrows):
            if rr != r and not m[rr][c].is_zero():
                factor = m[rr][c]
                m[rr] = [x - factor * y for x, y in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
    b = [row.pop() for row in m] if rhs is not None else None
    return m, pivots, b


def kernel_from_rref(m: Matrix, pivots: list[int], ncols: int) -> list[Vector]:
    """One basis vector per free column, unit in that coordinate."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [RadExpr.of(0)] * ncols
        vec[f] = RadExpr.of(1)
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(vec)
    return basis


def particular_from_rref(
    m: Matrix, pivots: list[int], b: Vector, ncols: int
) -> Vector | None:
    """A solution with all free coordinates zero, or None if inconsistent:
    the rows of m below the pivot rows are zero, so b must vanish there."""
    if any(not x.is_zero() for x in b[len(pivots):]):
        return None
    vec = [RadExpr.of(0)] * ncols
    for r, p in enumerate(pivots):
        vec[p] = b[r]
    return vec


def matvec(rows, vec) -> Vector:
    return [
        sum((RadExpr.of(a) * RadExpr.of(x) for a, x in zip(row, vec)), RadExpr.of(0))
        for row in rows
    ]
