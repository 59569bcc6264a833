"""Dense exact linear algebra over Fraction, sized for desk-scale systems.

Rows are lists of Fractions.  Everything returns fresh lists; nothing is
mutated in place from the caller's point of view.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {v : A v = 0}, one vector per free column, deterministic."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: list[Row] = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve(rows: list[Row], rhs: Row) -> Row | None:
    """One particular solution of A x = b (free variables set to 0), or None."""
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    augmented = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(augmented)
    x = [Fraction(0)] * ncols
    for row, pc in zip(reduced, pivots):
        if pc == ncols:
            return None  # row (0 ... 0 | 1): inconsistent
        x[pc] = row[ncols]
    return x
