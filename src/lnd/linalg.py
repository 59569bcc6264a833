"""Exact linear algebra over Fraction, sized for desk-scale systems.

Rows come in and go out as dense lists of Fractions; elimination runs on
sparse {column: value} rows and touches only nonzero entries.  Everything
returns fresh lists; nothing is mutated in place from the caller's point
of view.
"""

from __future__ import annotations

from fractions import Fraction

Row = list[Fraction]


def _subtract(row: dict[int, Fraction], f: Fraction, pivot_row: dict[int, Fraction]) -> None:
    """row -= f * pivot_row, in place, dropping entries that cancel."""
    get = row.get
    for c, v in pivot_row.items():
        s = get(c, 0) - f * v
        if s:
            row[c] = s
        else:
            del row[c]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Rows join a reduced basis one at a time: each is cleared at the basis
    pivots, and if anything is left, its first column becomes a pivot and is
    cleared from the basis rows.  The RREF of a row space is unique, so the
    order of elimination does not change the result.
    """
    basis: dict[int, dict[int, Fraction]] = {}
    for dense in rows:
        row = {c: Fraction(v) for c, v in enumerate(dense) if v}
        for pc in [c for c in row if c in basis]:
            _subtract(row, row[pc], basis[pc])
        if not row:
            continue
        pivot = min(row)
        inv = 1 / row[pivot]
        row = {c: v * inv for c, v in row.items()}
        for other in basis.values():
            f = other.get(pivot)
            if f:
                _subtract(other, f, row)
        basis[pivot] = row
    pivots = sorted(basis)
    columns, zero = range(len(rows[0]) if rows else 0), Fraction(0)
    return [[basis[pc].get(c, zero) for c in columns] for pc in pivots], pivots


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
    reduced, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    x = [Fraction(0)] * ncols
    for row, pc in zip(reduced, pivots):
        if pc == ncols:
            return None  # row (0 ... 0 | 1): inconsistent
        x[pc] = row[ncols]
    return x
