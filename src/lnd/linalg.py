"""Exact linear algebra over Fraction, sized for desk-scale systems.

Rows are sparse {column: value} mappings over any sortable column keys;
elimination touches only nonzero entries, and a column's place in the
order of its key decides where pivots fall.  Everything returns fresh
dicts; nothing the caller passes in is mutated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


def _subtract(row: dict, f: Fraction, pivot_row: dict) -> None:
    """row -= f * pivot_row, in place, dropping entries that cancel."""
    get = row.get
    for c, v in pivot_row.items():
        s = get(c, 0) - f * v
        if s:
            row[c] = s
        else:
            del row[c]


def rref(rows: Iterable[Mapping]) -> list[dict]:
    """Reduced row echelon form: the nonzero rows, sorted by pivot.

    A row's pivot is its least column key, with value 1; every other row is
    zero there.  Rows join a reduced basis one at a time: each is cleared at
    the basis pivots, and if anything is left, its least column becomes a
    pivot and is cleared from the basis rows.  The RREF of a row space is
    unique, so the order of elimination does not change the result.
    """
    basis: dict = {}
    for given in rows:
        row = {c: v for c, v in given.items() if v}
        for pc in [c for c in row if c in basis]:
            _subtract(row, row[pc], basis[pc])
        if not row:
            continue
        pivot = min(row)
        inv = 1 / Fraction(row[pivot])
        row = {c: v * inv for c, v in row.items()}
        for other in basis.values():
            f = other.get(pivot)
            if f:
                _subtract(other, f, row)
        basis[pivot] = row
    return [basis[pc] for pc in sorted(basis)]

