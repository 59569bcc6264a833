"""Exact linear algebra over the rationals, sized for desk-scale systems.

Rows are sparse {column: value} mappings over any sortable column keys;
elimination touches only nonzero entries, and a column's place in the
order of its key decides where pivots fall.  Values are ints or Fractions
in, Fractions out.  Everything returns fresh dicts; nothing the caller
passes in is mutated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping


def _eliminate(row: dict, pivot_row: dict, pc) -> None:
    """row := p * row - f * pivot_row in place, dropping entries that cancel,
    for the least ints p > 0 and f that make it zero at pc."""
    g = math.gcd(pivot_row[pc], row[pc])
    p, f = pivot_row[pc] // g, row[pc] // g
    if p != 1:
        for c in row:
            row[c] *= p
    get = row.get
    for c, v in pivot_row.items():
        s = get(c, 0) - f * v
        if s:
            row[c] = s
        else:
            del row[c]


def _primitive(row: dict) -> dict:
    """row divided by its integer content, signed positive at its pivot."""
    g = math.gcd(*row.values()) * (1 if row[min(row)] > 0 else -1)
    return row if g == 1 else {c: v // g for c, v in row.items()}


def rref(rows: Iterable[Mapping]) -> list[dict]:
    """Reduced row echelon form: the nonzero rows, sorted by pivot.

    A row's pivot is its least column key, with value 1; every other row is
    zero there.  Rows join a reduced basis one at a time: each is cleared at
    the basis pivots, and if anything is left, its least column becomes a
    pivot and is cleared from the basis rows.  The RREF of a row space is
    unique, so the order of elimination does not change the result.
    Elimination is fraction-free (Bareiss, Math. Comp. 22(103), 1968) on
    rows scaled to ints and kept primitive; only the returned rows are
    divided by their pivot entries.
    """
    basis: dict = {}
    for given in rows:
        scale = math.lcm(*(v.denominator for v in given.values() if v))
        row = {c: v.numerator * (scale // v.denominator) for c, v in given.items() if v}
        for pc in [c for c in row if c in basis]:
            _eliminate(row, basis[pc], pc)
        if not row:
            continue
        row = _primitive(row)
        pivot = min(row)
        for pc, other in basis.items():
            if pivot in other:
                _eliminate(other, row, pivot)
                basis[pc] = _primitive(other)
        basis[pivot] = row
    return [{c: Fraction(v, row[pc]) for c, v in row.items()} for pc, row in sorted(basis.items())]
