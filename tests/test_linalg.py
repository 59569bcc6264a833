import random
from fractions import Fraction

import pytest

from lnd.linalg import rref
from oracles import solve


def _dense_rref(rows):
    """Oracle: dense Gauss-Jordan elimination, column by column."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


def _sparse_matrix(rng, nrows, ncols, density):
    rows = [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < density else 0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    if nrows > 2 and rng.random() < 0.5:
        # rank deficiency: one row a combination of two others
        a, b, c = rng.sample(range(nrows), 3)
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        rows[c] = [x + k * y for x, y in zip(rows[a], rows[b])]
    return rows


def _sparse(rows, keys=None):
    """Dense rows as {column: value} rows, column c keyed by keys[c]."""
    keys = keys or range(len(rows[0]) if rows else 0)
    return [{k: v for k, v in zip(keys, row) if v} for row in rows]


# Large pairwise coprime denominators: primes past 2^31.
_BIG_PRIMES = (2147483647, 2147483659, 2147483693, 4294967291, 10**12 + 39)


def _coprime_matrix(rng, nrows, ncols, density):
    """Rows of values over large coprime denominators, with a duplicate row
    and a row that is a combination of two others when there is room."""
    rows = [
        [
            Fraction(rng.randint(-10**6, 10**6), rng.choice(_BIG_PRIMES))
            if rng.random() < density else 0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    if nrows > 1:
        i, j = rng.sample(range(nrows), 2)
        rows[i] = list(rows[j])
    if nrows > 2:
        a, b, c = rng.sample(range(nrows), 3)
        k = Fraction(rng.randint(-9, 9), rng.choice(_BIG_PRIMES))
        rows[c] = [x - k * y for x, y in zip(rows[a], rows[b])]
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_rref_matches_dense_oracle(seed):
    rng = random.Random(seed)
    for trial in range(80):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 14)
        make = _coprime_matrix if trial % 4 == 3 else _sparse_matrix
        rows = make(rng, nrows, ncols, rng.choice([0.1, 0.25, 0.6]))
        reduced = rref(_sparse(rows))
        dense, pivots = _dense_rref(rows)
        assert reduced == _sparse(dense)
        assert [min(row) for row in reduced] == pivots
        assert all(isinstance(v, Fraction) for row in reduced for v in row.values())


def test_rref_orders_tuple_column_keys():
    # tagged columns (block, -degree, name), as the plinth search uses them
    rng = random.Random(4)
    keys = sorted({(rng.randint(0, 2), -rng.randint(0, 3), rng.choice("xyz")) for _ in range(30)})
    for _ in range(40):
        rows = _sparse_matrix(rng, rng.randint(1, 10), len(keys), rng.choice([0.2, 0.5]))
        shuffled = [dict(rng.sample(sorted(row.items()), len(row))) for row in _sparse(rows, keys)]
        dense, pivots = _dense_rref(rows)
        reduced = rref(shuffled)
        assert reduced == _sparse(dense, keys)
        assert [min(row) for row in reduced] == [keys[c] for c in pivots]


def test_rref_zero_and_empty_matrices():
    assert rref([]) == [] and _dense_rref([]) == ([], [])
    assert rref([{}]) == [] and _dense_rref([[]]) == ([], [])
    zero = [[0, 0, 0], [Fraction(0), 0, 0]]
    assert rref([{0: 0, 1: 0, 2: 0}, {1: Fraction(0)}]) == [] and _dense_rref(zero) == ([], [])
    # The nullspace from tagged rows (column c of A | e_c), one per column:
    # rows with a zero first block are its RREF, so every column of zero is free.
    columns = [
        {**{(0, r): row[c] for r, row in enumerate(zero)}, (1, c): 1} for c in range(3)
    ]
    assert rref(columns) == [{(1, 0): 1}, {(1, 1): 1}, {(1, 2): 1}]


def test_solve_consistent_and_inconsistent():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 3}]
    assert solve(rows, [3, 6, 9]) == {0: Fraction(3), 2: Fraction(3)}
    assert solve(rows, [3, 7, 9]) is None
    assert solve([], []) == {}
    assert solve([{}, {}], [0, 0]) == {} and solve([{}, {}], [0, 1]) is None
