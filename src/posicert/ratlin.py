"""Exact rational linear algebra for small dense/sparse systems.

Rows of sparse systems are dicts mapping column index -> Fraction; dense
systems are lists of Fraction lists.  Everything here is exact; the sizes
are desk scale (a few hundred rows at most).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence


def _subtract_row(row: dict, factor: Fraction, prow: dict, skip) -> None:
    """row -= factor * prow in place over every column but `skip`; zeros drop out."""
    for c, v in prow.items():
        if c == skip:
            continue
        s = row.get(c, Fraction(0)) - factor * v
        if s:
            row[c] = s
        elif c in row:
            del row[c]


def _eliminate(rows: Sequence[dict], rhs: Optional[Sequence[Fraction]] = None):
    """Sparse forward elimination, pivoting each row on its smallest column.

    Returns (pivots, independent, inconsistent): pivots maps a pivot column
    to its normalized row dict and right-hand side, independent lists the
    indices of the pivot rows in input order, and inconsistent is the index
    of the first row that reduces to 0 = nonzero (elimination stops there),
    or None.
    """
    pivots = {}
    independent = []
    for idx, row in enumerate(rows):
        work = dict(row)
        val = Fraction(rhs[idx]) if rhs is not None else Fraction(0)
        while work:
            col = min(work)
            if col in pivots:
                prow, pval = pivots[col]
                factor = work.pop(col)
                _subtract_row(work, factor, prow, col)
                val -= factor * pval
            else:
                lead = work[col]
                norm = {c: v / lead for c, v in work.items()}
                pivots[col] = (norm, val / lead)
                independent.append(idx)
                break
        else:
            if val != 0:
                return pivots, independent, idx
    return pivots, independent, None


def row_reduce(rows: Sequence[dict], rhs: Optional[Sequence[Fraction]] = None):
    """Incremental elimination over the rationals.

    Returns (independent, inconsistent): the indices of rows forming a
    maximal independent subset (in input order), and the index of the first
    row that reduces to 0 = nonzero, or None.  Dependent-but-consistent rows
    are simply dropped from `independent`.
    """
    _, independent, inconsistent = _eliminate(rows, rhs)
    return independent, inconsistent


def nullspace(rows: Sequence[dict], n_cols: int) -> list:
    """Exact basis of {x : A x = 0} as dense Fraction vectors."""
    pivots = {col: prow for col, (prow, _) in _eliminate(rows)[0].items()}
    # back-substitute pivot rows against each other
    for col in sorted(pivots, reverse=True):
        prow = pivots[col]
        for other_col, orow in pivots.items():
            if other_col == col or col not in orow:
                continue
            _subtract_row(orow, orow.pop(col), prow, col)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for col, prow in pivots.items():
            vec[col] = -prow.get(free, Fraction(0))
        basis.append(vec)
    return basis


def solve_dense(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list:
    """Solve a square nonsingular system exactly.

    Rows are scaled to integers, eliminated fraction-free (Bareiss), then
    back-substituted.  Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_dense expects a square system")
    aug = []
    for row, b in zip(matrix, rhs):
        entries = [Fraction(v) for v in row] + [Fraction(b)]
        scale = lcm(*(v.denominator for v in entries)) if entries else 1
        aug.append([int(v * scale) for v in entries])

    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                aug[i][j] = (aug[i][j] * aug[k][k] - aug[i][k] * aug[k][j]) // prev
            aug[i][k] = 0
        prev = aug[k][k]

    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    return x
