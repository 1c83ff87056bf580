"""Exact rational linear algebra for small dense/sparse systems.

One kernel does all the elimination: `_eliminate` reduces sparse rows
(dicts mapping column index -> Fraction), pivoting each on its smallest
column, and `_back_substitute` solves the reduced rows for given values of
the free columns.  `row_reduce` keeps the first, `nullspace` and
`solve_dense` use both; a dense matrix (a list of Fraction lists) enters as
sparse rows.  Everything here is exact; the sizes are desk scale (a few
hundred rows at most).
"""

from __future__ import annotations

from fractions import Fraction
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


def _back_substitute(pivots: dict, x: list) -> list:
    """Set x at every pivot column, in descending order, from its reduced row.

    x holds the values of the free columns on entry.  A pivot row has its 1
    at its own column and other entries only at larger columns, which are
    free or already set.
    """
    for col in sorted(pivots, reverse=True):
        prow, val = pivots[col]
        for c, v in prow.items():
            if c != col:
                val -= v * x[c]
        x[col] = val
    return x


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
    """Exact basis of {x : A x = 0} as dense Fraction vectors.

    One vector per free (non-pivot) column, in ascending order: 1 at its
    own free column and 0 at the other free columns.
    """
    pivots = _eliminate(rows)[0]
    basis = []
    for free in range(n_cols):
        if free not in pivots:
            x = [Fraction(0)] * n_cols
            x[free] = Fraction(1)
            basis.append(_back_substitute(pivots, x))
    return basis


def solve_dense(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list:
    """Solve a square nonsingular system exactly.

    The rows are eliminated as sparse rows, so a diagonal or banded matrix
    costs what its nonzeros do.  Raises ValueError on a singular matrix.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_dense expects a square system")
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in matrix]
    pivots, independent, _ = _eliminate(rows, rhs)
    if len(independent) < n:
        raise ValueError("singular matrix")
    return _back_substitute(pivots, [Fraction(0)] * n)
