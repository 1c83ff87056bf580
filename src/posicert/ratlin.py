"""Exact rational linear algebra for small dense/sparse systems.

One kernel does all the elimination: `_eliminate` reduces sparse rows
(dicts mapping column index -> Fraction), pivoting each on its smallest
column, and `_back_substitute` solves the reduced rows for given values of
the free columns.  `row_reduce` keeps the first, `nullspace` and
`solve_dense` use both; a dense matrix (a list of Fraction lists) enters as
sparse rows.  `limit_denominator` is the one best-approximation
rationalizer, and `limit_denominators` runs its walk over an array of floats
at once.
Everything here is exact; the sizes are desk scale (a few hundred rows at
most).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


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


def limit_denominator(x, max_denominator: int) -> Fraction:
    """``Fraction(x).limit_denominator(max_denominator)`` for a float or a
    Fraction x, built without its intermediate Fractions: the same
    continued-fraction walk over the exact value ``x.as_integer_ratio()``,
    and the same choice between the last convergent and the best
    semiconvergent (the convergent on a tie), made by cross-multiplication.
    """
    num, den = x.as_integer_ratio()
    if den <= max_denominator:
        return Fraction(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    if abs(p1 * den - num * q1) * q <= abs(p * den - num * q) * q1:
        return Fraction(p1, q1)
    return Fraction(p, q)


def limit_denominators(xs, max_denominator: int):
    """``limit_denominator`` of each float of the 1-d ``xs``, as integer
    arrays (numerators, denominators) in lowest terms.

    A float x with 2^-10 <= |x| < 2^9 is exactly m / 2^(53 - e), with m and
    e its integer mantissa and exponent, a ratio of int64 values.  Where
    that ratio in lowest terms has a denominator above the bound, the
    scalar's continued-fraction walk runs over all such floats at once in
    int64 (``_walk``); for bounds below 2^31 no value of the walk overflows,
    and every result is below 2^53 in magnitude.  Every other float, zero,
    tiny, huge, or past that bound, goes to the scalar
    ``limit_denominator``.  The arrays are int64, or of dtype object, over
    Python ints, where some result does not fit int64.
    """
    xs = np.asarray(xs, dtype=float)
    inside = (np.abs(xs) >= 2.0**-10) & (np.abs(xs) < 2.0**9) & (max_denominator < 2**31)
    fast, slow = np.flatnonzero(inside), np.flatnonzero(~inside)
    mantissa, exponent = np.frexp(xs[fast])
    num, den = np.zeros(xs.size, dtype=np.int64), np.ones(xs.size, dtype=np.int64)
    num[fast] = mantissa * 2.0**53  # exact: a 53-bit integer
    den[fast] = np.left_shift(1, 53 - exponent.astype(np.int64))
    common = np.gcd(num, den)
    num //= common
    den //= common
    walk = fast[den[fast] > max_denominator]
    if walk.size:
        num[walk], den[walk] = _walk(num[walk], den[walk], max_denominator)
    if slow.size:
        rounded = [limit_denominator(x, max_denominator) for x in xs[slow].tolist()]
        parts = [r.numerator for r in rounded], [r.denominator for r in rounded]
        if any(not -(2**63) <= v < 2**63 for part in parts for v in part):
            num, den = num.astype(object), den.astype(object)
        num[slow], den[slow] = parts
    return num, den


def _walk(num: np.ndarray, den: np.ndarray, max_denominator: int):
    """``limit_denominator``'s walk over int64 arrays of reduced ratios num/den
    with den > max_denominator, for the (numerators, denominators) it picks."""
    a = num // den  # the first step never stops: its q0 + a*q1 is 1
    ones = np.ones_like(a)
    state = np.array([ones, np.zeros_like(a), a, ones, den, num - a * den])  # p0, q0, p1, q1, n, d
    final = np.empty_like(state)
    cols = np.arange(a.size)
    while cols.size:
        p0, q0, p1, q1, n, d = state
        a = n // d
        stop = a > (max_denominator - q0) // q1  # q0 + a*q1 > bound, which could overflow
        final[:, cols[stop]] = state[:, stop]
        go = ~stop
        cols, a, (p0, q0, p1, q1, n, d) = cols[go], a[go], state[:, go]
        state = np.array([p1, q1, p0 + a * p1, q0 + a * q1, d, n - a * d])
    p0, q0, p1, q1, n, d = final
    k = (max_denominator - q0) // q1
    # x = (p1*t + p0)/(q1*t + q0) with t = n/d, so |x - p1/q1| = 1/(q1*(q1*t + q0))
    # and, at p/q = (p0 + k*p1)/(q0 + k*q1), |x - p/q| = (t - k)/(q*(q1*t + q0)):
    # the convergent is as close iff s*d <= q1*n, s = q0 + 2*k*q1 <= 2*bound, that
    # is d/q1 <= n/s, compared exactly by integer parts, then by remainders,
    # whose products stay below 2*bound^2
    s = q0 + 2 * k * q1
    dq, dr = np.divmod(d, q1)
    nq, nr = np.divmod(n, np.maximum(s, 1))
    convergent = (s == 0) | (dq < nq) | ((dq == nq) & (dr * s <= nr * q1))
    return np.where(convergent, p1, p0 + k * p1), np.where(convergent, q1, q0 + k * q1)
