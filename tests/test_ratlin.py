"""Exact rational elimination helpers."""

import random
from fractions import Fraction

import pytest

from posicert import ratlin


def test_solve_dense_known_system():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    b = [Fraction(5), Fraction(10)]
    x = ratlin.solve_dense(a, b)
    assert x == [Fraction(1), Fraction(3)]
    # diagonal with large denominators: the projection's normal matrix on
    # unconstrained monomial systems
    rng = random.Random(7)
    diag = [Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30)) for _ in range(40)]
    a = [[d if i == j else Fraction(0) for j in range(40)] for i, d in enumerate(diag)]
    b = [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30)) for _ in range(40)]
    assert ratlin.solve_dense(a, b) == [bi / di for bi, di in zip(b, diag)]


def test_solve_dense_random_exact():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 6)
        # L (unit lower) * U (unit diag upper) is always nonsingular
        lower = [[Fraction(rng.randint(-3, 3)) if j < i else Fraction(i == j) for j in range(n)] for i in range(n)]
        upper = [[Fraction(rng.randint(-3, 3)) if j > i else Fraction(i == j) for j in range(n)] for i in range(n)]
        a = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        x = ratlin.solve_dense(a, b)
        for i in range(n):
            assert sum(a[i][j] * x[j] for j in range(n)) == b[i]


def test_solve_dense_singular():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    # consistent, and inconsistent (elimination stops at the second row)
    for rhs in ([Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)]):
        with pytest.raises(ValueError, match="singular"):
            ratlin.solve_dense(a, rhs)


def test_row_reduce_drops_consistent_dependents():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(2), 1: Fraction(2)}, {1: Fraction(1)}]
    rhs = [Fraction(3), Fraction(6), Fraction(1)]
    independent, inconsistent = ratlin.row_reduce(rows, rhs)
    assert independent == [0, 2]
    assert inconsistent is None


def test_row_reduce_flags_inconsistency():
    rows = [{0: Fraction(1)}, {0: Fraction(1)}]
    rhs = [Fraction(1), Fraction(2)]
    independent, inconsistent = ratlin.row_reduce(rows, rhs)
    assert independent == [0]
    assert inconsistent == 1


def test_nullspace_exact():
    rng = random.Random(11)
    for _ in range(20):
        n_cols = rng.randint(2, 7)
        rows = []
        for _ in range(rng.randint(1, n_cols)):
            row = {j: Fraction(rng.randint(-3, 3)) for j in range(n_cols)}
            rows.append({j: v for j, v in row.items() if v})
        basis = ratlin.nullspace(rows, n_cols)

        def rank(width):
            return len(ratlin.row_reduce([{j: c for j, c in row.items() if j < width} for row in rows])[0])

        assert len(basis) == n_cols - rank(n_cols)
        for vec in basis:
            for row in rows:
                assert sum(c * vec[j] for j, c in row.items()) == 0
        # canonical form: column j is free when it depends on the columns
        # before it; each vector has 1 at its own free column, 0 at the others
        free = [j for j in range(n_cols) if rank(j + 1) == rank(j)]
        assert len(basis) == len(free)
        for vec, own in zip(basis, free):
            assert [vec[j] for j in free] == [Fraction(j == own) for j in free]
