"""Rounding, projection, rational LDL', extraction, verification, files."""

import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posicert import ratlin
from posicert.exact import (
    Certificate,
    CertificateBlock,
    InconsistentSystemError,
    SquareTerm,
    certificate_from_gram,
    combine_squares,
    exact_ldlt,
    format_certificate,
    lift_certificate,
    parse_certificate,
    project_to_constraints,
    round_to_rational,
    verify_certificate,
)
from posicert.gram import GramSystem, build_gram_system, build_reduced_system
from posicert.parsing import ParseError, parse_polynomial
from posicert.poly import Grading, Polynomial, sum_of_squared_variables

XY = ["x", "y"]
F = Fraction


def frac_matrix(rows):
    return [[F(v) for v in row] for row in rows]


def grid_reference(a, b, bound):
    """round(bound * (a + b)/2) / bound from the exact average of two floats,
    a tie going to the even neighbour, by floor and remainder."""
    x = (F(float(a)) + F(float(b))) / 2 * bound
    k = math.floor(x)
    rest = x - k
    if rest > F(1, 2) or (rest == F(1, 2) and k % 2):
        k += 1
    return F(k, bound)


class TestRoundToRational:
    def test_half(self):
        assert round_to_rational([[0.5]], 10)[0][0] == F(1, 2)

    def test_third(self):
        # the nearest multiple of 1/100, not the simpler 1/3
        assert round_to_rational([[0.3333333333]], 100)[0][0] == F(33, 100)
        assert round_to_rational([[0.6666666667]], 100)[0][0] == F(67, 100)
        assert round_to_rational([[0.3333333333]], 3)[0][0] == F(1, 3)

    def test_pi_convergent(self):
        # brute-force oracle over the multiples of 1/1000: the convergent
        # 355/113, whose denominator does not divide 1000, is not on the grid
        nearest = min((F(p, 1000) for p in range(3000, 3300)), key=lambda c: abs(F(math.pi) - c))
        assert nearest == F(1571, 500) == grid_reference(math.pi, math.pi, 1000)
        assert round_to_rational([[math.pi]], 1000)[0][0] == F(1571, 500)

    def test_ties_go_to_even(self):
        for value, expected in ((0.5, 0), (1.5, 2), (2.5, 2), (-0.5, 0), (-1.5, -2)):
            assert round_to_rational([[value]], 1)[0][0] == expected
        # the tie is in the exact average, not in either entry
        assert round_to_rational([[0.0, 0.25], [0.75, 0.0]], 1)[0][1] == 0
        assert round_to_rational([[0.0, 1.0], [2.0, 0.0]], 1)[1][0] == 2

    def test_symmetrizes(self):
        out = round_to_rational([[1.0, 0.30], [0.31, 1.0]], 1000)
        assert out[0][1] == out[1][0] == F(61, 200)

    def test_matches_averaging_every_entry(self):
        # reference: the exact average of every entry pair, rounded to the
        # grid of multiples of 1/bound by floor and remainder
        rng = np.random.default_rng(20)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            matrix = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
            if trial % 2:
                matrix = matrix + matrix.T  # symmetric inputs too
            bound = 10 ** int(rng.integers(2, 13))
            expected = [[grid_reference(matrix[i][j], matrix[j][i], bound) for j in range(n)] for i in range(n)]
            assert round_to_rational(matrix, bound) == expected


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.integers(1, 10**12),
)
@settings(max_examples=200)
def test_rounding_is_on_one_grid_within_half_a_step(matrix, bound):
    # every entry is a multiple of 1/bound within 1/(2*bound) of the exact average
    out = round_to_rational(matrix, bound)
    for i, row in enumerate(matrix):
        for j, a in enumerate(row):
            average = (F(a) + F(matrix[j][i])) / 2
            assert (bound * out[i][j]).denominator == 1
            assert abs(out[i][j] - average) <= F(1, 2 * bound)


def circle_system():
    f = parse_polynomial("x^2 + y^2", XY)
    return build_gram_system(f, sum_of_squared_variables(2), 0, (), Grading.single(2))


def worked_system():
    f = parse_polynomial("x^2 - 1/2*y^2", XY)
    g = parse_polynomial("x^2 + y^2", XY)
    h = parse_polynomial("x^2 - y^2", XY)
    return build_gram_system(f, g, 0, (h,), Grading.single(2))


class TestProjection:
    def test_feasible_point_is_fixed(self):
        system = circle_system()
        q = {0: frac_matrix([[1, 0], [0, 1]])}
        assert project_to_constraints(q, system) == {0: frac_matrix([[1, 0], [0, 1]])}

    def test_single_coordinate_correction(self):
        system = circle_system()
        q = {0: frac_matrix([[F(99, 100), 0], [0, 1]])}
        out = project_to_constraints(q, system)
        # each unknown sits in exactly one constraint here: exact snap-back
        assert out[0][0][0] == 1 and out[0][1][1] == 1 and out[0][0][1] == 0

    def test_worked_example_round_then_project(self):
        system = worked_system()
        noisy = {
            0: round_to_rational([[0.2500004, 1e-7], [1e-7, 0.2499996]], 10**6),
            1: round_to_rational([[0.7500002]], 10**6),
        }
        out = project_to_constraints(noisy, system)
        basis = [next(iter(gen.terms)) for gen in system.blocks[0].generators]
        x_idx = basis.index((1, 0))
        y_idx = basis.index((0, 1))
        # the coupled constraints hold exactly after projection
        assert out[0][x_idx][x_idx] + out[1][0][0] == 1
        assert out[0][y_idx][y_idx] - out[1][0][0] == F(-1, 2)
        assert out[0][x_idx][y_idx] == 0

    def test_inconsistent_is_flagged(self):
        system = circle_system()
        # clone with a contradictory duplicate of the first constraint
        clone = dataclasses.replace(
            system,
            monomials=system.monomials + system.monomials[:1],
            rows=system.rows + (dict(system.rows[0]),),
            rhs=system.rhs + (system.rhs[0] + 1,),
        )
        with pytest.raises(InconsistentSystemError):
            project_to_constraints({0: frac_matrix([[1, 0], [0, 1]])}, clone)

    def test_projection_is_frobenius_optimal(self):
        # exact minimality against 20 random feasible points per instance
        rng = random.Random(17)
        for _ in range(5):
            system = worked_system()
            q_in = {
                0: frac_matrix([[F(rng.randint(-8, 8), 4) for _ in range(2)] for _ in range(2)]),
                1: frac_matrix([[F(rng.randint(-8, 8), 4)]]),
            }
            for mat in q_in.values():  # symmetrize
                for i in range(len(mat)):
                    for j in range(i + 1, len(mat)):
                        mat[i][j] = mat[j][i] = (mat[i][j] + mat[j][i]) / 2
            projected = project_to_constraints(q_in, system)

            def weighted_dist(a):
                total = F(0)
                for (b, i, j) in system.unknown_layout:
                    d = a[b][i][j] - q_in[b][i][j]
                    total += d * d * (1 if i == j else 2)
                return total

            base = weighted_dist(projected)
            kernel = ratlin.nullspace(system.rows, len(system.unknown_layout))
            flat = system.flatten(projected)
            for _ in range(20):
                vec = list(flat)
                for z in kernel:
                    c = F(rng.randint(-3, 3), rng.randint(1, 3))
                    vec = [v + c * zi for v, zi in zip(vec, z)]
                other = system.unflatten(vec)
                assert weighted_dist(other) >= base


def all_pairs_projection(q_matrices, system):
    """Reference projection: the normal matrix pairs every two independent rows."""
    rows = [system.rows[k] for k in system.independent]
    weights = system.frobenius_weights()
    q = system.flatten(q_matrices)
    gram = [[sum(v * other.get(col, 0) / weights[col] for col, v in row.items()) for other in rows] for row in rows]
    residual = [
        system.rhs[k] - sum(v * q[col] for col, v in row.items())
        for k, row in zip(system.independent, rows)
    ]
    for row, l in zip(rows, ratlin.solve_dense(gram, residual)):
        for col, v in row.items():
            q[col] += v * l / weights[col]
    return system.unflatten(q)


def _projection_systems():
    f = parse_polynomial("x^2 - 1/2*y^2", XY)
    g = parse_polynomial("x^2 + y^2", XY)
    h = parse_polynomial("x^2 - y^2", XY)
    shared = [build_gram_system(f, g, n, (h,), Grading.single(2)) for n in (0, 1)]
    xyz = ["x", "y", "z"]
    motzkin = parse_polynomial("x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2", xyz)
    for k in (1, 2):
        shared.append(build_reduced_system(motzkin, sum_of_squared_variables(3), k, (), Grading.single(3)))
    rng = random.Random(3)
    terms = {ev: F(rng.randint(-3, 3)) for ev in [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]}
    square = Polynomial(2, terms)
    disjoint = build_gram_system(square * square + 1, Polynomial.one(2), 0, (), Grading.single(2))
    return shared, disjoint


def test_projection_matches_all_pairs_reference():
    shared, disjoint = _projection_systems()
    for system in shared:  # the face-restricted rows share unknowns
        touched = [col for k in system.independent for col in system.rows[k]]
        assert len(touched) > len(set(touched))
    rng = random.Random(29)
    for system in shared + [disjoint]:
        assert isinstance(system, GramSystem)
        for _ in range(3):
            q_in = {}
            for b in system.active_indices:
                d = system.block_dim(b)
                q_in[b] = [[F(0)] * d for _ in range(d)]
                for i in range(d):
                    for j in range(i, d):
                        q_in[b][i][j] = q_in[b][j][i] = F(rng.randint(-50, 50), rng.randint(1, 20))
            assert project_to_constraints(q_in, system) == all_pairs_projection(q_in, system)


class TestExactLdlt:
    def test_identity(self):
        lower, diag = exact_ldlt(frac_matrix([[1, 0], [0, 1]]))
        assert lower == frac_matrix([[1, 0], [0, 1]])
        assert diag == [F(1), F(1)]

    def test_rank_one(self):
        lower, diag = exact_ldlt(frac_matrix([[1, 1], [1, 1]]))
        assert diag == [F(1), F(0)]
        assert lower[1][0] == 1

    def test_zero_pivot_with_nonzero_row(self):
        assert exact_ldlt(frac_matrix([[0, 1], [1, 0]])) is None

    def test_negative_pivot(self):
        assert exact_ldlt(frac_matrix([[-1]])) is None

    def test_round_trip_on_random_psd(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 6)
            rank = rng.randint(0, n)
            q = [[F(0)] * n for _ in range(n)]
            for _ in range(rank):
                v = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for i in range(n):
                    for j in range(n):
                        q[i][j] += v[i] * v[j]
            out = exact_ldlt(q)
            assert out is not None
            lower, diag = out
            recon = [
                [sum(lower[i][k] * diag[k] * lower[j][k] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert recon == q
            assert all(d >= 0 for d in diag)

    def test_agrees_with_numeric_eigenvalues(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 5)
            q = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    q[j][i] = q[i][j]
            verdict = exact_ldlt(q) is not None
            w = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in q]))
            if w[0] > 1e-9:
                assert verdict
            elif w[0] < -1e-9:
                assert not verdict


MONOMIALS_XY = [Polynomial.monomial(2, (1, 0)), Polynomial.monomial(2, (0, 1))]


class TestExtractSos:
    def test_identity_gram(self):
        lower, diag = exact_ldlt(frac_matrix([[1, 0], [0, 1]]))
        squares = combine_squares(lower, diag, MONOMIALS_XY)
        polys = {format(sq.poly) for sq in squares}
        assert all(sq.weight == 1 for sq in squares)
        total = Polynomial.zero(2)
        for sq in squares:
            total = total + sq.weight * sq.poly * sq.poly
        assert total == parse_polynomial("x^2 + y^2", XY)

    def test_rank_one_gram(self):
        lower, diag = exact_ldlt(frac_matrix([[1, 1], [1, 1]]))
        squares = combine_squares(lower, diag, MONOMIALS_XY)
        assert len(squares) == 1
        assert squares[0].weight == 1
        assert squares[0].poly == parse_polynomial("x + y", XY)

    def test_diagonal_quarters(self):
        lower, diag = exact_ldlt(frac_matrix([[F(1, 4), 0], [0, F(1, 4)]]))
        squares = combine_squares(lower, diag, MONOMIALS_XY)
        assert [sq.weight for sq in squares] == [F(1, 4), F(1, 4)]

    def test_fractional_factor_gives_integer_content_squares(self):
        # the 3x3 Hilbert matrix: L in its LDL' has entries 1/2, 2/3, 1
        q = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
        lower, diag = exact_ldlt(q)
        assert any(v.denominator > 1 for row in lower for v in row)
        basis = [Polynomial.monomial(2, ev) for ev in [(2, 0), (1, 1), (0, 2)]]
        squares = combine_squares(lower, diag, basis)
        assert len(squares) == 3
        total = Polynomial.zero(2)
        for sq in squares:
            coefficients = list(sq.poly.terms.values())
            assert all(c.denominator == 1 for c in coefficients)
            assert math.gcd(*(c.numerator for c in coefficients)) == 1
            assert sq.weight > 0
            total = total + sq.weight * sq.poly * sq.poly
        expected = Polynomial.zero(2)
        for i in range(3):
            for j in range(3):
                expected = expected + q[i][j] * basis[i] * basis[j]
        assert total == expected


# ---------------------------------------------------------------------------
# fraction-free LDL' against the Fraction reference
# ---------------------------------------------------------------------------


def reference_ldlt(matrix):
    # left-looking Fraction LDL', the routine the fraction-free one replaced
    n = len(matrix)
    q = [[Fraction(v) for v in row] for row in matrix]
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        pivot = q[j][j] - sum(lower[j][k] * lower[j][k] * diag[k] for k in range(j))
        if pivot < 0:
            return None
        lower[j][j] = Fraction(1)
        diag[j] = pivot
        for i in range(j + 1, n):
            off = q[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            if pivot == 0:
                if off != 0:
                    return None
                lower[i][j] = Fraction(0)
            else:
                lower[i][j] = off / pivot
    return lower, diag


def reference_squares(lower, diag, generators):
    # (weight, coefficient dict) per square, in Fraction-dict arithmetic
    out = []
    for j in range(len(diag)):
        if diag[j] == 0:
            continue
        p = {}
        for i in range(j, len(diag)):
            for ev, c in generators[i].items():
                p[ev] = p.get(ev, Fraction(0)) + lower[i][j] * c
        p = {ev: c for ev, c in p.items() if c}
        if p:
            scale = Fraction(
                math.lcm(*(c.denominator for c in p.values())), math.gcd(*(c.numerator for c in p.values()))
            )
            out.append((diag[j] / scale**2, {ev: c * scale for ev, c in p.items()}))
    return out


entries = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def psd_matrices(draw, max_n=6):
    # sum of r rank-one terms v v' with some coordinates forced to zero:
    # PSD of rank at most r, with zero pivots and zero rows
    n = draw(st.integers(1, max_n))
    rank = draw(st.integers(0, n))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    q = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(rank):
        v = [Fraction(0) if i in zero else draw(entries) for i in range(n)]
        for i in range(n):
            for j in range(n):
                q[i][j] += v[i] * v[j]
    return q


def assert_same_ldlt(q):
    got, expected = exact_ldlt(q), reference_ldlt(q)
    assert got == expected
    if got is not None:
        assert all(type(v) is Fraction for row in got[0] for v in row)
        assert all(type(v) is Fraction for v in got[1])


@given(psd_matrices())
@settings(max_examples=200)
def test_ldlt_matches_reference_on_psd_of_random_rank(q):
    assert exact_ldlt(q) is not None
    assert_same_ldlt(q)


@given(psd_matrices(), st.data())
@settings(max_examples=200)
def test_ldlt_matches_reference_on_perturbed_matrices(q, data):
    n = len(q)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        delta = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=50))
        q[i][j] += delta
        if i != j:
            q[j][i] += delta
    assert_same_ldlt(q)


@given(psd_matrices(max_n=5), st.data())
@settings(max_examples=200)
def test_ldlt_rejects_a_zero_pivot_with_a_nonzero_column(q, data):
    n = len(q) + 1
    k = data.draw(st.integers(0, n - 2))
    l = data.draw(st.integers(k + 1, n - 1))
    # row and column k of a PSD matrix grown by one index are zero but for (k, l)
    grown = [[Fraction(0)] * n for _ in range(n)]
    old = [i for i in range(n) if i != k]
    for a, i in enumerate(old):
        for b, j in enumerate(old):
            grown[i][j] = q[a][b]
    c = data.draw(entries.filter(bool))
    grown[k][l] = grown[l][k] = c
    assert exact_ldlt(grown) is None
    assert_same_ldlt(grown)


@given(psd_matrices(), st.data())
@settings(max_examples=100)
def test_squares_match_reference(q, data):
    n = len(q)
    monomial = [(i, n - i) for i in range(n)]
    faced = data.draw(st.booleans())
    generators = [
        {ev: data.draw(entries.filter(bool)) for ev in monomial[i:i + 2]} if faced else {monomial[i]: Fraction(1)}
        for i in range(n)
    ]
    lower, diag = exact_ldlt(q)
    squares = combine_squares(lower, diag, [Polynomial(2, gen) for gen in generators])
    assert [(sq.weight, dict(sq.poly.terms)) for sq in squares] == reference_squares(lower, diag, generators)
    assert all(type(sq.weight) is Fraction for sq in squares)


def trivial_certificate():
    f = parse_polynomial("x^2 + y^2", XY)
    block = CertificateBlock(
        product_index=(),
        basis=((0, 1), (1, 0)),
        squares=(
            SquareTerm(F(1), parse_polynomial("x", XY)),
            SquareTerm(F(1), parse_polynomial("y", XY)),
        ),
    )
    return Certificate(
        variables=("x", "y"),
        grading=Grading.single(2),
        f=f,
        g=sum_of_squared_variables(2),
        constraints=(),
        n=0,
        blocks=(block,),
    )


def worked_certificate():
    # x^2/4 + y^2/4 + (3/4)(x^2 - y^2) = x^2 - y^2/2
    f = parse_polynomial("x^2 - 1/2*y^2", XY)
    g = parse_polynomial("x^2 + y^2", XY)
    h = parse_polynomial("x^2 - y^2", XY)
    plain = CertificateBlock(
        product_index=(0,),
        basis=((0, 1), (1, 0)),
        squares=(
            SquareTerm(F(1, 4), parse_polynomial("x", XY)),
            SquareTerm(F(1, 4), parse_polynomial("y", XY)),
        ),
    )
    times_h = CertificateBlock(
        product_index=(1,),
        basis=((0, 0),),
        squares=(SquareTerm(F(3, 4), Polynomial.one(2)),),
    )
    return Certificate(
        variables=("x", "y"),
        grading=Grading.single(2),
        f=f,
        g=g,
        constraints=(h,),
        n=0,
        blocks=(plain, times_h),
    )


class TestVerifyCertificate:
    def test_trivial_valid(self):
        assert verify_certificate(trivial_certificate()).valid

    def test_negated_weight_named(self):
        cert = trivial_certificate()
        block = cert.blocks[0]
        bad = CertificateBlock(
            block.product_index,
            block.basis,
            (SquareTerm(F(-1), block.squares[0].poly),) + block.squares[1:],
        )
        result = verify_certificate(
            Certificate(
                cert.variables, cert.grading, cert.f, cert.g, cert.constraints, cert.n, (bad,)
            )
        )
        assert not result.valid
        assert "weight" in result.reason

    def test_worked_identity(self):
        # independent check of the hand identity first
        f = parse_polynomial("x^2 - 1/2*y^2", XY)
        combo = parse_polynomial("1/4*x^2 + 1/4*y^2 + 3/4*(x^2 - y^2)", XY)
        assert combo == f
        assert verify_certificate(worked_certificate()).valid

    def test_mismatch_names_monomial(self):
        cert = trivial_certificate()
        wrong = Certificate(
            cert.variables,
            cert.grading,
            parse_polynomial("x^2 + 2*y^2", XY),
            cert.g,
            cert.constraints,
            cert.n,
            cert.blocks,
        )
        result = verify_certificate(wrong)
        assert not result.valid
        assert "y^2" in result.reason

    def test_square_outside_basis_rejected(self):
        cert = trivial_certificate()
        block = cert.blocks[0]
        bad = CertificateBlock(
            block.product_index,
            ((1, 0),),  # basis no longer covers y
            block.squares,
        )
        result = verify_certificate(
            Certificate(
                cert.variables, cert.grading, cert.f, cert.g, cert.constraints, cert.n, (bad,)
            )
        )
        assert not result.valid


class TestLift:
    def test_lift_worked_example(self):
        cert = worked_certificate()
        lifted = lift_certificate(cert)
        assert lifted.n == cert.n + 2
        assert verify_certificate(lifted).valid

    def test_lift_is_g_squared_in_each_square(self):
        cert = trivial_certificate()
        lifted = lift_certificate(cert)
        for block, lifted_block in zip(cert.blocks, lifted.blocks):
            for sq, lsq in zip(block.squares, lifted_block.squares):
                assert lsq.poly == sq.poly * cert.g
                assert lsq.weight == sq.weight


class TestCertificateFiles:
    def test_round_trip(self):
        cert = worked_certificate()
        text = format_certificate(cert)
        parsed = parse_certificate(text)
        assert parsed.f == cert.f and parsed.g == cert.g
        assert parsed.constraints == cert.constraints
        assert parsed.n == cert.n
        assert parsed.blocks == cert.blocks
        assert verify_certificate(parsed).valid

    def test_weights_are_exact_ratios(self):
        text = format_certificate(worked_certificate())
        for line in text.splitlines():
            if line.startswith("squares"):
                assert "." not in line  # p/q only, never decimals

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_certificate("vars = x\nf = \"x^2\"\ng = \"x^2\"\nN = 0\nwat = 1")

    def test_expanding_texts_refused_at_once(self):
        header = 'vars = x, y\ng = "x^2"\nN = 0\n'
        for doc in (
            header + 'f = "(x+y+1)^120"\n',
            header + 'f = "x^2"\ne = ()\nbasis = [x]\nsquares = [(1, "(x+y+1)^120")]\n',
            header + 'f = "x^2"\ne = ()\nbasis = [x]\nsquares = [(1, "9^99999999*x")]\n',
        ):
            start = time.perf_counter()
            with pytest.raises(ParseError):
                parse_certificate(doc)
            assert time.perf_counter() - start < 1.0

    def test_section_before_e_rejected(self):
        text = 'vars = x\nf = "x^2"\ng = "x^2"\nN = 0\nbasis = [x]'
        with pytest.raises(ParseError):
            parse_certificate(text)


def test_certificate_from_gram_and_rounding_ladder():
    # a strictly interior instance certifies at some bound of the ladder
    system = circle_system()
    q_float = {0: np.array([[1.0 + 3e-9, 2e-9], [2e-9, 1.0 - 4e-9]])}
    for bound in (10**2, 10**4, 10**8):
        q_rat = {0: round_to_rational(q_float[0], bound)}
        projected = project_to_constraints(q_rat, system)
        cert = certificate_from_gram(
            system,
            projected,
            variables=("x", "y"),
            f=system.target,
            g=sum_of_squared_variables(2),
            constraints=(),
            n=0,
        )
        if cert is not None:
            assert verify_certificate(cert).valid
            return
    pytest.fail("no bound in the ladder certified an interior instance")

