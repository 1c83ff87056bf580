"""Exact polynomial arithmetic: worked examples plus ring-axiom properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posicert.poly import Grading, Polynomial, sum_of_squared_variables


def poly(n_vars, terms):
    return Polynomial(n_vars, {tuple(k): Fraction(v) for k, v in terms.items()})


X2 = (2, 0)
Y2 = (0, 2)
XY = (1, 1)


def brute_mul(a: dict, b: dict) -> dict:
    # independent convolution oracle on plain dicts
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ev = tuple(x + y for x, y in zip(ea, eb))
            out[ev] = out.get(ev, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


MOTZKIN = {(4, 2, 0): 1, (2, 4, 0): 1, (0, 0, 6): 1, (2, 2, 2): -3}
SUM_SQ3 = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


class TestAdd:
    def test_cancellation(self):
        p = poly(2, {X2: 1, Y2: 1})
        q = poly(2, {X2: -1})
        assert p + q == poly(2, {Y2: 1})

    def test_identity(self):
        p = poly(2, {X2: 3, XY: Fraction(-1, 2)})
        assert p + Polynomial.zero(2) == p

    def test_merge(self):
        p = poly(2, {X2: 1, Y2: -1})
        q = poly(2, {X2: 1, Y2: 1})
        assert p + q == poly(2, {X2: 2})

    def test_mismatch(self):
        with pytest.raises(ValueError):
            poly(2, {X2: 1}) + poly(3, {(1, 0, 0): 1})


class TestMul:
    def test_difference_of_squares(self):
        p = poly(2, {(1, 0): 1, (0, 1): 1})
        q = poly(2, {(1, 0): 1, (0, 1): -1})
        assert p * q == poly(2, {X2: 1, Y2: -1})

    def test_identity(self):
        p = poly(2, {XY: Fraction(5, 7), X2: -2})
        assert p * Polynomial.one(2) == p

    def test_motzkin_times_sum_of_squares(self):
        # frozen via the independent convolution oracle
        m = poly(3, MOTZKIN)
        s = poly(3, SUM_SQ3)
        product = m * s
        expected = brute_mul({k: Fraction(v) for k, v in MOTZKIN.items()},
                             {k: Fraction(v) for k, v in SUM_SQ3.items()})
        assert dict(product.terms) == expected
        assert product.total_degree() == 8
        assert product.coefficient((2, 2, 4)) == -3
        assert len(product) == 9

    def test_scalar(self):
        p = poly(2, {X2: 1})
        assert Fraction(1, 2) * p == poly(2, {X2: Fraction(1, 2)})


class TestPow:
    def test_square_binomial(self):
        p = poly(2, {(1, 0): 1, (0, 1): 1})
        assert p**2 == poly(2, {X2: 1, XY: 2, Y2: 1})

    def test_zeroth_power(self):
        p = poly(2, {X2: -4})
        assert p**0 == Polynomial.one(2)

    def test_cube(self):
        p = poly(2, {X2: 1, Y2: 1})
        assert p**3 == poly(2, {(6, 0): 1, (4, 2): 3, (2, 4): 3, (0, 6): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            poly(2, {X2: 1}) ** -1


class TestEvaluate:
    def test_difference_at_ones(self):
        assert poly(2, {X2: 1, Y2: -1}).evaluate([1, 1]) == 0

    def test_motzkin_at_ones(self):
        assert poly(3, MOTZKIN).evaluate([1, 1, 1]) == 0

    def test_inhomogeneous_constant_term(self):
        # x^3 + (x*y^2 - x^2 - 1)^2 at the origin: only the squared -1 survives
        inner = poly(2, {(1, 2): 1, (2, 0): -1, (0, 0): -1})
        f = poly(2, {(3, 0): 1}) + inner * inner
        assert f.evaluate([0, 0]) == 1

    def test_rational_point(self):
        p = poly(1, {(2,): 1, (0,): -1})
        assert p.evaluate([Fraction(1, 2)]) == Fraction(-3, 4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            poly(2, {X2: 1}).evaluate([1])


class TestStructure:
    def test_single_block_degree(self):
        p = poly(2, {(2, 1): 1, (0, 3): 1})
        assert p.multidegree(Grading.single(2)) == (3,)

    def test_bidegree(self):
        g = Grading(((0,), (1,)))
        p = poly(2, {(1, 2): 5})
        assert p.multidegree(g) == (1, 2)

    def test_not_graded(self):
        p = poly(1, {(2,): 1, (1,): 1})
        assert p.multidegree(Grading.single(1)) is None

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError):
            Polynomial.zero(2).multidegree(Grading.single(2))
        with pytest.raises(ValueError):
            Polynomial.zero(2).total_degree()

    def test_default_multiplier(self):
        assert sum_of_squared_variables(3) == poly(3, SUM_SQ3)

    def test_grading_validation(self):
        with pytest.raises(ValueError):
            Grading(((0, 2), (1,)))
        with pytest.raises(ValueError):
            Grading(((0,), ()))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
).filter(lambda f: f != 0)


@st.composite
def polynomials(draw, n_vars=None, max_degree=4, max_terms=5):
    n = n_vars if n_vars is not None else draw(st.integers(1, 3))
    exponents = st.tuples(*([st.integers(0, max_degree)] * n))
    terms = draw(st.dictionaries(exponents, coefficients, max_size=max_terms))
    return Polynomial(n, terms)


@given(polynomials(n_vars=2), polynomials(n_vars=2), polynomials(n_vars=2))
@settings(max_examples=100)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polynomials(n_vars=2, max_degree=3, max_terms=3), st.integers(0, 8))
@settings(max_examples=40)
def test_pow_is_iterated_mul(p, k):
    expected = Polynomial.one(2)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


@given(
    polynomials(n_vars=2),
    polynomials(n_vars=2),
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=6),
              st.fractions(min_value=-3, max_value=3, max_denominator=6)),
)
@settings(max_examples=100)
def test_evaluate_is_ring_homomorphism(p, q, point):
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def reference_value(p, point):
    # plain Fraction term sum, independent of evaluate's integer form
    total = Fraction(0)
    for ev, c in p.terms.items():
        term = c
        for v, e in zip(point, ev):
            term *= Fraction(v) ** e
        total += term
    return total


mixed_coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(lambda f: f != 0)
mixed_coordinates = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=1000),
)


@given(st.data())
@settings(max_examples=200)
def test_evaluate_matches_fraction_term_sum(data):
    n = data.draw(st.integers(1, 3))
    monomials = st.tuples(*([st.integers(0, 5)] * n))
    p, q = (
        Polynomial(n, data.draw(st.dictionaries(monomials, mixed_coefficients, max_size=8)))
        for _ in range(2)
    )
    k = data.draw(st.integers(0, 3))
    point = data.draw(st.tuples(*([mixed_coordinates] * n)))
    # __init__ builds p and q; +, -, * and ** build their integer form directly
    for r in (p, q, p + q, p - q, -q, p * q, q * Fraction(-3, 7), q**k):
        assert r.evaluate(point) == reference_value(r, point)


@given(polynomials(n_vars=2, max_terms=3), polynomials(n_vars=2, max_terms=3))
@settings(max_examples=100)
def test_multidegree_additive_on_graded(p, q):
    g = Grading.single(2)
    if p.is_zero() or q.is_zero():
        return
    dp, dq = p.multidegree(g), q.multidegree(g)
    if dp is None or dq is None:
        return
    assert (p * q).multidegree(g) == tuple(a + b for a, b in zip(dp, dq))


# ---------------------------------------------------------------------------
# integer representation against a Fraction-dict reference
# ---------------------------------------------------------------------------


def reference_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for ev, c in b.items():
        out[ev] = out.get(ev, Fraction(0)) + sign * c
    return {ev: c for ev, c in out.items() if c}


def reference_pow(a: dict, k: int, n_vars: int) -> dict:
    out = {(0,) * n_vars: Fraction(1)}
    for _ in range(k):
        out = brute_mul(out, a)
    return out


mixed_scalars = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-9, max_value=9, max_denominator=36),
)


@given(
    polynomials(n_vars=2, max_terms=6),
    polynomials(n_vars=2, max_terms=6),
    mixed_scalars,
    st.integers(0, 4),
)
@settings(max_examples=150)
def test_ring_operations_match_fraction_reference(p, q, c, k):
    a, b = dict(p.terms), dict(q.terms)
    assert dict((p + q).terms) == reference_add(a, b)
    assert dict((p - q).terms) == reference_add(a, b, -1)
    assert dict((-q).terms) == {ev: -v for ev, v in b.items()}
    assert dict((p * q).terms) == brute_mul(a, b)
    assert dict((p * c).terms) == {ev: v * c for ev, v in a.items() if v * c}
    assert dict((c * p).terms) == dict((p * c).terms)
    assert dict((p + c).terms) == reference_add(a, {(0, 0): Fraction(c)})
    assert dict((c - p).terms) == reference_add({(0, 0): Fraction(c)}, a, -1)
    assert dict((q**k).terms) == reference_pow(b, k, 2)
    for r in (p + q, p - q, p * q, p * c, q**k):
        for ev, v in r.terms.items():
            assert type(v) is Fraction and v != 0
            assert r.coefficient(ev) == v
        assert r.coefficient((50, 50)) == 0


@given(polynomials(n_vars=2, max_terms=6), polynomials(n_vars=2, max_terms=6), mixed_scalars)
@settings(max_examples=150)
def test_equal_polynomials_compare_and_hash_equal(p, q, c):
    same = [
        (p * 3) * Fraction(1, 3),
        p * Fraction(2, 7) * Fraction(7, 2),
        p + q - q,
        (p + q) + (-q),
        Polynomial(2, dict(p.terms)),
        Polynomial(2, [(ev, v) for ev, v in reversed(list(p.terms.items()))]),
        -(-p),
    ]
    if c:
        same.append(p * c * (1 / Fraction(c)))
    for r in same:
        assert r == p
        assert hash(r) == hash(p)
    assert p * q == q * p and hash(p * q) == hash(q * p)
    assert (p - p).is_zero() and p - p == Polynomial.zero(2)
    assert hash(p - p) == hash(Polynomial.zero(2))
    if not q.is_zero():
        assert p + q != p


@given(polynomials(n_vars=2, max_terms=6))
@settings(max_examples=100)
def test_primitive_is_coprime_integer_content(p):
    content, square = p.primitive()
    assert content * square == p
    if p.is_zero():
        assert content == 0
        return
    assert content > 0
    assert all(v.denominator == 1 for v in square.terms.values())
    assert math.gcd(*(v.numerator for v in square.terms.values())) == 1
