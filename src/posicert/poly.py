"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent vectors (one slot per variable) to
nonzero rational coefficients, held as integer numerators over one positive
common denominator in lowest terms: the ring operations run in integers and
bring each result to lowest terms with one gcd pass.  Instances are
immutable and hashable; all arithmetic is exact.  The ``Fraction`` view of
the coefficients is built when first read and cached; a float view is
derived on demand for the numeric layers, never stored.  ``SignFilter``
gives a polynomial's exact signs over a batch of points, integer rows over
denominators: it forms their float view, decides most signs there under a
proven error bound, and evaluates the rest exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence, Union

import numpy as np

ExponentVector = tuple  # tuple[int, ...], one entry per variable
RationalLike = Union[int, str, Fraction]


def grlex_key(exponents):
    """Graded-lexicographic sort key: total degree first, then lex."""
    return (sum(exponents), exponents)


@dataclass(frozen=True)
class Grading:
    """Partition of the variable indices into contiguous blocks.

    A single block is the ordinary total-degree grading; several blocks give
    a multidegree (one degree per block), e.g. bihomogeneous forms.
    """

    blocks: tuple

    def __post_init__(self):
        flat = [i for block in self.blocks for i in block]
        if not self.blocks or any(len(b) == 0 for b in self.blocks):
            raise ValueError("grading blocks must be nonempty")
        if flat != list(range(len(flat))):
            raise ValueError("grading blocks must partition 0..n-1 contiguously in order")

    @classmethod
    def single(cls, n_vars: int) -> "Grading":
        if n_vars <= 0:
            raise ValueError("need at least one variable")
        return cls((tuple(range(n_vars)),))

    @property
    def n_vars(self) -> int:
        return sum(len(b) for b in self.blocks)

    def degrees(self, exponents) -> tuple:
        """Per-block total degree of one monomial."""
        return tuple(sum(exponents[i] for i in block) for block in self.blocks)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    The coefficient of x^e is ``_num[e] / _den``: ``_num`` maps each exponent
    vector of the support to a nonzero integer, ``_den`` is a positive
    integer, and gcd(_den, *_num.values()) == 1, so equal polynomials have
    equal representations.
    """

    __slots__ = ("_n_vars", "_num", "_den", "_hash", "_terms")

    def __init__(self, n_vars: int, terms: Mapping = ()):
        if n_vars <= 0:
            raise ValueError("n_vars must be positive")
        clean = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponents, coefficient in items:
            ev = tuple(exponents)
            if len(ev) != n_vars:
                raise ValueError(f"exponent vector {ev} has length {len(ev)}, expected {n_vars}")
            if any(not isinstance(e, int) or e < 0 for e in ev):
                raise ValueError(f"exponents must be nonnegative integers: {ev}")
            c = Fraction(coefficient)
            if c != 0:
                c = clean.get(ev, Fraction(0)) + c
                if c:
                    clean[ev] = c
                elif ev in clean:
                    del clean[ev]
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*(c.denominator for c in clean.values()))
        self._n_vars = n_vars
        self._num = {ev: c.numerator * (den // c.denominator) for ev, c in clean.items()}
        self._den = den
        self._hash = None
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars)

    @classmethod
    def constant(cls, n_vars: int, value: RationalLike) -> "Polynomial":
        return cls(n_vars, {(0,) * n_vars: Fraction(value)})

    @classmethod
    def one(cls, n_vars: int) -> "Polynomial":
        return cls.constant(n_vars, 1)

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "Polynomial":
        ev = tuple(1 if i == index else 0 for i in range(n_vars))
        return cls(n_vars, {ev: 1})

    @classmethod
    def monomial(cls, n_vars: int, exponents, coefficient: RationalLike = 1) -> "Polynomial":
        return cls(n_vars, {tuple(exponents): Fraction(coefficient)})

    # -- accessors ----------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self._n_vars

    @property
    def terms(self) -> Mapping:
        """Exponent vector -> nonzero Fraction coefficient; the Fractions are
        built on first read and cached."""
        if self._terms is None:
            den = self._den
            self._terms = {ev: Fraction(c) if den == 1 else Fraction(c, den) for ev, c in self._num.items()}
        return MappingProxyType(self._terms)

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def support(self) -> frozenset:
        return frozenset(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __len__(self) -> int:
        return len(self._num)

    def primitive(self):
        """(c, p) with self == c * p, c a positive Fraction and p with coprime
        integer coefficients; (0, self) for the zero polynomial."""
        if not self._num:
            return Fraction(0), self
        content = gcd(*self._num.values())
        num = {ev: c // content for ev, c in self._num.items()}
        return Fraction(content, self._den), self._raw(self._n_vars, num, 1)

    # -- ring operations ----------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self._n_vars != other._n_vars:
            raise ValueError(f"variable count mismatch: {self._n_vars} vs {other._n_vars}")

    def _combine(self, other, sign: int):
        # self + sign*other over the least common denominator
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._n_vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        g = gcd(self._den, other._den)
        s, t = other._den // g, sign * (self._den // g)
        num = {ev: c * s for ev, c in self._num.items()} if s != 1 else dict(self._num)
        for ev, c in other._num.items():
            c = num.get(ev, 0) + c * t
            if c:
                num[ev] = c
            elif ev in num:
                del num[ev]
        return self._reduced(self._n_vars, num, self._den * s)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self._n_vars, {ev: -c for ev, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self._n_vars)
            num = {ev: c * other.numerator for ev, c in self._num.items()}
            return self._reduced(self._n_vars, num, self._den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        num = {}
        right = other._num.items()
        for ev1, c1 in self._num.items():
            for ev2, c2 in right:
                ev = tuple(map(add, ev1, ev2))
                c = num.get(ev, 0) + c1 * c2
                if c:
                    num[ev] = c
                elif ev in num:
                    del num[ev]
        return self._reduced(self._n_vars, num, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self._n_vars)
        base = self
        k = exponent
        while k:  # repeated squaring
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structure ----------------------------------------------------

    def total_degree(self) -> int:
        """Maximum total degree.  Undefined (raises) for the zero polynomial."""
        if not self._num:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(map(sum, self._num))

    def multidegree(self, grading: Grading):
        """Common per-block degree vector, or None if not graded.

        Raises for the zero polynomial, whose degree is undefined.
        """
        if not self._num:
            raise ValueError("degree of the zero polynomial is undefined")
        if grading.n_vars != self._n_vars:
            raise ValueError("grading does not match variable count")
        degs = {grading.degrees(ev) for ev in self._num}
        if len(degs) == 1:
            return degs.pop()
        return None

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point.

        Computed in integers: the point is put over one common denominator
        ``d`` as integers ``a``, and the value is ``sum N_e * prod a_i^e_i *
        d^(deg - |e|)`` over ``D * d^deg``, with N_e / D the coefficients, a
        single ``Fraction`` built at the end.
        """
        if len(point) != self._n_vars:
            raise ValueError(f"point has length {len(point)}, expected {self._n_vars}")
        degree = max(map(sum, self._num), default=0)
        values = [Fraction(v) for v in point]
        d = lcm(*(v.denominator for v in values))
        scaled = [v.numerator * (d // v.denominator) for v in values]
        powers = [[a**k for k in range(degree + 1)] for a in scaled]
        d_powers = [d**k for k in range(degree + 1)]
        total = 0
        for ev, c in self._num.items():
            term = c * d_powers[degree - sum(ev)]
            for a_powers, e in zip(powers, ev):
                if e:
                    term *= a_powers[e]
            total += term
        return Fraction(total, self._den * d_powers[degree])

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._n_vars == other._n_vars and self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._n_vars, self._den, frozenset(self._num.items())))
        return self._hash

    def __repr__(self):
        from .parsing import format_polynomial

        return f"Polynomial({self._n_vars}, {format_polynomial(self)!r})"

    def __str__(self):
        from .parsing import format_polynomial

        return format_polynomial(self)

    # -- internals ----------------------------------------------------

    @classmethod
    def _raw(cls, n_vars: int, num: dict, den: int) -> "Polynomial":
        # num and den must already be normalized (see the class docstring)
        p = cls.__new__(cls)
        p._n_vars = n_vars
        p._num = num
        p._den = den
        p._hash = None
        p._terms = None
        return p

    @classmethod
    def _reduced(cls, n_vars: int, num: dict, den: int) -> "Polynomial":
        # nonzero integer numerators over a positive den: one gcd pass to lowest terms
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {ev: c // g for ev, c in num.items()}
                den //= g
        return cls._raw(n_vars, num, den)


_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_NORMAL = 2.0**-1022
# The float pass holds a terms x points monomial table, twice; a batch is
# passed in slices of at most this many entries (32 MB of float64), so a
# large polynomial over a whole grid stays in bounded memory.
FLOAT_PASS_ENTRIES = 2**22


class SignFilter:
    """Exact signs of one polynomial over a batch of points, decided in float64
    where a proven error bound allows and by ``Polynomial.evaluate`` elsewhere.

    The float value is ``mono @ c`` over the batch's monomial matrix, built
    from a power table made by repeated multiplication.  A term of degree at
    most D takes at most K = 2D + n + T + 2 roundings (D coordinate
    conversions, D + n products, the coefficient's conversion and product,
    the T - 1 additions), so while nothing underflows the computed value is
    within gamma_K * sum |c_t m_t| of the exact one, and sum |c_t m_t| is
    the computed magnitude ``|mono| @ |c|`` up to another factor 1 + gamma_K
    (Higham, *Accuracy and Stability of Numerical Algorithms*, section 3.1;
    K*u stays far below 1/4 for any polynomial that fits in memory).  The
    sign is therefore certain where

        |value| > 2*K*u * magnitude + slack,    u = 2^-53,

    and ``slack`` covers underflow: each product or conversion may also be
    off by one smallest normal number (which covers flush-to-zero too),
    carried through at most D later factors of size at most R = max(1,
    max |x_i|), so slack = 4*((2D + n + 2) * R^D * sum |c_t| + T) * 2^-1022.
    A polynomial that is zero, or whose coefficients are not all normal
    finite floats, is not filtered, nor is a point whose value or bound is
    not finite (overflow anywhere ends in inf or nan).
    """

    def __init__(self, poly: Polynomial):
        self.poly = poly
        terms = poly.terms
        self.exponents = np.array(list(terms), dtype=np.intp).reshape(len(terms), poly.n_vars)
        self.degree = int(self.exponents.sum(axis=1).max(initial=0))
        try:
            self.coefficients = np.array([float(c) for c in terms.values()])
        except OverflowError:  # float(Fraction) raises past the float range
            self.coefficients = np.array([np.inf])
        self.magnitudes = np.abs(self.coefficients)
        self.filtered = bool(terms) and all(_SMALLEST_NORMAL <= c < np.inf for c in self.magnitudes)
        n_terms, n_vars = self.exponents.shape
        self.factor = 2 * (2 * self.degree + n_vars + n_terms + 2) * _UNIT_ROUNDOFF
        self.reach_weight = 4 * (2 * self.degree + n_vars + 2) * float(self.magnitudes.sum())
        self.slack_floor = 4 * n_terms

    def signs(self, num: np.ndarray, den, needed: np.ndarray) -> np.ndarray:
        """The exact sign (-1, 0 or 1) at each point of the batch num / den
        where ``needed`` is set; entries elsewhere are meaningless.  ``num``
        has one integer row per point, over positive ``den``, an array of its
        shape or one integer: int64 below 2^53 in magnitude, or Python ints
        (dtype object), so that ``num / den`` is the correctly rounded double.
        A point is built in Fractions only where the float pass cannot decide."""
        xf = np.asarray(num / den, dtype=float)
        sign = np.zeros(len(xf), dtype=np.int8)
        uncertain = np.array(needed, dtype=bool)
        if self.filtered:
            step = max(1, FLOAT_PASS_ENTRIES // len(self.exponents))
            for start in range(0, len(xf), step):
                part = slice(start, start + step)
                value, bound = self._float_pass(xf[part])
                certain = np.isfinite(value) & np.isfinite(bound) & (np.abs(value) > bound)
                sign[part][certain] = np.sign(value[certain])
                uncertain[part] &= ~certain
        den = np.broadcast_to(den, num.shape)
        for i in np.flatnonzero(uncertain):
            value = self.poly.evaluate(tuple(map(Fraction, num[i].tolist(), den[i].tolist())))
            sign[i] = (value > 0) - (value < 0)
        return sign

    def _float_pass(self, xf: np.ndarray):
        """The float value at each point and the bound its error stays within."""
        n_vars = xf.shape[1]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            powers = np.empty((self.degree + 1, n_vars, len(xf)))
            powers[0] = 1.0
            for k in range(1, self.degree + 1):
                powers[k] = powers[k - 1] * xf.T
            mono = powers[self.exponents[:, 0], 0]
            for j in range(1, n_vars):
                mono = mono * powers[self.exponents[:, j], j]
            value = self.coefficients @ mono
            magnitude = self.magnitudes @ np.abs(mono)
            reach = np.maximum(1.0, np.abs(xf).max(axis=1)) ** self.degree
            slack = (self.reach_weight * reach + self.slack_floor) * _SMALLEST_NORMAL
            return value, self.factor * magnitude + slack


def sum_of_squared_variables(n_vars: int) -> Polynomial:
    """x_0^2 + ... + x_{n-1}^2, the default multiplier polynomial."""
    terms = {}
    for i in range(n_vars):
        ev = tuple(2 if j == i else 0 for j in range(n_vars))
        terms[ev] = Fraction(1)
    return Polynomial(n_vars, terms)
