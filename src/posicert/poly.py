"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent vectors (one slot per variable) to
nonzero ``Fraction`` coefficients.  Instances are immutable and hashable;
all arithmetic is exact.  A float view of the coefficients is derived on
demand for the numeric layers, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping, Sequence, Union

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
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_n_vars", "_terms", "_hash", "_integer_form")

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
        self._n_vars = n_vars
        self._terms = clean
        self._hash = None
        self._integer_form = None

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
        return MappingProxyType(self._terms)

    def coefficient(self, exponents) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def support(self) -> frozenset:
        return frozenset(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self._n_vars != other._n_vars:
            raise ValueError(f"variable count mismatch: {self._n_vars} vs {other._n_vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._n_vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self._terms)
        for ev, c in other._terms.items():
            s = terms.get(ev, Fraction(0)) + c
            if s:
                terms[ev] = s
            elif ev in terms:
                del terms[ev]
        return self._raw(self._n_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._raw(self._n_vars, {ev: -c for ev, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._n_vars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial.zero(self._n_vars)
            return self._raw(self._n_vars, {ev: c * v for ev, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = {}
        for ev1, c1 in self._terms.items():
            for ev2, c2 in other._terms.items():
                ev = tuple(a + b for a, b in zip(ev1, ev2))
                s = terms.get(ev, Fraction(0)) + c1 * c2
                if s:
                    terms[ev] = s
                elif ev in terms:
                    del terms[ev]
        return self._raw(self._n_vars, terms)

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
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(sum(ev) for ev in self._terms)

    def multidegree(self, grading: Grading):
        """Common per-block degree vector, or None if not graded.

        Raises for the zero polynomial, whose degree is undefined.
        """
        if not self._terms:
            raise ValueError("degree of the zero polynomial is undefined")
        if grading.n_vars != self._n_vars:
            raise ValueError("grading does not match variable count")
        degs = {grading.degrees(ev) for ev in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact value at a rational point.

        Computed in integers: the coefficients are scaled once to integers
        ``C`` over their common denominator ``D`` (kept in a cache), the point
        is put over one common denominator ``d`` as integers ``a``, and the
        value is ``sum C * prod a_i^e_i * d^(deg - |e|)`` over ``D * d^deg``,
        a single ``Fraction`` built at the end.
        """
        if len(point) != self._n_vars:
            raise ValueError(f"point has length {len(point)}, expected {self._n_vars}")
        if self._integer_form is None:
            self._integer_form = self._scale_to_integers()
        degree, denominator, terms = self._integer_form
        values = [Fraction(v) for v in point]
        d = lcm(*(v.denominator for v in values))
        scaled = [v.numerator * (d // v.denominator) for v in values]
        powers = [[a**k for k in range(degree + 1)] for a in scaled]
        d_powers = [d**k for k in range(degree + 1)]
        total = 0
        for c, deficit, factors in terms:
            term = c * d_powers[deficit]
            for i, e in factors:
                term *= powers[i][e]
            total += term
        return Fraction(total, denominator * d_powers[degree])

    def _scale_to_integers(self):
        # (degree, D, terms): one term (C, degree - |e|, ((i, e_i) for e_i > 0))
        # per monomial x^e, with C = c*D an integer
        degree = max((sum(ev) for ev in self._terms), default=0)
        denominator = lcm(*(c.denominator for c in self._terms.values()))
        terms = tuple(
            (
                c.numerator * (denominator // c.denominator),
                degree - sum(ev),
                tuple((i, e) for i, e in enumerate(ev) if e),
            )
            for ev, c in self._terms.items()
        )
        return degree, denominator, terms

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._n_vars == other._n_vars and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._n_vars, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self):
        from .parsing import format_polynomial

        return f"Polynomial({self._n_vars}, {format_polynomial(self)!r})"

    def __str__(self):
        from .parsing import format_polynomial

        return format_polynomial(self)

    # -- internals ----------------------------------------------------

    @classmethod
    def _raw(cls, n_vars: int, terms: dict) -> "Polynomial":
        # terms must already be normalized (tuple keys, nonzero Fractions)
        p = cls.__new__(cls)
        p._n_vars = n_vars
        p._terms = terms
        p._hash = None
        p._integer_form = None
        return p


def sum_of_squared_variables(n_vars: int) -> Polynomial:
    """x_0^2 + ... + x_{n-1}^2, the default multiplier polynomial."""
    terms = {}
    for i in range(n_vars):
        ev = tuple(2 if j == i else 0 for j in range(n_vars))
        terms[ev] = Fraction(1)
    return Polynomial(n_vars, terms)
