"""Exact rational certification: rounding, projection, LDL', verification.

The numeric layer hands over an interior Gram point; this layer rounds it to
multiples of 1/bound (one denominator per rung of the ladder), projects back
onto the exact affine constraint set, proves positive semidefiniteness by a
rational LDL' factorization, extracts weighted squares, and re-proves the
final polynomial identity from scratch with pure polynomial arithmetic.
Nothing double-precision survives into a Certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isfinite, lcm
from typing import Mapping, Optional, Sequence

from .gram import GramSystem
from .parsing import (
    ParseError,
    bracketed_items,
    format_monomial,
    format_polynomial,
    parse_monomial_sum,
    parse_polynomial,
    parse_polynomial_list,
    parse_variables,
    read_key_values,
    split_top_level,
    _parse_blocks,
    _parse_int,
    _unquote,
)
from .poly import Grading, Polynomial, grlex_key
from . import ratlin


class InconsistentSystemError(Exception):
    """The affine constraint system admits no solution (defensive check)."""


# ---------------------------------------------------------------------------
# rounding and projection
# ---------------------------------------------------------------------------


def round_to_rational(matrix, denominator_bound: int):
    """Each entry the nearest multiple of 1/denominator_bound, ties to even.

    Entry (i, j) is rounded from the exact symmetric average
    (a_ij + a_ji)/2 of the float input, so the output is symmetric and every
    entry's denominator divides the bound.  One denominator for the whole
    block (Peyrl-Parrilo 2008) keeps the projection, the LDL' and the
    certificate on small integers: an entrywise best approximation gives
    each entry its own denominator, and their lcm grows at every pivot.
    """
    if denominator_bound < 1:
        raise ValueError("denominator bound must be positive")
    n = len(matrix)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            average = (Fraction(float(matrix[i][j])) + Fraction(float(matrix[j][i]))) / 2
            out[i][j] = out[j][i] = Fraction(round(average * denominator_bound), denominator_bound)
    return out


def project_to_constraints(q_matrices: Mapping, system: GramSystem):
    """Exact Frobenius-orthogonal projection onto the affine solution set.

    q_matrices maps block index -> symmetric rational matrix.  The
    normal equations of the independent rows are solved exactly; two rows
    meet in the normal matrix only through the unknowns they share, so it
    is summed unknown by unknown.  The output satisfies every constraint of
    the system exactly.
    """
    q = system.flatten(q_matrices)
    weights = system.frobenius_weights()
    rows = [system.rows[k] for k in system.independent]
    sharing = {}  # unknown -> positions of the independent rows touching it
    for a, row in enumerate(rows):
        for col in row:
            sharing.setdefault(col, []).append(a)
    gram = [[Fraction(0)] * len(rows) for _ in rows]
    for col, members in sharing.items():
        for a in members:
            va = rows[a][col] / weights[col]
            for b in members:
                gram[a][b] += va * rows[b][col]
    residual = [
        system.rhs[k] - sum(v * q[col] for col, v in row.items())
        for k, row in zip(system.independent, rows)
    ]
    try:
        lam = ratlin.solve_dense(gram, residual)
    except ValueError:
        raise InconsistentSystemError("independent constraint rows are degenerate") from None
    for row, l in zip(rows, lam):
        if l:
            for col, v in row.items():
                q[col] += v * l / weights[col]

    for ev, row, rhs in zip(system.monomials, system.rows, system.rhs):
        if sum(v * q[col] for col, v in row.items()) != rhs:
            raise InconsistentSystemError(f"constraint at monomial {ev} cannot be satisfied")
    return system.unflatten(q)


# ---------------------------------------------------------------------------
# rational LDL' and square extraction
# ---------------------------------------------------------------------------


def exact_ldlt(matrix: Sequence[Sequence[Fraction]]):
    """Q = L D L' with unit lower L and D >= 0, or None when Q is not PSD.

    A zero pivot requires its whole remaining column to vanish; a negative
    pivot or a violated zero-pivot column proves indefiniteness.

    Fraction-free symmetric elimination (Bareiss) on the lower triangle of
    Q scaled to integers A = s*Q: after the pivots J taken so far, entry
    (i, l) of the working matrix is det A[J+i, J+l], the Schur complement
    of Q times s^|J| * det Q[J, J], so the previous pivot divides each
    update exactly.  A zero pivot's column is zero and is skipped.  Then
    L_ij = a_ij / a_jj and D_jj = a_jj / (s * previous pivot).
    """
    n = len(matrix)
    q = [[Fraction(matrix[i][j]) for j in range(i + 1)] for i in range(n)]
    scale = lcm(*(v.denominator for row in q for v in row))
    a = [[v.numerator * (scale // v.denominator) for v in row] for row in q]
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    previous = 1
    for j in range(n):
        pivot = a[j][j]
        if pivot < 0:
            return None
        lower[j][j] = Fraction(1)
        if pivot == 0:
            if any(a[i][j] for i in range(j + 1, n)):
                return None
            continue
        diag[j] = Fraction(pivot, previous * scale)
        for i in range(j + 1, n):
            row, a_ij = a[i], a[i][j]
            lower[i][j] = Fraction(a_ij, pivot)
            for l in range(j + 1, i + 1):
                row[l] = (pivot * row[l] - a_ij * a[l][j]) // previous
        previous = pivot
    return lower, diag


@dataclass(frozen=True)
class SquareTerm:
    weight: Fraction
    poly: Polynomial


def combine_squares(lower, diag, generators: Sequence[Polynomial]):
    """Weighted squares D_jj * (sum_i L_ij gen_i)^2 with zero weights dropped.

    Each square p is scaled by s > 0 to coprime integer coefficients and its
    weight divided by s^2, so w*p^2 is unchanged and exact arithmetic on the
    certificate runs on small integers.  The square is summed from its
    column's integers: column j of L over its common denominator.
    """
    n = len(diag)
    out = []
    for j in range(n):
        if diag[j] == 0:
            continue
        column = [lower[i][j] for i in range(j, n)]
        den = lcm(*(c.denominator for c in column))
        p = Polynomial.zero(generators[0].n_vars)
        for c, gen in zip(column, generators[j:]):
            if c:
                p = p + c.numerator * (den // c.denominator) * gen
        if not p.is_zero():
            content, square = p.primitive()
            out.append(SquareTerm(weight=Fraction(diag[j]) * (content / den) ** 2, poly=square))
    return tuple(out)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateBlock:
    product_index: tuple
    basis: tuple  # exponent vectors spanning the squares' support
    squares: tuple  # SquareTerm


@dataclass(frozen=True)
class Certificate:
    """Exact data of an identity  f * g^n = sum_e (sum_j w_j p_j^2) * h^e."""

    variables: tuple
    grading: Grading
    f: Polynomial
    g: Polynomial
    constraints: tuple
    n: int
    blocks: tuple  # CertificateBlock
    margin: Optional[float] = None
    denominator_bound: Optional[int] = None


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.valid


def _format_coefficient(c: Fraction) -> str:
    """``str(c)``, but a numerator or denominator of more than 40 digits is
    shown by its digit count: ``str`` refuses integers past 4300 digits, and
    the expanded sides of a certificate can reach them."""

    def part(k: int) -> str:
        digits = int((k.bit_length() - 1) * 0.30102999566398120) + 1 if k else 1
        digits += k >= 10**digits  # the estimate is low by at most one
        return str(k) if digits <= 40 else f"<{digits} digits>"

    text = ("-" if c < 0 else "") + part(abs(c.numerator))
    return text if c.denominator == 1 else f"{text}/{part(c.denominator)}"


def verify_certificate(cert: Certificate) -> VerifyResult:
    """Re-prove the identity from scratch in exact arithmetic.

    Recomputes f*g^n and the weighted-square side with pure polynomial
    operations, checks w_j > 0, and compares term maps.  No numerics.  The
    degree of g^n, and for a constant g the size of its coefficient, are
    checked against the squares side before g^n is expanded.
    """
    n_vars = len(cert.variables)
    for block in cert.blocks:
        if len(block.product_index) != len(cert.constraints):
            return VerifyResult(False, f"product index {block.product_index} has wrong length")
        basis_set = set(block.basis)
        for k, square in enumerate(block.squares):
            if square.weight <= 0:
                return VerifyResult(
                    False,
                    f"nonpositive weight {square.weight} in block e={block.product_index}, square {k}",
                )
            if not square.poly.support() <= basis_set:
                return VerifyResult(
                    False,
                    f"square {k} in block e={block.product_index} leaves the declared basis",
                )

    # deg(f*g^n) = deg f + n*deg g for nonzero f and g; bound the squares
    # side's degree first, so that no large n is expanded in vain
    if not (cert.f.is_zero() or cert.g.is_zero()):
        target_degree = cert.f.total_degree() + cert.n * cert.g.total_degree()
        squares_degree = None
        for block in cert.blocks:
            h_degree = sum(
                h.total_degree() for h, e in zip(cert.constraints, block.product_index) if e and not h.is_zero()
            )
            for square in block.squares:
                if not square.poly.is_zero():
                    degree = 2 * square.poly.total_degree() + h_degree
                    squares_degree = degree if squares_degree is None else max(squares_degree, degree)
        if squares_degree is None or target_degree > squares_degree:
            side = "is zero" if squares_degree is None else f"has degree at most {squares_degree}"
            return VerifyResult(
                False, f"degree mismatch: f*g^N has degree {target_degree}, the squares side {side}"
            )

    rhs = Polynomial.zero(n_vars)
    for block in cert.blocks:
        s = Polynomial.zero(n_vars)
        for square in block.squares:
            s = s + square.weight * (square.poly * square.poly)
        multiplier = Polynomial.one(n_vars)
        for h, e in zip(cert.constraints, block.product_index):
            if e:
                multiplier = multiplier * h
        rhs = rhs + s * multiplier

    lhs = cert.f  # a zero f needs no g^N
    if not cert.f.is_zero():
        # a constant g = p/q needs (p/q)^N = R_a/f_a at f's leading monomial a,
        # both in lowest terms; a power too long for its side fails unexpanded
        if not cert.g.is_zero() and cert.g.total_degree() == 0:
            c = cert.g.coefficient((0,) * n_vars)
            ev = max(cert.f.terms, key=grlex_key)
            f_a, r_a = cert.f.coefficient(ev), rhs.coefficient(ev)
            ratio = r_a / f_a
            for b, part in ((abs(c.numerator), abs(ratio.numerator)), (c.denominator, ratio.denominator)):
                if b > 1 and cert.n * (b.bit_length() - 1) >= part.bit_length():
                    mono = format_monomial(ev, cert.variables)
                    return VerifyResult(
                        False,
                        f"coefficient mismatch at monomial {mono}: "
                        f"target has ({_format_coefficient(c)})^{cert.n} * {_format_coefficient(f_a)}, "
                        f"squares give {_format_coefficient(r_a)}",
                    )
        lhs = cert.f * cert.g**cert.n
    if lhs != rhs:
        diff = lhs - rhs
        ev = sorted(diff.terms, key=grlex_key, reverse=True)[0]
        mono = format_monomial(ev, cert.variables)
        return VerifyResult(
            False,
            f"coefficient mismatch at monomial {mono}: "
            f"target has {_format_coefficient(lhs.coefficient(ev))}, "
            f"squares give {_format_coefficient(rhs.coefficient(ev))}",
        )
    return VerifyResult(True)


def certificate_from_gram(
    system: GramSystem,
    q_matrices: Mapping,
    variables,
    f: Polynomial,
    g: Polynomial,
    constraints,
    n: int,
    margin: Optional[float] = None,
    denominator_bound: Optional[int] = None,
) -> Optional[Certificate]:
    """LDL' every block and assemble a Certificate, or None if any
    block matrix is not PSD.  The squares of the blocks of one product index
    (its sign classes) form one certificate block."""
    by_index = {}  # product index -> its squares, in block order
    for b_idx, block in enumerate(system.blocks):
        factored = exact_ldlt(q_matrices[b_idx])
        if factored is None:
            return None
        lower, diag = factored
        by_index.setdefault(block.product_index, []).extend(combine_squares(lower, diag, block.generators))
    cert_blocks = []
    for product_index, squares in by_index.items():
        support = sorted({ev for sq in squares for ev in sq.poly.support()}, key=grlex_key)
        cert_blocks.append(CertificateBlock(product_index=product_index, basis=tuple(support), squares=tuple(squares)))
    return Certificate(
        variables=tuple(variables),
        grading=system.grading,
        f=f,
        g=g,
        constraints=tuple(constraints),
        n=n,
        blocks=tuple(cert_blocks),
        margin=margin,
        denominator_bound=denominator_bound,
    )


def lift_certificate(cert: Certificate) -> Certificate:
    """The certificate for f*g^(n+2) obtained by pushing g into every square.

    Multiplying each block sum s_e by the square g^2 distributes as
    (g*p_j)^2, so validity is preserved exactly two exponent steps up.
    """
    lifted_blocks = []
    for block in cert.blocks:
        squares = tuple(
            SquareTerm(weight=sq.weight, poly=sq.poly * cert.g) for sq in block.squares
        )
        support = sorted({ev for sq in squares for ev in sq.poly.support()}, key=grlex_key)
        lifted_blocks.append(
            CertificateBlock(product_index=block.product_index, basis=tuple(support), squares=squares)
        )
    return replace(cert, n=cert.n + 2, blocks=tuple(lifted_blocks))


# ---------------------------------------------------------------------------
# certificate files (same key = value dialect as problem files)
# ---------------------------------------------------------------------------


def format_certificate(cert: Certificate) -> str:
    """Serialize with exact p/q coefficients, never decimals.

    Sections: a problem echo, then one block per `e = (...)` line with its
    `basis = [...]` and `squares = [(w, "poly"), ...]` entries.
    """
    names = cert.variables
    lines = ["# posicert certificate"]
    lines.append("vars = " + ", ".join(names))
    groups = " | ".join(", ".join(names[i] for i in block) for block in cert.grading.blocks)
    lines.append(f"blocks = ({groups})")
    lines.append(f'f = "{format_polynomial(cert.f, names)}"')
    lines.append(f'g = "{format_polynomial(cert.g, names)}"')
    lines.append(
        "h = [" + ", ".join(f'"{format_polynomial(h, names)}"' for h in cert.constraints) + "]"
    )
    lines.append(f"N = {cert.n}")
    if cert.margin is not None:
        lines.append(f"margin = {cert.margin!r}")
    if cert.denominator_bound is not None:
        lines.append(f"denominator_bound = {cert.denominator_bound}")
    for block in cert.blocks:
        e_txt = ", ".join(str(e) for e in block.product_index)
        lines.append(f"e = ({e_txt})")
        lines.append("basis = [" + ", ".join(format_monomial(ev, names) for ev in block.basis) + "]")
        squares = ", ".join(
            f'({sq.weight}, "{format_polynomial(sq.poly, names)}")' for sq in block.squares
        )
        lines.append(f"squares = [{squares}]")
    return "\n".join(lines) + "\n"


_CERT_KEYS = {"vars", "blocks", "f", "g", "h", "N", "margin", "denominator_bound", "e", "basis", "squares"}


def _parse_fraction(text: str, context: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{context}: invalid rational {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ParseError(f"{key}: expected a number, found {text!r}") from None
    if not isfinite(value):
        raise ParseError(f"{key}: must be finite, found {text.strip()!r}")
    return value


def parse_certificate(document: str) -> Certificate:
    """Parse the output of format_certificate."""
    header = {}
    raw_blocks = []  # list of dicts with e/basis/squares
    for key, value, line_no in read_key_values(document):
        if key not in _CERT_KEYS:
            raise ParseError(f"line {line_no}: unknown key {key!r}")
        if key == "e":
            raw_blocks.append({"e": value})
        elif key in ("basis", "squares"):
            if not raw_blocks:
                raise ParseError(f"line {line_no}: {key} before any 'e =' section")
            if key in raw_blocks[-1]:
                raise ParseError(f"line {line_no}: duplicate {key} in block section")
            raw_blocks[-1][key] = value
        else:
            if key in header:
                raise ParseError(f"line {line_no}: duplicate key {key!r}")
            header[key] = value

    for required in ("vars", "f", "g", "N"):
        if required not in header:
            raise ParseError(f"missing {required}")
    names = parse_variables(header["vars"])
    grading = (
        _parse_blocks(header["blocks"], names) if "blocks" in header else Grading.single(len(names))
    )
    f = parse_polynomial(_unquote(header["f"]), names)
    g = parse_polynomial(_unquote(header["g"]), names)
    constraints = parse_polynomial_list(header.get("h", "[]"), names, "h: expected a bracketed list")
    n = _parse_int(header["N"], "N")
    if n < 0:
        raise ParseError(f"N: must be nonnegative, found {n}")
    margin = _parse_float(header["margin"], "margin") if "margin" in header else None
    denominator_bound = (
        _parse_int(header["denominator_bound"], "denominator_bound")
        if "denominator_bound" in header
        else None
    )
    if denominator_bound is not None and denominator_bound < 1:
        raise ParseError(f"denominator_bound: must be at least 1, found {denominator_bound}")

    blocks = []
    for raw in raw_blocks:
        e_txt = raw["e"].strip()
        if not (e_txt.startswith("(") and e_txt.endswith(")")):
            raise ParseError(f"e: expected a parenthesized tuple, found {e_txt!r}")
        inner = e_txt[1:-1].strip()
        product_index = tuple(_parse_int(x, "e") for x in inner.split(",") if x.strip()) if inner else ()
        if any(e not in (0, 1) for e in product_index):
            raise ParseError(f"e: entries must be 0 or 1, found {product_index}")
        # basis and square texts are sums of monomials as format_polynomial
        # writes them, so a lifted certificate of any degree reads back
        basis = []
        for mono_txt in bracketed_items(raw.get("basis", "[]"), "basis: expected a bracketed list"):
            p = parse_monomial_sum(mono_txt, names)
            if len(p) != 1 or set(p.terms.values()) != {Fraction(1)}:
                raise ParseError(f"basis: {mono_txt!r} is not a monomial")
            basis.append(next(iter(p.terms)))
        squares = []
        for pair_txt in bracketed_items(raw.get("squares", "[]"), "squares: expected a bracketed list"):
            parts = split_top_level(pair_txt[1:-1])
            if not (pair_txt.startswith("(") and pair_txt.endswith(")")) or len(parts) != 2:
                raise ParseError(f"squares: expected (weight, \"poly\") pairs, found {pair_txt!r}")
            weight = _parse_fraction(parts[0], "squares")
            poly = parse_monomial_sum(_unquote(parts[1]), names)
            squares.append(SquareTerm(weight=weight, poly=poly))
        blocks.append(
            CertificateBlock(product_index=product_index, basis=tuple(basis), squares=tuple(squares))
        )

    return Certificate(
        variables=tuple(names),
        grading=grading,
        f=f,
        g=g,
        constraints=tuple(constraints),
        n=n,
        blocks=tuple(blocks),
        margin=margin,
        denominator_bound=denominator_bound,
    )
