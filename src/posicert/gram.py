"""Gram blocks and coefficient-matching systems.

A target polynomial t and the constraint products m_e = h_1^{e_1}...h_r^{e_r}
(e ranging over {0,1}^r) define one symmetric unknown Q^(e) per product via

    t  =  sum_e  (b_e' Q^(e) b_e) * m_e,

where b_e is the column of the block's generators.  A block is its
generators: the basis monomials of the required degree, pruned by diagonal
consistency, or on the face at the target's real zeros their rational
combinations.  In the system the search solves, a product index carries one
block per sign class: its monomials of one parity on the variables in which
the target and every h_i are even.  Matching the coefficient of every
achievable monomial gives an exact linear system; the numeric layer solves
it under a PSD constraint and the exact layer re-solves it over the
rationals.  The system is an immutable value with one row format: sparse
rows over the flattened Gram unknowns, off-diagonal coefficients doubled,
which the row reduction, the SDP assembly and the exact projection all
read.

A product index whose required basis degree is odd or negative in some
grading block has no generators, and the system holds no block for it; its
multiplier is never formed.  No index with a basis is a parity
obstruction; a target monomial no product can reach is a support
obstruction.  Both are exact infeasibility certificates and are flagged
before any numeric work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iter_product
from math import prod
from typing import Mapping, Optional, Sequence

import numpy as np

from .poly import Grading, Polynomial, SignFilter, grlex_key
from . import ratlin

MAX_CONSTRAINTS = 16
FACE_GRID_VARS = 10  # the face's zeros are sought on {-1, 0, 1}^n up to this n: 3^10 - 1 points


@dataclass(frozen=True)
class ParityInfeasible:
    """No product block admits a basis of the required (multi)degree."""

    reason: str


@dataclass(frozen=True)
class SupportInfeasible:
    """The target has a monomial no basis product can reach, or the exact
    constraint system is inconsistent."""

    reason: str
    monomial: Optional[tuple] = None


@dataclass(frozen=True)
class GramBlock:
    """One product block, which is its generators: the polynomials whose
    Gram matrix Q^(e) the block carries.  They are monomials, grlex sorted,
    or on a face rational combinations of them.  Split by sign class, one
    product index has several blocks, one per class, each with the product
    index and multiplier.  A system holds no block without generators."""

    product_index: tuple  # e in {0,1}^r
    multiplier: Polynomial  # h_1^{e_1} ... h_r^{e_r}
    generators: tuple  # Polynomial per Gram row


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Assembled coefficient-matching system for one target, built once.

    The unknowns are the upper triangles of the blocks' Gram matrices,
    flattened as `unknown_layout`; a block's index is its position in the
    SDP.  Row k matches the coefficient of `monomials[k]`: a sparse dict
    over layout positions with off-diagonal coefficients doubled, so it
    reads sum_i c_ii q_ii + 2 sum_{i<j} c_ij q_ij = rhs[k].  This is the one
    row format; the rows are shared, so no caller may mutate one.
    """

    target: Polynomial
    grading: Grading
    blocks: tuple  # GramBlock per product index, or per sign class of one
    unknown_layout: tuple  # (block_index, i, j) with i <= j
    monomials: tuple  # the matched monomial of each row, grlex-descending
    rows: tuple  # dict: layout position -> coefficient
    rhs: tuple  # the target's coefficient of each row's monomial
    independent: tuple  # indices of an independent consistent subset of rows
    face: tuple = ()  # (zeros, ((size before, size after), ...)) of build_reduced_system, or ()

    @property
    def n_vars(self) -> int:
        return self.target.n_vars

    @property
    def active_indices(self) -> list:
        """Every block's index: a system holds no block without generators."""
        return list(range(len(self.blocks)))

    def block_dim(self, block_index: int) -> int:
        return len(self.blocks[block_index].generators)

    def frobenius_weights(self) -> list:
        """Weight of each unknown in the Frobenius norm (off-diagonal twice)."""
        return [Fraction(1) if i == j else Fraction(2) for (_, i, j) in self.unknown_layout]

    def flatten(self, matrices: Mapping) -> list:
        """Upper triangles of per-block matrices as one vector."""
        vec = []
        for (b, i, j) in self.unknown_layout:
            vec.append(Fraction(matrices[b][i][j]))
        return vec

    def unflatten(self, vector: Sequence) -> dict:
        """Inverse of flatten; returns full symmetric matrices."""
        out = {}
        for b, block in enumerate(self.blocks):
            d = len(block.generators)
            out[b] = [[Fraction(0)] * d for _ in range(d)]
        for (b, i, j), v in zip(self.unknown_layout, vector):
            out[b][i][j] = Fraction(v)
            out[b][j][i] = Fraction(v)
        return out


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _cross_block_monomials(grading: Grading, per_block) -> list:
    n = grading.n_vars
    out = []
    for combo in iter_product(*per_block):
        ev = [0] * n
        for block, exps in zip(grading.blocks, combo):
            for idx, e in zip(block, exps):
                ev[idx] = e
        out.append(tuple(ev))
    return sorted(out, key=grlex_key)


def exact_degree_monomials(grading: Grading, block_degrees: Sequence[int]) -> list:
    """All monomials with the given per-block total degrees, grlex sorted."""
    per_block = [
        list(_compositions(deg, len(block)))
        for block, deg in zip(grading.blocks, block_degrees)
    ]
    return _cross_block_monomials(grading, per_block)


def monomials_up_to(n_vars: int, max_total: int) -> list:
    """All monomials of total degree <= max_total, grlex sorted."""
    out = []
    for d in range(max_total + 1):
        out.extend(_compositions(d, n_vars))
    return sorted(out, key=grlex_key)


def prune_basis(candidates: Sequence[tuple], support) -> tuple:
    """Diagonal-consistency pruning fixpoint.

    Remove b whenever the monomial 2b is absent from the target support and
    is not b_i + b_j for any surviving pair other than (b, b).  Sound because
    a PSD matrix with a forced zero diagonal entry has a zero row.
    """
    basis = list(candidates)
    support = frozenset(support)
    while True:
        current = set(basis)
        removable = []
        for b in basis:
            double = tuple(2 * e for e in b)
            if double in support:
                continue
            expressible = False
            for other in basis:
                partner = tuple(d - o for d, o in zip(double, other))
                if any(e < 0 for e in partner):
                    continue
                if partner in current and not (partner == b and other == b):
                    expressible = True
                    break
            if not expressible:
                removable.append(b)
        if not removable:
            return tuple(basis)
        gone = set(removable)
        basis = [b for b in basis if b not in gone]


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------


def _assemble(target: Polynomial, grading: Grading, blocks, face: tuple = ()):
    """Shared core: match every achievable monomial, check support, reduce.

    Each unknown's product gen_i * m_e * gen_j, with gen_i * m_e formed once
    per generator, writes its coefficients straight into the rows of the
    monomials it reaches, doubled off the diagonal.
    """
    dims = [len(block.generators) for block in blocks]
    layout = tuple((b, i, j) for b, d in enumerate(dims) for i in range(d) for j in range(i, d))
    scaled = [[gen * block.multiplier for gen in block.generators] for block in blocks]
    by_monomial = {}
    for k, (b, i, j) in enumerate(layout):
        for ev, c in (scaled[b][i] * blocks[b].generators[j]).terms.items():
            by_monomial.setdefault(ev, {})[k] = c if i == j else 2 * c

    for ev in target.terms:
        if ev not in by_monomial:
            return SupportInfeasible(
                reason=f"target monomial with exponents {ev} is not achievable by any basis product",
                monomial=ev,
            )

    monomials = tuple(sorted(by_monomial, key=grlex_key, reverse=True))
    rows = tuple(by_monomial[ev] for ev in monomials)
    rhs = tuple(target.coefficient(ev) for ev in monomials)
    independent, inconsistent = ratlin.row_reduce(rows, rhs)
    if inconsistent is not None:
        ev = monomials[inconsistent]
        return SupportInfeasible(
            reason=f"exact constraint system is inconsistent (first at monomial {ev})",
            monomial=ev,
        )
    return GramSystem(target, grading, tuple(blocks), layout, monomials, rows, rhs, tuple(independent), face)


def _blocks(f: Polynomial, g: Polynomial, n: int, constraints, grading: Grading, prune: bool):
    """The target f*g^n and one block of monomial generators per product
    index whose required degree leaves a basis, or ParityInfeasible when no
    index does.  Degrees add under products, so h^e is formed only for an
    index that keeps a block."""
    r = len(constraints)
    if r > MAX_CONSTRAINTS:
        raise ValueError(f"at most {MAX_CONSTRAINTS} constraints supported, got {r}")
    target = f * g**n
    if target.is_zero():
        raise ValueError("target polynomial is zero")
    n_vars = target.n_vars

    graded = target.multidegree(grading) is not None and all(
        not h.is_zero() and h.multidegree(grading) is not None for h in constraints
    )

    degree = (lambda p: p.multidegree(grading)) if graded else (lambda p: (p.total_degree(),))
    target_degree, h_degrees = degree(target), [degree(h) for h in constraints]
    chosen = []  # (e, multiplier, basis) per product index with a basis; basis holds exponent tuples
    for e in iter_product((0, 1), repeat=r):
        need = [dt - sum(d[k] for d, e_i in zip(h_degrees, e) if e_i) for k, dt in enumerate(target_degree)]
        if graded:
            even = all(d >= 0 and d % 2 == 0 for d in need)
            basis = exact_degree_monomials(grading, [d // 2 for d in need]) if even else []
        else:
            basis = monomials_up_to(n_vars, (need[0] + 1) // 2) if need[0] >= 0 else []
        if basis:
            factors = (h for h, e_i in zip(constraints, e) if e_i)
            chosen.append((e, prod(factors, start=Polynomial.one(n_vars)), basis))

    if not chosen:
        kind = "per-block degrees" if graded else "total degrees"
        return ParityInfeasible(
            reason=f"every product block has an odd or negative required basis degree ({kind})"
        )

    # Diagonal pruning is sound only when a single multiplier-one block
    # contributes, so each diagonal entry owns its squared monomial's row.
    if prune and len(chosen) == 1 and chosen[0][1] == Polynomial.one(n_vars):
        e, multiplier, basis = chosen[0]
        chosen = [(e, multiplier, prune_basis(basis, target.support()))]

    blocks = tuple(
        GramBlock(e, multiplier, tuple(Polynomial.monomial(n_vars, ev) for ev in basis))
        for e, multiplier, basis in chosen
    )
    return target, blocks


def build_gram_system(
    f: Polynomial,
    g: Polynomial,
    n: int,
    constraints: Sequence[Polynomial],
    grading: Grading,
    prune: bool = True,
):
    """Build the matching system for f*g^n against the given constraints.

    Returns a GramSystem, or ParityInfeasible / SupportInfeasible.
    """
    built = _blocks(f, g, n, constraints, grading, prune)
    if isinstance(built, ParityInfeasible):
        return built
    target, blocks = built
    return _assemble(target, grading, blocks)


def _sign_classes(target: Polynomial, blocks, constraints) -> tuple:
    """Every block split by the parity of its monomials on S, the variables
    in which every exponent of the target and of every h_i is even; the
    classes of one block take its place in sorted parity order.

    The problem is invariant under x_i -> -x_i for i in S, so averaging a
    Gram matrix over those sign changes keeps it feasible and PSD and zeroes
    it between classes: only same-class pairs reach a target monomial, which
    is even on S, and the split loses no certificate.
    """
    polys = (target, *constraints)
    even = [i for i in range(target.n_vars) if all(ev[i] % 2 == 0 for p in polys for ev in p.terms)]
    split = []
    for block in blocks:
        classes = {}
        for gen in block.generators:
            (ev,) = gen.terms
            classes.setdefault(tuple(ev[i] % 2 for i in even), []).append(gen)
        split.extend(replace(block, generators=tuple(classes[key])) for key in sorted(classes))
    return tuple(split)


def build_reduced_system(f: Polynomial, g: Polynomial, n: int, constraints, grading: Grading):
    """The system the search solves: ``build_gram_system``'s pruned blocks,
    split by sign class (``_sign_classes``), restricted to the face at the
    target's real zeros, assembled once.

    At a zero z of the target with every h_i(z) >= 0 the identity sums the
    nonnegative terms (b_e(z)' Q_e b_e(z)) * h^e(z) to 0, so Q_e b_e(z) = 0
    in every block with h^e(z) > 0 (partial facial reduction), and the
    block's generators are restricted to the exact nullspace of its rows
    b_e(z).  A Gram matrix that is zero between sign classes has Q_c b_c(z)
    = 0 in each class c, so each class is restricted against its own rows.
    The zeros z != 0 are sought on {-1, 0, 1}^n, with exact signs from
    ``SignFilter``: a float pass decides most points, ``Polynomial.evaluate``
    the rest.  Those signs decide the rows: h^e(z) > 0 where each h_i with
    e_i = 1 is, and a monomial generator x^v is prod z_i^v_i, 0 or +-1.
    Above ``FACE_GRID_VARS`` variables no zero is sought and ``face`` is ().
    ``face`` is () when no block gains a row, (zeros, ((size before, size
    after), ...)) on the face, one pair per block with a row in block order,
    and (zeros, ()) when the face is empty or infeasible and the full system
    of the same split blocks is kept.  A block the face empties leaves the
    system.
    """
    built = _blocks(f, g, n, constraints, grading, prune=True)
    if isinstance(built, ParityInfeasible):
        return built
    target, blocks = built
    blocks = _sign_classes(target, blocks, constraints)
    points = iter_product((-1, 0, 1), repeat=target.n_vars) if target.n_vars <= FACE_GRID_VARS else ()
    grid = np.array([z for z in points if any(z)], dtype=np.int64).reshape(-1, target.n_vars)
    on_face = SignFilter(target).signs(grid, 1, np.ones(len(grid), dtype=bool)) == 0
    h_signs = np.zeros((len(constraints), len(grid)), dtype=np.int8)
    for h, sign in zip(constraints, h_signs):
        sign[:] = SignFilter(h).signs(grid, 1, on_face)
        on_face &= sign >= 0
    face_blocks, sizes, zero = [], [], Polynomial.zero(target.n_vars)
    for block in blocks:
        gens = block.generators
        # h_signs is read only at the final zeros, inside every mask passed; Fraction rows keep ratlin exact
        inside = grid[on_face & (h_signs[np.array(block.product_index, dtype=bool)] > 0).all(axis=0)]
        values = [np.prod(inside**ev, axis=1).tolist() for gen in gens for ev in gen.terms]
        rows = [row for vals in zip(*values) if (row := {i: Fraction(v) for i, v in enumerate(vals) if v})]
        if rows:
            kernel = ratlin.nullspace(rows, len(gens))
            gens = tuple(sum((c * gen for c, gen in zip(vec, gens) if c), zero) for vec in kernel)
            sizes.append((len(block.generators), len(gens)))
        if gens:
            face_blocks.append(replace(block, generators=gens))
    if not sizes:
        return _assemble(target, grading, blocks)
    zeros = tuple(map(tuple, grid[on_face].tolist()))
    if face_blocks:
        system = _assemble(target, grading, face_blocks, (zeros, tuple(sizes)))
        if isinstance(system, GramSystem):
            return system
    return _assemble(target, grading, blocks, (zeros, ()))


def reconstruct(system: GramSystem, matrices: Mapping) -> Polynomial:
    """Expand sum_e (b_e' Q^(e) b_e) * m_e exactly for the given matrices."""
    total = Polynomial.zero(system.n_vars)
    for b_idx, block in enumerate(system.blocks):
        gens = block.generators
        d = len(gens)
        q = matrices[b_idx]
        if len(q) != d or any(len(row) != d for row in q):
            raise ValueError(f"matrix for block {b_idx} must be {d}x{d}")
        s = Polynomial.zero(system.n_vars)
        for i in range(d):
            for j in range(d):
                c = Fraction(q[i][j])
                if c:
                    s = s + c * (gens[i] * gens[j])
        total = total + s * block.multiplier
    return total
