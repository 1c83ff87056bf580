"""Search orchestration: scan the multiplier exponent, run prechecks, and
drive the numeric-then-exact certification pipeline.

For each candidate exponent the driver builds the coefficient-matching
system its mode poses there (``exponent_system``), solves the margin SDP,
and on numerical feasibility rounds the interior point to an exactly
verified rational certificate.  Exact parity or support obstructions skip
the solve, and a zero target is the empty sum without one.  Numerical
verdicts are reported as evidence only; the only claims made are exactly
verified certificates and exact infeasibility flags.

The margin solve runs on ``gram.build_reduced_system``'s system, whose
product blocks are split by sign class: where the target and every
constraint are even in a variable, a Gram matrix can be taken zero between
monomials of different parity in it, so one product index carries one block
per class, and the certificate merges them back into one section.

A target with real zeros has optimal margin zero, and rounding from the
interior succeeds only when its correction stays below the margin.  The one
solve is therefore also restricted to the face cut out by the target's real
zeros on the grid {-1, 0, 1}^n: at such a zero z every feasible Gram matrix
has Q_e b_e(z) = 0, so the restriction is exact and loses no certificate,
and a boundary target is solved on its face as an interior one.  An empty
face keeps the full system.  A borderline solve tries one denominator
bound, a margin-feasible one the whole ladder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import sdp
from .exact import (
    Certificate,
    InconsistentSystemError,
    certificate_from_gram,
    project_to_constraints,
    round_to_rational,
    verify_certificate,
)
from .gram import (
    GramSystem,
    ParityInfeasible,
    SupportInfeasible,
    build_gram_system,
    build_reduced_system,
)
from .parsing import ProblemSpec
from .poly import SignFilter

DEFAULT_DENOMINATOR_BOUNDS = (10**2, 10**4, 10**8, 10**12)

# scan record statuses
PARITY_INFEASIBLE = "parity_infeasible"
SUPPORT_INFEASIBLE = "support_infeasible"
MARGIN_NEGATIVE = sdp.MARGIN_NEGATIVE  # _attempt records a solve's status as it is
CERTIFIED = "certified"
ROUNDING_FAILED = "rounding_failed"
BORDERLINE = sdp.BORDERLINE
MAX_ITERATIONS = sdp.MAX_ITERATIONS

OUTCOME_CERTIFICATE = "certificate"
OUTCOME_NOT_FOUND = "not_found"
OUTCOME_UNKNOWN = "unknown"

SDP_TENSOR_BYTES = 2**30  # budget of the dense (m, d, d) constraint tensors, in float64 bytes


class NumericalFailureError(RuntimeError):
    """The SDP solver broke down; the scan cannot honestly continue."""


@dataclass
class SearchOptions:
    gap_tolerance: float = 1e-8
    denominator_bounds: tuple = DEFAULT_DENOMINATOR_BOUNDS


@dataclass(frozen=True)
class ScanRecord:
    exponent: int  # the multiplier power n, or the odd power m
    status: str
    t_star: Optional[float] = None  # margin of the system solved: the face if the note names one
    rounding_attempts: int = 0
    note: str = ""


@dataclass
class SearchReport:
    mode: str
    records: list
    outcome: str
    certificate: Optional[Certificate]
    bound: int
    unresolved: list = field(default_factory=list)  # exponents left undecided
    epsilon: Optional[Fraction] = None
    epsilon_exponent: Optional[int] = None
    warnings: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# SDP assembly
# ---------------------------------------------------------------------------


def system_to_sdp(system: GramSystem, column: Optional[dict] = None) -> sdp.SdpProblem:
    """Pose the system's independent rows as a block SDP maximizing one free scalar.

    The scalar's coefficient in constraint k is column[k] (absent keys are
    zero).  The default column is the margin's: <A_k, I> summed over the
    blocks, i.e. Q = X + t*I with t maximized.  A system whose dense
    constraint tensor would take more than SDP_TENSOR_BYTES is refused with
    a ValueError before anything is allocated.
    """
    dims = tuple(len(block.generators) for block in system.blocks)
    rows = system.independent
    m = len(rows)
    if 8 * m * sum(d * d for d in dims) > SDP_TENSOR_BYTES:
        sizes = f"m = {m} rows, block sizes {list(dims)}"
        raise ValueError(f"system too large for the dense SDP: {sizes}, over {SDP_TENSOR_BYTES} bytes")
    a_blocks = [np.zeros((m, d, d)) for d in dims]
    b_vec = np.zeros(m)
    for k, row_idx in enumerate(rows):
        b_vec[k] = float(system.rhs[row_idx])
        for col, v in system.rows[row_idx].items():
            b, i, j = system.unknown_layout[col]
            value = float(v) if i == j else float(v) / 2  # rows hold 2c off the diagonal; halving is exact
            a_blocks[b][k, i, j] = a_blocks[b][k, j, i] = value
    if column is None:
        c_vec = sum((np.trace(t, axis1=1, axis2=2) for t in a_blocks), np.zeros(m))
    else:
        c_vec = np.array([float(column.get(row_idx, 0.0)) for row_idx in rows])
    # row scaling by the row's largest |entry| where that exceeds 1: rescaling each
    # equation leaves the feasible set and the objective untouched but keeps
    # the Schur complement well conditioned
    row_maxima = [np.abs(t).max(axis=(1, 2)) for t in a_blocks]
    scale = np.maximum.reduce([np.abs(b_vec), np.abs(c_vec), np.ones(m)] + row_maxima)
    b_vec /= scale
    c_vec /= scale
    for t in a_blocks:
        t /= scale[:, None, None]
    return sdp.SdpProblem(block_dims=dims, a_blocks=a_blocks, c=c_vec, b=b_vec)


def _gram_float(system: GramSystem, solution: sdp.SdpSolution, shift: float) -> dict:
    """Q = X + shift*I per block, as float matrices."""
    return {b: x + shift * np.eye(len(x)) for b, x in enumerate(solution.x_blocks)}


# ---------------------------------------------------------------------------
# the system of one scan exponent, per mode
# ---------------------------------------------------------------------------


def _identity(spec: ProblemSpec, exponent: int) -> tuple:
    """The (f, g, constraints, n) of a certificate found at one scan exponent
    of a certify, check-sos or odd-power scan; ValueError for an exponent
    the mode never scans."""
    if spec.mode == "check-sos":
        if exponent != 0:
            raise ValueError("check-sos scans n = 0 only")
        return spec.f, spec.g, (), 0
    if spec.mode == "odd-power":
        if exponent < 1 or exponent % 2 == 0:
            raise ValueError("odd-power scans odd powers m >= 1 only")
        return spec.f, spec.f, (), exponent - 1  # f^m = f * f^(m-1)
    return spec.f, spec.g, spec.constraints, exponent


def exponent_system(spec: ProblemSpec, exponent: int):
    """The SDP the spec's mode solves first at one scan exponent.

    This is the one map from a mode to its identity: certify poses f*g^n on
    the face under h, check-sos f at n = 0 without h, odd-power f*f^(m-1) at
    odd m, and epsilon-margin the stage system of f*g^(n+1), whose column
    holds the coefficients of g^n*h_margin^2.  The face is the one
    ``build_reduced_system`` restricts to at the target's grid zeros.
    Returns (system or exact obstruction, column); the column None is the
    margin's.  A zero target, which ``_attempt`` certifies without a system,
    or an exponent the mode never scans raises ValueError.
    """
    if spec.mode == "epsilon-margin":
        # no unknown of this monomial system is in two rows, so every row is
        # independent, with or without the column, and all of them are posed
        system = build_gram_system(spec.f, spec.g, exponent + 1, (), spec.grading)
        if not isinstance(system, GramSystem):
            return system, None
        eps_poly = spec.g**exponent * (spec.h_margin * spec.h_margin)
        if not set(eps_poly.terms) <= set(system.monomials):
            return SupportInfeasible("h^2 support not reachable at this degree"), None
        return system, {k: c for k, ev in enumerate(system.monomials) if (c := eps_poly.coefficient(ev))}
    f, g, constraints, n = _identity(spec, exponent)
    return build_reduced_system(f, g, n, constraints, spec.grading), None


# ---------------------------------------------------------------------------
# one exponent attempt
# ---------------------------------------------------------------------------


def _round_and_certify(system, q_float, bounds, variables, identity, margin_value):
    """The rounding ladder: round, project, LDL', verify; escalate bounds."""
    attempts = 0
    for bound in bounds:
        attempts += 1
        q_rat = {b: round_to_rational(q, bound) for b, q in q_float.items()}
        try:
            q_proj = project_to_constraints(q_rat, system)
        except InconsistentSystemError as exc:
            return None, attempts, f"projection failed: {exc}"
        cert = certificate_from_gram(system, q_proj, variables, *identity, margin=margin_value, denominator_bound=bound)
        if cert is not None:
            result = verify_certificate(cert)
            if not result.valid:  # construction bug, not an input condition
                raise AssertionError(f"assembled certificate failed verification: {result.reason}")
            return cert, attempts, ""
    return None, attempts, "not PSD at any denominator bound"


_OBSTRUCTION_STATUS = {ParityInfeasible: PARITY_INFEASIBLE, SupportInfeasible: SUPPORT_INFEASIBLE}
_UNDECIDED = (BORDERLINE, ROUNDING_FAILED, MAX_ITERATIONS)


def _solve(spec: ProblemSpec, exponent: int, options: SearchOptions):
    """Solve the SDP ``exponent_system`` poses at one scan exponent.

    Returns (system, solution), or (the record of the exact obstruction,
    None) where there is no system.  A solver breakdown raises
    NumericalFailureError: the scan cannot honestly continue.
    """
    system, column = exponent_system(spec, exponent)
    if not isinstance(system, GramSystem):
        return ScanRecord(exponent, _OBSTRUCTION_STATUS[type(system)], note=system.reason), None
    solution = sdp.solve(system_to_sdp(system, column), options.gap_tolerance)
    if solution.status == sdp.NUMERICAL_FAILURE:
        where = f"in epsilon stage at n={exponent}" if spec.mode == "epsilon-margin" else f"at exponent {exponent}"
        raise NumericalFailureError(f"SDP solver failed {where}")
    return system, solution


def _attempt(spec: ProblemSpec, exponent: int, options: SearchOptions):
    """Decide one scan exponent of a certify, check-sos or odd-power scan:
    a zero target is the empty sum; otherwise solve the margin SDP and, when
    it is numerically feasible, round to an exactly verified certificate."""
    identity = _identity(spec, exponent)
    if identity[0].is_zero():  # f*g^n is zero only with f: the spec keeps g nonzero where n > 0
        empty = Certificate(spec.variables, spec.grading, *identity, blocks=())
        return ScanRecord(exponent, CERTIFIED, note="zero target"), empty
    system, solution = _solve(spec, exponent, options)
    if solution is None:
        return system, None
    note = ""
    if system.face:
        zeros, sizes = system.face
        sizes = ", ".join(f"{before} -> {after}" for before, after in sizes)
        note = f"face-restricted at {len(zeros)} zeros, block sizes {sizes}" if sizes else "face restriction infeasible"
    if solution.status in (MARGIN_NEGATIVE, MAX_ITERATIONS):
        return ScanRecord(exponent, solution.status, t_star=solution.t_star, note=note), None

    # margin_feasible or borderline: round.  Finer rungs cannot beat a
    # margin in the solver's borderline band, so a borderline solve tries
    # the first bound only.
    borderline = solution.status == sdp.BORDERLINE
    bounds = options.denominator_bounds[:1] if borderline else options.denominator_bounds
    q_float = _gram_float(system, solution, max(solution.t_star, 0.0))
    cert, attempts, failure = _round_and_certify(system, q_float, bounds, spec.variables, identity, solution.t_star)
    status = CERTIFIED if cert is not None else BORDERLINE if borderline else ROUNDING_FAILED
    note = "; ".join(part for part in (note, failure) if part)
    return ScanRecord(exponent, status, t_star=solution.t_star, rounding_attempts=attempts, note=note), cert


def _scan(mode: str, exponents, step, warnings=()) -> SearchReport:
    """The one scan loop over the exponents, each tried by step(e); the
    report's bound is the last of them.

    step returns (record, certificate or None, certified epsilon or None).
    The scan stops at the first certificate, except in epsilon-margin mode,
    which scans every exponent and keeps the largest certified epsilon (the
    first one on a tie).
    """
    records = []
    best = None  # (certificate, epsilon, exponent)
    for e in exponents:
        record, cert, eps = step(e)
        records.append(record)
        if cert is None:
            continue
        if mode != "epsilon-margin":
            best = (cert, None, None)
            break
        if best is None or eps > best[1]:
            best = (cert, eps, e)
    unresolved = [rec.exponent for rec in records if rec.status in _UNDECIDED]
    if best is not None:
        outcome = OUTCOME_CERTIFICATE
    elif unresolved:
        outcome = OUTCOME_UNKNOWN
    else:
        outcome = OUTCOME_NOT_FOUND
    certificate, epsilon, epsilon_exponent = best or (None, None, None)
    return SearchReport(
        mode=mode,
        records=records,
        outcome=outcome,
        certificate=certificate,
        bound=exponents[-1],
        unresolved=unresolved,
        epsilon=epsilon,
        epsilon_exponent=epsilon_exponent,
        warnings=list(warnings),
    )


# ---------------------------------------------------------------------------
# public search operations
# ---------------------------------------------------------------------------


def certify(spec: ProblemSpec, options: Optional[SearchOptions] = None) -> SearchReport:
    """Scan n = 0, 1, ..., n_max for an exactly certified f*g^n identity.

    check-sos mode is the same scan pinned to n = 0 with no constraints
    (``exponent_system``).  Both parities are scanned; parity-infeasible n
    are skipped by the exact degree bookkeeping, not by assumption.
    """
    options = options or SearchOptions()
    spec = replace(spec, mode="check-sos" if spec.mode == "check-sos" else "certify")
    ns = [0] if spec.mode == "check-sos" else range(spec.n_max + 1)
    warnings = []
    if len(ns) > 1 and spec.g.total_degree() == 0:
        warnings.append("g is constant: higher powers only rescale the target, scanning n = 0 only")
        ns = [0]
    return _scan(spec.mode, ns, lambda n: (*_attempt(spec, n, options), None), warnings)


def odd_power(spec: ProblemSpec, options: Optional[SearchOptions] = None) -> SearchReport:
    """Scan odd powers m = 1, 3, ..., m_max of f for a plain sum-of-squares
    identity; the spec guarantees that m_max is odd and positive."""
    options = options or SearchOptions()
    spec = replace(spec, mode="odd-power")
    return _scan(spec.mode, range(1, spec.m_max + 1, 2), lambda m: (*_attempt(spec, m, options), None))


def epsilon_margin(spec: ProblemSpec, options: Optional[SearchOptions] = None) -> SearchReport:
    """Maximize e with g^n*(g*f - e*h^2) certifiable; certify a shrunk value.

    The optimal e of the numeric stage is shrunk by 3/4, rationalized, and
    then pushed through the ordinary exact pipeline; the best exactly
    certified (e, n) wins.  Smaller e stays representable because the freed
    term e*g^n*h^2 is itself a sum of squares.  ProblemSpec refuses a
    missing or zero h_margin, which would leave e unbounded.
    """
    options = options or SearchOptions()
    spec = replace(spec, mode="epsilon-margin")

    def step(n):
        system, solution = _solve(spec, n, options)
        if solution is None:
            return system, None, None
        eps_star = solution.t_star
        if not solution.converged:
            return ScanRecord(n, MAX_ITERATIONS, t_star=eps_star), None, None
        if eps_star <= 10 * options.gap_tolerance:
            return ScanRecord(n, MARGIN_NEGATIVE, t_star=eps_star, note="epsilon shrinks to zero"), None, None
        eps_cert = _shrink_rationalize(eps_star)
        stage = replace(spec, mode="certify", f=spec.g * spec.f - eps_cert * spec.h_margin**2, constraints=())
        rec, cert = _attempt(stage, n, options)
        note = f"epsilon* = {eps_star:.3e}, certified epsilon = {eps_cert}"
        return replace(rec, note=(rec.note + "; " if rec.note else "") + note), cert, eps_cert

    return _scan("epsilon-margin", range(spec.n_max + 1), step)


def _shrink_rationalize(value: float) -> Fraction:
    """3/4 of the value as a rational, preferring small denominators; positive
    for every positive value.

    The shrink leaves a quarter of the value as slack, so any rationalization
    inside (0, 0.8*value] is safe; the smallest denominator that stays there
    keeps certificates readable.
    """
    target = 0.75 * value
    for bound in (16, 1024, 10**6, 10**9):
        candidate = Fraction(target).limit_denominator(bound)
        if 0 < candidate <= Fraction(0.8 * value):
            return candidate
    return Fraction(target)


# ---------------------------------------------------------------------------
# positivity precheck
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecheckResult:
    negative: Optional[tuple]  # (point, which, value) with value < 0
    zero: Optional[tuple]  # (point, which)
    kept: int
    total: int
    warnings: tuple = ()


_GRID_RESOLUTION = {1: 21, 2: 21, 3: 21, 4: 9, 5: 5, 6: 5}
_PRECHECK_BATCH = 256  # points per float pass: larger batches only cost memory


def _sample_batches(n_vars: int, samples: int, graded: bool, seed: int):
    """The precheck's sample points in draw order, in batches of at most
    ``_PRECHECK_BATCH`` points: pairs (numerators, denominators) of integer
    arrays, one row per point, each coordinate in lowest terms.  Each draw
    is rounded to the nearest multiple of 10^-4, and the draws are made one
    batch at a time, as the stream reaches them."""
    rng = random.Random(seed)
    per_batch = _PRECHECK_BATCH // (1 if graded else 3)
    for start in range(0, samples, per_batch):
        count = min(per_batch, samples - start)
        draws = np.array([rng.gauss(0.0, 1.0) for _ in range(count * n_vars)]).reshape(count, n_vars)
        num = np.rint(draws * 10**4).astype(np.int64)
        num = num[(num != 0).any(axis=1)]
        common = np.gcd(num, 10**4)
        num, den = num // common, 10**4 // common
        if not graded:  # v, v/4, 4v per draw; num/den is in lowest terms, so only factors of 4 cancel
            quarter, four = np.gcd(num, 4), np.gcd(den, 4)
            num = np.stack([num, num // quarter, 4 * num // four], axis=1).reshape(-1, n_vars)
            den = np.stack([den, 4 * den // quarter, den // four], axis=1).reshape(-1, n_vars)
        yield num, den
    res = _GRID_RESOLUTION.get(n_vars)
    if res is not None:  # the grid (i - half)/half over the cube, the last coordinate fastest
        half = (res - 1) // 2
        for start in range(0, res**n_vars, _PRECHECK_BATCH):
            rows = np.arange(start, min(start + _PRECHECK_BATCH, res**n_vars))
            offsets = np.stack(np.unravel_index(rows, (res,) * n_vars), axis=1) - half
            common = np.gcd(offsets, half)
            yield offsets // common, half // common


def positivity_precheck(spec: ProblemSpec, samples: int = 1000, seed: int = 0) -> PrecheckResult:
    """Sample for sign violations of what the mode searches: f, and g in
    certify and epsilon-margin mode, whose identities hold a power of g.

    The points are ``samples`` Gaussian draws v, not normalized, with each
    coordinate rounded to the nearest multiple of 10^-4: for a graded f the
    sign on a ray is the sign anywhere on it, and a non-graded f is also
    tried at v/4 and 4v.  A deterministic grid on the parameter cube
    follows.  The points are drawn in batches of at most 256, as integer
    numerators over denominators, and the first strictly negative value
    ends the sampling.  In certify mode, the only one searching on the
    constraint set, points violating some h_i >= 0 are discarded.

    Each batch goes to ``poly.SignFilter`` as it is, which decides a sign in
    float64 where a proven error bound decides it (|value| > 2*(2*deg + n +
    T + 2)*2^-53 * sum |c_t*x^e_t|, T terms, plus an underflow allowance);
    elsewhere, at an exact zero for instance, it builds the point in
    Fractions and evaluates it exactly by ``Polynomial.evaluate``.  Every
    sign is therefore exact, and every reported value is exact: a negative
    point's value is always computed by ``Polynomial.evaluate``, and the
    reported points are tuples of Fractions.  A strictly negative value is a
    genuine counterexample to the search hypothesis; an exact zero only
    violates strictness and the search may still be forced.
    """
    n = len(spec.variables)
    try:
        graded = spec.f.multidegree(spec.grading) is not None
    except ValueError:
        graded = False
    constraints = [SignFilter(h) for h in spec.constraints] if spec.mode == "certify" else []
    f_filter = SignFilter(spec.f)
    g_filter = SignFilter(spec.g) if spec.mode in ("certify", "epsilon-margin") else None

    negative = None
    zero = None
    kept = 0
    total = 0
    for num, den in _sample_batches(n, samples, graded, seed):
        # |num| <= 4*(10^4*|draw| + 1/2) and den <= 4*10^4, and random.gauss's draws are below 9 in magnitude,
        # so every |num| and den is below 2^53, as SignFilter requires
        feasible = (num != 0).any(axis=1)  # exactly the origin is skipped
        for h in constraints:
            feasible &= h.signs(num, den, feasible) >= 0
        f_sign = f_filter.signs(num, den, feasible)
        g_sign = g_filter.signs(num, den, feasible) if g_filter else np.ones(len(num), dtype=np.int8)
        hits = np.flatnonzero(feasible & ((f_sign < 0) | (g_sign < 0)))
        end = hits[0] + 1 if hits.size else len(num)  # the first negative point ends the sampling
        total += int(end)
        kept += int(np.count_nonzero(feasible[:end]))
        if zero is None:
            zeros = np.flatnonzero(feasible[:end] & ((f_sign[:end] == 0) | (g_sign[:end] == 0)))
            if zeros.size:
                i = zeros[0]
                zero = (tuple(map(Fraction, num[i].tolist(), den[i].tolist())), "f" if f_sign[i] == 0 else "g")
        if hits.size:
            i = hits[0]
            which, poly = ("f", spec.f) if f_sign[i] < 0 else ("g", spec.g)
            point = tuple(map(Fraction, num[i].tolist(), den[i].tolist()))
            negative = (point, which, poly.evaluate(point))
            break
    warnings = ()
    if total == 0:
        warnings = ("no point was sampled (there is no grid beyond 6 variables): the precheck checked nothing",)
    elif kept == 0:
        warnings = ("no sample point satisfies every constraint: the feasible set may be thin",)
    return PrecheckResult(negative=negative, zero=zero, kept=kept, total=total, warnings=warnings)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def render_report(report: SearchReport) -> str:
    exponent_name = "m" if report.mode == "odd-power" else "n"
    lines = [f"mode: {report.mode}"]
    for w in report.warnings:
        lines.append(f"warning: {w}")
    for rec in report.records:
        bits = [f"{exponent_name}={rec.exponent}: {rec.status.replace('_', ' ')}"]
        if rec.t_star is not None:
            bits.append(f"t*={rec.t_star:.6e}")
        if rec.rounding_attempts:
            bits.append(f"rounding attempts={rec.rounding_attempts}")
        if rec.note:
            bits.append(rec.note)
        lines.append("  " + ", ".join(bits))
    if report.outcome == OUTCOME_CERTIFICATE:
        if report.epsilon is not None:
            lines.append(
                f"outcome: certified epsilon = {report.epsilon} at {exponent_name} = {report.epsilon_exponent}"
            )
        else:
            # the scan stops at its first certificate, so the last record is
            # the certified one; odd-power certificates carry n = m - 1
            lines.append(f"outcome: exact certificate at {exponent_name} = {report.records[-1].exponent}")
    elif report.outcome == OUTCOME_NOT_FOUND:
        lines.append(
            f"outcome: not found up to {exponent_name} = {report.bound} (numerical evidence only, not a nonexistence proof)"
        )
    else:
        lines.append(f"outcome: unknown (undecided at {exponent_name} in {report.unresolved})")
    return "\n".join(lines)
