"""Dense primal-dual interior-point solver for block-diagonal SDPs with one
free scalar.

Solves
    maximize    u
    subject to  sum_b <A_k^b, X^b>  +  c_k * u  =  b_k,   k = 1..m
                X^b PSD,  u a free scalar,

by a Nesterov-Todd scaled Mehrotra predictor-corrector iteration from the
infeasible start X = S = I, u = 0, y = 0.  The free scalar is carried
through the Schur complement as an augmented system rather than split into a
1x1 PSD block.  A solve is bitwise deterministic for identical inputs.  With
each constraint tensor flattened to (m, d*d), A, A* and the Schur rows
svec(G'A_kG) are matrix products, so an iteration costs O(m*sum d^3 +
m^2*sum d^2).  The blocks of one size are stacked into one (k, d, d) array,
so every per-block step is one batched call per distinct size, however many
small blocks the problem has.  Each iterate is factored once: the Cholesky
factors of X and S that check it lies in the cone give the NT scaling and,
each inverted once, the step lengths of the predictor and the corrector;
the Schur complement M = P P' gets one QR of P', and the inverse of its
factor R, formed once, makes every solve with R'R two matrix-vector products.

In the margin encoding used by the certificate search the solved X equals
Q - t*I blockwise, where t = u is the margin being maximized, so t* > 0
certifies an interior Gram point and t* < 0 numerical infeasibility.
The solver never classifies the band |t*| <= 10*gap_tolerance; it reports
BORDERLINE and the caller decides.

A solve ends in one of three ways:

* convergence: the relative gap and the primal, dual and free-scalar
  residuals are all at most gap_tolerance; t* is classified as above;
* the iteration cap: MAX_ITERATIONS, with the latest iterate;
* a breakdown: the iterates diverged, the scaling point collapsed, the
  Schur complement is rank deficient (a diagonal entry of R in the QR of P'
  below 1e-13 of the largest), the augmented system is singular
  (c'M^-1 c = 0), or the step was inadmissible (a non-finite iterate or one
  outside the cone) or collapsed (alpha < 1e-10).

A breakdown keeps the better of the latest iterate and the best one, the
last iterate that halved the best worst-residual seen, and classifies it by
that worst residual: at most max(1e-6, 100*gap_tolerance) is classified as a
converged solve, at most 1e-3 is MAX_ITERATIONS, and anything larger is
NUMERICAL_FAILURE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MARGIN_FEASIBLE = "margin_feasible"
MARGIN_NEGATIVE = "margin_negative"
BORDERLINE = "borderline"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"

STEP_TO_BOUNDARY = 0.98


@dataclass
class SdpProblem:
    block_dims: tuple
    a_blocks: list  # per block: (m, d, d) float array, symmetric slices
    c: np.ndarray  # (m,) coefficients of the free scalar
    b: np.ndarray  # (m,)

    @property
    def n_constraints(self) -> int:
        return int(self.b.shape[0])

    def validate(self) -> None:
        m = self.n_constraints
        if self.c.shape != (m,):
            raise ValueError("one free-scalar coefficient per constraint required")
        if len(self.a_blocks) != len(self.block_dims):
            raise ValueError("one constraint tensor per block required")
        for d, tensor in zip(self.block_dims, self.a_blocks):
            if tensor.shape != (m, d, d):
                raise ValueError(f"constraint tensor shape {tensor.shape} != {(m, d, d)}")
            # in slices of at most 2^20 entries, so the check's temporaries stay
            # small however large the tensor
            step = max(1, 2**20 // max(1, d * d))
            for lo in range(0, m, step):
                part = tensor[lo:lo + step]
                if not np.allclose(part, np.transpose(part, (0, 2, 1)), atol=1e-12):
                    raise ValueError("constraint matrices must be symmetric")


@dataclass
class SdpSolution:
    status: str
    t_star: float
    x_blocks: list
    y: np.ndarray
    s_blocks: list
    gap: float
    iterations: int
    # per-iterate (primal obj, dual obj, complementarity, infeasibility slack)
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status in (MARGIN_FEASIBLE, MARGIN_NEGATIVE, BORDERLINE)


def _t(stack: np.ndarray) -> np.ndarray:
    """The transpose of every matrix of a (k, d, d) stack."""
    return np.swapaxes(stack, -1, -2)


def _boundary_step(inv_chols: Sequence[np.ndarray], directions: Sequence[np.ndarray]) -> float:
    """Largest alpha with every block + alpha*direction still PSD, given the
    inverse L^-1 of each block's Cholesky factor L."""
    alpha = np.inf
    for inv_chol, d in zip(inv_chols, directions):
        scaled = inv_chol @ d @ _t(inv_chol)
        w = np.linalg.eigvalsh((scaled + _t(scaled)) / 2.0)[:, 0]
        w = w[w < -1e-14]
        if w.size:
            alpha = min(alpha, float(np.min(-1.0 / w)))
    return alpha


class _Failure(Exception):
    pass


def _cone_factors(stacks: Sequence[np.ndarray]) -> list:
    """Each stack's Cholesky factor; a non-finite stack or one outside the cone ends the solve."""
    factors = []
    for mat in stacks:
        if not np.all(np.isfinite(mat)):
            raise _Failure("non-finite iterate")
        factors.append(np.linalg.cholesky(mat))  # LinAlgError: outside the cone
    return factors


def solve(problem: SdpProblem, gap_tolerance: float = 1e-8, max_iterations: int = 100) -> SdpSolution:
    """Run the interior-point iteration until the relative duality gap and
    the primal/dual residuals all drop below gap_tolerance."""
    problem.validate()
    dims = problem.block_dims
    m = problem.n_constraints
    n_total = int(sum(dims))
    # every iterate below is a list of stacks, one (k, d, d) array per size d
    positions = {}  # d -> the positions of the blocks of size d
    for pos, d in enumerate(dims):
        positions.setdefault(d, []).append(pos)
    at = [np.stack([np.asarray(problem.a_blocks[p], dtype=float) for p in group]) for group in positions.values()]
    shapes = [(len(group), d, d) for d, group in positions.items()]
    flat = [t.swapaxes(0, 1).reshape(m, k * d * d) for t, (k, d, _) in zip(at, shapes)]
    # svec of a symmetric block: upper triangle, off-diagonal scaled by sqrt(2)
    svecs = [np.triu_indices(d) for d in positions]
    svecs = [(iu, np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))) for iu in svecs]
    c = np.asarray(problem.c, dtype=float)
    b = np.asarray(problem.b, dtype=float)

    eyes = [np.eye(d) for d in positions]
    x = [np.repeat(eye[None], k, axis=0) for eye, (k, _, _) in zip(eyes, shapes)]
    s = [xb.copy() for xb in x]
    chol_x, chol_s = _cone_factors(x), _cone_factors(s)
    u = 0.0
    y = np.zeros(m)
    trace: list = []

    def apply_a(mats) -> np.ndarray:
        out = np.zeros(m)
        for fl, mat in zip(flat, mats):
            out += fl @ mat.ravel()
        return out

    def apply_a_adjoint(vec) -> list:
        return [(vec @ fl).reshape(shape) for fl, shape in zip(flat, shapes)]

    def unstack(stacks) -> list:
        out = [None] * len(dims)
        for group, stack in zip(positions.values(), stacks):
            for p, mat in zip(group, stack):
                out[p] = mat
        return out

    status = MAX_ITERATIONS
    iterations = 0
    rel_gap = np.inf
    metrics = None  # (rel_gap, rp_rel, rd_rel, ru_rel) of the latest iterate
    best = None  # (max metric, state) of the iterate that last halved the best metric

    def classify(pobj: float, achieved: float) -> str:
        band = 10.0 * max(gap_tolerance, achieved)
        if pobj > band:
            return MARGIN_FEASIBLE
        if pobj < -band:
            return MARGIN_NEGATIVE
        return BORDERLINE

    try:
        for iteration in range(max_iterations):
            iterations = iteration
            ax = apply_a(x)
            r_p = b - ax - c * u
            asty = apply_a_adjoint(y)
            r_d = [-a - sb for a, sb in zip(asty, s)]
            r_u = -1.0 - float(c @ y)  # max u posed internally as min -u

            compl = float(sum(np.vdot(xb, sb) for xb, sb in zip(x, s)))
            dobj = float(-(b @ y))
            slack = abs(r_u * u) + float(abs(y @ r_p))
            slack += float(sum(np.abs(np.einsum("kij,kij->k", xb, rd)).sum() for xb, rd in zip(x, r_d)))
            trace.append((u, dobj, compl, slack))

            rel_gap = compl / (1.0 + abs(u) + abs(dobj))
            b_scale = 1.0 + (float(np.max(np.abs(b))) if m else 0.0)
            rp_rel = (float(np.max(np.abs(r_p))) if m else 0.0) / b_scale
            rd_rel = float(np.sqrt(sum(np.sum(rd * rd) for rd in r_d)))
            rd_rel /= 1.0 + float(np.sqrt(sum(np.sum(sb * sb) for sb in s)))
            ru_rel = abs(r_u) / 2.0

            metrics = (rel_gap, rp_rel, rd_rel, ru_rel)
            if max(metrics) <= gap_tolerance:
                status = classify(u, max(metrics))
                break
            if best is None or max(metrics) < 0.5 * best[0]:
                best = (max(metrics), ([xb.copy() for xb in x], u, y.copy(),
                                       [sb.copy() for sb in s], rel_gap))
            if not np.isfinite(compl) or compl > 1e16 or abs(u) > 1e14:
                raise _Failure("iterates diverged")

            # Nesterov-Todd scaling per block: W S W = X with W = G G', from the cone
            # check's factors X = Lx Lx', S = Ls Ls', whose inverses serve the step lengths
            g_mats, g_invs, lams, inv_x, inv_s = [], [], [], [], []
            for lx, ls in zip(chol_x, chol_s):
                _, sig, vt = np.linalg.svd(_t(ls) @ lx)
                if np.min(sig) <= 0:
                    raise _Failure("scaling point collapsed")
                inv_x.append(np.linalg.inv(lx))
                inv_s.append(np.linalg.inv(ls))
                g_mats.append(lx @ _t(vt) / np.sqrt(sig)[:, None, :])
                g_invs.append((np.sqrt(sig)[:, :, None] * vt) @ inv_x[-1])
                lams.append(sig)

            # Schur complement in Gram form: M = P P' with row k the stacked
            # svec(G' A_k G).  Solving through a QR of P' works at the square
            # root of M's condition number, which is what limits accuracy
            # near the central path's end.
            p_slices = []
            for tensor, g_b, (iu, weights) in zip(at, g_mats, svecs):
                scaled = _t(g_b)[:, None] @ tensor @ g_b[:, None]
                svec = scaled[:, :, iu[0], iu[1]] * weights  # (k, m, d(d+1)/2)
                p_slices.append(svec.swapaxes(0, 1).reshape(m, svec.shape[0] * svec.shape[2]))
            p_mat = np.concatenate(p_slices, axis=1) if p_slices else np.zeros((m, 0))

            def schur_matvec(z):
                return p_mat @ (p_mat.T @ z)

            r_factor = np.linalg.qr(p_mat.T, mode="r")
            diag_r = np.abs(np.diag(r_factor))
            if not np.all(np.isfinite(r_factor)):
                raise _Failure("Schur factorization failed")
            if diag_r.size and np.min(diag_r) <= 1e-13 * max(1.0, float(np.max(diag_r))):
                raise _Failure("Schur complement rank deficient")
            r_inv = np.linalg.inv(r_factor)

            def schur_base(rhs):
                return r_inv @ (r_inv.T @ rhs)

            a_w_rd_w = np.zeros(m)
            for p_slice, g_b, rd, (iu, weights) in zip(p_slices, g_mats, r_d, svecs):
                inner = _t(g_b) @ rd @ g_b
                a_w_rd_w += p_slice @ (inner[:, iu[0], iu[1]] * weights).ravel()

            minv_c = schur_base(c)
            c_minv_c = float(c @ minv_c)
            if c_minv_c == 0.0:  # e.g. m = 0 or c = 0: nothing bounds the free scalar
                raise _Failure("augmented system singular")

            def aug_solve(rhs_y, rhs_u):
                # [M c; c' 0] [dy; du] = [rhs_y; rhs_u] by block elimination,
                # with refinement against the exact augmented residuals
                def base(ry, ru):
                    minv_h = schur_base(ry)
                    du = (float(c @ minv_h) - ru) / c_minv_c
                    return minv_h - minv_c * du, du

                dy, du = base(rhs_y, rhs_u)
                for _ in range(2):
                    res_y = rhs_y - schur_matvec(dy) - c * du
                    res_u = rhs_u - float(c @ dy)
                    corr_y, corr_u = base(res_y, res_u)
                    dy = dy + corr_y
                    du = du + corr_u
                return dy, du

            def newton(rc_blocks):
                rhs_y = r_p - apply_a(rc_blocks) + a_w_rd_w
                dy, du = aug_solve(rhs_y, r_u)
                adj = apply_a_adjoint(dy)
                ds = [rd - a for rd, a in zip(r_d, adj)]
                dx, dsh = [], []  # dsh: the scaled G' dS G of each block
                for rc, g_b, dsb in zip(rc_blocks, g_mats, ds):
                    dsh.append(_t(g_b) @ dsb @ g_b)
                    cand = rc - g_b @ dsh[-1] @ _t(g_b)
                    dx.append((cand + _t(cand)) / 2.0)
                return dx, du, dy, ds, dsh

            # predictor (affine scaling); equal primal/dual steps keep the
            # feasibility residuals and the gap shrinking at the same rate
            dx_a, du_a, dy_a, ds_a, dsh_a = newton([-xb for xb in x])
            alpha_aff = min(1.0, _boundary_step(inv_x, dx_a), _boundary_step(inv_s, ds_a))
            mu = compl / n_total
            mu_aff = sum(
                np.vdot(xb + alpha_aff * dxb, sb + alpha_aff * dsb)
                for xb, dxb, sb, dsb in zip(x, dx_a, s, ds_a)
            ) / n_total
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 0.0, 1.0))

            # corrector in the scaled space, where both variables equal diag(lam)
            rc = []
            for g_b, g_inv, lam, dxb, dsh, eye in zip(g_mats, g_invs, lams, dx_a, dsh_a, eyes):
                dxh = g_inv @ dxb @ _t(g_inv)
                rhs = sigma * mu * eye - eye * (lam * lam)[:, None, :]
                rhs -= (dxh @ dsh + dsh @ dxh) / 2.0
                e_mat = 2.0 * rhs / (lam[:, :, None] + lam[:, None, :])
                cand = g_b @ e_mat @ _t(g_b)
                rc.append((cand + _t(cand)) / 2.0)

            dx, du, dy, ds, _ = newton(rc)
            alpha = min(1.0, STEP_TO_BOUNDARY * _boundary_step(inv_x, dx),
                        STEP_TO_BOUNDARY * _boundary_step(inv_s, ds))

            # floating error can push a near-boundary iterate out of the
            # cone; such a step is refused and the loop ends in recovery
            x_new = [xb + alpha * dxb for xb, dxb in zip(x, dx)]
            s_new = [sb + alpha * dsb for sb, dsb in zip(s, ds)]
            chol_x, chol_s = _cone_factors(x_new), _cone_factors(s_new)
            if alpha < 1e-10:
                raise _Failure("step length collapsed")
            x = x_new
            u = u + alpha * du
            y = y + alpha * dy
            s = s_new
            iterations = iteration + 1
    except (np.linalg.LinAlgError, _Failure):
        # Degenerate optima (zero-margin faces) can break the scaling after
        # the iterates are already essentially converged; classify those
        # rather than failing, the exact layer re-checks everything anyway.
        achieved = max(metrics) if metrics is not None else np.inf
        if best is not None and best[0] < achieved:
            x, u, y, s, rel_gap = best[1]
            achieved = best[0]
        if achieved <= max(1e-6, 100.0 * gap_tolerance):
            status = classify(u, achieved)
        elif achieved <= 1e-3:
            status = MAX_ITERATIONS
        else:
            status = NUMERICAL_FAILURE

    return SdpSolution(
        status=status,
        t_star=float(u),
        x_blocks=unstack(x),
        y=y,
        s_blocks=unstack(s),
        gap=float(rel_gap),
        iterations=iterations,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# debug dump
# ---------------------------------------------------------------------------


def format_debug_dump(problem: SdpProblem) -> str:
    """Plain-text dump of (A_k, b, c), one constraint per record.

    Layout:
        sdp-dump 1
        blocks <d1> <d2> ...
        nfree 1
        objective 0
        constraint <k>
        b <value>
        c <value>                         # coefficient of the free scalar
        A <block> <row> <col> <value>     # upper-triangle nonzeros
        end
    Floats are written with repr so an independent reader recovers them
    bit-exactly.
    """
    lines = ["sdp-dump 1"]
    lines.append("blocks " + " ".join(str(d) for d in problem.block_dims))
    lines.append("nfree 1")
    lines.append("objective 0")
    for k in range(problem.n_constraints):
        lines.append(f"constraint {k}")
        lines.append(f"b {float(problem.b[k])!r}")
        lines.append(f"c {float(problem.c[k])!r}")
        for b_idx, tensor in enumerate(problem.a_blocks):
            mat = tensor[k]
            d = mat.shape[0]
            for i in range(d):
                for j in range(i, d):
                    if mat[i, j] != 0.0:
                        lines.append(f"A {b_idx} {i} {j} {float(mat[i, j])!r}")
        lines.append("end")
    return "\n".join(lines) + "\n"
