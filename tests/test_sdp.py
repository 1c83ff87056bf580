"""Interior-point solver: analytic margins, a random feasible battery,
weak duality along the iterates, and determinism."""

import tracemalloc

import numpy as np
import pytest

from posicert import sdp


def margin_problem_2x2(offdiag: float) -> sdp.SdpProblem:
    """Q_11 = 1, Q_22 = 1, Q_12 = offdiag in margin form (Q = X + t*I)."""
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    e12 = np.array([[0.0, 0.5], [0.5, 0.0]])
    a = np.stack([e11, e22, e12])
    c = np.array([1.0, 1.0, 0.0])  # <A_k, I>
    b = np.array([1.0, 1.0, offdiag])
    return sdp.SdpProblem(block_dims=(2,), a_blocks=[a], c=c, b=b)


class TestAnalyticMargins:
    def test_identity_margin_one(self):
        sol = sdp.solve(margin_problem_2x2(0.0))
        assert sol.status == sdp.MARGIN_FEASIBLE
        assert abs(sol.t_star - 1.0) <= 1e-7

    def test_rank_one_margin_zero(self):
        sol = sdp.solve(margin_problem_2x2(1.0))
        assert sol.status == sdp.BORDERLINE
        assert abs(sol.t_star) <= 1e-7

    def test_indefinite_margin_minus_one(self):
        sol = sdp.solve(margin_problem_2x2(2.0))
        assert sol.status == sdp.MARGIN_NEGATIVE
        assert abs(sol.t_star - (-1.0)) <= 1e-7


def random_margin_instance(rng: np.random.Generator):
    d = int(rng.integers(3, 8))
    # the solver requires linearly independent constraints: stay below the
    # dimension of the symmetric space (identity row included)
    m = int(rng.integers(3, min(12, d * (d + 1) // 2 - 1)))
    root = rng.normal(size=(d, d))
    q0 = root @ root.T + 0.5 * np.eye(d)  # strictly feasible generator
    # pin the trace like real coefficient-matching systems do, so the
    # margin is bounded above (a free trace direction makes t unbounded)
    mats = [np.eye(d)]
    for _ in range(m):
        raw = rng.normal(size=(d, d))
        mats.append((raw + raw.T) / 2.0)
    a = np.stack(mats)
    b = np.einsum("kij,ij->k", a, q0)
    c = np.array([float(np.trace(mat)) for mat in mats])
    return sdp.SdpProblem(block_dims=(d,), a_blocks=[a], c=c, b=b), q0


class TestRandomFeasibleBattery:
    def test_hundred_instances(self):
        rng = np.random.default_rng(424242)
        for trial in range(100):
            problem, q0 = random_margin_instance(rng)
            sol = sdp.solve(problem, gap_tolerance=1e-8, max_iterations=50)
            assert sol.status == sdp.MARGIN_FEASIBLE, f"trial {trial}: {sol.status}"
            assert sol.gap <= 1e-8, f"trial {trial}: gap {sol.gap}"
            assert sol.iterations <= 50
            # reconstructed Q satisfies the constraints to 1e-7 relative
            q = sol.x_blocks[0] + sol.t_star * np.eye(problem.block_dims[0])
            residual = np.einsum("kij,ij->k", problem.a_blocks[0], q) - problem.b
            scale = 1.0 + np.max(np.abs(problem.b))
            assert np.max(np.abs(residual)) / scale <= 1e-7, f"trial {trial}"

    def test_weak_duality_along_iterates(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            problem, _ = random_margin_instance(rng)
            sol = sdp.solve(problem, gap_tolerance=1e-8, max_iterations=50)
            for pobj, dobj, compl, slack in sol.trace:
                assert pobj <= dobj + compl + slack + 1e-9 * (1 + abs(pobj) + abs(dobj))


def test_two_blocks_margin():
    """Blocks of sizes 3 and 5 in margin form: the free scalar t enters
    every constraint through <A_k, I> summed over both blocks."""
    rng = np.random.default_rng(2024)
    dims = (3, 5)
    q0 = []
    for d in dims:
        root = rng.normal(size=(d, d))
        q0.append(root @ root.T + 0.5 * np.eye(d))  # strictly feasible point
    tensors = []
    for d in dims:
        # row 0 pins the total trace, so the margin is bounded above
        mats = [np.eye(d)]
        for _ in range(10):
            raw = rng.normal(size=(d, d))
            mats.append((raw + raw.T) / 2.0)
        tensors.append(np.stack(mats))
    b = sum(np.einsum("kij,ij->k", a, q) for a, q in zip(tensors, q0))
    margin = sum(np.einsum("kii->k", a) for a in tensors)  # <A_k, I> over blocks
    problem = sdp.SdpProblem(block_dims=dims, a_blocks=tensors, c=margin, b=b)
    sol = sdp.solve(problem, gap_tolerance=1e-8, max_iterations=50)
    assert sol.status == sdp.MARGIN_FEASIBLE
    assert sol.gap <= 1e-8
    residual = -b
    for a, x, d in zip(tensors, sol.x_blocks, dims):
        residual += np.einsum("kij,ij->k", a, x + sol.t_star * np.eye(d))
    assert np.max(np.abs(residual)) / (1.0 + np.max(np.abs(b))) <= 1e-7


def three_block_problem() -> sdp.SdpProblem:
    """Blocks of sizes 3, 2, 3 in margin form around a strictly feasible Gram point."""
    rng = np.random.default_rng(31)
    dims = (3, 2, 3)
    m = 12
    q0, tensors = [], []
    for d in dims:
        root = rng.normal(size=(d, d))
        q0.append(root @ root.T + 0.5 * np.eye(d))
        mats = [np.eye(d)] + [(raw + raw.T) / 2.0 for raw in rng.normal(size=(m - 1, d, d))]
        tensors.append(np.stack(mats))
    b = sum(np.einsum("kij,ij->k", a, q) for a, q in zip(tensors, q0))
    margin = sum(np.einsum("kii->k", a) for a in tensors)
    return sdp.SdpProblem(block_dims=dims, a_blocks=tensors, c=margin, b=b)


def test_blocks_of_one_size_are_solved_as_one_stack():
    """Blocks of sizes 3, 2, 3, the two of size 3 stacked: the margin is the
    one of the same problem posed as a single block-diagonal block, and each
    X comes back at its own block's position."""
    problem = three_block_problem()
    dims, tensors, b = problem.block_dims, problem.a_blocks, problem.b
    merged = np.zeros((problem.n_constraints, sum(dims), sum(dims)))
    for a, start in zip(tensors, np.cumsum((0,) + dims[:-1])):
        merged[:, start : start + a.shape[1], start : start + a.shape[1]] = a
    sol = sdp.solve(problem, 1e-8, 50)
    ref = sdp.solve(sdp.SdpProblem(block_dims=(sum(dims),), a_blocks=[merged], c=problem.c, b=b), 1e-8, 50)
    assert sol.status == ref.status == sdp.MARGIN_FEASIBLE
    assert abs(sol.t_star - ref.t_star) <= 1e-6 * (1.0 + abs(ref.t_star))
    assert [x.shape for x in sol.x_blocks] == [s.shape for s in sol.s_blocks] == [(d, d) for d in dims]
    residual = -b
    for a, x, d in zip(tensors, sol.x_blocks, dims):
        assert np.linalg.eigvalsh(x)[0] > 0
        residual += np.einsum("kij,ij->k", a, x + sol.t_star * np.eye(d))
    assert np.max(np.abs(residual)) / (1.0 + np.max(np.abs(b))) <= 1e-7


def test_each_iterate_is_factored_once(monkeypatch):
    """The cone check's Cholesky factors of X and S are the only ones an
    iterate gets, and the scaling inverts each once: per stack of one block
    size, at most two of each call per iterate, the start included.  The
    Schur side is one QR of P' per iterate, whose R is inverted once and
    serves every base solve, with no LU solve."""
    calls = {"cholesky": 0, "inv": 0, "qr": 0, "solve": 0}
    for name in calls:

        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    sol = sdp.solve(three_block_problem(), 1e-8, 50)
    assert sol.status == sdp.MARGIN_FEASIBLE and sol.iterations > 0
    bound = 2 * 2 * (sol.iterations + 1)  # two stacks: sizes 3 and 2
    assert 0 < calls["cholesky"] <= bound
    assert 0 < calls["inv"] <= bound + sol.iterations  # and one R per iterate
    assert 0 < calls["qr"] <= sol.iterations
    assert calls["solve"] == 0


def _symmetric_tensor(rng, m: int, d: int) -> np.ndarray:
    tensor = rng.standard_normal((m, d, d))
    for mat in tensor:
        mat += mat.T.copy()
    return tensor


def test_validate_checks_symmetry_in_bounded_memory():
    # a symmetric (595, 150, 150) tensor is 102 MiB: checked whole, its
    # temporaries peak at about twice that; checked in slices of at most
    # 2^20 entries, at a small fraction of it
    tensor = _symmetric_tensor(np.random.default_rng(5), 595, 150)
    problem = sdp.SdpProblem(block_dims=(150,), a_blocks=[tensor], c=np.ones(595), b=np.ones(595))
    tracemalloc.start()
    try:
        problem.validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_validate_rejects_asymmetry_in_the_last_slice():
    # 100 constraints of 150 x 150 are three slices of 46, 46 and 8
    tensor = _symmetric_tensor(np.random.default_rng(6), 100, 150)
    problem = sdp.SdpProblem(block_dims=(150,), a_blocks=[tensor], c=np.ones(100), b=np.ones(100))
    problem.validate()
    tensor[99, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        problem.validate()


def test_unbounded_free_scalar_is_numerical_failure():
    # c = 0 (and m = 0) leave the augmented system [M c; c' 0] singular
    a = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    for problem in (
        sdp.SdpProblem(block_dims=(2,), a_blocks=[a], c=np.zeros(2), b=np.ones(2)),
        sdp.SdpProblem(block_dims=(2,), a_blocks=[np.zeros((0, 2, 2))], c=np.zeros(0), b=np.zeros(0)),
    ):
        assert sdp.solve(problem).status == sdp.NUMERICAL_FAILURE


def test_single_threaded_determinism():
    rng = np.random.default_rng(11)
    problem, _ = random_margin_instance(rng)
    first = sdp.solve(problem, 1e-8, 60)
    second = sdp.solve(problem, 1e-8, 60)
    assert first.t_star == second.t_star
    assert first.iterations == second.iterations
    assert first.trace == second.trace
    for a, b in zip(first.x_blocks, second.x_blocks):
        assert np.array_equal(a, b)
    for a, b in zip(first.s_blocks, second.s_blocks):
        assert np.array_equal(a, b)


def test_debug_dump_round_trips_floats():
    problem = margin_problem_2x2(0.75)
    text = sdp.format_debug_dump(problem)
    lines = text.splitlines()
    assert lines[0] == "sdp-dump 1"
    assert "blocks 2" in lines[1]
    assert sum(1 for ln in lines if ln.startswith("constraint ")) == 3
    for ln in lines:
        if ln.startswith("b "):
            float(ln.split()[1])  # repr round-trip
        if ln.startswith("A "):
            _, blk, i, j, val = ln.split()
            assert int(blk) == 0 and 0 <= int(i) <= int(j) <= 1
            float(val)
    assert any(ln == "b 0.75" for ln in lines)
