"""Basis construction, pruning, and coefficient-matching assembly."""

import dataclasses
import itertools
import math
import pathlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from posicert import driver, gram, sdp
from posicert.exact import project_to_constraints
from posicert.gram import (
    GramSystem,
    ParityInfeasible,
    SupportInfeasible,
    build_gram_system,
    build_reduced_system,
    monomials_up_to,
    prune_basis,
    reconstruct,
)
from posicert.parsing import parse_polynomial, parse_problem
from posicert.poly import Grading, Polynomial, sum_of_squared_variables
from posicert import ratlin

XY = ["x", "y"]
PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def exponents(block) -> tuple:
    """The exponent vector of each of a block's monomial generators."""
    return tuple(next(iter(gen.terms)) for gen in block.generators)


class TestMonomialBasis:
    def test_univariate_constant_pruned(self):
        # target x^4 + x^2: nothing needs the constant, and 0 = 0+0 only
        basis = prune_basis(monomials_up_to(1, 2), {(4,), (2,)})
        assert basis == ((1,), (2,))

    def test_univariate_constant_kept(self):
        # target x^4 + 1: x survives since x^2 = 0 + 2 is pair-expressible
        basis = prune_basis(monomials_up_to(1, 2), {(4,), (0,)})
        assert basis == ((0,), (1,), (2,))

    def test_two_vars_full_support(self):
        support = {(2, 0), (1, 1), (0, 2)}
        basis = prune_basis(monomials_up_to(2, 1), support)
        assert basis == ((0, 1), (1, 0))

    def test_odd_multidegree_rejected(self):
        # no square has odd degree: the assembly refuses before any basis
        f = parse_polynomial("x^3", ["x"])
        system = build_gram_system(f, Polynomial.one(1), 0, (), Grading.single(1))
        assert isinstance(system, ParityInfeasible)


def test_prune_basis_fixpoint_is_stable():
    support = frozenset({(4, 2, 0), (2, 4, 0), (0, 0, 6), (2, 2, 2)})
    candidates = monomials_up_to(3, 3)
    candidates = [ev for ev in candidates if sum(ev) == 3]
    pruned = prune_basis(candidates, support)
    assert set(pruned) == {(2, 1, 0), (1, 2, 0), (1, 1, 1), (0, 0, 3)}
    assert prune_basis(pruned, support) == pruned


class TestBuildGramSystem:
    def test_simple_circle(self):
        f = parse_polynomial("x^2 + y^2", XY)
        system = build_gram_system(f, sum_of_squared_variables(2), 0, (), Grading.single(2))
        assert isinstance(system, GramSystem)
        (block,) = system.blocks
        basis = exponents(block)
        assert set(basis) == {(1, 0), (0, 1)}
        rows = dict(zip(system.monomials, system.rows))
        rhs = dict(zip(system.monomials, system.rhs))
        assert set(rows) == {(2, 0), (1, 1), (0, 2)}
        assert rhs[(2, 0)] == 1 and rhs[(0, 2)] == 1 and rhs[(1, 1)] == 0
        x_idx = basis.index((1, 0))
        y_idx = basis.index((0, 1))
        col = system.unknown_layout.index
        assert rows[(2, 0)] == {col((0, x_idx, x_idx)): 1}
        lo, hi = min(x_idx, y_idx), max(x_idx, y_idx)
        assert rows[(1, 1)] == {col((0, lo, hi)): 2}  # doubled off the diagonal

    def test_odd_degree_form_is_parity_infeasible(self):
        f = parse_polynomial("x^3 + x*y^2", XY)
        out = build_gram_system(f, sum_of_squared_variables(2), 0, (), Grading.single(2))
        assert isinstance(out, ParityInfeasible)

    def test_worked_constrained_example(self):
        f = parse_polynomial("x^2 - 1/2*y^2", XY)
        g = parse_polynomial("x^2 + y^2", XY)
        h = parse_polynomial("x^2 - y^2", XY)
        system = build_gram_system(f, g, 0, (h,), Grading.single(2))
        assert isinstance(system, GramSystem)
        plain, times_h = system.blocks
        assert plain.product_index == (0,) and times_h.product_index == (1,)
        basis = exponents(plain)
        assert set(basis) == {(1, 0), (0, 1)}
        assert exponents(times_h) == ((0, 0),)
        rows = dict(zip(system.monomials, system.rows))
        rhs = dict(zip(system.monomials, system.rhs))
        assert set(rows) == {(2, 0), (1, 1), (0, 2)}
        x_idx = basis.index((1, 0))
        y_idx = basis.index((0, 1))
        col = system.unknown_layout.index
        # x^2: Q0_xx + Q1_11 = 1;  y^2: Q0_yy - Q1_11 = -1/2;  xy: 2*Q0_xy = 0
        assert rows[(2, 0)] == {col((0, x_idx, x_idx)): 1, col((1, 0, 0)): 1}
        assert rows[(0, 2)] == {col((0, y_idx, y_idx)): 1, col((1, 0, 0)): -1}
        assert rhs[(2, 0)] == 1 and rhs[(0, 2)] == Fraction(-1, 2) and rhs[(1, 1)] == 0
        lo, hi = min(x_idx, y_idx), max(x_idx, y_idx)
        assert rows[(1, 1)] == {col((0, lo, hi)): 2}
        assert len(system.independent) == 3

    def test_unreachable_target_monomial(self):
        # x^4 + x^3: pruning leaves {x^2}, whose square cannot reach x^3
        f = parse_polynomial("x^4 + x^3", ["x"])
        out = build_gram_system(f, Polynomial.one(1), 0, (), Grading.single(1))
        assert isinstance(out, SupportInfeasible)

    def test_inconsistent_rows(self):
        # x = q*(x - y) with one constant unknown q: the x row asks q = 1,
        # the y row q = 0, and every target monomial is reachable
        f = parse_polynomial("x", XY)
        h = parse_polynomial("x - y", XY)
        out = build_gram_system(f, Polynomial.one(2), 0, (h,), Grading.single(2))
        assert isinstance(out, SupportInfeasible)
        assert out.monomial == (0, 1)
        assert out.reason == "exact constraint system is inconsistent (first at monomial (0, 1))"
        spec = parse_problem('vars = x, y\nf = "x"\nh = ["x - y"]\nmode = certify\nn_max = 0\n')
        (record,) = driver.certify(spec).records
        assert (record.exponent, record.status, record.note) == (0, driver.SUPPORT_INFEASIBLE, out.reason)

    def test_too_many_constraints(self):
        f = parse_polynomial("x^2", XY)
        h = tuple(parse_polynomial(f"x^2 + {k}*y^2", XY) for k in range(17))
        with pytest.raises(ValueError, match="16"):
            build_gram_system(f, sum_of_squared_variables(2), 0, h, Grading.single(2))


class TestReconstruct:
    def test_identity_matrix(self):
        f = parse_polynomial("x^2 + y^2", XY)
        system = build_gram_system(f, sum_of_squared_variables(2), 0, (), Grading.single(2))
        q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert reconstruct(system, {0: q}) == f

    def test_zero_matrix(self):
        f = parse_polynomial("x^2 + y^2", XY)
        system = build_gram_system(f, sum_of_squared_variables(2), 0, (), Grading.single(2))
        q = [[Fraction(0)] * 2 for _ in range(2)]
        assert reconstruct(system, {0: q}).is_zero()

    def test_worked_example_matrices(self):
        f = parse_polynomial("x^2 - 1/2*y^2", XY)
        g = parse_polynomial("x^2 + y^2", XY)
        h = parse_polynomial("x^2 - y^2", XY)
        system = build_gram_system(f, g, 0, (h,), Grading.single(2))
        q0 = [[Fraction(1, 4), Fraction(0)], [Fraction(0), Fraction(1, 4)]]
        q1 = [[Fraction(3, 4)]]
        assert reconstruct(system, {0: q0, 1: q1}) == f

    def test_dimension_mismatch(self):
        f = parse_polynomial("x^2 + y^2", XY)
        system = build_gram_system(f, sum_of_squared_variables(2), 0, (), Grading.single(2))
        with pytest.raises(ValueError):
            reconstruct(system, {0: [[Fraction(1)]]})


def random_square_sum(rng, n_vars, degree, count):
    monos = monomials_up_to(n_vars, degree)
    total = Polynomial.zero(n_vars)
    squares = []
    for _ in range(count):
        q = Polynomial(n_vars, {ev: Fraction(rng.randint(-2, 2)) for ev in monos})
        squares.append(q)
        total = total + q * q
    return total, squares


def test_any_exact_solution_reconstructs_target():
    # constraint assembly correctness: every exact solution of the linear
    # system reproduces the target, sampled via the exact nullspace
    rng = random.Random(5)
    for _ in range(10):
        target, squares = random_square_sum(rng, 2, 2, 2)
        if target.is_zero():
            continue
        system = build_gram_system(target, Polynomial.one(2), 0, (), Grading.single(2), prune=False)
        assert isinstance(system, GramSystem)
        basis = exponents(system.blocks[0])
        index = {ev: i for i, ev in enumerate(basis)}
        d = len(basis)
        q0 = [[Fraction(0)] * d for _ in range(d)]
        for q in squares:
            vec = [Fraction(0)] * d
            for ev, c in q.terms.items():
                vec[index[ev]] = c
            for i in range(d):
                for j in range(d):
                    q0[i][j] += vec[i] * vec[j]
        assert reconstruct(system, {0: q0}) == target
        kernel = ratlin.nullspace(system.rows, len(system.unknown_layout))
        for _ in range(3):
            vec = system.flatten({0: q0})
            for z in kernel:
                c = Fraction(rng.randint(-2, 2))
                vec = [v + c * zi for v, zi in zip(vec, z)]
            perturbed = system.unflatten(vec)
            assert reconstruct(system, perturbed) == target


def test_unconstrained_monomial_rows_are_all_independent():
    # no unknown is shared between rows, so elimination pivots every row
    rng = random.Random(17)
    targets = [random_square_sum(rng, n_vars, 2, 3)[0] for n_vars in (1, 2, 3) for _ in range(3)]
    motzkin = parse_polynomial("x^4*y^2 + x^2*y^4 - 3*x^2*y^2*z^2 + z^6", ["x", "y", "z"])
    targets += [motzkin * sum_of_squared_variables(3) ** k for k in range(4)]
    # the epsilon stage's targets f*g^(n+1), which it poses with every row
    eps = parse_problem((PROBLEMS / "epsilon_example.txt").read_text())
    targets += [eps.f * eps.g ** (n + 1) for n in (0, 1)]
    cases = [(target, Grading.single(target.n_vars)) for target in targets if not target.is_zero()]
    # a biquadratic form under the two-block grading (x, y | u, v)
    xyuv = ["x", "y", "u", "v"]
    bilinear = [parse_polynomial(text, xyuv) for text in ("x*u - 2*y*v", "3*x*v + y*u", "x*u + y*u - x*v")]
    cases.append((sum((q * q for q in bilinear), Polynomial.zero(4)), Grading(((0, 1), (2, 3)))))
    for target, grading in cases:
        system = build_gram_system(target, Polynomial.one(target.n_vars), 0, (), grading)
        assert isinstance(system, GramSystem)
        assert system.independent == tuple(range(len(system.rows)))


def test_system_is_an_immutable_value():
    f = parse_polynomial("x^2 - 1/2*y^2", XY)
    h = parse_polynomial("x^2 - y^2", XY)
    system = build_gram_system(f, sum_of_squared_variables(2), 0, (h,), Grading.single(2))
    assert isinstance(system, GramSystem)
    assert len(system.monomials) == len(system.rows) == len(system.rhs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.independent = ()


def test_pruning_preserves_feasibility_verdict():
    # 50 random small instances: the margin sign agrees with pruning on/off
    rng = random.Random(99)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 200:
        attempts += 1
        n_vars = rng.choice([1, 2])
        monos = monomials_up_to(n_vars, 2)
        f = Polynomial(n_vars, {ev: Fraction(rng.randint(-2, 2)) for ev in monos})
        f = f * f + Polynomial(n_vars, {tuple([0] * n_vars): Fraction(rng.randint(-1, 1))})
        if f.is_zero():
            continue
        verdicts = []
        for prune in (True, False):
            system = build_gram_system(f, Polynomial.one(n_vars), 0, (), Grading.single(n_vars), prune=prune)
            if not isinstance(system, GramSystem):
                # an exact obstruction counts as a (proved) infeasible verdict
                verdicts.append(False)
                continue
            sol = sdp.solve(driver.system_to_sdp(system), 1e-9, 100)
            if sol.status == sdp.MARGIN_FEASIBLE:
                verdicts.append(True)
            elif sol.status == sdp.MARGIN_NEGATIVE:
                verdicts.append(False)
            else:
                verdicts.append(None)
        if None in verdicts:
            continue  # borderline at tolerance: no verdict to compare
        assert verdicts[0] == verdicts[1], f"pruning changed the verdict for {f}"
        checked += 1
    assert checked == 50


def test_active_blocks_match_degree_obstruction():
    rng = random.Random(123)
    for _ in range(40):
        grading = rng.choice([Grading.single(2), Grading(((0,), (1,)))])
        def random_form(even):
            while True:
                degs = tuple(rng.randint(0, 2) * 2 if even else rng.randint(1, 4)
                             for _ in grading.blocks)
                if any(degs):
                    break
            from posicert.gram import exact_degree_monomials
            monos = exact_degree_monomials(grading, degs)
            terms = {ev: Fraction(rng.randint(-2, 2)) for ev in monos}
            p = Polynomial(2, terms)
            return p if not p.is_zero() else random_form(even)
        f, g = random_form(False), random_form(False)
        h = (random_form(True),)
        out = build_gram_system(f, g, 1, h, grading)
        if not isinstance(out, GramSystem):
            continue
        target = f * g
        expected = []  # the product indices whose multiplier leaves an even, nonnegative degree
        for e in itertools.product((0, 1), repeat=len(h)):
            multiplier = h[0] if e[0] else Polynomial.one(2)
            need = tuple(
                dt - dm for dt, dm in zip(target.multidegree(grading), multiplier.multidegree(grading))
            )
            if all(d >= 0 and d % 2 == 0 for d in need):
                expected.append(e)
        assert [block.product_index for block in out.blocks] == expected
        assert all(block.generators for block in out.blocks)


def test_multipliers_are_formed_only_where_degrees_leave_a_basis(monkeypatch):
    # x^4 + y^4 + 1 under h_i = x^2 + i*y^2 + 1 is not graded: of the 2^12
    # product indices the 79 with at most two factors have a basis, and
    # forming only their multipliers takes 12 + 2*66 products (and one for
    # the target), not the 12 * 2^11 of every product h^e
    f = parse_polynomial("x^4 + y^4 + 1", XY)
    constraints = tuple(parse_polynomial(f"x^2 + {i}*y^2 + 1", XY) for i in range(1, 13))
    expected = [e for e in itertools.product((0, 1), repeat=12) if sum(e) <= 2]
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda self, other: products.append(1) or mul(self, other))
    target, blocks = gram._blocks(f, Polynomial.one(2), 0, constraints, Grading.single(2), prune=True)
    assert len(products) <= 1 + sum(map(sum, expected)) == 145
    monkeypatch.undo()
    assert [block.product_index for block in blocks] == expected
    for block in blocks:
        assert block.multiplier == math.prod((h for h, e_i in zip(constraints, block.product_index) if e_i), start=Polynomial.one(2))
        assert len(block.generators) == len(monomials_up_to(2, (4 - 2 * sum(block.product_index) + 1) // 2))
    system = build_reduced_system(f, Polynomial.one(2), 0, constraints, Grading.single(2))
    assert sorted({block.product_index for block in system.blocks}) == expected


def _built_systems():
    """Every system the search builds first for the bundled problems, and
    the square under h = x^2 - y^2 at n = 0 and 1, whose face empties a block."""
    for path in sorted(PROBLEMS.glob("*.txt")):
        spec = parse_problem(path.read_text())
        for exponent in {"certify": (0, 1), "check-sos": (0,), "odd-power": (1, 3), "epsilon-margin": (0, 1)}[spec.mode]:
            yield pytest.param(lambda spec=spec, exponent=exponent: driver.exponent_system(spec, exponent)[0], id=f"{path.stem}_{exponent}")
    square = parse_polynomial("(x^2 - y^2)^2", XY)
    hs = (parse_polynomial("x^2 - y^2", XY),)
    for n in (0, 1):
        yield pytest.param(lambda n=n: build_reduced_system(square, sum_of_squared_variables(2), n, hs, Grading.single(2)), id=f"square_n{n}")


@pytest.mark.parametrize("build", _built_systems())
def test_no_built_system_holds_an_empty_block(build):
    system = build()
    if not isinstance(system, GramSystem):
        return
    assert all(block.generators for block in system.blocks)
    assert system.active_indices == list(range(len(system.blocks)))


MOTZKIN = "x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2"
XYZ = ["x", "y", "z"]


def _sign_symmetric_cases():
    """(target, S) of Motzkin*g^k, k = 1..3, and of Stengle's f^3, with S
    the variables in which every exponent of the target is even."""
    motzkin = parse_polynomial(MOTZKIN, XYZ)
    for k in (1, 2, 3):
        yield pytest.param(motzkin * sum_of_squared_variables(3) ** k, (0, 1, 2), id=f"motzkin_g{k}")
    stengle = parse_problem((PROBLEMS / "stengle.txt").read_text())
    yield pytest.param(stengle.f**3, (1,), id="stengle_f3")  # even in y only


class TestSignClasses:
    def test_no_sign_symmetry_keeps_one_block(self):
        # a dense ternary sextic, drawn as the random-SOS suite draws them,
        # has odd exponents in every variable
        target, _ = random_square_sum(random.Random(733), 3, 3, 4)
        args = (target, Polynomial.one(3), 0, (), Grading.single(3))
        system = build_reduced_system(*args)
        assert len(system.blocks) == 1
        assert system.blocks[0].generators == build_gram_system(*args).blocks[0].generators

    def test_constraints_take_part_in_the_symmetry(self):
        # x^4 + 1 alone is even in x and splits; under h = x it is not
        # invariant under x -> -x, and each product index keeps one block
        f = parse_polynomial("x^4 + 1", ["x"])
        one = Polynomial.one(1)
        plain = build_reduced_system(f, one, 0, (), Grading.single(1))
        assert [exponents(block) for block in plain.blocks] == [((0,), (2,)), ((1,),)]
        h = parse_polynomial("x", ["x"])
        system = build_reduced_system(f, one, 0, (h,), Grading.single(1))
        assert [block.product_index for block in system.blocks] == [(0,), (1,)]
        assert system.blocks == build_gram_system(f, one, 0, (h,), Grading.single(1)).blocks

    @pytest.mark.parametrize("target, even", _sign_symmetric_cases())
    def test_classes_of_a_sign_symmetric_target(self, target, even):
        one = Polynomial.one(target.n_vars)
        grading = Grading.single(target.n_vars)
        assert [i for i in range(target.n_vars) if all(ev[i] % 2 == 0 for ev in target.terms)] == list(even)
        system = build_reduced_system(target, one, 0, (), grading)
        assert len(system.blocks) > 1
        # within a block every product of generators is even on S
        for block in system.blocks:
            for a in block.generators:
                for b in block.generators:
                    assert all(ev[i] % 2 == 0 for ev in (a * b).terms for i in even)
        # the classes before the face partition the pruned basis
        pruned = build_gram_system(target, one, 0, (), grading).block_dim(0)
        before = [size for size, _ in system.face[1]] if system.face else [len(b.generators) for b in system.blocks]
        assert sum(before) == pruned
        # an exact solution of the split rows reproduces the target
        identity = {
            b: [[Fraction(int(i == j)) for j in range(system.block_dim(b))] for i in range(system.block_dim(b))]
            for b in system.active_indices
        }
        assert reconstruct(system, project_to_constraints(identity, system)) == target


def test_epsilon_certify_stage_with_odd_terms_is_not_split(monkeypatch):
    # g*f - e*(x + y)^4 has the odd terms x^3*y and x*y^3: the certify stage
    # poses one block, and certifies e = 3/16 as the unsplit search did
    spec = parse_problem(
        'vars = x, y\nf = "x^2 + y^2"\ng = "x^2 + y^2"\nh_margin = "(x + y)^2"\nmode = epsilon-margin\nn_max = 1\n'
    )
    systems = []
    build = driver.build_reduced_system
    monkeypatch.setattr(driver, "build_reduced_system", lambda *a: systems.append(build(*a)) or systems[-1])
    report = driver.epsilon_margin(spec)
    assert report.outcome == driver.OUTCOME_CERTIFICATE
    assert (report.epsilon, report.epsilon_exponent) == (Fraction(3, 16), 0)
    assert len(systems) == 2 and all(len(system.blocks) == 1 for system in systems)


@pytest.mark.parametrize(
    "text, variables, zeros",
    [
        ("x^4 + y^4 + z^4 + w^4 + x^2*y^2 + y^2*z^2 + z^2*w^2", ["x", "y", "z", "w"], 0),
        ("(x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2)*(x^2 + y^2 + z^2)", ["x", "y", "z"], 12),
    ],
)
def test_grid_zeros_are_evaluated_exactly_only_where_floats_cannot_decide(monkeypatch, text, variables, zeros):
    # the float pass decides every grid point where the target is not zero;
    # exact evaluation is left to the zeros and the face restriction at them
    target = parse_polynomial(text, variables)
    points = []
    evaluate = Polynomial.evaluate
    monkeypatch.setattr(Polynomial, "evaluate", lambda self, point: points.append(tuple(point)) or evaluate(self, point))
    system = build_reduced_system(target, Polynomial.one(len(variables)), 0, (), Grading.single(len(variables)))
    found = system.face[0] if system.face else ()
    assert len(found) == zeros
    assert set(points) == set(found)
    assert len(points) == zeros  # one per zero, the target's own; the face rows read the grid's signs


ROBINSON = (
    "x^6 + y^6 + z^6 - x^4*y^2 - x^2*y^4 - x^4*z^2 - x^2*z^4 - y^4*z^2 - y^2*z^4 + 3*x^2*y^2*z^2"
)


def _reference_face(f, g, n, constraints, grading):
    """The split blocks and the face by exact evaluation everywhere: the
    grid's signs, each multiplier and each generator by Polynomial.evaluate
    at each zero.  Returns (split blocks, face blocks, zeros, sizes), with
    the blocks the face empties left out of the face blocks."""
    target, blocks = gram._blocks(f, g, n, constraints, grading, prune=True)
    blocks = gram._sign_classes(target, blocks, constraints)
    zeros = tuple(
        z
        for z in itertools.product((-1, 0, 1), repeat=target.n_vars)
        if any(z) and target.evaluate(z) == 0 and all(h.evaluate(z) >= 0 for h in constraints)
    )
    face_blocks, sizes = [], []
    for block in blocks:
        gens = block.generators
        inside = [z for z in zeros if block.multiplier.evaluate(z) > 0]
        rows = [row for z in inside if (row := {i: v for i, gen in enumerate(gens) if (v := gen.evaluate(z))})]
        if not rows:
            face_blocks.append(block)
            continue
        kernel = ratlin.nullspace(rows, len(gens))
        combos = (sum((c * gen for c, gen in zip(vec, gens) if c), Polynomial.zero(target.n_vars)) for vec in kernel)
        sizes.append((len(gens), len(kernel)))
        if kernel:
            face_blocks.append(dataclasses.replace(block, generators=tuple(combos)))
    return blocks, tuple(face_blocks), zeros, tuple(sizes)


def _face_cases():
    motzkin = parse_polynomial(MOTZKIN, XYZ)
    g_xyz = sum_of_squared_variables(3)
    for k in (1, 2, 3):
        yield pytest.param(motzkin, g_xyz, k, (), id=f"motzkin_g{k}")
    yield pytest.param(parse_polynomial(ROBINSON, XYZ), g_xyz, 1, (), id="robinson_g1")
    square = parse_polynomial("(x^2 - y^2)^2", XY)
    for hs in (["x*y"], ["x^2 - y^2"], ["x*y", "x^2 - y^2"]):
        for n in (0, 1):
            h = tuple(parse_polynomial(text, XY) for text in hs)
            yield pytest.param(square, sum_of_squared_variables(2), n, h, id=f"square_h[{', '.join(hs)}]_n{n}")


@pytest.mark.parametrize("f, g, n, constraints", _face_cases())
def test_face_rows_match_exact_evaluation(f, g, n, constraints):
    grading = Grading.single(f.n_vars)
    blocks, face_blocks, zeros, sizes = _reference_face(f, g, n, constraints, grading)
    system = build_reduced_system(f, g, n, constraints, grading)
    assert sizes  # every case has a face
    assert system.face[0] == zeros
    if system.face[1]:
        assert (system.blocks, system.face[1]) == (face_blocks, sizes)
    else:  # an empty or infeasible face keeps the split blocks
        assert system.blocks == blocks


class TestFaceGridBound:
    def test_many_variables_skip_the_grid(self):
        # 3^20 - 1 grid points would not fit in memory; the face is not sought
        n_vars = 20
        f = sum_of_squared_variables(n_vars)
        system = build_reduced_system(f, Polynomial.one(n_vars), 0, (), Grading.single(n_vars))
        assert isinstance(system, GramSystem) and system.face == ()
        spec = parse_problem(f"vars = {', '.join(f'x{i}' for i in range(n_vars))}\nf = \"{f}\"\nmode = check-sos\n")
        report = driver.certify(spec)
        assert report.outcome == driver.OUTCOME_CERTIFICATE

    def test_grid_signs_at_the_bound_take_bounded_memory(self):
        # (x0^4 + ... + x9^4)*g^3 has 1,750 terms, signed at all 3^10 - 1
        # grid points: a monomial table over them all takes 0.8 GB, and its
        # absolute value as much again; the float pass holds slices of
        # FLOAT_PASS_ENTRIES entries
        n_vars = gram.FACE_GRID_VARS
        f = sum((Polynomial.monomial(n_vars, [4 * (j == i) for j in range(n_vars)]) for i in range(n_vars)), Polynomial.zero(n_vars))
        g = sum_of_squared_variables(n_vars)
        assert len(f * g**3) == 1750
        tracemalloc.start()
        try:
            system = build_reduced_system(f, g, 3, (), Grading.single(n_vars))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(system, GramSystem) and system.face == ()  # no grid zero
        assert peak < 2**28

    def test_boundary_target_at_the_bound_is_restricted(self):
        n_vars = gram.FACE_GRID_VARS
        variables = [f"x{i}" for i in range(n_vars)]
        f = parse_polynomial("(x0 - x1)^2 + " + " + ".join(f"{v}^2" for v in variables[2:]), variables)
        system = build_reduced_system(f, Polynomial.one(n_vars), 0, (), Grading.single(n_vars))
        zeros, sizes = system.face
        assert set(zeros) == {(1, 1) + (0,) * (n_vars - 2), (-1, -1) + (0,) * (n_vars - 2)}
        # the class of x0 and x1, even on x2..x9, comes first and alone has rows
        assert sizes == ((2, 1),)
        assert system.blocks[0].generators == (parse_polynomial("x0 - x1", variables),)
