"""Search orchestration: scans, precheck, epsilon mode, determinism."""

import dataclasses
import hashlib
import importlib.util
import itertools
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posicert import driver, gram, ratlin, sdp
from posicert.driver import (
    certify,
    epsilon_margin,
    odd_power,
    positivity_precheck,
    system_to_sdp,
)
from posicert.exact import format_certificate, lift_certificate, verify_certificate
from posicert.gram import GramSystem, build_gram_system, build_reduced_system, monomials_up_to
from posicert.parsing import ParseError, parse_polynomial, parse_problem
from posicert.poly import Grading, Polynomial, SignFilter, sum_of_squared_variables

XY = ["x", "y"]
XYZ = ["x", "y", "z"]
PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def make_spec(f_text, variables, **kwargs):
    f = parse_polynomial(f_text, variables)
    defaults = dict(
        variables=tuple(variables),
        grading=Grading.single(len(variables)),
        f=f,
        g=sum_of_squared_variables(len(variables)),
        constraints=(),
        mode="certify",
        n_max=4,
    )
    defaults.update(kwargs)
    from posicert.parsing import ProblemSpec

    return ProblemSpec(**defaults)


class TestCertify:
    def test_circle_at_zero(self):
        report = certify(make_spec("x^2 + y^2", XY))
        assert report.outcome == "certificate"
        cert = report.certificate
        assert cert.n == 0
        assert verify_certificate(cert).valid
        total = Polynomial.zero(2)
        for block in cert.blocks:
            for sq in block.squares:
                total = total + sq.weight * sq.poly * sq.poly
        assert total == cert.f

    def test_worked_constrained_example(self):
        spec = make_spec(
            "x^2 - 1/2*y^2",
            XY,
            g=parse_polynomial("x^2 + y^2", XY),
            constraints=(parse_polynomial("x^2 - y^2", XY),),
            n_max=2,
        )
        report = certify(spec)
        assert report.outcome == "certificate"
        assert report.certificate.n == 0
        assert verify_certificate(report.certificate).valid

    def test_square_under_two_constraints_certifies_at_zero(self):
        # the margin solve ends borderline (t* about -4e-10) and the blocks
        # whose multiplier holds x^2 - y^2 keep a zero eigenvalue; rounding
        # on one denominator per rung still lands on a PSD point at n = 0
        spec = make_spec(
            "(x^2 - y^2)^2",
            XY,
            constraints=(parse_polynomial("x*y", XY), parse_polynomial("x^2 - y^2", XY)),
            n_max=1,
        )
        report = certify(spec)
        assert report.outcome == "certificate"
        assert report.certificate.n == 0
        assert verify_certificate(report.certificate).valid

    def test_check_sos_pins_n_and_drops_constraints(self):
        spec = make_spec(
            "x^2 + y^2",
            XY,
            mode="check-sos",
            constraints=(parse_polynomial("x^2 - y^2", XY),),
        )
        report = certify(spec)
        assert report.mode == "check-sos"
        assert [rec.exponent for rec in report.records] == [0]
        assert report.certificate.constraints == ()

    def test_parity_infeasible_scan_is_sound(self):
        # homogeneous odd-degree target: every n is parity infeasible, and an
        # independent sign check proves no representation exists at all
        spec = make_spec("x^3", ["x"], g=parse_polynomial("x^2", ["x"]), n_max=3)
        report = certify(spec)
        assert report.outcome == "not_found"
        assert all(rec.status == driver.PARITY_INFEASIBLE for rec in report.records)
        f = spec.f
        assert f.evaluate([-1]) < 0  # negative somewhere: certainly not SOS

    def test_zero_target_certifies_trivially(self):
        # the empty sum, at the first exponent of every scan that certifies
        for search, mode, first in ((certify, "certify", 0), (certify, "check-sos", 0), (odd_power, "odd-power", 1)):
            report = search(make_spec("0", XY, mode=mode))
            assert report.outcome == "certificate"
            assert [(rec.exponent, rec.status, rec.note) for rec in report.records] == [
                (first, driver.CERTIFIED, "zero target")
            ]
            assert report.certificate.blocks == ()
            assert verify_certificate(report.certificate).valid

    def test_constant_g_scans_once(self):
        spec = make_spec("x^2 - y^2", XY, g=Polynomial.one(2), n_max=6)
        report = certify(spec)
        assert len(report.records) == 1
        assert report.warnings

    def test_scan_determinism(self):
        spec = make_spec(
            "x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2",
            XYZ,
            g=parse_polynomial("x^2 + y^2 + z^2", XYZ),
        )
        first = certify(spec)
        second = certify(spec)
        assert first == second


class TestOddPower:
    def test_already_sos_stops_at_one(self):
        spec = make_spec("x^2 + y^2", XY, mode="odd-power", m_max=5)
        report = odd_power(spec)
        assert report.outcome == "certificate"
        assert report.records[-1].exponent == 1
        assert verify_certificate(report.certificate).valid

    def test_certificate_is_verified_once(self, monkeypatch):
        # the identity proved is the one reported, f * f^(m-1) = f^m
        calls = []

        def counting(cert):
            calls.append(cert)
            return verify_certificate(cert)

        monkeypatch.setattr(driver, "verify_certificate", counting)
        spec = make_spec("x^2 + y^2", XY, mode="odd-power", m_max=5)
        report = odd_power(spec)
        assert report.outcome == "certificate"
        assert calls == [report.certificate]
        assert (report.certificate.f, report.certificate.g, report.certificate.n) == (spec.f, spec.f, 0)

    def test_positive_definite_perturbation_finds_odd_power(self):
        spec = make_spec(
            "x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2 + 1/8*(x^2 + y^2 + z^2)^3",
            XYZ,
            mode="odd-power",
            m_max=3,
        )
        report = odd_power(spec)
        assert report.outcome == "certificate"
        m = report.records[-1].exponent
        assert m % 2 == 1
        cert = report.certificate
        assert cert.f * cert.g**cert.n == spec.f**m
        assert verify_certificate(cert).valid


@pytest.mark.parametrize("search", [certify, epsilon_margin])
def test_negative_n_max_is_refused(search):
    # the scans index their last exponent: a negative bound must not reach them
    spec = parse_problem((PROBLEMS / "epsilon_example.txt").read_text())
    with pytest.raises(ParseError, match="n_max"):
        search(dataclasses.replace(spec, n_max=-1))


class TestEpsilonMargin:
    def test_strictly_positive_form_gets_positive_margin(self):
        spec = make_spec(
            "x^2 + y^2",
            XY,
            mode="epsilon-margin",
            g=parse_polynomial("x^2 + y^2", XY),
            h_margin=parse_polynomial("x*y", XY),
            n_max=0,
        )
        report = epsilon_margin(spec)
        assert report.outcome == "certificate"
        assert report.epsilon == 3  # true optimum is 4, shrunk by 3/4
        assert verify_certificate(report.certificate).valid

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_shrink_is_the_first_small_denominator_inside_the_slack(self, value):
        # any rational in (0, 0.8*epsilon*] is safe; the shrink takes 3/4 of
        # epsilon* at the first denominator bound that stays in that interval
        shrunk = driver._shrink_rationalize(value)
        assert 0 < shrunk <= Fraction(0.8 * value)
        target = Fraction(0.75 * value)
        inside = [
            candidate
            for candidate in (target.limit_denominator(bound) for bound in (16, 1024, 10**6, 10**9))
            if 0 < candidate <= Fraction(0.8 * value)
        ]
        assert shrunk == (inside[0] if inside else target)

    def test_zero_margin_polynomial_rejected(self):
        # a zero h_margin leaves epsilon unbounded: the spec itself is refused
        with pytest.raises(ValueError, match="h_margin: .*unbounded"):
            epsilon_margin(make_spec("x^2 + y^2", XY, mode="epsilon-margin", h_margin=Polynomial.zero(2), n_max=0))

    def test_each_system_is_row_reduced_once(self, monkeypatch):
        # n = 0, 1: one epsilon system and one certify system each
        calls = {"assemble": 0, "row_reduce": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(gram, "_assemble", counting("assemble", gram._assemble))
        monkeypatch.setattr(ratlin, "row_reduce", counting("row_reduce", ratlin.row_reduce))
        report = epsilon_margin(parse_problem((PROBLEMS / "epsilon_example.txt").read_text()))
        assert report.outcome == "certificate"
        assert calls == {"assemble": 4, "row_reduce": 4}

    def test_zero_of_f_forces_epsilon_to_zero(self):
        spec = make_spec(
            "(x - y)^2",
            XY,
            mode="epsilon-margin",
            h_margin=parse_polynomial("x^2", XY),
            n_max=1,
        )
        report = epsilon_margin(spec)
        assert report.outcome in ("not_found", "unknown")
        stage_one = [r for r in report.records if r.t_star is not None]
        assert stage_one and all(r.t_star <= 1e-5 for r in stage_one)


class TestPrecheck:
    def test_strictly_positive_is_clean(self):
        result = positivity_precheck(make_spec("x^2 + y^2", XY), samples=1000)
        assert result.negative is None and result.zero is None

    def test_indefinite_form_has_negative_point(self):
        result = positivity_precheck(make_spec("x^2 - y^2", XY), samples=200)
        assert result.negative is not None
        point, which, value = result.negative
        assert which == "f" and value < 0

    def test_nonnegative_with_zeros(self):
        spec = make_spec("x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2", XYZ,
                         g=parse_polynomial("x^2 + y^2 + z^2", XYZ))
        result = positivity_precheck(spec, samples=500)
        assert result.negative is None  # no counterexample to nonnegativity
        assert result.zero is not None  # the grid hits the zero rays exactly

    def test_constraints_filter_points(self):
        spec = make_spec(
            "x^2 - 1/2*y^2",
            XY,
            constraints=(parse_polynomial("x^2 - y^2", XY),),
        )
        result = positivity_precheck(spec, samples=800)
        assert result.negative is None
        assert result.kept < result.total

    def test_empty_feasible_set_warns(self):
        spec = make_spec(
            "x^2 + y^2",
            XY,
            constraints=(parse_polynomial("-1 - x^2", XY),),
        )
        result = positivity_precheck(spec, samples=100)
        assert result.kept == 0
        assert result.warnings

    def test_seeded_determinism(self):
        spec = make_spec("x^2 - y^2", XY)
        a = positivity_precheck(spec, samples=300, seed=7)
        b = positivity_precheck(spec, samples=300, seed=7)
        assert a == b

    def test_points_are_drawn_in_lazy_batches(self):
        # a list of 10^12 draws could never be built; the stream yields at once
        num, den = next(driver._sample_batches(2, 10**12, graded=False, seed=0))
        assert 4 <= len(num) <= driver._PRECHECK_BATCH
        assert (np.gcd(num, den) == 1).all() and (den > 0).all()  # lowest terms
        v, quarter, four_v, w = (tuple(map(Fraction, num[i].tolist(), den[i].tolist())) for i in range(4))
        assert quarter == tuple(c / 4 for c in v) and four_v == tuple(4 * c for c in v)
        assert w != v
        # each draw goes to the nearest multiple of 10^-4
        rng = random.Random(0)
        assert v == tuple(Fraction(round(rng.gauss(0.0, 1.0) * 10**4), 10**4) for _ in range(2))
        num, den = next(driver._sample_batches(2, 10**12, graded=True, seed=0))
        assert len(num) == driver._PRECHECK_BATCH and (10**4 % den == 0).all()

    def test_only_draws_rounding_to_the_origin_are_skipped(self, monkeypatch):
        values = iter([0.0, 0.3, 1e-6, -2e-5, 0.5, 0.25])  # the middle draw rounds to (0, 0)

        class Scripted:
            def __init__(self, seed):
                pass

            def gauss(self, mu, sigma):
                return next(values)

        monkeypatch.setattr(driver.random, "Random", Scripted)
        num, den = next(driver._sample_batches(2, 3, graded=True, seed=0))
        points = [tuple(map(Fraction, n, d)) for n, d in zip(num.tolist(), den.tolist())]
        assert points == [(0, Fraction(3, 10)), (Fraction(1, 2), Fraction(1, 4))]

    def test_batches_still_stream(self):
        # a batch design that listed every draw would never return
        result = positivity_precheck(make_spec("x^2 - y^2", XY), samples=10**12)
        assert result.negative is not None and result.total <= driver._PRECHECK_BATCH

    def test_no_point_sampled_warns_so(self):
        # more than 6 variables has no grid, so samples = 0 checks no point
        variables = list("abcdefg")
        spec = make_spec(" + ".join(f"{v}^2" for v in variables), variables)
        result = positivity_precheck(spec, samples=0)
        assert (result.kept, result.total) == (0, 0)
        assert result.warnings == (
            "no point was sampled (there is no grid beyond 6 variables): the precheck checked nothing",
        )
        assert positivity_precheck(spec, samples=1).warnings == ()

    def test_origin_is_decided_exactly(self, monkeypatch):
        # a point whose coordinates all round to 0.0 is not the origin
        tiny = (Fraction(1, 10**400), Fraction(0))
        num = np.array([[0, 0], [1, 0]], dtype=object)
        den = np.array([[1, 1], [10**400, 1]], dtype=object)
        monkeypatch.setattr(driver, "_sample_batches", lambda *args: iter([(num, den)]))
        result = positivity_precheck(make_spec("-x^2 - y^2", XY))
        assert result.negative == (tiny, "f", Fraction(-1, 10**800))
        assert (result.kept, result.total) == (1, 2)


def _grid(n_vars):
    """The precheck's grid on the parameter cube, as Fraction tuples."""
    res = driver._GRID_RESOLUTION.get(n_vars)
    if res is None:
        return
    half = (res - 1) // 2
    yield from itertools.product([Fraction(i - half, half) for i in range(res)], repeat=n_vars)


def _reference_precheck(spec, samples, seed):
    """The precheck as it was before batching: one point at a time, every
    value by Polynomial.evaluate, each draw rounded to the nearest multiple of
    10^-4 by round.
    The constraints filter the points in certify mode only, and g is checked
    in certify and epsilon-margin mode only."""
    constraints = spec.constraints if spec.mode == "certify" else ()
    checked = [("f", spec.f)] + ([("g", spec.g)] if spec.mode in ("certify", "epsilon-margin") else [])
    try:
        graded = spec.f.multidegree(spec.grading) is not None
    except ValueError:
        graded = False

    def sample_points(n_vars):
        rng = random.Random(seed)
        for _ in range(samples):
            vec = [Fraction(round(rng.gauss(0.0, 1.0) * 10**4), 10**4) for _ in range(n_vars)]
            if all(v == 0 for v in vec):
                continue
            yield tuple(vec)
            if not graded:
                yield tuple(v / 4 for v in vec)
                yield tuple(4 * v for v in vec)
        yield from _grid(n_vars)

    negative = zero = None
    kept = total = 0
    for point in sample_points(len(spec.variables)):
        total += 1
        if all(v == 0 for v in point):
            continue
        if any(h.evaluate(point) < 0 for h in constraints):
            continue
        kept += 1
        for which, poly in checked:
            value = poly.evaluate(point)
            if value < 0:
                if negative is None:
                    negative = (point, which, value)
            elif value == 0 and zero is None:
                zero = (point, which)
        if negative is not None:
            break
    return negative, zero, kept, total


def _parity_cases():
    for path in sorted(PROBLEMS.glob("*.txt")):
        spec = parse_problem(path.read_text())
        for seed in (0, 7):
            yield pytest.param(spec, 1000, seed, id=f"{path.stem}-{seed}")
    for seed in range(8):  # the first negative point ends the sampling mid-batch
        yield pytest.param(make_spec("x^2 - y^2", XY), 200, seed, id=f"indefinite-{seed}")
    # on the grid alone (samples = 0) the first negative point, in the first
    # batch (y = 3/5) or in the second (x = 3/5), is g's first zero, or comes
    # just before it (the zero at 7/10 must not be recorded)
    for v, root in itertools.product(("y", "x"), ("3/5", "7/10")):
        spec = make_spec(f"11/20 - {v}", XY, g=parse_polynomial(f"({v} - {root})^2", XY))
        yield pytest.param(spec, 0, 0, id=f"break-{v}-zero-at-{root}")
    constrained = make_spec("x^2 - 1/2*y^2", XY, constraints=(parse_polynomial("x^2 - y^2", XY),))
    empty = make_spec("x^2 + y^2", XY, constraints=(parse_polynomial("-1 - x^2", XY),))
    for seed in (0, 7):
        yield pytest.param(constrained, 800, seed, id=f"constrained-{seed}")
        yield pytest.param(empty, 100, seed, id=f"empty-{seed}")


@pytest.mark.parametrize("spec, samples, seed", _parity_cases())
def test_precheck_matches_the_pointwise_reference(spec, samples, seed):
    result = positivity_precheck(spec, samples=samples, seed=seed)
    assert (result.negative, result.zero, result.kept, result.total) == _reference_precheck(spec, samples, seed)


@pytest.mark.parametrize("root, zero", [("3/5", True), ("7/10", False)])
def test_zero_is_recorded_up_to_the_break_point(root, zero):
    # guards the parity cases above against passing vacuously
    spec = make_spec("11/20 - x", XY, g=parse_polynomial(f"(x - {root})^2", XY))
    result = positivity_precheck(spec, samples=0)
    point = (Fraction(3, 5), Fraction(-1))
    assert result.negative == (point, "f", Fraction(-1, 20))
    assert result.zero == ((point, "g") if zero else None)
    assert (result.kept, result.total) == (16 * 21, 16 * 21 + 1)  # the origin is skipped
    assert result.total > driver._PRECHECK_BATCH


# -- the float sign filter ----------------------------------------------------

_EXPONENTS = st.tuples(st.integers(0, 4), st.integers(0, 4))
_COEFFICIENTS = st.one_of(
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.sampled_from([Fraction(1, 10**400), Fraction(-(10**400)), Fraction(1, 10**5), Fraction(10**30)]),
)
_COORDINATES = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=10**4),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-1, 10**200), Fraction(10**100)]),
)
_POLYNOMIALS = st.one_of(
    st.dictionaries(_EXPONENTS, _COEFFICIENTS, max_size=6).map(lambda terms: Polynomial(2, terms)),
    st.just(Polynomial.zero(2)),
)
_POINTS = st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=12)


def _exact_batch(points):
    """Fraction points as numerators over denominators, Python ints (dtype object)."""
    batch = [[Fraction(c) for c in p] for p in points]
    num = np.array([[c.numerator for c in p] for p in batch], dtype=object).reshape(len(batch), -1)
    den = np.array([[c.denominator for c in p] for p in batch], dtype=object).reshape(num.shape)
    return num, den


def _assert_certified_signs_are_exact(poly, points):
    batch = [tuple(p) for p in points]
    num, den = _exact_batch(batch)
    exact = np.array([(v > 0) - (v < 0) for v in map(poly.evaluate, batch)])
    sign_filter = SignFilter(poly)
    certified = sign_filter.signs(num, den, np.zeros(len(batch), dtype=bool))
    decided = certified != 0  # the filter never certifies a zero
    assert np.array_equal(certified[decided], exact[decided])
    assert np.array_equal(sign_filter.signs(num, den, np.ones(len(batch), dtype=bool)), exact)
    return decided


@settings(max_examples=300, deadline=None)
@given(_POLYNOMIALS, _POINTS)
def test_certified_sign_is_the_exact_sign(poly, points):
    _assert_certified_signs_are_exact(poly, points)


_SMALL_POINTS = st.lists(
    st.tuples(st.integers(-(10**4), 10**4), st.integers(-(10**4), 10**4), st.integers(1, 10**4)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_POLYNOMIALS, _SMALL_POINTS)
def test_batch_forms_give_equal_signs(poly, rows):
    # int64 and dtype-object batches, and one integer den and an array of it,
    # give one float view and so the same certified and exact signs
    num = np.array([(x, y) for x, y, _ in rows], dtype=np.int64)
    den = np.array([(d, d) for _, _, d in rows], dtype=np.int64)
    same = den[:, 0] == den[0, 0]
    sign_filter = SignFilter(poly)
    for needed in (np.zeros(len(rows), dtype=bool), np.ones(len(rows), dtype=bool)):
        signs = sign_filter.signs(num, den, needed)
        assert np.array_equal(sign_filter.signs(num.astype(object), den.astype(object), needed), signs)
        common = sign_filter.signs(num[same], int(den[0, 0]), needed[same])
        assert np.array_equal(common, signs[same])
        assert np.array_equal(sign_filter.signs(num, 1, needed), sign_filter.signs(num, np.ones_like(num), needed))
    exact = [poly.evaluate((Fraction(x, d), Fraction(y, d))) for x, y, d in rows]
    assert np.array_equal(signs, [(v > 0) - (v < 0) for v in exact])  # the last pass needed every point


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3 * 10**10, 3 * 10**10), min_size=1, max_size=12))
def test_filter_leaves_near_cancellation_to_exact_arithmetic(offsets):
    # x^2 - y^2/10^45 at x = (root + k)/10^48, about 10^-22.5, and y = 1:
    # the exact value is at most 13 ulps (of 10^-45) from zero, the float
    # one may be off by two more, and the bound is about 28 ulps
    poly = Polynomial(2, {(2, 0): 1, (0, 2): Fraction(-1, 10**45)})
    root = 31622776601683793319988935  # floor(10^-22.5 * 10^48)
    points = [(Fraction(root + k, 10**48), Fraction(1)) for k in offsets]
    decided = _assert_certified_signs_are_exact(poly, points)
    assert not decided.any()


@pytest.mark.parametrize(
    "text, variables",
    [("x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2", XYZ), ("(x - 1/3*y)^2", XY)],
)
def test_filter_leaves_exact_zeros_to_exact_arithmetic(text, variables):
    poly = parse_polynomial(text, variables)
    grid = list(_grid(len(variables)))
    decided = _assert_certified_signs_are_exact(poly, grid)
    zeros = np.array([poly.evaluate(p) == 0 for p in grid])
    assert zeros.any() and not decided[zeros].any()
    assert decided[~zeros].mean() > 0.99  # and the filter does decide the rest


@pytest.mark.parametrize("x, y", [(Fraction(1, 10**200), Fraction(10**100)), (Fraction(1, 10**170), Fraction(10**50))])
def test_underflow_is_not_certified(x, y):
    # x^2 underflows to 0.0, so the float value is -10^-250 while the exact
    # one is positive; only the underflow allowance keeps it uncertain
    poly = Polynomial(2, {(2, 2): 1, (0, 0): Fraction(-1, 10**250)})
    assert poly.evaluate((x, y)) > 0
    decided = _assert_certified_signs_are_exact(poly, [(x, y)])
    assert not decided.any()


@pytest.mark.parametrize("coefficient", [Fraction(1, 10**400), Fraction(10**400)])
def test_coefficients_outside_the_normal_floats_are_not_filtered(coefficient):
    poly = Polynomial(2, {(2, 0): 1, (0, 2): coefficient})
    decided = _assert_certified_signs_are_exact(poly, [(Fraction(1), Fraction(2))])
    assert not SignFilter(poly).filtered and not decided.any()


MOTZKIN = "x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2"
G_XYZ = "x^2 + y^2 + z^2"
GRID = [z for z in itertools.product((-1, 0, 1), repeat=3) if any(z)]


class TestKernelRestriction:
    def test_boundary_instance_reduces_and_certifies(self):
        # the classical boundary case: margin exactly zero at n = 1
        f = parse_polynomial(MOTZKIN, XYZ)
        g = parse_polynomial(G_XYZ, XYZ)
        system = build_gram_system(f, g, 1, (), Grading.single(3))
        assert isinstance(system, GramSystem)
        solution = sdp.solve(system_to_sdp(system), 1e-8, 100)
        assert abs(solution.t_star) <= 1e-6  # genuinely on the boundary
        reduced = build_reduced_system(f, g, 1, (), Grading.single(3))
        assert isinstance(reduced, GramSystem)
        _, sizes = reduced.face
        # the full basis of 9, split into its four sign classes, each restricted
        assert sizes == ((2, 1), (2, 1), (2, 1), (3, 2))
        assert sum(before for before, _ in sizes) == system.block_dim(0)
        assert [reduced.block_dim(b) for b in range(4)] == [1, 1, 1, 2]
        reduced_solution = sdp.solve(system_to_sdp(reduced), 1e-8, 100)
        assert reduced_solution.status == sdp.MARGIN_FEASIBLE
        assert reduced_solution.t_star > 1e-3  # interior after the restriction

    @pytest.mark.parametrize("n, before, after", [(1, 9, 5), (2, 15, 11), (3, 22, 18), (4, 30, 26)])
    def test_restricted_generators_vanish_at_every_grid_zero(self, n, before, after):
        # the full basis (before) splits into four sign classes, each
        # restricted on its own; together they keep `after` generators
        f = parse_polynomial(MOTZKIN, XYZ)
        g = parse_polynomial(G_XYZ, XYZ)
        system = build_reduced_system(f, g, n, (), Grading.single(3))
        zeros, sizes = system.face
        assert list(zeros) == [z for z in GRID if system.target.evaluate(z) == 0]
        assert len(zeros) == 12
        assert [after for _, after in sizes] == [system.block_dim(b) for b in range(4)]
        assert sum(size for size, _ in sizes) == build_gram_system(f, g, n, (), Grading.single(3)).block_dim(0)
        assert (sum(size for size, _ in sizes), sum(size for _, size in sizes)) == (before, after)
        assert all(gen.evaluate(z) == 0 for block in system.blocks for gen in block.generators for z in zeros)

    def test_robinson_certifies_on_its_face(self):
        # the numeric kernel guess left R*g^2 undecided; its 20 grid zeros
        # cut its four sign classes of 6, 6, 6, 3 to 3, 3, 3, 2 (21 to 11
        # together) and the face has a positive margin
        robinson = (
            "x^6 + y^6 + z^6 - x^4*y^2 - x^2*y^4 - x^4*z^2 - x^2*z^4 - y^4*z^2 - y^2*z^4"
            " + 3*x^2*y^2*z^2"
        )
        spec = make_spec(f"({robinson})*({G_XYZ})^2", XYZ, mode="check-sos")
        report = certify(spec)
        assert report.outcome == driver.OUTCOME_CERTIFICATE
        assert report.records[0].note == "face-restricted at 20 zeros, block sizes 6 -> 3, 6 -> 3, 6 -> 3, 3 -> 2"
        assert verify_certificate(report.certificate).valid

    def test_empty_face_keeps_the_full_system(self):
        # pure Motzkin at n = 0: its 12 grid zeros remove every generator, so
        # the full system is solved and its margin is clearly negative; at
        # n = 1 the face is solved and certifies
        spec = parse_problem((PROBLEMS / "motzkin.txt").read_text())
        report = certify(dataclasses.replace(spec, n_max=1))
        first, second = report.records
        assert first.status == driver.MARGIN_NEGATIVE
        assert first.t_star <= -1
        assert first.note == "face restriction infeasible"
        assert second.status == driver.CERTIFIED
        assert second.note == FACE_NOTE
        assert report.certificate.n == 1

    def test_no_grid_zero_means_no_restriction(self, monkeypatch):
        perturbed = parse_problem((PROBLEMS / "perturbed_motzkin.txt").read_text())
        assert build_reduced_system(perturbed.f, perturbed.g, 1, (), Grading.single(3)).face == ()
        stengle = parse_problem((PROBLEMS / "stengle.txt").read_text())
        one = Polynomial.one(2)
        assert build_reduced_system(stengle.f**3, one, 0, (), stengle.grading).face == ()
        # Stengle m = 3 ends borderline: one rung, no face, no second solve
        calls = []
        solve = sdp.solve
        monkeypatch.setattr(driver.sdp, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
        record, cert = driver._attempt(stengle, 3, driver.SearchOptions())
        assert cert is None and record.status == driver.BORDERLINE
        assert record.rounding_attempts == 1
        assert len(calls) == 1

    def test_zero_outside_the_constraint_set_or_multiplier_is_skipped(self):
        # (x^2 - y^2)^2 vanishes at (+-1, +-1); x*y is negative at two of them
        f = parse_polynomial("(x^2 - y^2)^2", XY)
        one = Polynomial.one(2)
        h = parse_polynomial("x*y", XY)
        system = build_reduced_system(f, one, 0, (h,), Grading.single(2))
        zeros, sizes = system.face
        assert zeros == ((-1, -1), (1, 1))
        full = build_gram_system(f, one, 0, (h,), Grading.single(2))
        assert [before for before, _ in sizes] == [len(block.generators) for block in full.blocks]  # both multipliers are 1 there
        # x^2 - y^2 vanishes at all four zeros: its blocks keep their
        # generators, and only the two sign classes of multiplier 1 shrink,
        # the class of x*y to nothing, so it leaves the system
        h = parse_polynomial("x^2 - y^2", XY)
        system = build_reduced_system(f, one, 0, (h,), Grading.single(2))
        zeros, sizes = system.face
        assert len(zeros) == 4
        assert sizes == ((2, 1), (1, 0))
        assert [(block.multiplier, len(block.generators)) for block in system.blocks] == [(one, 1), (h, 1), (h, 1)]


def _stub_solution(status, t_star):
    return sdp.SdpSolution(
        status=status,
        t_star=t_star,
        x_blocks=[],
        y=np.zeros(0),
        s_blocks=[],
        gap=float("inf"),
        iterations=0,
    )


FACE_NOTE = "face-restricted at 12 zeros, block sizes 2 -> 1, 2 -> 1, 2 -> 1, 3 -> 2"


def _stubbed_step(monkeypatch, stage, status, t_star):
    """The record and certificate of one scan exponent whose one solve is
    stubbed to end with `status`: Motzkin at n = 1, which is solved on its
    face, or the epsilon stage of problems/epsilon_example.txt at n = 0."""
    monkeypatch.setattr(driver.sdp, "solve", lambda *a, **k: _stub_solution(status, t_star))
    if stage == "face":
        return driver._attempt(make_spec(MOTZKIN, XYZ, g=parse_polynomial(G_XYZ, XYZ)), 1, driver.SearchOptions())
    report = epsilon_margin(dataclasses.replace(parse_problem((PROBLEMS / "epsilon_example.txt").read_text()), n_max=0))
    (record,) = report.records
    return record, report.certificate


@pytest.mark.parametrize(
    "stage, status, t_star, note",
    [
        pytest.param("face", sdp.MAX_ITERATIONS, -293.0, FACE_NOTE, id="max_iterations--293.0"),
        pytest.param("face", sdp.MARGIN_NEGATIVE, -1e-3, FACE_NOTE, id="margin_negative--0.001"),
        pytest.param("epsilon", sdp.MAX_ITERATIONS, 2.5, "", id="epsilon-max_iterations-2.5"),
        pytest.param(
            "epsilon", sdp.MARGIN_NEGATIVE, -1e-3, "epsilon shrinks to zero", id="epsilon-margin_negative--0.001"
        ),
    ],
)
def test_face_solve_without_a_margin_is_recorded_as_it_ends(monkeypatch, stage, status, t_star, note):
    # the one solve, stubbed to end with `status`, leaves nothing to round:
    # not the face system, nor the epsilon stage's system
    record, cert = _stubbed_step(monkeypatch, stage, status, t_star)
    assert cert is None
    assert (record.status, record.t_star, record.note) == (status, t_star, note)
    assert record.rounding_attempts == 0


def test_face_solve_numerical_failure_propagates(monkeypatch):
    # one raise serves the margin solve and the epsilon stage's solve
    for stage, where in (("face", "at exponent 1"), ("epsilon", "in epsilon stage at n=0")):
        with pytest.raises(driver.NumericalFailureError, match=f"SDP solver failed {where}$"):
            _stubbed_step(monkeypatch, stage, sdp.NUMERICAL_FAILURE, float("nan"))


def test_monotonicity_lift_through_driver():
    spec = make_spec(
        "x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2",
        XYZ,
        g=parse_polynomial("x^2 + y^2 + z^2", XYZ),
    )
    report = certify(spec)
    cert = report.certificate
    lifted = lift_certificate(cert)
    assert lifted.n == cert.n + 2
    assert verify_certificate(lifted).valid


def test_slowly_converging_sum_of_squares_certifies():
    # the solve first moves away from its best early residual and converges
    # only after more than ten further iterations
    rng = random.Random("stall:46")
    total = Polynomial.zero(3)
    for _ in range(4):
        q = Polynomial(3, {ev: Fraction(rng.randint(-3, 3)) for ev in monomials_up_to(3, 3)})
        total = total + q * q
    spec = dataclasses.replace(make_spec("1", XYZ, mode="check-sos"), f=total)
    report = certify(spec)
    assert report.outcome == driver.OUTCOME_CERTIFICATE, report.records
    assert verify_certificate(report.certificate).valid


@pytest.mark.parametrize("k", [1, 2])
def test_one_solve_per_exponent(monkeypatch, k):
    # Motzkin times g^k has margin zero; its 12 grid zeros cut out a face
    # with a positive margin, which is solved once and certifies on the
    # first rung
    calls = []
    solve = sdp.solve
    monkeypatch.setattr(driver.sdp, "solve", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    spec = make_spec(f"({MOTZKIN})*({G_XYZ})^{k}", XYZ, mode="check-sos")
    report = certify(spec)
    assert report.outcome == driver.OUTCOME_CERTIFICATE
    (record,) = report.records
    assert record.status == driver.CERTIFIED
    assert record.rounding_attempts == 1
    assert record.note.startswith("face-restricted at 12 zeros")
    assert len(calls) == 1


@pytest.mark.parametrize("eps, bound", [("1/1000", 10**4), ("1/100000", 10**8)])
def test_small_margin_certifies_on_a_later_rung(eps, bound):
    # (M + eps*g^3)*g has margin about eps: rounding to denominators of 10^2
    # moves the Gram matrix by more than that, a finer rung does not
    spec = make_spec(f"({MOTZKIN} + {eps}*({G_XYZ})^3)*({G_XYZ})", XYZ, mode="check-sos")
    report = certify(spec)
    assert report.outcome == driver.OUTCOME_CERTIFICATE
    assert report.certificate.denominator_bound == bound


def test_solver_does_not_claim_inconsistent_systems():
    # two copies of the same row with different right-hand sides: no iterate
    # can be primal feasible, so the solver must not report a margin verdict
    e11 = np.array([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    problem = sdp.SdpProblem(
        block_dims=(2,),
        a_blocks=[e11],
        c=np.array([1.0, 1.0]),
        b=np.array([1.0, 2.0]),
    )
    solution = sdp.solve(problem, 1e-8, 60)
    assert solution.status in (sdp.NUMERICAL_FAILURE, sdp.MAX_ITERATIONS)


def test_independent_rows_outnumber_every_block():
    # the size refusal before assembly takes m >= max(d): a block's d
    # generators are independent and its multiplier is nonzero, so its d
    # products h^e*b_1*b_j are independent rows.  Checked on every problem
    # scripts/compare_runs.py runs, at the exponents its mode scans first
    path = PROBLEMS.parent / "scripts" / "compare_runs.py"
    loader = importlib.util.spec_from_file_location("compare_runs", path)
    compare_runs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(compare_runs)
    specs = [parse_problem(text) for _, text in compare_runs._documents()]
    specs += [spec for _, spec in compare_runs._random_sos(8, 733)]
    systems = 0
    for spec in specs:
        for n in compare_runs.FIRST_EXPONENTS[spec.mode]:
            system, _ = driver.exponent_system(spec, n)
            if isinstance(system, GramSystem):
                assert len(system.independent) >= max(system.block_dim(b) for b in system.active_indices)
                systems += 1
    assert systems >= 40


def test_numerical_failure_propagates(monkeypatch):
    spec = make_spec("x^2 + y^2", XY)
    monkeypatch.setattr(driver.sdp, "solve", lambda *a, **k: _stub_solution(sdp.NUMERICAL_FAILURE, float("nan")))
    with pytest.raises(driver.NumericalFailureError):
        certify(spec)


# SHA-256 of format_certificate for fast runs: any change to the arithmetic
# or to the Gram point that moves a byte of a certificate fails here.  The
# sign-symmetric Motzkin pins were taken once the search split each block by
# sign class.  The perturbed Motzkin and odd-power pins were retaken once
# rounding put each rung on one denominator; the other two held through it.
# The Motzkin*g and odd-power pins were retaken again once each iterate's
# Schur solves went through one inverse of R: only the float "margin =" line
# (t*'s last digits) moved, and each text without that line is byte-identical
# to the one pinned before
PINNED_CERTIFICATES = {
    "motzkin_g_check_sos": (
        'vars = x, y, z\nf = "(x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2)*(x^2 + y^2 + z^2)"\nmode = check-sos\n',
        "8288075fd1b1c624d5a63962bdbb1283075f602bfda25d38d294988a3f6126e7",
    ),
    "perturbed_motzkin.txt": (None, "0d73d38968a7f116b79ef9219e762a14d08a1aebc43abc0c3b6ac7a8953f2ece"),
    "constrained_example.txt": (None, "dfe27d7f671327c9504912c56e25c8dfe129377b460811dc1b84b5b7e28d750d"),
    "odd_power_m1": (
        'vars = x, y\nf = "x^4 + y^4 + x^2*y^2 - x*y^3"\nmode = odd-power\nm_max = 1\n',
        "98439946b3787a9c9969e4a93ac03fe001f5d76f127cc52ea3118afa3cb9b059",
    ),
}


@pytest.mark.parametrize("name", PINNED_CERTIFICATES)
def test_certificate_bytes_are_pinned(name):
    text, digest = PINNED_CERTIFICATES[name]
    spec = parse_problem(text if text is not None else (PROBLEMS / name).read_text())
    report = (odd_power if spec.mode == "odd-power" else certify)(spec)
    assert report.outcome == driver.OUTCOME_CERTIFICATE
    assert verify_certificate(report.certificate).valid
    assert hashlib.sha256(format_certificate(report.certificate).encode()).hexdigest() == digest
