"""The benchmark's traced entry points still exist in posicert.

perfbench/tracing.py wraps posicert functions by module and name, and its
hooks read attributes off their arguments and results; a refactor that
renames or deletes either breaks every traced benchmark run.
"""

import importlib
import importlib.util
import pathlib
from dataclasses import replace

import numpy as np

from posicert import driver, exact, gram, sdp
from posicert.parsing import parse_polynomial, parse_problem
from posicert.poly import Grading, Polynomial, sum_of_squared_variables

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    targets = load_tracing().TARGETS
    assert targets
    for module, function, *_ in targets:
        owner = importlib.import_module(f"posicert.{module}")
        assert callable(getattr(owner, function, None)), f"posicert.{module}.{function}"
    assert "__mul__" in vars(Polynomial)  # wrapped on the class


def _real_calls():
    """(module, function) -> (positional args, result) of one real call each,
    on x^2 + y^2 with multiplier x^2 + y^2, and the face system of Motzkin's
    form times x^2 + y^2 + z^2."""
    spec = parse_problem(
        'vars = x, y\nf = "x^2 + y^2"\ng = "x^2 + y^2"\nh_margin = "x*y"\n'
        "mode = epsilon-margin\nn_max = 0\n"
    )
    odd_spec = replace(spec, m_max=1)
    system = gram.build_gram_system(spec.f, spec.g, 0, (), spec.grading)
    xyz = ("x", "y", "z")
    motzkin = parse_polynomial("x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2", xyz)
    face_args = (motzkin, sum_of_squared_variables(3), 1, (), Grading.single(3))
    problem = driver.system_to_sdp(system)
    solution = sdp.solve(problem)
    q_rat = {
        b: exact.round_to_rational(x + solution.t_star * np.eye(len(x)), 100)
        for b, x in zip(system.active_indices, solution.x_blocks)
    }
    q_proj = exact.project_to_constraints(q_rat, system)
    block = next(iter(q_proj.values()))
    meta = dict(variables=spec.variables, f=spec.f, g=spec.g, constraints=(), n=0)
    cert = exact.certificate_from_gram(system, q_proj, **meta)
    return {
        ("gram", "build_gram_system"): ((spec.f, spec.g, 0, (), spec.grading), system),
        ("gram", "build_reduced_system"): (face_args, gram.build_reduced_system(*face_args)),
        ("sdp", "solve"): ((problem,), solution),
        ("exact", "project_to_constraints"): ((q_rat, system), q_proj),
        ("exact", "exact_ldlt"): ((block,), exact.exact_ldlt(block)),
        ("exact", "certificate_from_gram"): ((system, q_proj), cert),
        ("exact", "format_certificate"): ((cert,), exact.format_certificate(cert)),
        ("driver", "positivity_precheck"): ((spec,), driver.positivity_precheck(spec, samples=10)),
        ("driver", "certify"): ((spec,), driver.certify(spec)),
        ("driver", "odd_power"): ((odd_spec,), driver.odd_power(odd_spec)),
        ("driver", "epsilon_margin"): ((spec,), driver.epsilon_margin(spec)),
    }


def test_trace_hooks_read_real_results():
    # the hooks read attributes off arguments and results (problem.block_dims,
    # solution.iterations, system.independent, report.records, ...); call each
    # one directly, without install, so nothing in posicert is patched
    tracing = load_tracing()
    calls = _real_calls()
    tracer = tracing.Tracer()
    for module, function, _, _, hook in tracing.TARGETS:
        if hook is None:
            continue
        assert (module, function) in calls, f"no real call for the hook of {module}.{function}"
        args, result = calls[module, function]
        hook(tracer, args, result)
    assert tracer.counts["sdp.iterations"] == calls["sdp", "solve"][1].iterations > 0
    assert tracer.counts["driver.exponents"] == 3
    assert tracer.maxima["gram.rows_max"] > 0
    assert tracer.maxima["gram.dim_max"] == 2  # the largest sign class of Motzkin*g's face, not its full basis of 9
    assert tracer.counts["exact.cert_bytes"] > 0
    tracer.metrics(1.0)
