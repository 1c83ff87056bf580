"""Per-layer tracing of posicert from outside ``src/``.

``install`` replaces each traced entry point by a wrapper under every name a
caller looks it up by: the defining module, every posicert module that
imported it by name (``driver`` imports ``build_gram_system`` and the exact
helpers that way) and the package namespace.  ``Polynomial.__mul__`` is
wrapped on the class, under both ``__mul__`` and ``__rmul__``.

Each call is a span.  The tracer keeps, per round: the inclusive time of the
outermost span of each boundary, the self time of each layer (a span's
duration minus the time its child spans cover), call counts, and the sizes
and counts that hooks read off arguments and results.  Hook time is charged
to no layer; it shows only in the traced run's overhead.  Spans other than
the many ``Polynomial.__mul__`` and ``parse_polynomial`` calls are also kept,
with their parent, for the spans file.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layers whose self time is reported, in report order.
LAYERS = (
    "parsing", "poly", "gram", "ratlin", "sdp",
    "exact.round", "exact.project", "exact.ldlt", "exact.verify", "exact",
    "driver.precheck", "driver.assemble", "driver", "cli",
)


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []  # open spans: [child seconds, span id]
        self.open = Counter()  # boundary -> open spans, to time only the outermost
        self.inclusive = defaultdict(float)  # boundary -> seconds
        self.self_time = defaultdict(float)  # layer -> seconds
        self.calls = Counter()  # boundary -> calls
        self.counts = Counter()  # hook counts
        self.maxima = Counter()  # hook maxima
        self.top_level = 0.0  # seconds inside any span
        self.spans = []  # [id, parent id, name, start, end, attributes]
        self.next_id = 0

    def wrap(self, boundary, layer, fn, hook=None, keep=True):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            if keep:
                frame = [0.0, tracer.next_id]
                tracer.next_id += 1
            else:  # children of an unkept span hang on its nearest kept ancestor
                frame = [0.0, parent]
            outermost = tracer.open[boundary] == 0
            tracer.open[boundary] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.open[boundary] -= 1
                duration = end - start
                tracer.self_time[layer] += duration - frame[0]
                tracer.calls[boundary] += 1
                if outermost:
                    tracer.inclusive[boundary] += duration
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.top_level += duration
                if keep:
                    tracer.spans.append([frame[1], parent, boundary, start, end, None])
            if hook is not None:
                hook_start = perf_counter()
                attributes = hook(tracer, args, result)
                if keep and attributes:
                    tracer.spans[-1][5] = attributes
                if stack:  # keep hook time out of the caller's self time
                    stack[-1][0] += perf_counter() - hook_start
            return result

        return traced

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of one traced round of ``wall`` seconds."""
        inc, calls, counts, maxima = self.inclusive, self.calls, self.counts, self.maxima

        def pct(seconds):
            return 100.0 * seconds / wall

        rungs = calls["exact.project_to_constraints"]
        iterations = counts["sdp.iterations"]
        out = {
            "trace.round_s": wall,
            "parsing.parse_s": inc["parsing.parse"],
            "poly.mul_calls": calls["poly.mul"],
            "poly.mul_s": inc["poly.mul"],
            "driver.precheck_s": inc["driver.positivity_precheck"],
            "driver.precheck_points": counts["driver.precheck_points"],
            "driver.assemble_s": inc["driver.system_to_sdp"],
            "driver.exponents": counts["driver.exponents"],
            "gram.build_s": inc["gram.build_gram_system"],
            "gram.reduced_s": inc["gram.build_reduced_system"],
            "gram.reduced_calls": calls["gram.build_reduced_system"],
            "gram.dim_max": maxima["gram.dim_max"],
            "gram.rows_max": maxima["gram.rows_max"],
            "gram.blocks_max": maxima["gram.blocks_max"],
            "ratlin.row_reduce_s": inc["ratlin.row_reduce"],
            "ratlin.row_reduce_calls": calls["ratlin.row_reduce"],
            "ratlin.solve_dense_s": inc["ratlin.solve_dense"],
            "ratlin.nullspace_s": inc["ratlin.nullspace"],
            "ratlin.nullspace_calls": calls["ratlin.nullspace"],
            "sdp.solves": calls["sdp.solve"],
            "sdp.solve_s": inc["sdp.solve"],
            "sdp.iterations": iterations,
            "sdp.iter_ms": 1000.0 * inc["sdp.solve"] / max(iterations, 1),
            "exact.round_s": inc["exact.round_to_rational"],
            "exact.project_s": inc["exact.project_to_constraints"],
            "exact.verify_s": inc["exact.verify_certificate"],
            "exact.verify_calls": calls["exact.verify_certificate"],
            "exact.ldlt_s": inc["exact.exact_ldlt"],
            "exact.ldlt_calls": calls["exact.exact_ldlt"],
            "exact.ldlt_rejects": counts["exact.ldlt_rejects"],
            "exact.rungs": rungs,
            "exact.rung_yield": counts["exact.certificates"] / rungs if rungs else 0.0,
            "exact.den_bits_max": maxima["exact.den_bits_max"],
            "exact.cert_bytes": counts["exact.cert_bytes"],
        }
        for layer in LAYERS:
            out[f"self.{layer}_pct"] = pct(self.self_time[layer])
        out["self.harness_pct"] = pct(wall - self.top_level)
        return out


# -- hooks: read sizes and outcomes off arguments and results ----------------


def _solve_hook(tracer, args, solution):
    problem = args[0]
    tracer.counts["sdp.iterations"] += solution.iterations
    return {"d": list(problem.block_dims), "m": problem.n_constraints,
            "iterations": solution.iterations, "status": solution.status}


def _system_hook(tracer, args, system):
    if not hasattr(system, "active_indices"):  # a parity or support obstruction
        return None
    active = system.active_indices
    dim = max(system.block_dim(b) for b in active)
    rows = len(system.independent)
    m = tracer.maxima
    m["gram.dim_max"] = max(m["gram.dim_max"], dim)
    m["gram.rows_max"] = max(m["gram.rows_max"], rows)
    m["gram.blocks_max"] = max(m["gram.blocks_max"], len(active))
    return {"d": [system.block_dim(b) for b in active], "rows": rows}


def _ldlt_hook(tracer, args, factored):
    if factored is None:
        tracer.counts["exact.ldlt_rejects"] += 1
    return {"d": len(args[0]), "psd": factored is not None}


def _project_hook(tracer, args, projected):
    bits = max(
        (v.denominator.bit_length() for matrix in projected.values() for row in matrix for v in row),
        default=0,
    )
    tracer.maxima["exact.den_bits_max"] = max(tracer.maxima["exact.den_bits_max"], bits)
    return {"den_bits": bits}


def _certificate_hook(tracer, args, cert):
    if cert is not None:
        tracer.counts["exact.certificates"] += 1
    return None


def _format_hook(tracer, args, text):
    tracer.counts["exact.cert_bytes"] += len(text.encode())
    return None


def _precheck_hook(tracer, args, result):
    tracer.counts["driver.precheck_points"] += result.total
    return {"points": result.total}


def _scan_hook(tracer, args, report):
    tracer.counts["driver.exponents"] += len(report.records)
    return {"exponents": [r.exponent for r in report.records], "outcome": report.outcome}


# module, function, boundary, layer, hook
TARGETS = (
    ("parsing", "parse_problem", "parsing.parse", "parsing", None),
    ("parsing", "parse_polynomial", "parsing.parse", "parsing", None),
    ("gram", "build_gram_system", "gram.build_gram_system", "gram", _system_hook),
    ("gram", "build_reduced_system", "gram.build_reduced_system", "gram", _system_hook),
    ("ratlin", "row_reduce", "ratlin.row_reduce", "ratlin", None),
    ("ratlin", "solve_dense", "ratlin.solve_dense", "ratlin", None),
    ("ratlin", "nullspace", "ratlin.nullspace", "ratlin", None),
    ("sdp", "solve", "sdp.solve", "sdp", _solve_hook),
    ("exact", "round_to_rational", "exact.round_to_rational", "exact.round", None),
    ("exact", "project_to_constraints", "exact.project_to_constraints", "exact.project", _project_hook),
    ("exact", "exact_ldlt", "exact.exact_ldlt", "exact.ldlt", _ldlt_hook),
    ("exact", "verify_certificate", "exact.verify_certificate", "exact.verify", None),
    ("exact", "certificate_from_gram", "exact.certificate_from_gram", "exact", _certificate_hook),
    ("exact", "format_certificate", "exact.format_certificate", "exact", _format_hook),
    ("driver", "positivity_precheck", "driver.positivity_precheck", "driver.precheck", _precheck_hook),
    ("driver", "system_to_sdp", "driver.system_to_sdp", "driver.assemble", None),
    ("driver", "certify", "driver.certify", "driver", _scan_hook),
    ("driver", "odd_power", "driver.odd_power", "driver", _scan_hook),
    ("driver", "epsilon_margin", "driver.epsilon_margin", "driver", _scan_hook),
    ("cli", "main", "cli.main", "cli", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target under each name a posicert module holds it by."""
    modules = {name: importlib.import_module(f"posicert.{name}") for name in
               ("parsing", "poly", "gram", "ratlin", "sdp", "exact", "driver", "cli")}
    holders = [m for name, m in sys.modules.items() if name == "posicert" or name.startswith("posicert.")]
    for module, function, boundary, layer, hook in TARGETS:
        original = getattr(modules[module], function)
        wrapper = tracer.wrap(boundary, layer, original, hook, keep=function != "parse_polynomial")
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapper)
    cls = modules["poly"].Polynomial
    original = cls.__dict__["__mul__"]
    wrapper = tracer.wrap("poly.mul", "poly", original, keep=False)
    for attr in ("__mul__", "__rmul__"):
        if cls.__dict__.get(attr) is original:
            setattr(cls, attr, wrapper)
