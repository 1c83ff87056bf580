"""The benchmark's traced entry points still exist in posicert.

perfbench/tracing.py wraps posicert functions by module and name; a refactor
that renames or deletes one breaks every traced benchmark run.
"""

import importlib
import importlib.util
import pathlib

from posicert.poly import Polynomial

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
