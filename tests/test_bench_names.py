"""The names that bench/tracing.py wraps exist in pdim, so that removing or
renaming one fails here and not only when the benchmark installs its tracer."""

import importlib
import importlib.util
import pathlib

from pdim import systems

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_callable():
    traced = load_tracing().TRACED
    assert traced
    missing = [(module, attr) for module, attr, _, _ in traced
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_a_system_class_defines_candidate_set():
    # Tracer.install wraps candidate_set on every class of pdim.systems that defines it
    assert any(isinstance(cls, type) and callable(vars(cls).get("candidate_set"))
               for cls in vars(systems).values())
