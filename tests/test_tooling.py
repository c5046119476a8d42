"""The benchmark's tracer wraps cgm functions by name; keep those names alive.

`bench/tracer.py` is loaded from the checkout as it is (nothing under
`bench/` is changed) and every function and method it patches must still
exist where it looks for it, so that a cleanup in `src/cgm` cannot break
`bench/run.py --trace 1` without a tier-1 failure.
"""

import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # Run the source in a fresh module: no import path change and no
    # bytecode written next to it.
    module = types.ModuleType("cgm_bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_span_functions_exist(tracer):
    missing = [f"{module.__name__}.{name}"
               for module, names in tracer.SPAN_FUNCTIONS.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []


def test_leaf_functions_exist(tracer):
    from cgm import linalg
    missing = [name for name in tracer.LEAF_FUNCTIONS
               if not callable(getattr(linalg, name, None))]
    assert missing == []


def test_patched_methods_exist(tracer):
    # The tracer reads methods from the class's own __dict__.
    missing = [f"{cls.__name__}.{attr}"
               for cls, attr, _ in tracer.LEAF_METHODS + tracer.SPAN_METHODS
               if attr not in cls.__dict__]
    assert missing == []
