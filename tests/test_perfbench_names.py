"""The names perfbench's tracer patches exist in the package.

perfbench/tracing.py replaces each function it names through
`owner.__dict__[attr]`, so renaming one of them breaks every traced benchmark
run with KeyError. This reads the tracer's tables without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import algebroids

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(short):
    return importlib.import_module(f"{algebroids.__name__}.{short}")


def test_span_functions_exist():
    tracing = _tracing()
    missing = [(module, attr) for _, module, attr in tracing.SPANS if attr not in vars(_module(module))]
    assert missing == []


def test_leaf_attributes_exist():
    tracing = _tracing()
    missing = []
    for _, path, attrs in tracing.LEAVES:
        module, cls = path.split(".")
        owner = getattr(_module(module), cls)
        missing += [(path, attr) for attr in attrs if attr not in vars(owner)]
    assert missing == []


def test_parse_bindings_exist():
    tracing = _tracing()
    assert [module for module in tracing.PARSE_BINDINGS if "parse" not in vars(_module(module))] == []
