"""The traced benchmark run (`bench/run.py --trace 1`) looks up every
name in `bench/tracing.py`'s TARGETS; a renamed or deleted one makes it
fail with a KeyError."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    for module, attr, _name, kind in _tracing().TARGETS:
        owner = importlib.import_module(f"badicdim.{module}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"{module}.{attr}"
        raw = vars(owner)[attr]
        if kind == "classmethod":
            assert isinstance(raw, classmethod), attr
        elif kind == "gen":
            assert inspect.isgeneratorfunction(raw), attr
        else:
            assert callable(raw), attr
