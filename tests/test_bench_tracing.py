"""The traced benchmark run (`bench/run.py --trace 1`) looks up every
name in `bench/tracing.py`'s TARGETS; a renamed or deleted one makes it
fail with a KeyError.  The workloads also read a few attributes of the
results they get back."""

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


def test_result_attributes_the_bench_reads():
    # bench/tracing.py counts a report's `records` and a verification's
    # `rows`; bench/workloads.py reads a verification's `ok` and `to_tsv`
    # and tells a BallTree from a verification by `centers`
    from badicdim.estimators import DimensionReport
    from badicdim.extract_lower import LowerVerification
    assert "records" in DimensionReport._fields
    assert "rows" in LowerVerification._fields
    assert hasattr(LowerVerification, "ok")
    assert hasattr(LowerVerification, "to_tsv")
    assert not hasattr(LowerVerification, "centers")
