"""The package names the benchmark's tracer looks up must exist.

bench/tracing.py wraps every name in its TARGETS with getattr on each count
pass, and its kernel statistics read ResponseKernel.matrix, so a name
dropped from the package fails every benchmark workload.  This catches it
in the test suite.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from upconvspec.spectrometer import ResponseKernel

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [f"{layer}.{name}" for layer, names in module.TARGETS.items() for name in names]


@pytest.mark.parametrize("target", _targets())
def test_traced_name_resolves_in_the_package(target):
    layer, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"upconvspec.{layer}"), name))


def test_dense_view_the_bench_reads_is_there():
    assert hasattr(ResponseKernel, "matrix")
