"""The names the benchmark probe looks up in the package still resolve.

``perfbench/probe.py`` wraps functions by module and attribute name and times
the kernels by name, so renaming or deleting one of them breaks the
benchmark, not a model test. The probe is run from its source as it is, and
no bytecode is written beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

import pvbatsim

PROBE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


@pytest.fixture(scope="module")
def probe():
    module = types.ModuleType("perfbench_probe")
    module.__file__ = str(PROBE_PATH)
    exec(compile(PROBE_PATH.read_text(encoding="utf-8"), str(PROBE_PATH), "exec"),
         module.__dict__)
    return module


def test_layer_modules_import(probe):
    for name in probe.LAYER_MODULES:
        importlib.import_module(f"pvbatsim.{name}")


def test_traced_functions_resolve(probe):
    for span, module, attr in probe.TRACED:
        assert callable(getattr(importlib.import_module(f"pvbatsim.{module}"), attr)), span


def test_kernel_calls_run(probe):
    pure = importlib.import_module("pvbatsim._kernels._pure")
    for kernel, (attr, args) in probe.KERNEL_CALLS.items():
        result = getattr(pure, attr)(*args)
        if f"kernels.{kernel}" in probe.SOLVER_SPANS:
            # the tracer reads the residual at [1] and the iteration count at [2]
            assert isinstance(result[1], float) and isinstance(result[2], int), kernel
        else:
            assert isinstance(result, float), kernel


def test_backend_name_is_text():
    assert isinstance(pvbatsim.backend_name(), str)
