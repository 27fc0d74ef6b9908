"""The package names the benchmark reaches by name stay in place.

bench/spans.py wraps every function its LAYERS table lists, fetched by
name from the layer's module, and bench/run.py reads
kernels.USING_COMPILED for its run header. A rename or deletion there
would pass every other test and crash only the benchmark run.
"""

import importlib
import sys
from pathlib import Path

from shadowlab import kernels

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_names_are_callable(monkeypatch):
    # no bytecode cache left under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import LAYERS

    assert LAYERS
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"shadowlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_compiled_kernels_flag_is_a_bool():
    assert isinstance(kernels.USING_COMPILED, bool)
