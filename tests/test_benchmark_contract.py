"""The benchmark in perfbench/ wraps program functions by module attribute
(perfbench/layers.py: boundaries).  A refactor that drops or renames one of
those names crashes the traced run; this test catches that in the default
test run.  It only reads perfbench/."""

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_traced_run_finds_every_wrapped_name():
    layers = _load_layers()
    run = layers.traced_cli_run(["zeta", "--A", "-27", "--curve", "E", "--primes", "7"], "t")
    assert run.exit_code == 0
    assert run.error is None
    assert run.unrestored == []
