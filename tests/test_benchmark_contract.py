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


def test_traced_census_records_every_cover_image():
    # the census metrics (constructions.odd_covering_maps_s,
    # twists.cover_images_s, twists.screen_s) come from these spans; a
    # refactor that routes around the wrapped names would leave them reading
    # zero
    layers = _load_layers()
    run = layers.traced_cli_run(["twists", "--A", "-27", "--height", "3"], "t")
    assert run.exit_code == 0
    assert run.error is None
    assert run.unrestored == []
    names = [span["name"] for span in run.spans]
    rows = [line.split("\t") for line in run.stdout.splitlines()[1:]]
    factored = [row for row in rows if row[2] != "-"]
    assert factored
    assert names.count("constructions.odd_covering_maps") == 1
    assert names.count("twists.cover_image") == 2 * len(factored)
    screened = [row for row in factored if row[-1] != "degenerate"]
    assert screened
    assert names.count("twists.screen") == len(screened)


def test_traced_verify_records_every_check():
    # the symbolic workload's per-layer metrics (verify.*_s and
    # constructions.covering_maps_s) come from these spans
    layers = _load_layers()
    run = layers.traced_cli_run(["verify", "--j", "6912/5"], "t")
    assert run.exit_code == 0
    assert run.error is None
    assert run.unrestored == []
    names = [span["name"] for span in run.spans]
    checks = (
        "thm1",
        "thm2",
        "maps_on_curve_sym",
        "maps_on_curve_A",
        "independence",
        "quotients_sym",
        "quotients_A",
    )
    for check in checks:
        assert names.count(f"verify.{check}") == 1, check
    assert names.count("constructions.covering_maps") == 3
