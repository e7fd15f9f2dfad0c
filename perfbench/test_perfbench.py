"""Self-test of the benchmark's trace arithmetic and call wrapping.

    python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import layers
import run


def span(id, name, start, end, parent=None):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "run": "t", "attrs": {}}


# root [0, 10] holds a [1, 3] and b [4, 8]; b holds d [5, 6];
# a second root c [12, 14]; the traced wall is 20
TREE = [
    span(0, "root", 0.0, 10.0),
    span(1, "a", 1.0, 3.0, parent=0),
    span(2, "b", 4.0, 8.0, parent=0),
    span(3, "d", 5.0, 6.0, parent=2),
    span(4, "c", 12.0, 14.0),
]


def test_self_time_subtracts_children():
    assert layers.self_times(TREE) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 2.0}


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, "p", 0.0, 10.0), span(1, "x", 1.0, 5.0, 0), span(2, "y", 3.0, 6.0, 0)]
    assert layers.self_times(spans)[0] == 5.0


def test_coverage_is_share_of_wall_inside_root_spans():
    assert layers.coverage(TREE, 20.0) == 0.6


def _originals():
    mods = layers.load_modules()
    points = layers.boundaries(mods, layers.Recorder("probe"))
    return [(owner, attr, getattr(owner, attr)) for owner, attr, _ in points]


def test_traced_run_matches_untraced_output_and_restores_every_attribute():
    argv = ["remarks", "--A", "-27", "--B", "1", "--primes", "7"]
    before = _originals()
    traced = layers.traced_cli_run(argv, "selftest")
    child = run.run_child(argv, "selftest")
    assert traced.exit_code == 0 and child.exit_code == 0
    assert traced.stdout.encode() == child.stdout
    assert traced.unrestored == []
    assert all(getattr(owner, attr) is orig for owner, attr, orig in before)
    names = {s["name"] for s in traced.spans}
    assert {"counting.count", "zeta.count", "zeta.lpoly", "zeta.is_good_prime"} <= names
    metrics = layers.layer_metrics(traced, child.cpu_s, len(child.stdout), child.wall_s)
    # eight counts at k = 1 (E, E', H, H1, H2, the space curve and its two
    # cubics), then H, H1, H2 at k = 2, H, H1 at k = 3, and H at k = 4 and 5
    assert metrics["counting.calls"] == 15
    assert 0 < metrics["trace.coverage"] <= 1


def test_pair_runs_the_program_and_the_baseline_build_on_one_command():
    argv = ["remarks", "--A", "-27", "--B", "1", "--primes", "7"]
    prog, base = run.run_pair(argv, "selftest-pair")
    assert prog.exit_code == 0 and base.exit_code == 0
    assert prog.stdout == base.stdout != b""
    assert prog.cpu_s > 0 and base.cpu_s > 0


def test_attributes_are_restored_when_the_run_raises():
    before = _originals()
    traced = layers.traced_cli_run(["twists", "--A", "-27", "--height", "0"], "selftest-error")
    assert traced.error is not None
    assert traced.unrestored == []
    assert all(getattr(owner, attr) is orig for owner, attr, orig in before)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
