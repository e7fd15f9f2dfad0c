#!/usr/bin/env python3
"""Benchmark of the twocovers command-line tool.

    python3 perfbench/run.py --workload decomposition --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each timed run starts the real CLI (``python -m twocovers``) as a fresh child
process and checks its stdout against the reference sha256 in reference.json.
With --trace 0 every timed run is a pair: the program under src/ and the
baseline build under baseline/ (a frozen copy of the program) run the same
command at the same time, pinned to one CPU, so both see the same host speed.
Times are reported as the ratio of their CPU times, scaled by the baseline's
wall time on the host the benchmark was tuned on.  With --trace 1 one
untraced child run is followed by one traced in-process run (see layers.py)
and the per-layer metrics are reported.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"  # the program as of the commit that added this benchmark
WORK = ROOT / ".perfbench"  # per-run temp dirs and span files; git-ignored
SETUP_RUNS = 9  # --help runs behind setup_s of a traced invocation
SETUP_PER_RUN = 3  # --help pairs before each timed workload pair
CHILD_TIMEOUT_S = 170

SWEEP_PRIMES = ",".join(
    str(p) for p in range(7, 398) if all(p % d for d in range(2, int(p**0.5) + 1))
)

# workload -> argv of the CLI for a field-presentation seed.  The seed only
# picks the modulus of each F_{p^k}; the output cannot depend on it.
WORKLOADS = {
    "symbolic": lambda seed: ["verify", "--j", "6912/5"],
    "decomposition": lambda seed: ["remarks", "--A", "-27", "--B", "1", "--seed", str(seed)],
    "sweep": lambda seed: ["zeta", "--A", "-27", "--curve", "H2", "--primes", SWEEP_PRIMES, "--seed", str(seed)],
    "census": lambda seed: ["twists", "--A", "-27", "--height", "25"],
}


@dataclass
class ChildRun:
    exit_code: int
    stdout: bytes
    stderr_tail: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_children(jobs, tag):
    """Start one CLI child per (argv, source tree) job at once and wait for
    all of them.  Each gets a clean environment: PYTHONPATH is its source
    tree, TMPDIR and XDG_CACHE_HOME are fresh and empty, stdin is closed,
    stdout goes to a file.  Peak RSS and CPU time come from each child's own
    rusage (wait4); wall time runs from its start until it is reaped."""
    started = []
    try:
        for i, (argv, src) in enumerate(jobs):
            tmp = WORK / "tmp" / f"{tag}-{i}"
            shutil.rmtree(tmp, ignore_errors=True)
            (tmp / "cache").mkdir(parents=True)
            env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
            env.update(PYTHONPATH=str(src), TMPDIR=str(tmp), XDG_CACHE_HOME=str(tmp / "cache"))
            with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, "-m", "twocovers", *argv],
                    cwd=ROOT,
                    env=env,
                    stdin=subprocess.DEVNULL,
                    stdout=out,
                    stderr=err,
                )
            started.append((proc, tmp, start))
        # os.kill, not Popen.kill: Popen.kill polls first, and a poll would reap
        # a finished child before wait4 below can read its rusage
        killer = threading.Timer(CHILD_TIMEOUT_S, kill_unreaped, [started])
        killer.start()
        runs = []
        try:
            for proc, tmp, start in started:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
                tail = (tmp / "stderr").read_text(errors="replace").strip().splitlines()[-1:]
                runs.append(
                    ChildRun(
                        exit_code=proc.returncode,
                        stdout=(tmp / "stdout").read_bytes(),
                        stderr_tail=tail[0] if tail else "",
                        wall_s=wall,
                        cpu_s=usage.ru_utime + usage.ru_stime,
                        peak_rss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
                    )
                )
        finally:
            killer.cancel()
        return runs
    finally:
        for proc, tmp, _ in started:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            shutil.rmtree(tmp, ignore_errors=True)


def kill_unreaped(started):
    for proc, _, _ in started:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)


def run_child(argv, tag):
    """The program alone, once."""
    return run_children([(argv, SRC)], tag)[0]


def run_pair(argv, tag):
    """The program and the baseline build on the same command at once, as
    (program run, baseline run).  The caller pins this process, and so both
    children, to one CPU: they take turns on it and see the same host speed,
    which drifts on a shared host by up to half over a few minutes."""
    return tuple(run_children([(argv, SRC), (argv, BASELINE)], tag))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def setup_samples(n):
    """Wall times of n fresh `twocovers --help` runs: interpreter start,
    importing every module and building the parser."""
    times = []
    for _ in range(n):
        child = run_child(["--help"], "setup")
        if child.exit_code != 0:
            sys.exit(f"twocovers --help exited {child.exit_code}: {child.stderr_tail}")
        times.append(child.wall_s)
    return times


def reference():
    return json.loads((HERE / "reference.json").read_text())


def check(name, digest, exit_code, detail=""):
    ok = exit_code == 0 and digest == reference()["sha256"][name]
    if not ok:
        print(f"{name}: FAILED run (exit {exit_code}, sha256 {digest}) {detail}", file=sys.stderr)
    return ok


def baseline_ok(name, run):
    """The baseline build must reproduce its own reference output; if it does
    not, the benchmark, not the program, is broken."""
    if run.exit_code != 0 or sha256(run.stdout) != reference()["baseline_sha256"][name]:
        sys.exit(f"baseline build failed on {name} (exit {run.exit_code}): {run.stderr_tail}")


def end_to_end(name, seed, seconds):
    """Pairs of fresh child runs while one more pair of average length still
    ends within `seconds` (at least one pair), so an invocation never runs
    much past its window.  Each workload pair is preceded by SETUP_PER_RUN
    `--help` pairs, so setup_s samples the same stretch of time.  Pair i uses
    seed + i: any two pairs of a seeded workload see different field
    presentations.  A time is the median over pairs of program CPU time over
    baseline CPU time, scaled by the baseline's wall time in reference.json."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ratios, setup_ratios, rss, cpu = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while not ratios or (time.perf_counter() - start) * (len(ratios) + 1) / len(ratios) <= seconds:
        for _ in range(SETUP_PER_RUN):
            prog, base = run_pair(["--help"], "setup")
            if prog.exit_code or base.exit_code:
                sys.exit(f"twocovers --help exited {prog.exit_code}, baseline {base.exit_code}")
            setup_ratios.append(prog.cpu_s / base.cpu_s)
        prog, base = run_pair(WORKLOADS[name](seed + len(ratios)), f"{name}{len(ratios)}")
        baseline_ok(name, base)
        failed += not check(name, sha256(prog.stdout), prog.exit_code, prog.stderr_tail)
        ratios.append(prog.cpu_s / base.cpu_s)
        rss.append(prog.peak_rss_mb)
        cpu.append((prog.cpu_s, base.cpu_s))
    print(
        f"{name:14} {'pairs (program, baseline cpu s)':36} "
        + " ".join(f"({a:.3f}, {b:.3f})" for a, b in cpu),
        flush=True,
    )
    scale = reference()["baseline_wall_s"]
    metrics = {
        "norm_wall_s": statistics.median(ratios) * scale[name],
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_ratios) * scale["setup"],
    }
    return metrics, len(ratios), failed


def per_layer(name, seed):
    """One untraced child run, then the same command traced in-process."""
    setup_s = statistics.median(setup_samples(SETUP_RUNS))
    argv = WORKLOADS[name](seed)
    child = run_child(argv, f"{name}-untraced")
    failed = not check(name, sha256(child.stdout), child.exit_code, child.stderr_tail)
    run = layers.traced_cli_run(argv, f"{name}-seed{seed}")
    layers.write_jsonl(run.spans, WORK / f"spans-{name}-seed{seed}.jsonl")
    detail = run.error or (f"not restored: {run.unrestored}" if run.unrestored else "")
    traced_ok = check(name, sha256(run.stdout.encode()), run.exit_code, detail) and not run.unrestored
    failed += not traced_ok
    # the child's wall includes start-up and imports, which main() does not
    untraced_wall = child.wall_s - setup_s
    metrics = layers.layer_metrics(run, child.cpu_s, len(child.stdout), untraced_wall)
    metrics["cli.wall_s"] = child.wall_s
    return metrics, 2, failed


def env_stamp():
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def declared_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, seed, seconds, trace):
    # untimed: writes the bytecode caches of both builds in a fresh checkout
    run_pair(["--help"], "warm-up")
    if trace:
        metrics, attempted, failed = per_layer(name, seed)
    else:
        metrics, attempted, failed = end_to_end(name, seed, seconds)
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for key, value in metrics.items():
        print(f"{name:14} {key:36} {value:.6g} {units[key]}")
    print(f"{name:14} {'fail_share':36} {failed / attempted:.6g} ({failed} of {attempted} runs)", flush=True)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twocovers" / "cli.py").is_file():
        sys.exit(f"no twocovers sources under {SRC}; run from a full checkout")

    print(json.dumps({"env": env_stamp()}, sort_keys=True))
    if args.workload == "all":
        metrics, attempted, failed = run_all(args)
    else:
        metrics, attempted, failed = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def run_all(args):
    """Every workload, each in a fresh benchmark process, so that the caches
    of one traced in-process run cannot carry into the next."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[1:-1]), flush=True)  # the metric lines, without the env stamp
        result = json.loads(lines[-1])
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    return metrics, attempted, failed


if __name__ == "__main__":
    main()
