#!/usr/bin/env python3
"""The smoothmas benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload mesh_full --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run it from a source checkout; the package is imported from its src/
directory, the way the tier-1 tests run it, on the default backend.

A run first builds the package in place (`python3 setup.py build_ext
--inplace`), so a compiled kernel that builds is measured with it. It then
times set-up in fresh child processes, runs the workload, and compares every
op's digest with a reference computed in a separate process on the
pure-Python backend.

--trace 0 times a closed loop for --seconds of op time and reports the
end-to-end metrics. Op times are rescaled to reference seconds by the
yardstick loop in speed.py; the wall-clock rate is printed too.

--trace 1 runs the workload's fixed input pool once without tracing and
twice traced, and reports the per-layer metrics of the first traced pass.
It checks that both traced passes count exactly the same, and checks the
counts against the returned trajectories.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it name every metric with its
unit, plus the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads
from speed import Yardstick

ROOT = workloads.ROOT
SRC = ROOT / "src"
WORK = workloads.WORK
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


def _child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env.update(extra)
    return env


def _self_command(*args: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *args]


def _require_checkout() -> None:
    missing = [
        p for p in ("setup.py", "src/smoothmas/__init__.py", "configs/ring_triplet.json")
        if not (ROOT / p).is_file()
    ]
    if missing:
        sys.exit(f"perfbench: not a smoothmas source checkout, missing {missing}")


def _build() -> None:
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=800,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")


def _time_setup(workload: str, seed: int) -> tuple[float, dict]:
    """Wall time from spawning a fresh interpreter until its inputs are
    built, and the phases the child timed itself."""
    start = time.perf_counter()
    child = subprocess.Popen(
        _self_command("--role", "setup", "--workload", workload, "--seed", str(seed)),
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or not line:
        sys.exit(f"perfbench: set-up child failed with exit code {child.returncode}")
    return elapsed, json.loads(line)


def _reference(workload: str, seed: int) -> list[list]:
    """Digests of every pool entry, computed in a separate process on the
    pure-Python backend."""
    done = subprocess.run(
        _self_command("--role", "reference", "--workload", workload, "--seed", str(seed)),
        cwd=ROOT, env=_child_env(SMOOTHMAS_BACKEND="pure"),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: reference process failed with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


class Pass:
    """Ops run through one loop, with their digests and busy time; with a
    yardstick, also their time in reference seconds."""

    def __init__(self, yardstick: Yardstick | None = None):
        self.records: list[tuple[int, list]] = []
        self.busy_s = 0.0
        self.reference_s = 0.0
        self.cpu_s = 0.0
        self.yardstick = yardstick

    def run(self, wl: workloads.Workload, slot: int) -> None:
        cpu = _cpu_s()
        start = time.perf_counter()
        try:
            result = wl.call(slot)
            raised = False
        except Exception:
            traceback.print_exc()
            raised = True
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.cpu_s += _cpu_s() - cpu
        if self.yardstick is not None:
            self.reference_s += self.yardstick.rescale(elapsed)
        digests = [None] * wl.ops_per_call if raised else wl.digests(slot, result)
        self.records.append((slot, digests))

    @property
    def ops(self) -> int:
        return sum(len(d) for _, d in self.records)


def count_failed(records: list[tuple[int, list]], reference: list[list]) -> int:
    """Ops whose digest is missing or differs from the reference."""
    failed = 0
    for slot, digests in records:
        expected = reference[slot]
        if len(expected) != len(digests):
            failed += len(digests)
            continue
        failed += sum(1 for d, r in zip(digests, expected) if d is None or d != r)
    return failed


def corruption_missed(records: list[tuple[int, list]], reference: list[list]) -> bool:
    """Whether corrupting the reference digest of the first op that passed
    fails to fail exactly one more op."""
    for slot, digests in records:
        if digests[0] is not None and digests[0] == reference[slot][0]:
            corrupted = list(reference)
            corrupted[slot] = ["corrupted"] + list(reference[slot][1:])
            one = [(slot, digests)]
            return count_failed(one, corrupted) != count_failed(one, reference) + 1
    return False  # no op passed, so the run is already incorrect


def _environment(seed: int) -> dict:
    import smoothmas
    from smoothmas import _kernels

    return {
        "kernels.backend": _kernels.active_backend(),
        "smoothmas.version": smoothmas.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:14s} {name:28s} {m['value']:>14.6g} {m['unit']}")


def _traced_passes(wl: workloads.Workload) -> tuple[Pass, list[tuple[tracing.Tracer, Pass]]]:
    """The whole pool once untraced, then twice traced."""
    untraced = Pass()
    for slot in range(len(wl.pool)):
        untraced.run(wl, slot)
    traced = []
    for _ in range(2):
        tr = tracing.Tracer()
        p = Pass()
        with tracing.patched(tr):
            for slot in range(len(wl.pool)):
                p.run(wl, slot)
        traced.append((tr, p))
    return untraced, traced


def _per_layer(
    args: argparse.Namespace,
    setups: list[tuple[float, dict]],
    untraced: Pass,
    traced: list[tuple[tracing.Tracer, Pass]],
) -> tuple[dict, list[str]]:
    """Per-layer metrics of the first traced pass, and the self-check."""
    (tr_a, pass_a), (tr_b, pass_b) = traced
    problems = tracing.self_check(tr_a) + tracing.self_check(tr_b)
    if tr_a.counts != tr_b.counts:
        diff = {k for k in tr_a.counts | tr_b.counts if tr_a.counts[k] != tr_b.counts[k]}
        problems.append(f"counts differ between the two traced passes: {sorted(diff)}")
    tracing.write_spans(tr_a, WORK / args.workload / f"spans-seed{args.seed}.tsv")
    phases = [p for _, p in setups]
    values = {
        "setup.import_s": statistics.median(p["import"] for p in phases),
        "config.load_s": statistics.median(p["config"] for p in phases),
        "core.topology_build_s": statistics.median(p["topology"] for p in phases),
        "process.cpu_s_per_op": untraced.cpu_s / untraced.ops,
        **tracing.layer_metrics(tr_a),
        "tracing.overhead_ratio": (pass_a.busy_s + pass_b.busy_s) / 2 / untraced.busy_s,
    }
    metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in values.items()}
    _print_metrics(args.workload, metrics)
    for name, seconds in tracing.self_times(tr_a):
        share = seconds / pass_a.busy_s
        print(f"{args.workload:14s} self time {name:22s} {seconds:10.4f} s {share:7.1%}")
    return metrics, problems


def bench(args: argparse.Namespace) -> dict:
    _require_checkout()
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    _build()
    setups = [_time_setup(args.workload, args.seed) for _ in range(SETUP_RUNS)]

    sys.path.insert(0, str(SRC))
    wl, _ = workloads.setup(args.workload, args.seed, WORK / args.workload / "run")
    print("environment " + json.dumps(_environment(args.seed)))
    wl.call(0)  # warm-up: lazy imports and first-call set-up are not timed

    if args.trace:
        untraced, traced = _traced_passes(wl)
        passes = [untraced] + [p for _, p in traced]
    else:
        timed = Pass(Yardstick())
        while timed.busy_s < args.seconds:
            timed.run(wl, len(timed.records) % len(wl.pool))
        peak_rss = _peak_rss_mib()
        passes = [timed]

    reference = _reference(args.workload, args.seed)
    records = [r for p in passes for r in p.records]
    attempted = sum(p.ops for p in passes)
    failed = count_failed(records, reference)
    problems = []
    if corruption_missed(records, reference):
        problems.append("a corrupted reference digest was not reported as a failed op")

    if args.trace:
        metrics, more = _per_layer(args, setups, untraced, traced)
        problems += more
    else:
        completed = timed.ops - failed
        metrics = {
            "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
            "ops_per_s": {"value": completed / timed.reference_s, "unit": "ops/s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
        }
        _print_metrics(args.workload, metrics)
        wall = {"ops_per_s.wall_clock": {"value": completed / timed.busy_s, "unit": "ops/s"}}
        _print_metrics(args.workload, wall)
    print(f"{args.workload:14s} {'failed_op_share':28s} {failed / attempted:>14.6g} ratio"
          f" ({failed} of {attempted} ops)")
    for line in problems:
        print(f"{args.workload}: CHECK FAILED: {line}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            _self_command("--workload", name, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace)),
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def child(args: argparse.Namespace) -> None:
    sys.path.insert(0, str(SRC))
    if args.role == "setup":
        _, phases = workloads.setup(args.workload, args.seed, WORK / args.workload / "setup")
        print(json.dumps(phases), flush=True)
        return
    wl, _ = workloads.setup(args.workload, args.seed, WORK / args.workload / "reference")
    print(json.dumps([wl.digests(s, wl.reference_call(s)) for s in range(len(wl.pool))]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("bench", "setup", "reference"), default="bench",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.role != "bench":
        child(args)
        return
    result = run_all(args) if args.workload == "all" else bench(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
