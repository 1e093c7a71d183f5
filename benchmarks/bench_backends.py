#!/usr/bin/env python3
"""Compare the compiled sampling kernel against the pure-Python fallback.

The kernel only draws sample batches (smoothing.sample_policy); the
two-stage decision and the certificate run the same Python code on both
backends. Times smoothed_decision on representative policy/config
combinations, a 2000-sample certificate and a full defended ring scenario,
once per backend, and checks that both backends produce bit-identical
results (certificates included) while doing so.

Usage:
    python3 benchmarks/bench_backends.py [--repeats N] [--number N]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from smoothmas import _kernels
from smoothmas.adversary import AttackConfig
from smoothmas.certify import certify_decision, uniform_partition
from smoothmas.core import UNIT_DOMAIN, Purpose, SeedSpec, box_domain, ring_topology
from smoothmas.policy import AgentPolicy, HallucinationConfig, PolicyInput, llm_mimic
from smoothmas.sim import DefenseConfig, ScenarioConfig, run_scenario
from smoothmas.smoothing import SmoothingConfig, smoothed_decision


def _decision_cases():
    spec = SeedSpec(20240817)
    cfg = SmoothingConfig(sigma=0.05, m1=5, m_max=20, trim_frac=0.1)
    big = SmoothingConfig(sigma=0.05, m1=25, m_max=100, trim_frac=0.1)
    halluc = HallucinationConfig(p_h=0.1, mode="uniform-random")
    cases = [
        (
            "decision 1-D plain m1=5",
            AgentPolicy(llm_mimic(0.05)),
            PolicyInput((0.4,), ((1, (0.6,)), (2, (0.5,)))),
            cfg,
        ),
        (
            "decision 1-D halluc m1=5",
            AgentPolicy(llm_mimic(0.05), halluc=halluc),
            PolicyInput((0.4,), ((1, (0.6,)), (2, (0.5,)))),
            cfg,
        ),
        (
            "decision 3-D plain m1=25",
            AgentPolicy(llm_mimic(0.05), domain=box_domain((1.0, 1.0, 1.0))),
            PolicyInput((0.4, 0.5, 0.6), ((1, (0.6, 0.4, 0.5)), (2, (0.5, 0.6, 0.4)))),
            big,
        ),
    ]
    out = []
    for idx, (label, policy, inp, conf) in enumerate(cases):
        rng = spec.branch(0, idx, Purpose.DECIDE)
        out.append((label, lambda p=policy, i=inp, c=conf, r=rng: smoothed_decision(p, i, c, r)))
    return out


def _certificate_case():
    policy = AgentPolicy(
        llm_mimic(0.05, 1.0 / 3.0),
        halluc=HallucinationConfig(p_h=0.05, mode="uniform-random"),
    )
    inp = PolicyInput((0.4,), ((1, (0.6,)), (2, (0.5,))))
    partition = uniform_partition(UNIT_DOMAIN, 10)
    rng = SeedSpec(20240817).branch(0, 0, Purpose.CERTIFY)
    return "certificate 1-D n=2000", lambda: certify_decision(
        policy, inp, partition, 0.05, 2000, 0.01, rng
    )


def _scenario_case():
    n = 10
    policies = tuple(
        AgentPolicy(llm_mimic(0.05, 1.0 / 3.0),
                    halluc=HallucinationConfig(p_h=0.05, mode="uniform-random"))
        for _ in range(n)
    )
    cfg = ScenarioConfig(
        topology=ring_topology(n),
        rounds=20,
        policies=policies,
        master_seed=7,
        attack=AttackConfig(malicious=frozenset({4, 9}), p_attack=1.0, delta_max=0.3),
        defense=DefenseConfig(
            smoothing=SmoothingConfig(sigma=0.05, m1=5, m_max=20, trim_frac=0.1)
        ),
        initial_states=tuple((0.05 * i,) for i in range(n)),
    )
    return "defended ring, 10 agents x 20 rounds", lambda: run_scenario(cfg).final_states


def _time(fn, repeats: int, number: int) -> float:
    """Best mean seconds per call over `repeats` runs of `number` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timing repetitions")
    parser.add_argument("--number", type=int, default=50, help="calls per repetition")
    args = parser.parse_args(argv)

    if _kernels.fast() is None and _kernels.active_backend() == "pure":
        try:
            _kernels.use_backend("fast")
        except RuntimeError:
            print("compiled kernel not available; nothing to compare", file=sys.stderr)
            return 1

    cases = _decision_cases() + [_certificate_case(), _scenario_case()]
    rows = []
    mismatches = 0
    for label, fn in cases:
        timings = {}
        results = {}
        for backend in ("pure", "fast"):
            _kernels.use_backend(backend)
            results[backend] = fn()
            timings[backend] = _time(fn, args.repeats, args.number)
        if results["pure"] != results["fast"]:
            mismatches += 1
            label += "  [RESULT MISMATCH]"
        rows.append((label, timings["pure"], timings["fast"]))
    _kernels.use_backend("auto")

    width = max(len(r[0]) for r in rows)
    print(f"{'case':<{width}}  {'pure':>12}  {'fast':>12}  {'speedup':>8}")
    print("-" * (width + 40))
    for label, pure_s, fast_s in rows:
        speedup = pure_s / fast_s if fast_s > 0 else float("inf")
        print(
            f"{label:<{width}}  {pure_s * 1e6:>10.1f}us  {fast_s * 1e6:>10.1f}us"
            f"  {speedup:>7.2f}x"
        )
    print(
        f"\nglobal speedup (geometric mean): "
        f"{statistics.geometric_mean(p / f for _, p, f in rows):.2f}x"
    )
    if mismatches:
        print(f"{mismatches} case(s) returned different results across backends",
              file=sys.stderr)
        return 1
    print("all cases bit-identical across backends")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
