"""Deviation and consensus metrics for comparing scenario runs.

Comparisons are always against a shared baseline run: per-agent signed
deltas, their L2 magnitudes, the average magnitude over the normal
(non-malicious) agents, and the percentage improvement a defense brings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .core import InvalidArgumentError, StateVec, _require

States = Sequence[StateVec]


def deviation(final_a: States, final_baseline: States) -> tuple[StateVec, ...]:
    """Per-agent signed deltas final_a[i] - final_baseline[i]."""
    _require(len(final_a) == len(final_baseline), "agent counts differ")
    out = []
    for i, (a, b) in enumerate(zip(final_a, final_baseline)):
        _require(len(a) == len(b), f"agent {i} dimensions differ")
        out.append(tuple(x - y for x, y in zip(a, b)))
    return tuple(out)


def magnitude(vec: StateVec) -> float:
    return math.sqrt(sum(x * x for x in vec))


def deviation_magnitudes(deltas: States) -> tuple[float, ...]:
    return tuple(magnitude(d) for d in deltas)


def normal_avg_deviation(deltas: States, normal_agents: Iterable[int]) -> float:
    """Mean L2 deviation magnitude over the given agent set."""
    agents = sorted(set(normal_agents))
    _require(len(agents) > 0, "normal agent set is empty")
    for i in agents:
        _require(0 <= i < len(deltas), f"agent {i} out of range")
    return sum(magnitude(deltas[i]) for i in agents) / len(agents)


def improvement_pct(no_def_avg: float, def_avg: float) -> Optional[float]:
    """Percentage reduction (no_def - def) / no_def * 100.

    None when the no-defense average is zero (nothing to improve on);
    negative values mean the defense made things worse.
    """
    _require(no_def_avg >= 0.0, f"no_def_avg must be >= 0, got {no_def_avg}")
    _require(def_avg >= 0.0, f"def_avg must be >= 0, got {def_avg}")
    if no_def_avg == 0.0:
        return None
    return (no_def_avg - def_avg) / no_def_avg * 100.0


def consensus_error(states: States) -> float:
    """Largest pairwise L2 distance between agent states."""
    _require(len(states) >= 2, "consensus error needs at least two agents")
    # Compare squared gaps and take one square root: a correctly rounded sqrt
    # is monotone, so this equals the largest of the per-pair magnitudes.
    worst = 0.0
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            squared = sum((x - y) * (x - y) for x, y in zip(a, b))
            if squared > worst:
                worst = squared
    return math.sqrt(worst)


def mean_state(states: States, agents: Optional[Iterable[int]] = None) -> StateVec:
    """Component-wise mean over the chosen agents (all by default)."""
    idx = sorted(set(agents)) if agents is not None else list(range(len(states)))
    _require(len(idx) > 0, "mean over an empty agent set")
    d = len(states[idx[0]])
    acc = [0.0] * d
    for i in idx:
        for c in range(d):
            acc[c] += states[i][c]
    return tuple(a / len(idx) for a in acc)


def distances_from(states: States, reference: StateVec) -> tuple[float, ...]:
    """Per-agent L2 distance to a reference point."""
    return tuple(
        magnitude(tuple(a - b for a, b in zip(s, reference))) for s in states
    )


@dataclass(frozen=True)
class DeviationReport:
    """Deviations of the two attack scenarios against a shared baseline.

    improvement_pct applies the reduction formula to the two normal-agent
    averages (a ratio of means). improvement_pct_agent_mean averages the
    per-agent reduction ratios over every agent whose no-defense deviation is
    nonzero; the two conventions genuinely differ and are reported side by
    side.
    """

    no_def_deltas: tuple[StateVec, ...]
    def_deltas: tuple[StateVec, ...]
    no_def_magnitudes: tuple[float, ...]
    def_magnitudes: tuple[float, ...]
    normal_agents: tuple[int, ...]
    no_def_avg: float
    def_avg: float
    improvement_pct: Optional[float]
    improvement_pct_agent_mean: Optional[float]


def deviation_report(
    baseline_final: States,
    no_def_final: States,
    def_final: States,
    normal_agents: Iterable[int],
) -> DeviationReport:
    no_def_deltas = deviation(no_def_final, baseline_final)
    def_deltas = deviation(def_final, baseline_final)
    normal = tuple(sorted(set(normal_agents)))
    no_def_avg = normal_avg_deviation(no_def_deltas, normal)
    def_avg = normal_avg_deviation(def_deltas, normal)

    no_def_mags = deviation_magnitudes(no_def_deltas)
    def_mags = deviation_magnitudes(def_deltas)
    per_agent = [
        (a - b) / a * 100.0 for a, b in zip(no_def_mags, def_mags) if a > 0.0
    ]
    agent_mean = sum(per_agent) / len(per_agent) if per_agent else None

    return DeviationReport(
        no_def_deltas=no_def_deltas,
        def_deltas=def_deltas,
        no_def_magnitudes=no_def_mags,
        def_magnitudes=def_mags,
        normal_agents=normal,
        no_def_avg=no_def_avg,
        def_avg=def_avg,
        improvement_pct=improvement_pct(no_def_avg, def_avg),
        improvement_pct_agent_mean=agent_mean,
    )
