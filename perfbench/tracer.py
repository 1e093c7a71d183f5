"""Spans around the package's public functions, patched in from outside.

Nothing under src/ knows about tracing. `patched` swaps each module-boundary
function for a wrapper that opens a span, calls the original and closes the
span, and restores the originals afterwards. Each span records a name, start,
end and parent (the span open when it started). Spans stay in memory;
`layer_metrics` derives the per-layer figures from them and `write_spans`
dumps them when the run ends.

A layer's self time is its span's duration minus the time its child spans
cover. Calls are strictly nested in one thread, so the child spans of a span
never overlap and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

# Percentiles are reported only from at least this many samples, else as 0.
MIN_PERCENTILE_SAMPLES = 100

DECISIONS = ("smoothing.verify", "smoothing.decide")

UNITS = {
    "setup.import_s": "s",
    "config.load_s": "s",
    "core.topology_build_s": "s",
    "process.cpu_s_per_op": "s",
    "cli.self_s": "s",
    "cli.csv_s": "s",
    "svgplot.render_s": "s",
    "metrics.s": "s",
    "sim.runs": "count",
    "sim.run_s": "s",
    "sim.step_ms_p50": "ms",
    "sim.step_ms_p90": "ms",
    "sim.self_s": "s",
    "adversary.transmit_calls": "count",
    "adversary.transmit_s": "s",
    "adversary.manipulated_share": "ratio",
    "core.neighbors_calls": "count",
    "core.neighbors_s": "s",
    "policy.input_builds": "count",
    "policy.input_s": "s",
    "policy.evals": "count",
    "policy.eval_s": "s",
    "smoothing.decisions": "count",
    "smoothing.verify_s": "s",
    "smoothing.decide_s": "s",
    "smoothing.samples": "count",
    "smoothing.extra_samples": "count",
    "smoothing.budget_use": "ratio",
    "smoothing.samples_per_s": "samples/s",
    "smoothing.sample_calls": "count",
    "smoothing.sample_s": "s",
    "kernels.dispatch_share": "ratio",
    "certify.cert_ms_p50": "ms",
    "certify.cert_ms_p90": "ms",
    "certify.sample_s": "s",
    "certify.samples_per_s": "samples/s",
    "certify.bounds_s": "s",
    "certify.self_s": "s",
    "certify.abstain_share": "ratio",
    "tracing.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # per span name: calls; plus values read off results (samples, ...)
        self.counts: Counter = Counter()
        # prefixes of this round's VERIFY stream branches, to tell the two
        # kinds of smoothed decision apart
        self.verify_prefixes: frozenset[int] = frozenset()
        # (scenario config, trajectory, counts during that run) per run
        self.runs: list[tuple[Any, Any, Counter]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.counts[name] += 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str | Callable[[tuple], str],
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """fn inside a span; name may be chosen per call from the arguments,
        and `after` sees the arguments and the result."""

        def traced(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_run(self, fn: Callable) -> Callable:
        """run_scenario in a span, keeping what the self-check needs."""

        def traced(cfg, *args, **kwargs):
            before = self.counts.copy()
            idx = self._open("sim.run")
            try:
                traj = fn(cfg, *args, **kwargs)
            finally:
                self._close(idx)
            self.runs.append((cfg, traj, self.counts - before))
            return traj

        return traced

    def wrap_step(self, fn: Callable) -> Callable:
        from smoothmas.core import Purpose, SeedSpec

        def traced(cfg, world, round_index, *args, **kwargs):
            seed = SeedSpec(cfg.master_seed)
            self.verify_prefixes = frozenset(
                seed.branch(round_index, j, Purpose.VERIFY).prefix for j in range(cfg.n)
            )
            idx = self._open("sim.step")
            try:
                return fn(cfg, world, round_index, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- result hooks ------------------------------------------------------

    def _decision_kind(self, args: tuple) -> str:
        return DECISIONS[0] if args[3].prefix in self.verify_prefixes else DECISIONS[1]

    def _after_decision(self, args: tuple, detail: Any) -> None:
        self.counts["smoothing.samples"] += detail.queries
        self.counts["smoothing.extra_samples"] += detail.extra_samples
        self.counts["smoothing.m_max"] += args[2].m_max

    def _after_transmit(self, args: tuple, result: Any) -> None:
        self.counts["adversary.fired"] += result[1]

    def _after_certificate(self, args: tuple, cert: Any) -> None:
        self.counts["certify.abstained"] += cert.abstained
        self.counts["certify.samples"] += cert.n_samples


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Trace every module boundary the workloads cross, then restore."""
    from smoothmas import certify, cli, core, policy, sim, smoothing

    t = tracer
    targets = [
        (cli, "main", lambda f: t.wrap("cli", f)),
        (cli, "trajectory_csv", lambda f: t.wrap("cli.csv", f)),
        (cli, "trajectory_chart", lambda f: t.wrap("svgplot.render", f)),
        (cli, "consensus_error", lambda f: t.wrap("metrics", f)),
        (cli, "deviation", lambda f: t.wrap("metrics", f)),
        (cli, "run_scenario", t.wrap_run),
        (sim, "run_scenario", t.wrap_run),
        (sim, "step_detail", t.wrap_step),
        (sim, "transmit_detail", lambda f: t.wrap("adversary.transmit", f, t._after_transmit)),
        (sim, "PolicyInput", lambda f: t.wrap("policy.input", f)),
        (sim, "smoothed_decision_detail",
         lambda f: t.wrap(t._decision_kind, f, t._after_decision)),
        (smoothing, "sample_policy", lambda f: t.wrap("smoothing.sample", f)),
        (core.Topology, "neighbors", lambda f: t.wrap("core.neighbors", f)),
        (policy.AgentPolicy, "__call__", lambda f: t.wrap("policy.eval", f)),
        (certify, "certify_decision",
         lambda f: t.wrap("certify.cert", f, t._after_certificate)),
        (certify, "sample_policy", lambda f: t.wrap("certify.sample", f)),
        (certify, "clopper_pearson_bounds", lambda f: t.wrap("certify.bounds", f)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for (owner, attr, make), (_, _, original) in zip(targets, saved):
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _percentile_ms(durations: list[float], q: int) -> float:
    """The q-th percentile in ms, or 0 below MIN_PERCENTILE_SAMPLES."""
    if len(durations) < MIN_PERCENTILE_SAMPLES:
        return 0.0
    return statistics.quantiles(durations, n=100)[q - 1] * 1000.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _aggregate(tracer: Tracer):
    """Inclusive and self time per span name, the durations of the spans
    that feed percentiles, and the decisions that called the sampler."""
    n = len(tracer.start)
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            covered[tracer.parent[i]] += duration[i]
    total: Counter = Counter()
    own: Counter = Counter()
    per_span: dict[str, list[float]] = {"sim.step": [], "certify.cert": []}
    sampled_decisions = set()
    sample_id = tracer._ids.get("smoothing.sample")
    for i in range(n):
        name = tracer.names[tracer.name_id[i]]
        total[name] += duration[i]
        own[name] += duration[i] - covered[i]
        if name in per_span:
            per_span[name].append(duration[i])
        if tracer.name_id[i] == sample_id:
            sampled_decisions.add(tracer.parent[i])
    return total, own, per_span, sampled_decisions


def self_times(tracer: Tracer) -> list[tuple[str, float]]:
    """Self time per span name, largest first."""
    return _aggregate(tracer)[1].most_common()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times, counts and ratios from one traced pass.

    Times named *_s are the inclusive span time of the layer; self_s subtracts
    its child spans."""
    total, own, per_span, sampled_decisions = _aggregate(tracer)
    c = tracer.counts
    decisions = c[DECISIONS[0]] + c[DECISIONS[1]]
    decision_s = total[DECISIONS[0]] + total[DECISIONS[1]]
    return {
        "cli.self_s": own["cli"],
        "cli.csv_s": total["cli.csv"],
        "svgplot.render_s": total["svgplot.render"],
        "metrics.s": total["metrics"],
        "sim.runs": c["sim.run"],
        "sim.run_s": total["sim.run"],
        "sim.step_ms_p50": _percentile_ms(per_span["sim.step"], 50),
        "sim.step_ms_p90": _percentile_ms(per_span["sim.step"], 90),
        "sim.self_s": own["sim.run"] + own["sim.step"],
        "adversary.transmit_calls": c["adversary.transmit"],
        "adversary.transmit_s": total["adversary.transmit"],
        "adversary.manipulated_share": _share(c["adversary.fired"], c["adversary.transmit"]),
        "core.neighbors_calls": c["core.neighbors"],
        "core.neighbors_s": total["core.neighbors"],
        "policy.input_builds": c["policy.input"],
        "policy.input_s": total["policy.input"],
        "policy.evals": c["policy.eval"],
        "policy.eval_s": total["policy.eval"],
        "smoothing.decisions": decisions,
        "smoothing.verify_s": total[DECISIONS[0]],
        "smoothing.decide_s": total[DECISIONS[1]],
        "smoothing.samples": c["smoothing.samples"],
        "smoothing.extra_samples": c["smoothing.extra_samples"],
        "smoothing.budget_use": _share(c["smoothing.extra_samples"], c["smoothing.m_max"]),
        "smoothing.samples_per_s": _share(c["smoothing.samples"], decision_s),
        "smoothing.sample_calls": c["smoothing.sample"],
        "smoothing.sample_s": total["smoothing.sample"],
        "kernels.dispatch_share": _share(decisions - len(sampled_decisions), decisions),
        "certify.cert_ms_p50": _percentile_ms(per_span["certify.cert"], 50),
        "certify.cert_ms_p90": _percentile_ms(per_span["certify.cert"], 90),
        "certify.sample_s": total["certify.sample"],
        "certify.samples_per_s": _share(c["certify.samples"], total["certify.sample"]),
        "certify.bounds_s": total["certify.bounds"],
        "certify.self_s": own["certify.cert"],
        "certify.abstain_share": _share(c["certify.abstained"], c["certify.cert"]),
    }


def self_check(tracer: Tracer) -> list[str]:
    """Compare the tracer's counts with values derived independently from
    each returned Trajectory; returns one line per mismatch."""
    problems = []
    for cfg, traj, seen in tracer.runs:
        label = f"run seed={cfg.master_seed} n={cfg.n}"
        transmits = cfg.topology.edge_count * traj.rounds
        verified = sum(v for row in traj.verify_queries for v in row)
        senders = sum(1 for row in traj.verify_queries for v in row if v > 0)
        honest = [i for i in range(cfg.n) if i not in cfg.malicious]
        smoothed = cfg.defense is not None and cfg.defense.smooth_decisions
        own = sum(row[i] for row in traj.queries for i in honest) if smoothed else 0
        deciders = len(honest) * traj.rounds if smoothed else 0
        expected = {
            "adversary.transmit": transmits,
            "smoothing.samples": verified + own,
            "decisions": senders + deciders,
        }
        got = dict(seen)
        got["decisions"] = seen[DECISIONS[0]] + seen[DECISIONS[1]]
        for key, want in expected.items():
            if got.get(key, 0) != want:
                problems.append(f"{label}: {key} traced {got.get(key, 0)}, trajectory says {want}")
    calls = tracer.counts["certify.cert"]
    if tracer.counts["certify.sample"] != calls:
        problems.append(
            f"certify: {tracer.counts['certify.sample']} sample batches for {calls} certificates"
        )
    return problems


def write_spans(tracer: Tracer, path: Path) -> None:
    """One line per span: index, parent index, name, start, end (seconds)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write("index\tparent\tname\tstart\tend\n")
        for i in range(len(tracer.start)):
            name = tracer.names[tracer.name_id[i]]
            f.write(f"{i}\t{tracer.parent[i]}\t{name}\t{tracer.start[i]:.9f}\t{tracer.end[i]:.9f}\n")
