"""Command-line front end: runs, certification reports, formation scenario.

Subcommands
    run              consensus scenarios (single or comparative triplet)
    certify          per-agent decision certificates + attenuation table
    formation        3D formation-keeping variant of the triplet
    validate-config  parse a config, print it with all defaults filled in

Output layout: everything lands under --out, one seed_<s>/ directory per
seed, summary.json at the top. Existing non-empty output directories are
refused unless --force is given.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import deque
from pathlib import Path
from typing import Callable, Optional, Sequence

from .certify import (
    RegionPartition,
    attenuation_factor,
    certify_decision,
    path_attenuation,
    tolerance_index,
    uniform_partition,
)
from .config import (
    BASELINE,
    ConfigError,
    ExperimentConfig,
    NO_DEFENSE,
    WITH_DEFENSE,
    build_policies,
    load_config,
    scenario_config,
    serialize_config,
    triplet_configs,
)
from .core import (
    PolicyUnavailableError,
    Purpose,
    SamplingFailedError,
    SeedSpec,
    SmoothmasError,
)
from .llmgate import LlmGateway
from .metrics import (
    consensus_error,
    deviation,
    deviation_magnitudes,
    distances_from,
    improvement_pct,
    mean_state,
    normal_avg_deviation,
)
from .policy import PolicyInput
from .sim import ScenarioConfig, Trajectory, initial_world, run_scenario
from .svgplot import top_view_chart, trajectory_chart


def trajectory_csv(traj: Trajectory) -> str:
    """Fixed-format CSV: round, agent, components, then the transition
    bookkeeping (attack_fired, queries_used) that produced this row's state.
    Row 0 is the initial state, so its bookkeeping columns are zero."""
    d = len(traj.states[0][0])
    header = (
        ["round", "agent"]
        + [f"component_{c}" for c in range(d)]
        + ["attack_fired", "queries_used"]
    )
    lines = [",".join(header)]
    for r, row in enumerate(traj.states):
        for i, state in enumerate(row):
            fired = traj.attack_fired[r - 1][i] if r > 0 else False
            queries = traj.queries[r - 1][i] if r > 0 else 0
            cells = (
                [str(r), str(i)]
                + [f"{x:.9g}" for x in state]
                + [str(int(fired)), str(queries)]
            )
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_seeds(text: Optional[str], master_seed: int) -> list[int]:
    """--seeds accepts a count ("20") or an explicit list ("3,57,90")."""
    if text is None:
        return [master_seed]
    if "," in text:
        try:
            seeds = [int(p) for p in text.split(",") if p.strip() != ""]
        except ValueError:
            raise ConfigError(f"--seeds list has a non-integer entry: {text!r}")
        if not seeds:
            raise ConfigError(f"--seeds list has no entries: {text!r}")
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"--seeds list repeats a seed: {text!r}")
        return seeds
    try:
        count = int(text)
    except ValueError:
        raise ConfigError(f"--seeds must be a count or a comma-separated list, got {text!r}")
    if count < 1:
        raise ConfigError(f"--seeds count must be >= 1, got {count}")
    return [master_seed + i for i in range(count)]


def _prepare_outdir(out: str, force: bool) -> Path:
    path = Path(out)
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(
            f"output directory {out} is not empty; pass --force to overwrite"
        )
    path.mkdir(parents=True, exist_ok=True)
    return path


def _gateway(cfg: ExperimentConfig, live_llm: bool) -> Optional[LlmGateway]:
    if not live_llm:
        return None
    if cfg.llm is None:
        raise ConfigError("--live-llm needs an llm section in the config")
    return LlmGateway(cfg.llm)


def _single_legs(
    cfg: ExperimentConfig, seed: int, defense_mode: str, gateway
) -> dict[str, ScenarioConfig]:
    if defense_mode == "both":
        return {
            "defense_off": scenario_config(cfg, seed=seed, use_defense=False, gateway=gateway),
            "defense_on": scenario_config(cfg, seed=seed, gateway=gateway),
        }
    use_defense = defense_mode == "on"
    return {"run": scenario_config(cfg, seed=seed, use_defense=use_defense, gateway=gateway)}


def _legs_for_seed(
    cfg: ExperimentConfig, seed: int, defense_mode: str, gateway
) -> dict[str, ScenarioConfig]:
    if cfg.scenario == "triplet":
        return triplet_configs(cfg, seed=seed, gateway=gateway, defense_legs=defense_mode)
    return _single_legs(cfg, seed, defense_mode, gateway)


def _normal_agents(cfg: ExperimentConfig) -> list[int]:
    return sorted(set(range(cfg.n)) - (cfg.attack.malicious if cfg.attack else set()))


def _aggregate(values: list[float]) -> dict:
    out = {"mean": statistics.fmean(values)}
    out["sd"] = statistics.stdev(values) if len(values) > 1 else None
    return out


def _run_metrics(cfg: ExperimentConfig, legs: dict[str, Trajectory]) -> Optional[dict]:
    """Per-seed deviation block; needs the baseline plus one attack leg."""
    if BASELINE not in legs:
        return None
    normal = _normal_agents(cfg)
    base_final = legs[BASELINE].final_states
    block: dict = {}
    for leg in (NO_DEFENSE, WITH_DEFENSE):
        if leg in legs:
            deltas = deviation(legs[leg].final_states, base_final)
            mags = deviation_magnitudes(deltas)
            block[leg] = {
                "avg_normal_deviation": normal_avg_deviation(deltas, normal),
                "max_normal_deviation": max(mags[i] for i in normal),
            }
    if NO_DEFENSE in block and WITH_DEFENSE in block:
        a = block[NO_DEFENSE]["avg_normal_deviation"]
        b = block[WITH_DEFENSE]["avg_normal_deviation"]
        block["improvement_pct"] = improvement_pct(a, b)
        block["defense_wins"] = b < a
    return block or None


def _drive(
    args: argparse.Namespace,
    cfg: ExperimentConfig,
    header: dict,
    chart: Callable[[str, ScenarioConfig, Trajectory], str],
    seed_block: Callable[[dict[str, Trajectory]], dict],
    aggregate: Callable[[list[dict]], Optional[dict]],
    noun: str,
) -> int:
    """Run every leg of every seed, writing one CSV and one chart per leg and
    summary.json at the end; a failed policy evaluation or sampling stops the
    run, which is then marked incomplete and exits 3. Arguments are checked
    before the output directory is touched."""
    if args.defense != "off" and cfg.defense is None:
        raise ConfigError(
            f"config has no defense section but --defense {args.defense} was given"
        )
    gateway = _gateway(cfg, args.live_llm)
    seeds = parse_seeds(args.seeds, cfg.master_seed)
    out = _prepare_outdir(args.out, args.force)
    summary: dict = {
        **header,
        "config": serialize_config(cfg),
        "seeds": seeds,
        "per_seed": {},
        "incomplete": False,
    }
    try:
        for seed in seeds:
            legs = _legs_for_seed(cfg, seed, args.defense, gateway)
            seed_dir = out / f"seed_{seed}"
            seed_dir.mkdir(exist_ok=True)
            trajectories: dict[str, Trajectory] = {}
            for name, scenario in legs.items():
                traj = run_scenario(scenario)
                trajectories[name] = traj
                (seed_dir / f"{name}.csv").write_text(trajectory_csv(traj), encoding="utf-8")
                (seed_dir / f"{name}.svg").write_text(
                    chart(name, scenario, traj), encoding="utf-8"
                )
            summary["per_seed"][str(seed)] = seed_block(trajectories)
    except (PolicyUnavailableError, SamplingFailedError) as exc:
        summary["incomplete"] = True
        summary["error"] = str(exc)
        _write_summary(out, summary)
        print(f"error: run incomplete: {exc}", file=sys.stderr)
        return 3
    totals = aggregate(list(summary["per_seed"].values()))
    if totals is not None:
        summary["aggregate"] = totals
    _write_summary(out, summary)
    print(f"wrote {len(seeds)} {noun} to {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)

    def chart(name: str, scenario: ScenarioConfig, traj: Trajectory) -> str:
        title = f"{name} (seed {scenario.master_seed})"
        return trajectory_chart(traj.states, scenario.malicious, title)

    def seed_block(legs: dict[str, Trajectory]) -> dict:
        block: dict = {
            name: {
                "final_states": [list(s) for s in traj.final_states],
                "consensus_error_per_round": [consensus_error(row) for row in traj.states],
                "total_queries": sum(q for row in traj.queries for q in row),
                "total_verify_queries": sum(v for row in traj.verify_queries for v in row),
                "attack_fired_rounds": sum(1 for row in traj.attack_fired if any(row)),
            }
            for name, traj in legs.items()
        }
        metrics = _run_metrics(cfg, legs)
        if metrics is not None:
            block["metrics"] = metrics
        return block

    def aggregate(blocks: list[dict]) -> Optional[dict]:
        compared = [
            b["metrics"] for b in blocks
            if "defense_wins" in b.get("metrics", {})
        ]
        if not compared:
            return None
        nodef = [m[NO_DEFENSE]["avg_normal_deviation"] for m in compared]
        withdef = [m[WITH_DEFENSE]["avg_normal_deviation"] for m in compared]
        return {
            "no_defense_avg_normal_deviation": _aggregate(nodef),
            "with_defense_avg_normal_deviation": _aggregate(withdef),
            "improvement_pct": improvement_pct(
                statistics.fmean(nodef), statistics.fmean(withdef)
            ),
            "defense_wins": sum(bool(m["defense_wins"]) for m in compared),
            "seed_count": len(blocks),
        }

    return _drive(args, cfg, {}, chart, seed_block, aggregate, "seed run(s)")


def _write_summary(out: Path, summary: dict) -> None:
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _shortest_hops(cfg: ScenarioConfig) -> dict[int, Optional[list[int]]]:
    """Multi-source BFS from the malicious set; value is the hop node list
    ending at the agent (source excluded), or None when unreachable."""
    sources = sorted(cfg.malicious)
    parent: dict[int, Optional[int]] = {s: None for s in sources}
    queue = deque(sources)
    while queue:
        node = queue.popleft()
        for nxt in cfg.topology.receivers(node):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    paths: dict[int, Optional[list[int]]] = {}
    for i in range(cfg.n):
        if i in cfg.malicious or i not in parent:
            paths[i] = None
            continue
        chain = []
        node: Optional[int] = i
        while node is not None and node not in cfg.malicious:
            chain.append(node)
            node = parent[node]
        paths[i] = list(reversed(chain))
    return paths


def _certify_seed(
    cfg: ExperimentConfig,
    scenario: ScenarioConfig,
    partition: RegionPartition,
    agents: list[int],
    seed: int,
    gateway,
) -> dict:
    """One seed's certificates.json document."""
    cert = cfg.certification
    topology = scenario.topology
    world = initial_world(scenario_config(cfg, seed=seed, gateway=gateway))
    spec = SeedSpec(seed)
    per_agent: dict[str, dict] = {}
    radii: dict[int, float] = {}
    for agent in agents:
        pin = PolicyInput(
            world.states[agent],
            tuple((j, world.states[j]) for j in topology.neighbors(agent)),
        )
        result = certify_decision(
            scenario.policies[agent],
            pin,
            partition,
            cert.sigma,
            cert.n,
            cert.alpha,
            spec.branch(0, agent, Purpose.CERTIFY),
        )
        radius = 0.0 if result.radius is None else result.radius
        radii[agent] = radius
        per_agent[str(agent)] = {
            "region": result.region,
            "pA_lower": result.pA_lower,
            "pB_upper": result.pB_upper,
            "radius": result.radius,
            "abstained": result.abstained,
            "confidence": result.confidence,
            "n_samples": result.n_samples,
            "attenuation_factor": attenuation_factor(radius, cert.sigma),
        }
    normal = [a for a in agents if a not in scenario.malicious]
    table = []
    paths = _shortest_hops(scenario) if scenario.malicious else {}
    for agent in normal:
        row = {
            "agent": agent,
            "radius": radii[agent],
            "attenuation_factor": attenuation_factor(radii[agent], cert.sigma),
            "hops_from_malicious": None,
            "residual_perturbation": None,
        }
        path = paths.get(agent)
        if path:
            hop_radii = [radii.get(node, 0.0) for node in path]
            row["hops_from_malicious"] = len(path)
            row["residual_perturbation"] = path_attenuation(
                cert.delta_mal_max, hop_radii, cert.sigma
            )
        table.append(row)
    report = {
        "config": serialize_config(cfg),
        "seed": seed,
        "sigma": cert.sigma,
        "alpha": cert.alpha,
        "n": cert.n,
        "partition_boundaries": list(partition.boundaries),
        "per_agent": per_agent,
        "attenuation_table": table,
    }
    if normal:
        r_min = min(radii[a] for a in normal)
        report["tolerance_index"] = tolerance_index(r_min, cert.delta_mal_max)
    return report


def cmd_certify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.dimension != 1:
        raise ConfigError("certify needs a one-dimensional state space")
    gateway = _gateway(cfg, args.live_llm)
    seeds = parse_seeds(args.seeds, cfg.master_seed)
    out = _prepare_outdir(args.out, args.force)
    cert = cfg.certification
    partition = uniform_partition(cfg.domain, cert.k_regions)
    agents = list(cert.agents) if cert.agents is not None else list(range(cfg.n))
    scenario = scenario_config(cfg, gateway=gateway)
    try:
        for seed in seeds:
            report = _certify_seed(cfg, scenario, partition, agents, seed, gateway)
            seed_dir = out / f"seed_{seed}"
            seed_dir.mkdir(exist_ok=True)
            (seed_dir / "certificates.json").write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
    except (PolicyUnavailableError, SamplingFailedError) as exc:
        _write_summary(out, {
            "config": serialize_config(cfg),
            "seeds": seeds,
            "incomplete": True,
            "error": str(exc),
        })
        print(f"error: certification incomplete: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(seeds)} certification report(s) to {out}")
    return 0


def formation_slots(n: int, radius: float) -> tuple[tuple[float, float, float], ...]:
    """Regular-polygon slot offsets in the horizontal plane."""
    return tuple(
        (
            radius * math.cos(2.0 * math.pi * i / n),
            radius * math.sin(2.0 * math.pi * i / n),
            0.0,
        )
        for i in range(n)
    )


def _slot_errors(final: Sequence[Sequence[float]], normal: Sequence[int]) -> list[float]:
    center = mean_state(tuple(tuple(s) for s in final), normal)
    return list(distances_from(tuple(tuple(s) for s in final), center))


def cmd_formation(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if cfg.dimension != 3:
        raise ConfigError("formation needs a three-dimensional state space")
    slots = formation_slots(cfg.n, cfg.formation.slot_radius)
    diagonal = cfg.domain.diagonal()
    limit = 0.01 * diagonal
    normal = _normal_agents(cfg)

    def chart(name: str, scenario: ScenarioConfig, traj: Trajectory) -> str:
        title = f"{name} top view (seed {scenario.master_seed})"
        return top_view_chart(traj.states, scenario.malicious, title, offsets=slots)

    def seed_block(legs: dict[str, Trajectory]) -> dict:
        block: dict = {}
        for name, traj in legs.items():
            errors = _slot_errors(traj.final_states, normal)
            normal_errors = [errors[i] for i in normal]
            block[name] = {
                "slot_errors": errors,
                "mean_normal_slot_error": statistics.fmean(normal_errors),
                "max_normal_slot_error": max(normal_errors),
            }
        if BASELINE in block:
            block[BASELINE]["converged"] = block[BASELINE]["max_normal_slot_error"] < limit
        if NO_DEFENSE in block and WITH_DEFENSE in block:
            block["defense_improves"] = (
                block[WITH_DEFENSE]["mean_normal_slot_error"]
                < block[NO_DEFENSE]["mean_normal_slot_error"]
            )
        return block

    def aggregate(blocks: list[dict]) -> Optional[dict]:
        compared = [b["defense_improves"] for b in blocks if "defense_improves" in b]
        if not compared:
            return None
        return {"defense_wins": sum(compared), "comparisons": len(compared)}

    header = {"slot_error_limit": limit, "airspace_diagonal": diagonal}
    return _drive(args, cfg, header, chart, seed_block, aggregate, "formation run(s)")


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    print(json.dumps(serialize_config(cfg), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothmas",
        description="Deterministic multi-agent consensus runs with smoothing defense and certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scenario_flags: bool = True) -> None:
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seeds", default=None,
                       help="seed count or comma-separated seed list (default: config master_seed)")
        p.add_argument("--force", action="store_true",
                       help="overwrite a non-empty output directory")
        p.add_argument("--live-llm", dest="live_llm", action="store_true",
                       help="enable the real chat endpoint (needs LLM_API_KEY)")
        if scenario_flags:
            p.add_argument("--defense", choices=("on", "off", "both"), default="both",
                           help="which defense legs to run")

    common(sub.add_parser("run", help="run consensus scenarios"))
    common(sub.add_parser("certify", help="write per-agent certificates"),
           scenario_flags=False)
    common(sub.add_parser("formation", help="run the 3D formation scenario"))
    validate = sub.add_parser("validate-config", help="check a config file")
    validate.add_argument("--config", required=True,
                          help="path to the JSON experiment config")
    return parser


_COMMANDS = {
    "run": cmd_run,
    "certify": cmd_certify,
    "formation": cmd_formation,
    "validate-config": cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SmoothmasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
