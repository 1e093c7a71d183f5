"""The benchmark's three workloads and the digests that check their outputs.

Each workload derives a fixed pool of distinct op inputs from the benchmark
seed. The timed loop cycles through the pool, and the pure-Python reference
pass recomputes every pool entry once, so the reference costs the same however
fast the timed backend becomes. The program keeps no state between calls, so
repeating an input repeats the full work.

A digest covers exactly what the determinism contract covers: per-agent states
by round, decision queries and verify queries, and for a certificate its
region, bounds and radius. Timings and rendered figures are left out. A digest
of None marks an op that failed outright.

Workloads call the package through module attributes looked up at call time,
so the tracer can patch those attributes from outside.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
RING_TRIPLET = ROOT / "configs" / "ring_triplet.json"
CERTIFY_EXAMPLE = ROOT / "configs" / "certify_example.json"


def _derived_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def _csv_core(path: Path) -> bytes:
    """The round, agent, component_* and queries_used cells of a trajectory
    CSV, located by header name so that appended columns do not matter."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    wanted = [header.index("round"), header.index("agent")]
    wanted += [c for c, name in enumerate(header) if name.startswith("component_")]
    wanted.append(header.index("queries_used"))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(",".join(cells[c] for c in wanted))
    return "\n".join(rows).encode()


class Workload:
    name: str
    pool_size: int
    ops_per_call: int
    pool: list
    phases: dict[str, float]

    def call(self, slot: int) -> Any:
        raise NotImplementedError

    def reference_call(self, slot: int) -> Any:
        """The same op, as the pure-backend reference process runs it."""
        return self.call(slot)

    def digests(self, slot: int, result: Any) -> list[Optional[str]]:
        raise NotImplementedError


class CliTriplet(Workload):
    """`smoothmas run` on ring_triplet.json; one op is one seed's three legs
    plus their CSV, SVG and summary files."""

    name = "cli_triplet"
    pool_size = 8
    ops_per_call = 1

    def __init__(self, seed: int, out_dir: Path):
        from smoothmas import cli
        from smoothmas.config import load_config, triplet_configs

        self.cli = cli
        self.out_dir = out_dir
        start = time.perf_counter()
        cfg = load_config(str(RING_TRIPLET))
        seeds = _derived_seeds(self.name, seed, self.pool_size)
        self.legs = [sorted(triplet_configs(cfg, seed=s)) for s in seeds]
        self.phases = {"config": time.perf_counter() - start, "topology": 0.0}
        self.pool = seeds

    def call(self, slot: int) -> Any:
        seed = self.pool[slot]
        out = self.out_dir / f"slot_{slot}"
        argv = [
            "run", "--config", str(RING_TRIPLET), "--seeds", f"{seed},",
            "--out", str(out), "--force",
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.main(argv)

    def digests(self, slot: int, rc: Any) -> list[Optional[str]]:
        if rc != 0:
            return [None]
        seed = self.pool[slot]
        out = self.out_dir / f"slot_{slot}"
        try:
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            if summary["incomplete"]:
                return [None]
            block = summary["per_seed"][str(seed)]
            h = hashlib.sha256()
            for leg in self.legs[slot]:
                h.update(leg.encode())
                h.update(_csv_core(out / f"seed_{seed}" / f"{leg}.csv"))
                totals = (block[leg]["total_queries"], block[leg]["total_verify_queries"])
                h.update(repr(totals).encode())
        except (OSError, KeyError, ValueError) as exc:
            print(f"cli_triplet slot {slot}: unreadable output: {exc!r}", file=sys.stderr)
            return [None]
        return [h.hexdigest()]


class MeshFull(Workload):
    """`run_scenario` on the with-defense leg of ring_triplet.json moved onto
    a 64-agent full mesh; one op is one agent-round."""

    name = "mesh_full"
    agents = 64
    rounds = 4
    pool_size = 2
    ops_per_call = agents * rounds

    def __init__(self, seed: int, out_dir: Path):
        from smoothmas import sim
        from smoothmas.config import load_config
        from smoothmas.core import full_topology
        from smoothmas.policy import AgentPolicy

        self.sim = sim
        start = time.perf_counter()
        cfg = load_config(str(RING_TRIPLET))
        kind = cfg.policy.build()
        policies = tuple(
            AgentPolicy(kind, halluc=cfg.hallucination, domain=cfg.domain)
            for _ in range(self.agents)
        )
        attack = dataclasses.replace(
            cfg.attack, malicious=frozenset(range(0, self.agents, 8))
        )
        mid = time.perf_counter()
        topology = full_topology(self.agents)
        self.pool = [
            sim.ScenarioConfig(
                topology=topology,
                rounds=self.rounds,
                policies=policies,
                master_seed=s,
                attack=attack,
                defense=cfg.defense,
                domain=cfg.domain,
            )
            for s in _derived_seeds(self.name, seed, self.pool_size)
        ]
        self.phases = {"config": mid - start, "topology": time.perf_counter() - mid}

    def call(self, slot: int) -> Any:
        return self.sim.run_scenario(self.pool[slot])

    def reference_call(self, slot: int) -> Any:
        order = list(reversed(range(self.agents)))
        return self.sim.run_scenario(self.pool[slot], eval_order=order)

    def digests(self, slot: int, traj: Any) -> list[Optional[str]]:
        out: list[Optional[str]] = []
        for t in range(self.rounds):
            for i in range(self.agents):
                state = ",".join(x.hex() for x in traj.states[t + 1][i])
                cell = f"{t}|{i}|{state}|{traj.queries[t][i]}|{traj.verify_queries[t][i]}"
                out.append(hashlib.sha256(cell.encode()).hexdigest())
        return out


class CertifySweep(Workload):
    """`certify_decision` with certify_example.json's settings on 1-D ring
    contexts; one op is one certificate."""

    name = "certify_sweep"
    pool_size = 100
    ops_per_call = 1

    def __init__(self, seed: int, out_dir: Path):
        from smoothmas import certify
        from smoothmas.config import build_policies, load_config
        from smoothmas.core import Purpose, SeedSpec
        from smoothmas.policy import PolicyInput

        self.certify = certify
        start = time.perf_counter()
        cfg = load_config(str(CERTIFY_EXAMPLE))
        self.policy = build_policies(cfg, cfg.hallucination)[0]
        self.settings = cfg.certification
        self.partition = certify.uniform_partition(cfg.domain, cfg.certification.k_regions)
        rng = random.Random(f"{self.name}:{seed}")
        self.pool = []
        for _ in range(self.pool_size):
            agent = rng.randrange(cfg.n)
            own, left, right = rng.random(), rng.random(), rng.random()
            context = PolicyInput(
                (own,), (((agent - 1) % cfg.n, (left,)), ((agent + 1) % cfg.n, (right,)))
            )
            branch = SeedSpec(rng.randrange(1 << 31)).branch(0, agent, Purpose.CERTIFY)
            self.pool.append((context, branch))
        self.phases = {"config": time.perf_counter() - start, "topology": 0.0}

    def call(self, slot: int) -> Any:
        context, branch = self.pool[slot]
        s = self.settings
        return self.certify.certify_decision(
            self.policy, context, self.partition, s.sigma, s.n, s.alpha, branch
        )

    def digests(self, slot: int, cert: Any) -> list[Optional[str]]:
        radius = None if cert.radius is None else cert.radius.hex()
        return [f"{cert.region}|{cert.pA_lower.hex()}|{cert.pB_upper.hex()}|{radius}"]


WORKLOADS = {w.name: w for w in (CliTriplet, MeshFull, CertifySweep)}


def setup(name: str, seed: int, out_dir: Path):
    """Import the package and build one workload's inputs.

    Returns the workload and the seconds spent importing, loading config and
    building topology, the phases that make up set-up time."""
    start = time.perf_counter()
    import smoothmas  # noqa: F401

    if name == CliTriplet.name:
        import smoothmas.cli  # noqa: F401
    imported = time.perf_counter()
    workload = WORKLOADS[name](seed, out_dir)
    return workload, {"import": imported - start, **workload.phases}
