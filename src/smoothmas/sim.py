"""Round-based consensus simulation under attack and defense layers.

Updates are synchronous: every agent's round-t+1 state is computed from the
round-t snapshot only, then committed in one barrier. All randomness is drawn
from streams derived by (round, agent, purpose), so a trajectory is the same
in any evaluation order, and from concurrent callers.

Per round, three phases over the snapshot:

1. Transmit. Each directed edge carries the sender's report, manipulated by
   the attack layer when the sender is malicious (one Bernoulli draw per
   edge).
2. Verify (defense with verify_neighbors). Honest receivers discard one-shot
   wire values entirely and re-derive each in-neighbor's report as that
   neighbor's own smoothed decision over the snapshot. A transmitted lie
   cannot survive this because it would have to stay consistent across many
   independently perturbed queries of the sender's actual decision process.
   Computed once per sender and shared by its receivers.
3. Decide. Honest agents update via their policy, smoothed when the defense
   says so; malicious agents update with a single raw evaluation on the raw
   wire reports (they do not defend themselves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .adversary import AttackConfig, transmit_detail
from .core import (
    Domain,
    PolicyUnavailableError,
    Purpose,
    SamplingFailedError,
    SeedSpec,
    StateVec,
    Topology,
    UNIT_DOMAIN,
    _require,
)
from .policy import AgentPolicy, PolicyInput
from .smoothing import SmoothingConfig, smoothed_decision_detail


@dataclass(frozen=True)
class DefenseConfig:
    """Which smoothing levels the honest agents run.

    verify_neighbors re-derives neighbor reports (phase 2 above);
    smooth_decisions smooths the agent's own update. Either can be switched
    off alone for ablation.
    """

    smoothing: SmoothingConfig
    verify_neighbors: bool = True
    smooth_decisions: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    topology: Topology
    rounds: int
    policies: tuple[AgentPolicy, ...]
    master_seed: int
    attack: Optional[AttackConfig] = None
    defense: Optional[DefenseConfig] = None
    initial_states: Optional[tuple[StateVec, ...]] = None
    domain: Domain = UNIT_DOMAIN

    def __post_init__(self):
        _require(self.rounds >= 1, f"rounds must be >= 1, got {self.rounds}")
        _require(
            len(self.policies) == self.topology.n,
            f"need one policy per agent ({self.topology.n}), got {len(self.policies)}",
        )
        for i, policy in enumerate(self.policies):
            _require(
                policy.domain == self.domain,
                f"agent {i} policy domain does not match the scenario domain",
            )
        if self.attack is not None:
            for a in self.attack.malicious:
                _require(a < self.topology.n, f"malicious agent {a} not in topology")
        if self.initial_states is not None:
            states = tuple(tuple(float(x) for x in s) for s in self.initial_states)
            object.__setattr__(self, "initial_states", states)
            _require(
                len(states) == self.topology.n,
                f"need {self.topology.n} initial states, got {len(states)}",
            )
            for i, s in enumerate(states):
                _require(
                    self.domain.contains(s),
                    f"initial state of agent {i} lies outside the domain",
                )

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def malicious(self) -> frozenset[int]:
        return self.attack.malicious if self.attack is not None else frozenset()

    @property
    def normal_agents(self) -> tuple[int, ...]:
        bad = self.malicious
        return tuple(i for i in range(self.n) if i not in bad)


@dataclass(frozen=True)
class WorldState:
    round_index: int
    states: tuple[StateVec, ...]


@dataclass(frozen=True)
class Trajectory:
    """Everything a run recorded.

    states has rounds+1 rows (row 0 = initial). queries[t][i] counts agent
    i's own decision queries in the step t -> t+1 (1 when unsmoothed).
    attack_fired[t][j] flags whether sender j manipulated any outbound edge
    in that step. verify_queries[t][j] counts the samples spent re-deriving
    agent j's report, shared across its receivers.
    """

    states: tuple[tuple[StateVec, ...], ...]
    queries: tuple[tuple[int, ...], ...]
    attack_fired: tuple[tuple[bool, ...], ...]
    verify_queries: tuple[tuple[int, ...], ...]

    @property
    def rounds(self) -> int:
        return len(self.states) - 1

    @property
    def n(self) -> int:
        return len(self.states[0])

    @property
    def final_states(self) -> tuple[StateVec, ...]:
        return self.states[-1]


def initial_world(cfg: ScenarioConfig) -> WorldState:
    if cfg.initial_states is not None:
        return WorldState(0, cfg.initial_states)
    seed = SeedSpec(cfg.master_seed)
    states = tuple(
        cfg.domain.uniform_vector(seed.stream(0, i, Purpose.INIT, 0))
        for i in range(cfg.n)
    )
    return WorldState(0, states)


def step_detail(
    cfg: ScenarioConfig,
    world: WorldState,
    round_index: int,
    eval_order: Optional[Sequence[int]] = None,
) -> tuple[WorldState, tuple[int, ...], tuple[bool, ...], tuple[int, ...]]:
    """One synchronous round; returns the new world plus step bookkeeping."""
    _require(
        world.round_index == round_index,
        f"world is at round {world.round_index}, not {round_index}",
    )
    n = cfg.n
    snapshot = world.states
    seed = SeedSpec(cfg.master_seed)
    topology = cfg.topology
    malicious = cfg.malicious
    defense = cfg.defense

    # phase 1: every edge's wire report, one stream per (round, sender, edge)
    reports: dict[tuple[int, int], StateVec] = {}
    fired = [False] * n
    for sender in range(n):
        branch = seed.branch(round_index, sender, Purpose.TRANSMIT)
        for receiver in topology.receivers(sender):
            value, did_fire = transmit_detail(
                cfg.attack, sender, snapshot[sender], round_index,
                branch.stream(receiver), cfg.domain,
            )
            reports[(receiver, sender)] = value
            fired[sender] = fired[sender] or did_fire

    # phase 2: re-derive reports of every sender some honest agent listens to
    verified: dict[int, StateVec] = {}
    verify_queries = [0] * n
    if defense is not None and defense.verify_neighbors:
        need = sorted(
            {
                j
                for i in range(n)
                if i not in malicious
                for j in topology.neighbors(i)
            }
        )
        for j in need:
            nbr_input = PolicyInput(
                own_state=snapshot[j],
                neighbor_states=tuple((l, snapshot[l]) for l in topology.neighbors(j)),
            )
            try:
                detail = smoothed_decision_detail(
                    cfg.policies[j], nbr_input, defense.smoothing,
                    seed.branch(round_index, j, Purpose.VERIFY),
                )
            except (PolicyUnavailableError, SamplingFailedError) as exc:
                raise type(exc)(
                    f"round {round_index}, verifying agent {j}: {exc}"
                ) from exc
            verified[j] = detail.value
            verify_queries[j] = detail.queries

    # phase 3: decisions, all from the snapshot
    def decide(i: int) -> tuple[StateVec, int]:
        nbrs = topology.neighbors(i)
        wire = tuple((j, reports[(i, j)]) for j in nbrs)
        branch = seed.branch(round_index, i, Purpose.DECIDE)
        if i in malicious or defense is None:
            pin = PolicyInput(snapshot[i], wire)
            try:
                return cfg.policies[i](pin, branch.stream(0)), 1
            except PolicyUnavailableError as exc:
                raise PolicyUnavailableError(
                    f"round {round_index}, agent {i}: {exc}"
                ) from exc
        inputs = (
            tuple((j, verified[j]) for j in nbrs)
            if defense.verify_neighbors
            else wire
        )
        pin = PolicyInput(snapshot[i], inputs)
        try:
            if defense.smooth_decisions:
                detail = smoothed_decision_detail(
                    cfg.policies[i], pin, defense.smoothing, branch
                )
                return detail.value, detail.queries
            return cfg.policies[i](pin, branch.stream(0)), 1
        except (PolicyUnavailableError, SamplingFailedError) as exc:
            raise type(exc)(f"round {round_index}, agent {i}: {exc}") from exc

    order = list(eval_order) if eval_order is not None else list(range(n))
    _require(
        sorted(order) == list(range(n)),
        "eval_order must be a permutation of all agents",
    )
    results = {i: decide(i) for i in order}

    new_world = WorldState(round_index + 1, tuple(results[i][0] for i in range(n)))
    queries = tuple(results[i][1] for i in range(n))
    return new_world, queries, tuple(fired), tuple(verify_queries)


def step(cfg: ScenarioConfig, world: WorldState, round_index: int) -> WorldState:
    """One synchronous round of the consensus dynamics."""
    return step_detail(cfg, world, round_index)[0]


def run_scenario(
    cfg: ScenarioConfig, eval_order: Optional[Sequence[int]] = None
) -> Trajectory:
    """Apply step rounds times, recording states and bookkeeping.

    eval_order permutes the order in which agents decide. The result is the
    same in any evaluation order, and from concurrent callers.
    """
    world = initial_world(cfg)
    states = [world.states]
    queries: list[tuple[int, ...]] = []
    fired: list[tuple[bool, ...]] = []
    verify_queries: list[tuple[int, ...]] = []
    for t in range(cfg.rounds):
        world, q, f, v = step_detail(cfg, world, t, eval_order=eval_order)
        states.append(world.states)
        queries.append(q)
        fired.append(f)
        verify_queries.append(v)
    return Trajectory(
        states=tuple(states),
        queries=tuple(queries),
        attack_fired=tuple(fired),
        verify_queries=tuple(verify_queries),
    )
