"""Agent decision policies and the hallucination wrapper.

Three policy kinds share one contract: map (own state, neighbor states) to the
next state, clamped to the domain.

* mean-aggregation: deterministic weighted average.
* llm-mimic: weighted average plus zero-mean Gaussian jitter, a stand-in for
  a language model with response noise.
* external-llm: delegates to a chat-completion gateway (see `llmgate`).

The scalar arithmetic (accumulation order included) is mirrored in the
compiled kernel; keep them in sync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from .core import (
    Domain,
    InvalidArgumentError,
    PolicyUnavailableError,
    StateVec,
    Stream,
    UNIT_DOMAIN,
    _require,
    as_state,
)

MEAN_AGGREGATION = "mean-aggregation"
LLM_MIMIC = "llm-mimic"
EXTERNAL_LLM = "external-llm"
_KINDS = (MEAN_AGGREGATION, LLM_MIMIC, EXTERNAL_LLM)

UNIFORM_RANDOM = "uniform-random"
FIXED_TARGET = "fixed-target"
LARGE_JUMP = "large-jump"
_MODES = (UNIFORM_RANDOM, FIXED_TARGET, LARGE_JUMP)


class DecisionGateway(Protocol):
    def query_decision(self, policy_input: "PolicyInput", domain: Domain) -> StateVec: ...


@dataclass(frozen=True)
class PolicyKind:
    """Which policy an agent runs and its scalar parameters."""

    tag: str
    self_weight: float = 0.5
    jitter_sd: float = 0.0

    def __post_init__(self):
        _require(self.tag in _KINDS, f"unknown policy tag {self.tag!r}")
        _require(0.0 <= self.self_weight <= 1.0, "self_weight must be in [0, 1]")
        _require(self.jitter_sd >= 0.0, "jitter_sd must be >= 0")


def mean_aggregation(self_weight: float = 0.5) -> PolicyKind:
    return PolicyKind(MEAN_AGGREGATION, self_weight=self_weight)


def llm_mimic(jitter_sd: float, self_weight: float = 0.5) -> PolicyKind:
    return PolicyKind(LLM_MIMIC, self_weight=self_weight, jitter_sd=jitter_sd)


def external_llm(self_weight: float = 0.5) -> PolicyKind:
    return PolicyKind(EXTERNAL_LLM, self_weight=self_weight)


@dataclass(frozen=True)
class PolicyInput:
    """One agent's view for a single decision.

    Neighbor entries are normalized to ascending agent id so that evaluation
    is independent of the order the caller gathered them in.
    """

    own_state: StateVec
    neighbor_states: tuple[tuple[int, StateVec], ...]

    def __post_init__(self):
        own = as_state(self.own_state)
        object.__setattr__(self, "own_state", own)
        seen = set()
        normalized = []
        for agent, vec in self.neighbor_states:
            _require(agent not in seen, f"duplicate neighbor id {agent}")
            seen.add(agent)
            vec = as_state(vec)
            _require(
                len(vec) == len(own),
                f"neighbor {agent} has dimension {len(vec)}, expected {len(own)}",
            )
            normalized.append((int(agent), vec))
        normalized.sort(key=lambda item: item[0])
        object.__setattr__(self, "neighbor_states", tuple(normalized))

    @property
    def dimension(self) -> int:
        return len(self.own_state)


@dataclass(frozen=True)
class HallucinationConfig:
    """Probability and shape of whole-output replacement."""

    p_h: float
    mode: str = UNIFORM_RANDOM
    magnitude: float = 0.5
    target: Optional[StateVec] = None

    def __post_init__(self):
        _require(0.0 <= self.p_h <= 1.0, "p_h must be in [0, 1]")
        _require(self.mode in _MODES, f"unknown hallucination mode {self.mode!r}")
        _require(self.magnitude >= 0.0, "magnitude must be >= 0")
        if self.mode == FIXED_TARGET:
            _require(self.target is not None, "fixed-target mode requires a target")
        if self.target is not None:
            object.__setattr__(self, "target", as_state(self.target))


def _weighted_mean(kind: PolicyKind, policy_input: PolicyInput) -> list[float]:
    own = policy_input.own_state
    nbrs = policy_input.neighbor_states
    if not nbrs:
        return list(own)
    w = kind.self_weight
    k = len(nbrs)
    out = []
    for c in range(len(own)):
        acc = 0.0
        for _, vec in nbrs:
            acc += vec[c]
        out.append(w * own[c] + (1.0 - w) * (acc / k))
    return out


def evaluate_policy(
    kind: PolicyKind,
    policy_input: PolicyInput,
    rng: Stream,
    domain: Domain = UNIT_DOMAIN,
    gateway: Optional[DecisionGateway] = None,
) -> StateVec:
    """Evaluate the base policy (no hallucination wrapper).

    With an empty neighbor list the own state is returned unchanged; an
    isolated agent has nothing to aggregate.
    """
    _require(policy_input.dimension == domain.dimension, "input dimension does not match domain")
    if kind.tag == EXTERNAL_LLM:
        if gateway is None:
            raise PolicyUnavailableError("external-llm policy requires a gateway")
        # the reply enters the simulation here; later rounds do not re-check it
        return as_state(domain.clamp(gateway.query_decision(policy_input, domain)))
    if not policy_input.neighbor_states:
        return policy_input.own_state
    out = _weighted_mean(kind, policy_input)
    if kind.tag == LLM_MIMIC:
        for c in range(len(out)):
            out[c] += kind.jitter_sd * rng.next_gaussian()
    return domain.clamp(out)


def _unchecked_input(
    own: StateVec, nbrs: tuple[tuple[int, StateVec], ...]
) -> PolicyInput:
    """Construct a PolicyInput from already-normalized parts, skipping
    validation. Internal fast path for the smoothing sampler."""
    obj = object.__new__(PolicyInput)
    object.__setattr__(obj, "own_state", own)
    object.__setattr__(obj, "neighbor_states", nbrs)
    return obj


def hallucinate_wrap(
    kind: PolicyKind,
    halluc: Optional[HallucinationConfig],
    policy_input: PolicyInput,
    rng: Stream,
    domain: Domain = UNIT_DOMAIN,
    gateway: Optional[DecisionGateway] = None,
) -> StateVec:
    """The policy as actually emitted: with probability p_h the entire output
    is replaced according to the configured mode.

    Draw order: the hallucination Bernoulli first (skipped entirely when the
    wrapper is inactive, so an inactive wrapper consumes exactly the same
    draws as the bare policy), then branch-specific draws.
    """
    if halluc is None or halluc.p_h == 0.0:
        return evaluate_policy(kind, policy_input, rng, domain, gateway)
    u = rng.next_uniform()
    if u >= halluc.p_h:
        return evaluate_policy(kind, policy_input, rng, domain, gateway)
    if halluc.mode == UNIFORM_RANDOM:
        return domain.uniform_vector(rng)
    if halluc.mode == FIXED_TARGET:
        target = halluc.target
        _require(target is not None and len(target) == domain.dimension,
                 "fixed-target hallucination target must match domain dimension")
        return domain.clamp(target)
    base = evaluate_policy(kind, policy_input, rng, domain, gateway)
    out = []
    for c in range(len(base)):
        sign = 1.0 if rng.next_uniform() < 0.5 else -1.0
        out.append(base[c] + sign * halluc.magnitude)
    return domain.clamp(out)


@dataclass(frozen=True)
class AgentPolicy:
    """A policy bundled with its hallucination wrapper, domain, and gateway;
    the callable unit the smoothing and simulation layers work with."""

    kind: PolicyKind
    halluc: Optional[HallucinationConfig] = None
    domain: Domain = UNIT_DOMAIN
    gateway: Optional[DecisionGateway] = field(default=None, compare=False)

    def __call__(self, policy_input: PolicyInput, rng: Stream) -> StateVec:
        return hallucinate_wrap(
            self.kind, self.halluc, policy_input, rng, self.domain, self.gateway
        )
