"""Stealthy transmission manipulation.

Manipulation happens on the wire, not in the sender's head: a malicious agent
keeps updating its own state honestly but, with some probability per
transmission, reports a displaced value bounded in L2 norm by delta_max
(before clamping to the domain).

For d > 1 the bounded displacement is applied along the normalized all-ones
direction (constant-bias, oscillating) or drawn per component and projected
onto the delta_max ball (uniform-bounded), so the norm bound holds for every
strategy and dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import Domain, StateVec, Stream, UNIT_DOMAIN, _require, as_state

CONSTANT_BIAS = "constant-bias"
UNIFORM_BOUNDED = "uniform-bounded"
OSCILLATING = "oscillating"
_STRATEGIES = (CONSTANT_BIAS, UNIFORM_BOUNDED, OSCILLATING)


@dataclass(frozen=True)
class AttackConfig:
    """Who lies, how often, and what the lie looks like."""

    malicious: frozenset[int]
    p_attack: float
    delta_max: float
    strategy: str = CONSTANT_BIAS
    bias_sign: int = 1
    period: int = 10

    def __post_init__(self):
        object.__setattr__(self, "malicious", frozenset(int(a) for a in self.malicious))
        for a in self.malicious:
            _require(a >= 0, "malicious agent ids must be non-negative")
        _require(0.0 <= self.p_attack <= 1.0, "p_attack must be in [0, 1]")
        _require(self.delta_max >= 0.0, "delta_max must be >= 0")
        _require(self.strategy in _STRATEGIES, f"unknown attack strategy {self.strategy!r}")
        _require(self.bias_sign in (-1, 1), "bias_sign must be -1 or +1")
        _require(self.period >= 1, "period must be >= 1")


def _displacement(
    cfg: AttackConfig, round_index: int, d: int, rng: Stream
) -> list[float]:
    if cfg.strategy == CONSTANT_BIAS:
        step = cfg.bias_sign * cfg.delta_max / math.sqrt(d)
        return [step] * d
    if cfg.strategy == OSCILLATING:
        s = math.sin(2.0 * math.pi * round_index / cfg.period)
        direction = 1.0 if s > 0.0 else (-1.0 if s < 0.0 else 0.0)
        step = direction * cfg.delta_max / math.sqrt(d)
        return [step] * d
    # uniform-bounded: per-component draw, then project onto the L2 ball
    disp = [cfg.delta_max * (2.0 * rng.next_uniform() - 1.0) for _ in range(d)]
    norm = math.sqrt(sum(x * x for x in disp))
    if norm > cfg.delta_max and norm > 0.0:
        scale = cfg.delta_max / norm
        disp = [x * scale for x in disp]
    return disp


def transmit_detail(
    cfg: Optional[AttackConfig],
    sender: int,
    true_state: StateVec,
    round_index: int,
    rng: Stream,
    domain: Domain = UNIT_DOMAIN,
) -> tuple[StateVec, bool]:
    """What lands on one edge this round, plus whether manipulation fired.

    An honest sender's report, and every report when no attack is
    configured, is its state forwarded as given: the same object, unchecked,
    with no draws from rng. States are validated where they enter the
    simulation, not on every edge. A malicious sender's state is checked
    before it is displaced.
    """
    if cfg is None or sender not in cfg.malicious:
        return true_state, False
    true_state = as_state(true_state)
    u = rng.next_uniform()
    if u >= cfg.p_attack:
        return true_state, False
    disp = _displacement(cfg, round_index, len(true_state), rng)
    reported = domain.clamp([x + dx for x, dx in zip(true_state, disp)])
    return reported, True


def transmit(
    cfg: Optional[AttackConfig],
    sender: int,
    true_state: StateVec,
    round_index: int,
    rng: Stream,
    domain: Domain = UNIT_DOMAIN,
) -> StateVec:
    """The state the receiver sees on this edge."""
    return transmit_detail(cfg, sender, true_state, round_index, rng, domain)[0]
