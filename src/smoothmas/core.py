"""Shared primitives: state domains, topologies, and deterministic RNG streams.

Randomness is counter-based. Every draw is addressed by a key derived from
(master_seed, round, agent, purpose, index), so re-deriving a stream for the
same path yields the same values no matter when or in which order the caller
evaluates it. That is what makes snapshot re-evaluation bit-reproducible in
any evaluation order, and from concurrent callers.

The integer mixing here is mirrored verbatim in the compiled kernel
(`smoothmas._kernels._fast`); change one and you must change both. The
functions below are the pure reference. When the fast backend is active,
`_kernels.use_backend` binds `_fold` and `_uniform_at`, which derive every
stream key and uniform draw, to the kernel's bit-identical twins; otherwise
they are `fold` and `uniform_at` themselves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_SEED_ROOT = 0x243F6A8885A308D3
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53
_TWO_PI = 6.283185307179586

StateVec = tuple[float, ...]


class SmoothmasError(Exception):
    """Base class for package errors."""


class InvalidArgumentError(SmoothmasError, ValueError):
    """An argument violates an operation's contract."""


class InvalidTopologyError(SmoothmasError, ValueError):
    """Topology construction arguments are unusable."""


class InvalidAgentError(SmoothmasError, LookupError):
    """An agent id is outside the topology."""


class PolicyUnavailableError(SmoothmasError, RuntimeError):
    """A policy evaluation could not produce a value (e.g. gateway failure)."""


class SamplingFailedError(SmoothmasError, RuntimeError):
    """Too few Monte Carlo samples survived to aggregate."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidArgumentError(msg)


# ---------------------------------------------------------------------------
# RNG primitives
# ---------------------------------------------------------------------------


def mix64(z: int) -> int:
    """SplitMix64 finalizer; full avalanche on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def fold(h: int, w: int) -> int:
    """Absorb one path component into a stream key. Order-sensitive."""
    return mix64(((h * _GAMMA) & MASK64) ^ mix64(w & MASK64))


def word_at(key: int, i: int) -> int:
    """The i-th raw 64-bit word of the stream addressed by `key`."""
    return mix64((key + ((i + 1) * _GAMMA)) & MASK64)


def uniform_at(key: int, i: int) -> float:
    """The i-th uniform [0, 1) draw of the stream addressed by `key`."""
    return (word_at(key, i) >> 11) * _INV_2_53


# What streams derive keys and draw uniforms with; rebound by
# `_kernels.use_backend` to the kernel's twins under the fast backend.
_fold = fold
_uniform_at = uniform_at


class Purpose(enum.IntEnum):
    """Why a stream exists; part of the derivation path."""

    INIT = 1
    TRANSMIT = 2
    VERIFY = 3
    DECIDE = 4
    CERTIFY = 5


class Stream:
    """Sequential view over one counter-addressed stream of draws.

    A uniform consumes one word slot, a gaussian two (Box-Muller, cosine
    branch only, so draws stay slot-addressable).
    """

    __slots__ = ("key", "cursor")

    def __init__(self, key: int):
        self.key = key & MASK64
        self.cursor = 0

    def next_uniform(self) -> float:
        u = _uniform_at(self.key, self.cursor)
        self.cursor += 1
        return u

    def next_gaussian(self) -> float:
        u1 = _uniform_at(self.key, self.cursor)
        u2 = _uniform_at(self.key, self.cursor + 1)
        self.cursor += 2
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        return r * math.cos(_TWO_PI * u2)

    def uniforms(self, n: int) -> list[float]:
        return [self.next_uniform() for _ in range(n)]


@dataclass(frozen=True)
class StreamBranch:
    """A partially derived path; `stream(i)` appends the final index."""

    prefix: int

    def stream(self, index: int) -> Stream:
        return Stream(_fold(self.prefix, index))


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the derivation scheme for all per-event streams."""

    master_seed: int

    def __post_init__(self):
        # Derived from `master_seed`, so it is not a dataclass field and stays
        # out of equality, hashing and repr.
        object.__setattr__(self, "_root", _fold(_SEED_ROOT, self.master_seed))

    def branch(self, round_index: int, agent: int, purpose: Purpose) -> StreamBranch:
        h = _fold(self._root, round_index)
        h = _fold(h, agent)
        h = _fold(h, int(purpose))
        return StreamBranch(h)

    def stream(self, round_index: int, agent: int, purpose: Purpose, index: int) -> Stream:
        return self.branch(round_index, agent, purpose).stream(index)


# ---------------------------------------------------------------------------
# State domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box the state lives in; everything is clamped into it."""

    low: StateVec
    high: StateVec

    def __post_init__(self):
        low = tuple(float(x) for x in self.low)
        high = tuple(float(x) for x in self.high)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        _require(len(low) == len(high), "domain bounds must have equal length")
        _require(len(low) >= 1, "domain must have at least one axis")
        for lo, hi in zip(low, high):
            _require(math.isfinite(lo) and math.isfinite(hi), "domain bounds must be finite")
            _require(lo < hi, f"domain axis must satisfy low < high, got [{lo}, {hi}]")

    @property
    def dimension(self) -> int:
        return len(self.low)

    def clamp(self, vec: Sequence[float]) -> StateVec:
        _require(len(vec) == self.dimension, "vector dimension does not match domain")
        out = []
        for x, lo, hi in zip(vec, self.low, self.high):
            if x < lo:
                x = lo
            elif x > hi:
                x = hi
            out.append(x)
        return tuple(out)

    def contains(self, vec: Sequence[float]) -> bool:
        return len(vec) == self.dimension and all(
            lo <= x <= hi for x, lo, hi in zip(vec, self.low, self.high)
        )

    def uniform_vector(self, stream: Stream) -> StateVec:
        return tuple(
            lo + (hi - lo) * stream.next_uniform() for lo, hi in zip(self.low, self.high)
        )

    def diagonal(self) -> float:
        return math.sqrt(sum((hi - lo) ** 2 for lo, hi in zip(self.low, self.high)))


UNIT_DOMAIN = Domain((0.0,), (1.0,))


def box_domain(extents: Sequence[float]) -> Domain:
    """Box [0, e_1] x ... x [0, e_d]."""
    _require(len(extents) >= 1, "box_domain needs at least one extent")
    return Domain(tuple(0.0 for _ in extents), tuple(float(e) for e in extents))


def as_state(values: Iterable[float]) -> StateVec:
    vec = tuple(float(v) for v in values)
    _require(len(vec) >= 1, "state vector must be non-empty")
    for v in vec:
        _require(math.isfinite(v), "state components must be finite")
    return vec


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Topology:
    """Directed communication graph; edge (i, j) means i receives from j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 2:
            raise InvalidTopologyError(f"topology needs at least 2 agents, got {self.n}")
        senders: list[list[int]] = [[] for _ in range(self.n)]
        receivers: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidTopologyError(f"edge ({i}, {j}) references unknown agent")
            if i == j:
                raise InvalidTopologyError(f"self-edge ({i}, {j}) is not allowed")
            senders[i].append(j)
            receivers[j].append(i)
        # Derived from `edges`, so they are not dataclass fields and stay out of
        # equality, hashing and repr.
        object.__setattr__(self, "_in_neighbors", tuple(tuple(sorted(s)) for s in senders))
        object.__setattr__(self, "_out_neighbors", tuple(tuple(sorted(r)) for r in receivers))

    def neighbors(self, agent: int) -> tuple[int, ...]:
        """In-neighborhood of `agent` (the agents it hears from), ascending."""
        if not (0 <= agent < self.n):
            raise InvalidAgentError(f"agent {agent} not in topology of size {self.n}")
        return self._in_neighbors[agent]

    def receivers(self, agent: int) -> tuple[int, ...]:
        """Out-neighborhood of `agent` (the agents that hear from it), ascending."""
        if not (0 <= agent < self.n):
            raise InvalidAgentError(f"agent {agent} not in topology of size {self.n}")
        return self._out_neighbors[agent]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def ring_topology(n: int) -> Topology:
    """Bidirectional ring: agent i hears from (i-1) mod n and (i+1) mod n."""
    if n < 2:
        raise InvalidTopologyError(f"ring topology needs n >= 2, got {n}")
    edges = set()
    for i in range(n):
        edges.add((i, (i - 1) % n))
        edges.add((i, (i + 1) % n))
    return Topology(n, frozenset(edges))


def full_topology(n: int) -> Topology:
    """Every agent hears from every other agent."""
    if n < 2:
        raise InvalidTopologyError(f"full topology needs n >= 2, got {n}")
    return Topology(n, frozenset((i, j) for i in range(n) for j in range(n) if i != j))
