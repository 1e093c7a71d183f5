"""Monte Carlo randomized smoothing with trimmed-mean aggregation.

A smoothed decision evaluates a policy on Gaussian-perturbed copies of its
input and aggregates with a trimmed mean. Sampling is two-stage: a small probe
batch estimates response variance, which sets how many extra samples are worth
spending (high variance hints at hallucination or manipulation and buys more
querying; a dead-quiet probe buys none).

Used at two levels: verifying a neighbor's report by re-deriving it from the
neighbor's own smoothed decision, and smoothing the agent's own update.

The two-stage algorithm exists only here. The compiled kernel, when it is
available, serves sampling: `sample_policy` hands batches of a scripted
policy to it and is the one place that dispatches them. (Stream keys and
uniform draws, here and elsewhere, reach the kernel's twins through `core`,
where `_kernels.use_backend` binds them.) On request the kernel also
sorts its own output into columns, which certificates count regions on.
Variance, budget and trimmed mean run in Python on every backend. The generic
sampling loop below is the reference and the fallback, and both produce
bit-identical samples and columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from . import _kernels
from .core import (
    MASK64,
    Domain,
    PolicyUnavailableError,
    SamplingFailedError,
    StateVec,
    Stream,
    StreamBranch,
    _require,
)
from .policy import (
    AgentPolicy,
    EXTERNAL_LLM,
    FIXED_TARGET,
    LARGE_JUMP,
    LLM_MIMIC,
    PolicyInput,
    UNIFORM_RANDOM,
    _unchecked_input,
)

PolicyFn = Union[AgentPolicy, Callable[[PolicyInput, Stream], StateVec]]

_MODE_CODES = {UNIFORM_RANDOM: 1, FIXED_TARGET: 2, LARGE_JUMP: 3}


@dataclass(frozen=True)
class SmoothingConfig:
    """Noise scale and sampling budget for one smoothed decision."""

    sigma: float
    m1: int = 5
    c: float = 10.0
    tau: float = 0.01
    m_max: int = 20
    trim_frac: float = 0.1

    def __post_init__(self):
        _require(self.sigma >= 0.0, "sigma must be >= 0")
        _require(self.m1 >= 1, "m1 must be >= 1")
        _require(self.c > 0.0, "c must be > 0")
        _require(self.tau > 0.0, "tau must be > 0")
        _require(self.m_max >= 0, "m_max must be >= 0")
        _require(0.0 <= self.trim_frac < 0.5, "trim_frac must be in [0, 0.5)")


@dataclass(frozen=True)
class SampleBatch:
    """Outputs of repeated perturbed policy queries.

    A batch holds its usable outputs one of two ways. By default, samples
    has them as rows in stream order and columns is empty. Sampled with
    sort=True, samples is empty and columns has one tuple per output
    component, holding that component of every usable output in ascending
    order as sorted() orders it; the compiled kernel sorts its own output.
    """

    samples: tuple[StateVec, ...]
    requested: int
    failed: int
    columns: tuple[tuple[float, ...], ...] = ()


@dataclass(frozen=True)
class SmoothedDecision:
    """A smoothed value plus the sampling bookkeeping behind it."""

    value: StateVec
    probe_variance: float
    extra_samples: int
    queries: int
    failed: int


def trim_mean(samples: list[StateVec] | tuple[StateVec, ...], trim_frac: float) -> StateVec:
    """Component-wise trimmed mean: sort, drop floor(trim_frac*n) from each
    tail, average the rest, and clamp that average to the kept values' range."""
    _require(len(samples) >= 1, "trim_mean needs at least one sample")
    _require(0.0 <= trim_frac < 1.0, "trim_frac must be in [0, 1)")
    n = len(samples)
    g = int(trim_frac * n)
    _require(n - 2 * g >= 1, f"trimming {g} per tail leaves no samples out of {n}")
    d = len(samples[0])
    for s in samples:
        _require(len(s) == d, "samples must share one dimension")
    out = []
    for c in range(d):
        column = sorted(s[c] for s in samples)
        acc = 0.0
        for v in column[g : n - g]:
            acc += v
        # the exact mean lies in the kept range; its float value can miss by an ulp
        mean = acc / (n - 2 * g)
        if mean < column[g]:
            mean = column[g]
        elif mean > column[n - g - 1]:
            mean = column[n - g - 1]
        out.append(mean)
    return tuple(out)


def _perturbed_input(
    policy_input: PolicyInput, sigma: float, domain: Domain, stream: Stream
) -> PolicyInput:
    d = policy_input.dimension
    own = domain.clamp(
        [policy_input.own_state[c] + sigma * stream.next_gaussian() for c in range(d)]
    )
    nbrs = tuple(
        (agent, domain.clamp([vec[c] + sigma * stream.next_gaussian() for c in range(d)]))
        for agent, vec in policy_input.neighbor_states
    )
    return _unchecked_input(own, nbrs)


def sample_policy(
    policy: PolicyFn,
    policy_input: PolicyInput,
    sigma: float,
    m: int,
    rng: StreamBranch,
    domain: Domain = None,
    start_index: int = 0,
    sort: bool = False,
) -> SampleBatch:
    """Evaluate the policy on m independently perturbed copies of the input.

    Sample k draws everything from the derived stream rng.stream(start_index+k):
    first the input perturbation (own state components, then neighbors in
    ascending id order), then the policy's internal draws. A sample that fails
    with PolicyUnavailableError is recorded and excluded; if any failed and
    fewer than max(2, m/2) remain the whole batch is abandoned.

    The usable outputs come back as rows in stream order (batch.samples), or
    with sort=True as ascending columns, one per component (batch.columns).
    Decisions need the rows: estimate_variance sums in stream order.

    A scripted policy with no explicit domain is sampled by the compiled
    kernel when it is active, with bit-identical outputs; with sort=True the
    kernel sorts them as well, stably, so each column equals sorted() of that
    component element for element.
    """
    _require(m >= 1, "sample count m must be >= 1")
    _require(sigma >= 0.0, "sigma must be >= 0")
    fast = _kernels.fast()
    if fast is not None and domain is None and _kernel_dispatchable(policy):
        out = fast.sample_outputs(
            _kernel_query(policy, policy_input, sigma),
            m,
            start_index & MASK64,
            rng.prefix & MASK64,
            sort,
        )
        if sort:
            return SampleBatch((), requested=m, failed=0, columns=out)
        return SampleBatch(out, requested=m, failed=0)
    if domain is None:
        domain = policy.domain if isinstance(policy, AgentPolicy) else None
        _require(domain is not None, "sample_policy needs a domain for bare callables")
    outputs = []
    failed = 0
    errors: list[str] = []
    for k in range(m):
        stream = rng.stream(start_index + k)
        perturbed = _perturbed_input(policy_input, sigma, domain, stream)
        try:
            outputs.append(policy(perturbed, stream))
        except PolicyUnavailableError as exc:
            failed += 1
            if len(errors) < 3:
                errors.append(str(exc))
    if failed and len(outputs) < max(2.0, m / 2.0):
        raise SamplingFailedError(
            f"only {len(outputs)} of {m} samples usable ({failed} failed): {errors}"
        )
    if sort:
        columns = tuple(tuple(sorted(s[c] for s in outputs)) for c in range(len(outputs[0])))
        return SampleBatch((), requested=m, failed=failed, columns=columns)
    return SampleBatch(tuple(outputs), requested=m, failed=failed)


def estimate_variance(batch: SampleBatch) -> float:
    """Mean squared L2 distance of samples to their mean (biased, 1/m).

    Exactly 0.0 when every sample is equal, although the float mean of m
    copies of x need not be x."""
    samples = batch.samples
    _require(len(samples) >= 1, "variance probe needs at least one sample")
    m = len(samples)
    if samples.count(samples[0]) == m:
        return 0.0
    d = len(samples[0])
    means = []
    for c in range(d):
        acc = 0.0
        for s in samples:
            acc += s[c]
        means.append(acc / m)
    acc = 0.0
    for s in samples:
        for c in range(d):
            diff = s[c] - means[c]
            acc += diff * diff
    return acc / m


def adaptive_sample_count(probe_variance: float, cfg: SmoothingConfig) -> int:
    """Extra samples bought by the probe variance: min(ceil(c*V/tau), m_max),
    and exactly zero when the probe shows no variation at all."""
    _require(probe_variance >= 0.0, "variance must be >= 0")
    if probe_variance == 0.0:
        return 0
    return min(int(math.ceil((cfg.c * probe_variance) / cfg.tau)), cfg.m_max)


def _kernel_dispatchable(policy: PolicyFn) -> bool:
    return (
        isinstance(policy, AgentPolicy)
        and policy.kind.tag != EXTERNAL_LLM
        and (policy.halluc is None or policy.halluc.mode in _MODE_CODES)
    )


def _kernel_query(policy: AgentPolicy, policy_input: PolicyInput, sigma: float) -> tuple:
    """The kernel's query tuple: the input, the policy's scalars, its domain
    and the noise scale, in the order the kernel's read_query parses them."""
    halluc = policy.halluc
    p_h = 0.0 if halluc is None else halluc.p_h
    mode = 0 if (halluc is None or p_h == 0.0) else _MODE_CODES[halluc.mode]
    magnitude = 0.0 if halluc is None else halluc.magnitude
    domain = policy.domain
    d = policy_input.dimension
    _require(domain.dimension == d, "vector dimension does not match domain")
    target = (0.0,) * d
    if halluc is not None and halluc.target is not None:
        target = halluc.target
    nbrs_flat: list[float] = []
    for _, vec in policy_input.neighbor_states:
        nbrs_flat.extend(vec)
    return (
        policy_input.own_state,
        nbrs_flat,
        len(policy_input.neighbor_states),
        d,
        policy.kind.self_weight,
        1 if policy.kind.tag == LLM_MIMIC else 0,
        policy.kind.jitter_sd,
        p_h,
        mode,
        magnitude,
        target,
        domain.low,
        domain.high,
        sigma,
    )


def smoothed_decision_detail(
    policy: PolicyFn,
    policy_input: PolicyInput,
    cfg: SmoothingConfig,
    rng: StreamBranch,
    domain: Domain = None,
) -> SmoothedDecision:
    """Two-stage smoothed decision with sampling bookkeeping."""
    probe = sample_policy(policy, policy_input, cfg.sigma, cfg.m1, rng, domain)
    variance = estimate_variance(probe)
    m2 = adaptive_sample_count(variance, cfg)
    samples = probe.samples
    failed = probe.failed
    if m2 > 0:
        extra = sample_policy(
            policy, policy_input, cfg.sigma, m2, rng, domain, start_index=cfg.m1
        )
        samples = samples + extra.samples
        failed += extra.failed
    value = trim_mean(samples, cfg.trim_frac)
    return SmoothedDecision(
        value=value,
        probe_variance=variance,
        extra_samples=m2,
        queries=cfg.m1 + m2,
        failed=failed,
    )


def smoothed_decision(
    policy: PolicyFn,
    policy_input: PolicyInput,
    cfg: SmoothingConfig,
    rng: StreamBranch,
    domain: Domain = None,
) -> StateVec:
    """Trimmed mean of the policy over Gaussian input perturbations."""
    return smoothed_decision_detail(policy, policy_input, cfg, rng, domain).value


def verified_neighbor_state(
    neighbor_policy: PolicyFn,
    neighbor_input: PolicyInput,
    cfg: SmoothingConfig,
    rng: StreamBranch,
    domain: Domain = None,
) -> StateVec:
    """A neighbor's report re-derived from its own smoothed decision.

    Repeated perturbed querying is what makes a one-shot wire value
    unnecessary: the estimate comes from the neighbor's policy itself, so an
    inconsistent source shows up as sample spread (and gets trimmed), while a
    consistently wrong source (e.g. always-on fixed-target hallucination)
    cannot be corrected and simply is the verified value.
    """
    return smoothed_decision(neighbor_policy, neighbor_input, cfg, rng, domain)
