"""Certification math for smoothed decisions.

Treats a smoothed policy as a randomized classifier over a partition of its
1-D output range: estimate the most likely region and the runner-up from n
perturbed samples, bound their probabilities with exact binomial confidence
bounds, and convert the gap into a certified L2 input radius. Also the
network-level consequences: per-hop attenuation of a propagating perturbation
and a comparative tolerance index.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from scipy.special import betaincinv, ndtr, ndtri

from .core import Domain, StreamBranch, _require
from .policy import AgentPolicy, PolicyInput
from .smoothing import PolicyFn, sample_policy

QUANTILE_CLIP = 1e-10


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF."""
    _require(0.0 < p < 1.0, f"p must be in (0, 1), got {p}")
    return float(ndtri(p))


def std_normal_cdf(x: float) -> float:
    return float(ndtr(x))


def clopper_pearson_bounds(successes: int, n: int, alpha: float) -> tuple[float, float]:
    """One-sided exact binomial confidence bounds, each at level 1 - alpha.

    lower solves P[X >= successes | n, p] = alpha (0 when successes = 0);
    upper solves P[X <= successes | n, p] = alpha (1 when successes = n).
    Computed through the Beta-quantile equivalence: the q-quantile of
    Beta(a, b) is the inverse regularized incomplete beta betaincinv(a, b, q).
    """
    _require(n >= 1, f"n must be >= 1, got {n}")
    _require(0 <= successes <= n, f"successes must be in [0, {n}], got {successes}")
    _require(0.0 < alpha < 1.0, f"alpha must be in (0, 1), got {alpha}")
    if successes == 0:
        lower = 0.0
    else:
        lower = float(betaincinv(successes, n - successes + 1, alpha))
    if successes == n:
        upper = 1.0
    else:
        upper = float(betaincinv(successes + 1, n - successes, 1.0 - alpha))
    return lower, upper


def certified_radius(pA_lower: float, pB_upper: float, sigma: float) -> Optional[float]:
    """Certified L2 radius (sigma/2)(q(pA_lower) - q(pB_upper)), or None.

    None means abstention: the bounds cannot separate the leading region from
    the runner-up (pA_lower <= pB_upper). Bounds are clipped into
    [QUANTILE_CLIP, 1 - QUANTILE_CLIP] before the quantile so empirical
    extremes (0/n or n/n counts fed directly) stay finite.
    """
    _require(0.0 <= pA_lower <= 1.0, f"pA_lower must be in [0, 1], got {pA_lower}")
    _require(0.0 <= pB_upper <= 1.0, f"pB_upper must be in [0, 1], got {pB_upper}")
    _require(sigma > 0.0, f"sigma must be > 0, got {sigma}")
    if pA_lower <= pB_upper:
        return None
    a = min(max(pA_lower, QUANTILE_CLIP), 1.0 - QUANTILE_CLIP)
    b = min(max(pB_upper, QUANTILE_CLIP), 1.0 - QUANTILE_CLIP)
    return 0.5 * sigma * (std_normal_quantile(a) - std_normal_quantile(b))


@dataclass(frozen=True)
class RegionPartition:
    """Ascending boundaries cutting a 1-D interval into k >= 2 regions.

    Region i is [boundaries[i], boundaries[i+1]), except the last which is
    closed on the right. region_of snaps values outside the boundaries into
    the end regions.
    """

    boundaries: tuple[float, ...]

    def __post_init__(self):
        bounds = tuple(float(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", bounds)
        _require(len(bounds) >= 3, "need at least 2 regions (3 boundaries)")
        for b in bounds:
            _require(math.isfinite(b), "boundaries must be finite")
        for a, b in zip(bounds, bounds[1:]):
            _require(a < b, f"boundaries must be strictly increasing, got {a} >= {b}")

    @property
    def k(self) -> int:
        return len(self.boundaries) - 1

    def region_of(self, x: float) -> int:
        idx = bisect.bisect_right(self.boundaries, x) - 1
        return min(max(idx, 0), self.k - 1)

    def counts(self, values: Sequence[float]) -> list[int]:
        """How many values region_of puts in each region.

        Sorts once and bisects at the k - 1 interior boundaries. A NaN, or
        +inf together with -inf, makes the sum NaN and the sort order
        unreliable; those inputs take the region_of loop instead.
        """
        ordered = sorted(values)
        total = sum(ordered)
        if total != total:
            counts = [0] * self.k
            for x in ordered:
                counts[self.region_of(x)] += 1
            return counts
        cuts = [bisect.bisect_left(ordered, b) for b in self.boundaries[1:-1]]
        cuts = [0] + cuts + [len(ordered)]
        return [hi - lo for lo, hi in zip(cuts, cuts[1:])]

    def covers(self, domain: Domain) -> bool:
        return (
            domain.dimension == 1
            and self.boundaries[0] <= domain.low[0]
            and domain.high[0] <= self.boundaries[-1]
        )


def uniform_partition(domain: Domain, k: int = 10) -> RegionPartition:
    """k equal-width regions spanning a 1-D domain exactly."""
    _require(domain.dimension == 1, "uniform_partition is one-dimensional")
    _require(k >= 2, f"need k >= 2 regions, got {k}")
    lo, hi = domain.low[0], domain.high[0]
    bounds = [lo + (hi - lo) * i / k for i in range(k + 1)]
    bounds[0] = lo
    bounds[-1] = hi
    return RegionPartition(tuple(bounds))


@dataclass(frozen=True)
class Certificate:
    """Result of certifying one decision.

    What is certified is the majority-region smoothed classifier
    g(x) = argmax_i P[f(x + e) in region i], e ~ N(0, sigma^2 I), of Cohen,
    Rosenfeld & Kolter, "Certified Adversarial Robustness via Randomized
    Smoothing" (ICML 2019, arXiv:1902.02918). Here x is the agent's whole
    input (own state and every neighbour state), the noisy copy is clamped to
    the domain, and f is a single policy query on it, hallucination and
    jitter draws included. radius bounds the L2 change of x under which g
    keeps region. This is not the trimmed-mean decision the smoothing
    defense deploys.

    radius is None on abstention. confidence is 1 - alpha. n_samples counts
    the samples the region estimates were built from.
    """

    region: int
    pA_lower: float
    pB_upper: float
    radius: Optional[float]
    confidence: float
    n_samples: int

    @property
    def abstained(self) -> bool:
        return self.radius is None


def certify_decision(
    policy: PolicyFn,
    policy_input: PolicyInput,
    partition: RegionPartition,
    sigma: float,
    n: int,
    alpha: float,
    rng: StreamBranch,
    domain: Domain = None,
) -> Certificate:
    """Sample the policy n times under input noise and certify its region.

    The leading region R_A is the empirical argmax (ties break toward the
    lower index); pB_upper is the tighter of 1 - pA_lower and the runner-up's
    own upper bound. The n samples come from one sorted sample_policy batch:
    a scripted policy is sampled by the compiled kernel when it is active, and
    the kernel returns the outputs as an ascending column, so counting the
    regions re-sorts nothing. Samples a policy failed to give are left out of
    the counts and of n_samples.
    """
    _require(policy_input.dimension == 1, "certification works on 1-D decisions")
    _require(n >= 2, f"need n >= 2 samples, got {n}")
    _require(0.0 < alpha < 1.0, f"alpha must be in (0, 1), got {alpha}")
    _require(sigma > 0.0, f"sigma must be > 0, got {sigma}")
    check_domain = domain
    if check_domain is None and isinstance(policy, AgentPolicy):
        check_domain = policy.domain
    if check_domain is not None:
        _require(partition.covers(check_domain), "partition does not cover the domain")

    batch = sample_policy(policy, policy_input, sigma, n, rng, domain, sort=True)
    counts = partition.counts(batch.columns[0])
    n_eff = batch.requested - batch.failed

    region = counts.index(max(counts))
    runner = min(
        (i for i in range(partition.k) if i != region),
        key=lambda i: (-counts[i], i),
    )
    pA_lower, _ = clopper_pearson_bounds(counts[region], n_eff, alpha)
    _, runner_upper = clopper_pearson_bounds(counts[runner], n_eff, alpha)
    pB_upper = min(1.0 - pA_lower, runner_upper)
    radius = certified_radius(pA_lower, pB_upper, sigma)
    return Certificate(
        region=region,
        pA_lower=pA_lower,
        pB_upper=pB_upper,
        radius=radius,
        confidence=1.0 - alpha,
        n_samples=n_eff,
    )


def attenuation_factor(r: float, sigma: float) -> float:
    """Modeled per-hop shrinkage 1 - Phi(r/sigma) of a passing perturbation."""
    _require(r >= 0.0, f"radius must be >= 0, got {r}")
    _require(sigma > 0.0, f"sigma must be > 0, got {sigma}")
    return 1.0 - float(ndtr(r / sigma))


def path_attenuation(delta0: float, radii: Sequence[float], sigma: float) -> float:
    """Perturbation magnitude surviving a relay path: delta0 times the product
    of each relay's attenuation factor."""
    _require(delta0 >= 0.0, f"delta0 must be >= 0, got {delta0}")
    out = delta0
    for r in radii:
        out *= attenuation_factor(r, sigma)
    return out


def tolerance_index(r_min: float, delta_mal_max: float) -> float:
    """Comparative robustness indicator r_min / delta_mal_max.

    A ratio, not a guaranteed tolerable fraction of malicious agents; larger
    means the weakest certified agent absorbs a larger share of the worst
    transmitted perturbation.
    """
    _require(r_min >= 0.0, f"r_min must be >= 0, got {r_min}")
    _require(delta_mal_max > 0.0, f"delta_mal_max must be > 0, got {delta_mal_max}")
    return r_min / delta_mal_max
