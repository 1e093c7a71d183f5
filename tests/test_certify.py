"""Certification math against independent oracles and frozen values."""

import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
from smoothmas.certify import (
    Certificate,
    RegionPartition,
    attenuation_factor,
    certified_radius,
    certify_decision,
    clopper_pearson_bounds,
    path_attenuation,
    std_normal_cdf,
    std_normal_quantile,
    tolerance_index,
    uniform_partition,
)
from smoothmas.core import (
    Domain,
    InvalidArgumentError,
    PolicyUnavailableError,
    Purpose,
    SeedSpec,
    UNIT_DOMAIN,
)
from smoothmas.policy import AgentPolicy, PolicyInput, mean_aggregation

# frozen from tests/_oracles.py (series CDF + bisection)
Q_0975 = 1.9599639845400505
Q_09 = 1.2815515655446008
TAIL_AT_3 = 0.0013498980316302145
CP_LOWER_950_1000_001 = 0.9315951063043666
CP_UPPER_950_1000_001 = 0.9647185001450964


def _branch(seed, agent=0):
    return SeedSpec(master_seed=seed).branch(0, agent, Purpose.CERTIFY)


class TestQuantile:
    def test_center_is_zero(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_frozen_values(self):
        assert std_normal_quantile(0.975) == pytest.approx(Q_0975, abs=1e-7)
        assert std_normal_quantile(0.9) == pytest.approx(Q_09, abs=1e-7)

    def test_matches_bisection_oracle(self):
        for i in range(1, 40):
            p = i / 40.0
            assert std_normal_quantile(p) == pytest.approx(
                oracles.normal_quantile(p), abs=1e-7
            )

    def test_odd_symmetry(self):
        for p in [0.001, 0.005, 0.02, 0.1, 0.25, 0.4, 0.4999]:
            assert std_normal_quantile(1.0 - p) == pytest.approx(
                -std_normal_quantile(p), abs=1e-9
            )

    def test_strictly_increasing(self):
        grid = [i / 200.0 for i in range(1, 200)]
        vals = [std_normal_quantile(p) for p in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(InvalidArgumentError):
            std_normal_quantile(p)


class TestClopperPearson:
    def test_boundary_conventions(self):
        for alpha in [0.01, 0.05, 0.3]:
            assert clopper_pearson_bounds(0, 100, alpha)[0] == 0.0
            assert clopper_pearson_bounds(100, 100, alpha)[1] == 1.0

    def test_all_successes_lower_is_alpha_root(self):
        # tail(n, n, p) = p^n, so the lower bound is alpha^(1/n)
        for n, alpha in [(10, 0.05), (100, 0.01), (37, 0.2)]:
            lower, _ = clopper_pearson_bounds(n, n, alpha)
            assert lower == pytest.approx(alpha ** (1.0 / n), abs=1e-12)

    def test_zero_successes_upper_is_complement_root(self):
        for n, alpha in [(10, 0.05), (100, 0.01)]:
            _, upper = clopper_pearson_bounds(0, n, alpha)
            assert upper == pytest.approx(1.0 - alpha ** (1.0 / n), abs=1e-12)

    def test_frozen_spot_check(self):
        lower, upper = clopper_pearson_bounds(950, 1000, 0.01)
        assert lower == pytest.approx(CP_LOWER_950_1000_001, abs=1e-9)
        assert upper == pytest.approx(CP_UPPER_950_1000_001, abs=1e-9)

    def test_matches_bisection_oracle(self):
        rnd = random.Random(2024)
        for _ in range(40):
            n = rnd.randint(1, 400)
            s = rnd.randint(0, n)
            alpha = rnd.uniform(0.001, 0.2)
            lower, upper = clopper_pearson_bounds(s, n, alpha)
            assert lower == pytest.approx(oracles.cp_lower(s, n, alpha), abs=1e-9)
            assert upper == pytest.approx(oracles.cp_upper(s, n, alpha), abs=1e-9)

    def test_bounds_sandwich_empirical_rate(self):
        for n in [1, 2, 7, 23, 40]:
            for s in range(n + 1):
                lower, upper = clopper_pearson_bounds(s, n, 0.05)
                assert lower <= s / n <= upper

    def test_equals_beta_ppf_exactly(self):
        # the bounds are betaincinv(a, b, q); scipy.stats' Beta quantile
        # beta.ppf(q, a, b) must give the very same floats
        from scipy.stats import beta

        for n in (1, 2, 3, 10, 99, 1000, 2000, 10**4, 10**5):
            for s in sorted({s for s in (0, 1, 2, n // 2, n - 1, n) if s <= n}):
                for alpha in (1e-6, 0.001, 0.01, 0.05, 0.25):
                    lower, upper = clopper_pearson_bounds(s, n, alpha)
                    want_lower = 0.0 if s == 0 else float(beta.ppf(alpha, s, n - s + 1))
                    want_upper = 1.0 if s == n else float(beta.ppf(1 - alpha, s + 1, n - s))
                    assert (lower, upper) == (want_lower, want_upper), (s, n, alpha)

    def test_package_does_not_import_scipy_stats(self):
        probe = "import sys, smoothmas; print('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize(
        "s,n,alpha", [(-1, 10, 0.05), (11, 10, 0.05), (5, 0, 0.05), (5, 10, 0.0), (5, 10, 1.0)]
    )
    def test_rejects_invalid(self, s, n, alpha):
        with pytest.raises(InvalidArgumentError):
            clopper_pearson_bounds(s, n, alpha)


class TestCertifiedRadius:
    def test_equal_bounds_abstain(self):
        assert certified_radius(0.5, 0.5, 1.0) is None

    def test_lower_leading_abstains(self):
        assert certified_radius(0.3, 0.6, 0.05) is None

    def test_frozen_values(self):
        assert certified_radius(0.9, 0.1, 1.0) == pytest.approx(Q_09, abs=1e-6)
        assert certified_radius(0.9, 0.1, 0.05) == pytest.approx(
            0.06407757827723004, abs=1e-7
        )

    def test_exact_linearity_in_sigma(self):
        base = certified_radius(0.9, 0.1, 1.0)
        for sigma in [0.01, 0.05, 0.5, 1.0, 3.0]:
            r = certified_radius(0.9, 0.1, sigma)
            assert abs(r - sigma * base) <= 1e-9 * abs(sigma * base)

    def test_extreme_bounds_stay_finite(self):
        r = certified_radius(1.0, 0.0, 1.0)
        assert math.isfinite(r)
        # both ends clip to the 1e-10 tail quantile magnitude
        assert r == pytest.approx(abs(std_normal_quantile(1e-10)), abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        pa=st.floats(0.01, 0.99),
        pb=st.floats(0.01, 0.99),
        bump=st.floats(0.001, 0.2),
    )
    def test_monotone_in_bounds(self, pa, pb, bump):
        if pa <= pb:
            pa, pb = pb, pa
        if pa == pb:
            return
        r = certified_radius(pa, pb, 0.1)
        higher = certified_radius(min(pa + bump, 1.0), pb, 0.1)
        assert higher >= r
        if pb - bump >= 0.0:
            assert certified_radius(pa, pb - bump, 0.1) >= r

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidArgumentError):
            certified_radius(0.9, 0.1, 0.0)


class TestRegionPartition:
    def test_uniform_layout(self):
        part = uniform_partition(UNIT_DOMAIN, 10)
        assert part.k == 10
        assert part.boundaries[0] == 0.0
        assert part.boundaries[-1] == 1.0
        assert part.region_of(0.05) == 0
        assert part.region_of(0.1) == 1  # right-open interior edges
        assert part.region_of(1.0) == 9  # closed final region
        assert part.region_of(-5.0) == 0
        assert part.region_of(7.0) == 9

    def test_region_ids_cover_all_bins(self):
        part = uniform_partition(Domain((2.0,), (4.0,)), 4)
        mids = [2.25, 2.75, 3.25, 3.75]
        assert [part.region_of(x) for x in mids] == [0, 1, 2, 3]

    def test_counts_match_region_of_loop(self):
        part = RegionPartition((0.0, 0.25, 0.5, 0.6, 1.0))
        edges = [0.0, 0.25, 0.5, 0.6, 1.0]
        values = edges + [math.nextafter(b, -math.inf) for b in edges] + [
            math.nextafter(b, math.inf) for b in edges
        ] + [-3.0, 4.0, 0.3, 0.3, 0.55, -math.inf, math.inf]
        expected = [0] * part.k
        for x in values:
            expected[part.region_of(x)] += 1
        assert part.counts(values) == expected
        assert part.counts([]) == [0] * part.k

    @pytest.mark.parametrize("extra", [[math.nan], [math.inf, -math.inf], [math.nan, 0.3]])
    def test_counts_with_unordered_values_match_region_of_loop(self, extra):
        part = uniform_partition(UNIT_DOMAIN, 4)
        values = extra + [0.1, 0.9, 0.5, 0.25] + extra
        expected = [0] * part.k
        for x in values:
            expected[part.region_of(x)] += 1
        assert part.counts(values) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8, 1.0, -1.0, 2.0])
                    | st.floats(-0.5, 1.5), max_size=60))
    def test_counts_match_region_of_loop_everywhere(self, values):
        part = uniform_partition(UNIT_DOMAIN, 5)
        expected = [0] * part.k
        for x in values:
            expected[part.region_of(x)] += 1
        assert part.counts(values) == expected

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidArgumentError):
            RegionPartition((0.0, 0.5, 0.5, 1.0))

    def test_rejects_single_region(self):
        with pytest.raises(InvalidArgumentError):
            RegionPartition((0.0, 1.0))
        with pytest.raises(InvalidArgumentError):
            uniform_partition(UNIT_DOMAIN, 1)

    def test_covers(self):
        part = uniform_partition(UNIT_DOMAIN, 5)
        assert part.covers(UNIT_DOMAIN)
        assert not part.covers(Domain((0.0,), (2.0,)))


class TestCertifyDecision:
    def test_concentrated_policy_certifies(self):
        """A policy pinned deep inside one region certifies with the n/n bound."""
        policy = AgentPolicy(kind=mean_aggregation(self_weight=0.5))
        pin = PolicyInput(own_state=(0.35,), neighbor_states=((1, (0.35,)),))
        part = uniform_partition(UNIT_DOMAIN, 10)
        cert = certify_decision(policy, pin, part, 0.001, 100, 0.01, _branch(5))
        assert cert.region == 3
        assert cert.n_samples == 100
        assert cert.pA_lower == pytest.approx(0.01 ** (1.0 / 100), abs=1e-3)
        assert cert.radius is not None and cert.radius > 0
        assert cert.confidence == pytest.approx(0.99)

    def test_boundary_policy_abstains(self):
        policy = AgentPolicy(kind=mean_aggregation(self_weight=0.5))
        pin = PolicyInput(own_state=(0.5,), neighbor_states=((1, (0.5,)),))
        part = uniform_partition(UNIT_DOMAIN, 10)
        cert = certify_decision(policy, pin, part, 0.01, 200, 0.01, _branch(7))
        assert cert.abstained
        assert cert.radius is None

    def test_tie_breaks_to_lower_region(self):
        outputs = itertools.cycle([(0.05,), (0.15,)])

        def flip_flop(policy_input, stream):
            return next(outputs)

        flip_flop.domain = UNIT_DOMAIN

        part = uniform_partition(UNIT_DOMAIN, 10)
        cert = certify_decision(
            flip_flop, PolicyInput((0.5,), ()), part, 0.01, 100, 0.05,
            _branch(9),
        )
        assert cert.region == 0
        assert cert.abstained

    def test_runner_up_bound_is_the_tighter_one(self):
        outputs = itertools.cycle([(0.05,)] * 9 + [(0.15,)])

        def mostly_low(policy_input, stream):
            return next(outputs)

        mostly_low.domain = UNIT_DOMAIN

        part = uniform_partition(UNIT_DOMAIN, 10)
        cert = certify_decision(
            mostly_low, PolicyInput((0.5,), ()), part, 0.01, 100, 0.01,
            _branch(3),
        )
        run_up_upper = clopper_pearson_bounds(10, 100, 0.01)[1]
        assert cert.pB_upper == pytest.approx(min(1.0 - cert.pA_lower, run_up_upper))

    def test_failed_samples_shrink_n(self):
        calls = itertools.count()

        def flaky(policy_input, stream):
            if next(calls) % 3 == 2:
                raise PolicyUnavailableError("backend offline")
            return (0.25,)

        flaky.domain = UNIT_DOMAIN

        part = uniform_partition(UNIT_DOMAIN, 10)
        cert = certify_decision(
            flaky, PolicyInput((0.5,), ()), part, 0.01, 10, 0.05,
            _branch(1),
        )
        assert cert.n_samples == 7

    def test_samples_on_boundaries_and_ends_count_like_region_of(self):
        # every boundary, the clamped ends and points beyond them; the
        # certificate must be the one a region_of loop over the samples gives
        part = uniform_partition(UNIT_DOMAIN, 5)
        pattern = list(part.boundaries) + [-0.5, 1.5, 0.2, 0.2, 0.2, 0.2]
        outputs = itertools.cycle([(x,) for x in pattern])

        def on_edges(policy_input, stream):
            return next(outputs)

        on_edges.domain = UNIT_DOMAIN

        n, alpha, sigma = 11 * len(pattern), 0.05, 0.1
        cert = certify_decision(
            on_edges, PolicyInput((0.5,), ()), part, sigma, n, alpha,
            _branch(2),
        )
        counts = [0] * part.k
        for x in pattern * 11:
            counts[part.region_of(x)] += 1
        assert counts == [11 * 2, 11 * 5, 11 * 1, 11 * 1, 11 * 3]
        pA_lower, _ = clopper_pearson_bounds(counts[1], n, alpha)
        _, runner_upper = clopper_pearson_bounds(counts[4], n, alpha)
        pB_upper = min(1.0 - pA_lower, runner_upper)
        assert cert == Certificate(
            region=1,
            pA_lower=pA_lower,
            pB_upper=pB_upper,
            radius=certified_radius(pA_lower, pB_upper, sigma),
            confidence=1.0 - alpha,
            n_samples=n,
        )

    def test_rejects_multidimensional_input(self):
        policy = AgentPolicy(kind=mean_aggregation(), domain=Domain((0.0, 0.0), (1.0, 1.0)))
        pin = PolicyInput(own_state=(0.5, 0.5), neighbor_states=())
        part = uniform_partition(UNIT_DOMAIN, 10)
        with pytest.raises(InvalidArgumentError):
            certify_decision(policy, pin, part, 0.01, 10, 0.05, _branch(0))

    def test_rejects_partition_not_covering_domain(self):
        policy = AgentPolicy(kind=mean_aggregation(), domain=Domain((0.0,), (2.0,)))
        pin = PolicyInput(own_state=(0.5,), neighbor_states=())
        part = uniform_partition(UNIT_DOMAIN, 10)
        with pytest.raises(InvalidArgumentError):
            certify_decision(policy, pin, part, 0.01, 10, 0.05, _branch(0))

    def test_rejects_callable_without_domain_before_sampling(self):
        calls = []

        def bare(policy_input, stream):
            calls.append(stream)
            return (0.5,)

        part = uniform_partition(UNIT_DOMAIN, 10)
        with pytest.raises(InvalidArgumentError, match="domain"):
            certify_decision(bare, PolicyInput((0.5,), ()), part, 0.01, 10, 0.05, _branch(0))
        assert calls == []

    def test_deterministic_for_fixed_seed(self):
        policy = AgentPolicy(kind=mean_aggregation(self_weight=0.5))
        pin = PolicyInput(own_state=(0.35,), neighbor_states=((1, (0.4,)),))
        part = uniform_partition(UNIT_DOMAIN, 10)
        a = certify_decision(policy, pin, part, 0.05, 500, 0.01, _branch(21))
        b = certify_decision(policy, pin, part, 0.05, 500, 0.01, _branch(21))
        assert a == b


class TestAttenuation:
    def test_zero_radius_is_half(self):
        assert attenuation_factor(0.0, 0.05) == 0.5

    def test_frozen_values(self):
        assert attenuation_factor(Q_09, 1.0) == pytest.approx(0.1, abs=1e-7)
        assert attenuation_factor(3.0, 1.0) == pytest.approx(TAIL_AT_3, abs=1e-12)

    def test_matches_series_oracle(self):
        rnd = random.Random(11)
        for _ in range(50):
            ratio = rnd.uniform(0.0, 6.0)
            assert attenuation_factor(ratio, 1.0) == pytest.approx(
                1.0 - oracles.normal_cdf(ratio), abs=1e-12
            )

    def test_range_and_monotone(self):
        prev = 0.5
        for r in [0.0, 0.1, 0.5, 1.0, 2.0, 4.0]:
            f = attenuation_factor(r, 1.0)
            assert 0.0 < f <= 0.5
            assert f <= prev
            prev = f

    def test_path_empty_is_identity(self):
        assert path_attenuation(0.7, [], 0.05) == 0.7

    def test_path_frozen_values(self):
        assert path_attenuation(1.0, [0.0, 0.0, 0.0], 1.0) == pytest.approx(0.125)
        sigma = 0.05
        assert path_attenuation(1.0, [Q_09 * sigma] * 2, sigma) == pytest.approx(0.01, abs=1e-7)

    def test_path_matches_product_oracle(self):
        rnd = random.Random(17)
        for _ in range(30):
            sigma = rnd.uniform(0.01, 1.0)
            radii = [rnd.uniform(0.0, 3.0 * sigma) for _ in range(rnd.randint(0, 20))]
            expected = 1.3
            for r in radii:
                expected *= 1.0 - oracles.normal_cdf(r / sigma)
            assert path_attenuation(1.3, radii, sigma) == pytest.approx(expected, abs=1e-12)

    def test_path_strictly_shrinks_with_length(self):
        radii = [0.04, 0.02, 0.08, 0.05]
        vals = [path_attenuation(1.0, radii[:k], 0.05) for k in range(len(radii) + 1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestToleranceIndex:
    def test_values(self):
        assert tolerance_index(0.0, 0.3) == 0.0
        assert tolerance_index(0.3, 0.3) == 1.0
        assert tolerance_index(0.15, 0.3) == 0.5

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(InvalidArgumentError):
            tolerance_index(0.1, 0.0)
        with pytest.raises(InvalidArgumentError):
            tolerance_index(0.1, -1.0)


def test_cdf_quantile_roundtrip():
    for x in [-3.0, -1.0, 0.0, 0.5, 2.5]:
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-9)
