"""Randomized smoothing: trimmed mean, adaptive sampling, verified reports."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothmas.core import (
    Domain,
    InvalidArgumentError,
    PolicyUnavailableError,
    Purpose,
    SamplingFailedError,
    SeedSpec,
    UNIT_DOMAIN,
)
from smoothmas.policy import (
    AgentPolicy,
    HallucinationConfig,
    PolicyInput,
    evaluate_policy,
    llm_mimic,
    mean_aggregation,
)
from smoothmas.smoothing import (
    SmoothingConfig,
    adaptive_sample_count,
    estimate_variance,
    sample_policy,
    smoothed_decision,
    smoothed_decision_detail,
    trim_mean,
    verified_neighbor_state,
)


def _branch(seed: int = 0, round_index: int = 0, agent: int = 0):
    return SeedSpec(seed).branch(round_index, agent, Purpose.VERIFY)


def _inp(own=0.4, nbr=0.6):
    return PolicyInput((own,), ((1, (nbr,)),))


def _vecs(*values):
    return [(v,) for v in values]


# ---------------------------------------------------------------------------
# Trimmed mean
# ---------------------------------------------------------------------------


def test_trim_mean_drops_one_sample_per_tail():
    assert trim_mean(_vecs(0.1, 0.2, 0.3, 0.4, 10.0), 0.2) == (pytest.approx(0.3),)


def test_trim_mean_single_sample_no_trim():
    assert trim_mean(_vecs(0.5), 0.0) == (0.5,)


def test_trim_mean_zero_fraction_is_plain_mean():
    assert trim_mean(_vecs(0.0, 1.0), 0.0) == (0.5,)


def test_trim_count_uses_floor():
    # 10 samples at 0.25 trims int(2.5) == 2 per tail, averaging the middle 6
    samples = _vecs(0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 99.0, 99.0)
    assert trim_mean(samples, 0.25) == (pytest.approx(3.5),)


def test_trim_mean_components_sort_independently():
    samples = [(0.0, 9.0), (1.0, 0.5), (9.0, 1.0)]
    out = trim_mean(samples, 1.0 / 3.0)
    assert out == (pytest.approx(1.0), pytest.approx(1.0))


def test_trim_mean_rejects_empty_input():
    with pytest.raises(InvalidArgumentError):
        trim_mean([], 0.1)


def test_trim_mean_rejects_overtrimming():
    with pytest.raises(InvalidArgumentError, match="leaves no samples"):
        trim_mean(_vecs(0.1, 0.9), 0.5)


def test_trim_mean_rejects_bad_fraction():
    with pytest.raises(InvalidArgumentError):
        trim_mean(_vecs(0.5), 1.0)


def test_trim_mean_rejects_mixed_dimensions():
    with pytest.raises(InvalidArgumentError):
        trim_mean([(0.5,), (0.5, 0.5)], 0.0)


def test_trim_mean_stays_inside_the_kept_samples():
    # the float mean of three copies of 0.1 is 0.10000000000000002
    assert trim_mean(_vecs(0.1, 0.1, 0.1), 0.0) == (0.1,)
    assert trim_mean(_vecs(0.0, 0.1, 0.1, 0.1, 5.0), 0.2) == (0.1,)
    domain = Domain((0.0,), (0.1,))
    detail = smoothed_decision_detail(
        AgentPolicy(mean_aggregation(), domain=domain),
        PolicyInput((0.1,), ()),
        SmoothingConfig(sigma=0.0, m1=3, m_max=0),
        _branch(),
    )
    assert detail.value == (0.1,)
    assert domain.contains(detail.value)


@settings(max_examples=80, deadline=None)
@given(
    values=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30),
    trim=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
    shift=st.floats(min_value=-50, max_value=50),
    seed=st.randoms(use_true_random=False),
)
def test_trim_mean_permutation_invariant_and_translation_equivariant(
    values, trim, shift, seed
):
    if len(values) - 2 * int(trim * len(values)) < 1:
        values = values + [0.0, 0.0]
    base = trim_mean(_vecs(*values), trim)
    shuffled = list(values)
    seed.shuffle(shuffled)
    assert trim_mean(_vecs(*shuffled), trim) == base
    shifted = trim_mean(_vecs(*(v + shift for v in values)), trim)
    assert shifted[0] == pytest.approx(base[0] + shift, abs=1e-9 * (1 + abs(shift)))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_zero_sigma_samples_are_identical():
    policy = AgentPolicy(mean_aggregation(0.5))
    batch = sample_policy(policy, _inp(), 0.0, 5, _branch())
    assert batch.requested == 5
    assert batch.failed == 0
    assert set(batch.samples) == {(0.5,)}


def test_sample_spread_tracks_sigma():
    # mean of own and one neighbor, both perturbed: sd is sigma / sqrt(2)
    policy = AgentPolicy(mean_aggregation(0.5))
    batch = sample_policy(policy, _inp(0.5, 0.5), 0.1, 10_000, _branch(1))
    sd = statistics.pstdev(s[0] for s in batch.samples)
    assert sd == pytest.approx(0.1 / 2**0.5, rel=0.15)
    mean = statistics.fmean(s[0] for s in batch.samples)
    assert mean == pytest.approx(0.5, abs=0.005)


def test_single_sample_batch():
    policy = AgentPolicy(mean_aggregation(0.5))
    batch = sample_policy(policy, _inp(), 0.05, 1, _branch(2))
    assert batch.requested == 1
    assert len(batch.samples) == 1


def test_samples_are_addressed_by_offset():
    policy = AgentPolicy(mean_aggregation(0.5))
    full = sample_policy(policy, _inp(), 0.1, 8, _branch(3))
    tail = sample_policy(policy, _inp(), 0.1, 3, _branch(3), start_index=5)
    assert tail.samples == full.samples[5:]


def test_sampling_is_reproducible():
    policy = AgentPolicy(llm_mimic(0.05))
    a = sample_policy(policy, _inp(), 0.1, 20, _branch(4))
    b = sample_policy(policy, _inp(), 0.1, 20, _branch(4))
    assert a == b


def test_bare_callable_requires_domain():
    with pytest.raises(InvalidArgumentError, match="domain"):
        sample_policy(lambda inp, rng: (0.5,), _inp(), 0.1, 5, _branch())


def test_bare_callable_with_domain_is_sampled_unclamped():
    batch = sample_policy(
        lambda inp, rng: (10.0,), _inp(), 0.1, 4, _branch(), domain=UNIT_DOMAIN
    )
    assert set(batch.samples) == {(10.0,)}


def test_sample_count_must_be_positive():
    policy = AgentPolicy(mean_aggregation())
    with pytest.raises(InvalidArgumentError):
        sample_policy(policy, _inp(), 0.1, 0, _branch())


def test_negative_sigma_rejected():
    policy = AgentPolicy(mean_aggregation())
    with pytest.raises(InvalidArgumentError):
        sample_policy(policy, _inp(), -0.1, 5, _branch())


class _FlakyPolicy:
    """Fails with PolicyUnavailableError on chosen call indices; call k
    otherwise returns 1 / (k + 1)."""

    def __init__(self, fail_on):
        self.fail_on = set(fail_on)
        self.calls = 0

    def __call__(self, policy_input, rng):
        k = self.calls
        self.calls += 1
        if k in self.fail_on:
            raise PolicyUnavailableError("endpoint down")
        return (1.0 / (k + 1),)


def test_survivable_failures_are_recorded():
    policy = _FlakyPolicy(fail_on={1, 3})
    batch = sample_policy(policy, _inp(), 0.0, 5, _branch(), domain=UNIT_DOMAIN)
    assert batch.failed == 2
    assert batch.requested == 5
    assert len(batch.samples) == 3


def test_sorted_batch_holds_only_usable_samples():
    policy = _FlakyPolicy(fail_on={1, 3})
    batch = sample_policy(policy, _inp(), 0.0, 5, _branch(), domain=UNIT_DOMAIN, sort=True)
    assert batch.samples == ()
    assert batch.columns == ((1.0 / 5, 1.0 / 3, 1.0),)
    assert batch.requested - batch.failed == len(batch.columns[0])


def test_sorted_columns_are_the_sorted_rows():
    values = [(0.3, 0.1), (0.1, 0.2), (0.2, 0.1), (0.1, 0.0)]
    domain = Domain((0.0, 0.0), (1.0, 1.0))
    inp = PolicyInput((0.5, 0.5), ())
    batch = sample_policy(_SequencePolicy(values), inp, 0.0, 4, _branch(), domain, sort=True)
    assert batch.columns == ((0.1, 0.1, 0.2, 0.3), (0.0, 0.1, 0.1, 0.2))


def test_half_survivors_is_the_cliff():
    # 2 of 4 survive: exactly max(2, m/2), so the batch is kept
    batch = sample_policy(
        _FlakyPolicy({0, 2}), _inp(), 0.0, 4, _branch(), domain=UNIT_DOMAIN
    )
    assert len(batch.samples) == 2
    # 2 of 5 survive: below max(2, 2.5), so the batch is abandoned
    with pytest.raises(SamplingFailedError, match="2 of 5"):
        sample_policy(_FlakyPolicy({0, 2, 4}), _inp(), 0.0, 5, _branch(), domain=UNIT_DOMAIN)


def test_single_failed_sample_aborts():
    with pytest.raises(SamplingFailedError):
        sample_policy(_FlakyPolicy({0}), _inp(), 0.0, 1, _branch(), domain=UNIT_DOMAIN)


# ---------------------------------------------------------------------------
# Variance probe and adaptive budget
# ---------------------------------------------------------------------------


def _batch(*values):
    return sample_policy(
        _SequencePolicy(values), _inp(), 0.0, len(values), _branch(), domain=UNIT_DOMAIN
    )


class _SequencePolicy:
    def __init__(self, values):
        self.values = [(v,) if isinstance(v, float) else tuple(v) for v in values]
        self.calls = 0

    def __call__(self, policy_input, rng):
        out = self.values[self.calls]
        self.calls += 1
        return out


def test_variance_of_constant_samples_is_zero():
    assert estimate_variance(_batch(0.5, 0.5, 0.5)) == 0.0


def test_variance_of_repeated_inexact_value_is_zero():
    # the float mean of three copies of 0.1 is not 0.1; the spread still is 0
    assert estimate_variance(_batch(0.1, 0.1, 0.1)) == 0.0
    assert estimate_variance(_batch((0.1, 0.7), (0.1, 0.7), (0.1, 0.7))) == 0.0


def test_quiet_probe_of_inexact_value_buys_nothing():
    detail = smoothed_decision_detail(
        AgentPolicy(mean_aggregation()),
        PolicyInput((0.1,), ()),
        SmoothingConfig(sigma=0.0, m1=3, m_max=20),
        _branch(),
    )
    assert (detail.probe_variance, detail.extra_samples, detail.queries) == (0.0, 0, 3)


def test_variance_of_two_point_spread():
    assert estimate_variance(_batch(0.0, 1.0)) == pytest.approx(0.25)


def test_variance_three_values():
    assert estimate_variance(_batch(0.2, 0.4, 0.6)) == pytest.approx(0.08 / 3)


def test_variance_sums_over_components():
    batch = sample_policy(
        _SequencePolicy([(0.0, 0.0), (1.0, 1.0)]),
        PolicyInput((0.5, 0.5), ()),
        0.0,
        2,
        _branch(),
        domain=Domain((0.0, 0.0), (1.0, 1.0)),
    )
    assert estimate_variance(batch) == pytest.approx(0.5)


CFG = SmoothingConfig(sigma=0.05, m1=5, c=10.0, tau=0.01, m_max=50, trim_frac=0.1)


def test_zero_variance_buys_no_extra_samples():
    assert adaptive_sample_count(0.0, CFG) == 0


def test_adaptive_count_formula():
    assert adaptive_sample_count(0.005, CFG) == 5  # ceil(10 * 0.005 / 0.01)
    assert adaptive_sample_count(0.0051, CFG) == 6  # ceil rounds up


def test_adaptive_count_caps_at_m_max():
    assert adaptive_sample_count(1.0, CFG) == 50


def test_tiny_positive_variance_buys_at_least_one():
    assert adaptive_sample_count(1e-12, CFG) == 1


def test_adaptive_count_monotone_in_variance():
    grid = [0.0, 1e-6, 1e-4, 0.003, 0.005, 0.01, 0.05, 0.2, 1.0, 10.0]
    counts = [adaptive_sample_count(v, CFG) for v in grid]
    assert counts == sorted(counts)
    assert all(0 <= m2 <= CFG.m_max for m2 in counts)


def test_negative_variance_rejected():
    with pytest.raises(InvalidArgumentError):
        adaptive_sample_count(-1e-9, CFG)


# ---------------------------------------------------------------------------
# Smoothed decision
# ---------------------------------------------------------------------------


def test_zero_sigma_deterministic_policy_matches_raw_exactly():
    cfg = SmoothingConfig(sigma=0.0, m1=5, m_max=20, trim_frac=0.1)
    policy = AgentPolicy(mean_aggregation(0.5))
    detail = smoothed_decision_detail(policy, _inp(), cfg, _branch(5))
    raw = evaluate_policy(mean_aggregation(0.5), _inp(), _branch(5).stream(0))
    assert detail.value == raw
    assert detail.probe_variance == 0.0
    assert detail.extra_samples == 0
    assert detail.queries == cfg.m1
    assert detail.failed == 0


def test_smoothed_decision_returns_detail_value():
    cfg = SmoothingConfig(sigma=0.05, m1=5)
    policy = AgentPolicy(llm_mimic(0.05))
    assert smoothed_decision(policy, _inp(), cfg, _branch(6)) == smoothed_decision_detail(
        policy, _inp(), cfg, _branch(6)
    ).value


def test_query_budget_bookkeeping():
    for seed in range(30):
        cfg = SmoothingConfig(
            sigma=0.02 + 0.01 * (seed % 3),
            m1=3 + seed % 4,
            m_max=seed % 25,
            trim_frac=0.1,
        )
        policy = AgentPolicy(llm_mimic(0.05))
        detail = smoothed_decision_detail(policy, _inp(), cfg, _branch(seed))
        assert detail.queries == cfg.m1 + detail.extra_samples
        assert 0 <= detail.extra_samples <= cfg.m_max
        assert detail.queries <= cfg.m1 + cfg.m_max


def test_planted_outlier_is_trimmed_away():
    # probe sees nine quiet samples and one wild one; the spike buys extra
    # samples and the trim then removes it entirely from the aggregate
    values = [0.5] * 10
    values[6] = 10.0
    values += [0.5] * 20
    policy = _SequencePolicy(values)
    cfg = SmoothingConfig(sigma=0.0, m1=10, c=10.0, tau=0.01, m_max=20, trim_frac=0.1)
    detail = smoothed_decision_detail(
        policy, _inp(), cfg, _branch(7), domain=UNIT_DOMAIN
    )
    assert detail.extra_samples == 20  # variance blew past the cap
    assert detail.queries == 30
    assert detail.value == (0.5,)  # outlier gone despite being in the probe


def test_smoothing_shrinks_response_noise():
    cfg = SmoothingConfig(sigma=0.02, m1=5, m_max=20, trim_frac=0.1)
    kind = llm_mimic(0.05)
    policy = AgentPolicy(kind)
    clean = 0.5
    raw_err = []
    smooth_err = []
    for t in range(200):
        raw = evaluate_policy(kind, _inp(), SeedSpec(t).stream(0, 0, Purpose.DECIDE, 0))
        raw_err.append(abs(raw[0] - clean))
        sm = smoothed_decision(policy, _inp(), cfg, _branch(t))
        smooth_err.append(abs(sm[0] - clean))
    assert statistics.fmean(smooth_err) < statistics.fmean(raw_err)


# ---------------------------------------------------------------------------
# Verified neighbor reports
# ---------------------------------------------------------------------------


def test_verification_of_quiet_policy_reproduces_it():
    cfg = SmoothingConfig(sigma=0.0, m1=5)
    policy = AgentPolicy(mean_aggregation(0.5))
    assert verified_neighbor_state(policy, _inp(), cfg, _branch(8)) == (0.5,)


def test_always_on_fixed_target_cannot_be_filtered():
    halluc = HallucinationConfig(p_h=1.0, mode="fixed-target", target=(0.0,))
    policy = AgentPolicy(mean_aggregation(0.5), halluc=halluc)
    cfg = SmoothingConfig(sigma=0.05, m1=10, m_max=20, trim_frac=0.2)
    assert verified_neighbor_state(policy, _inp(), cfg, _branch(9)) == (0.0,)


def test_verification_filters_intermittent_jumps():
    halluc = HallucinationConfig(p_h=0.3, mode="large-jump", magnitude=0.5)
    policy = AgentPolicy(mean_aggregation(0.5), halluc=halluc)
    cfg = SmoothingConfig(sigma=0.05, m1=10, m_max=20, trim_frac=0.2)
    clean = 0.5
    raw_err = []
    ver_err = []
    for t in range(200):
        raw = policy(_inp(), SeedSpec(t).stream(0, 1, Purpose.TRANSMIT, 0))
        raw_err.append(abs(raw[0] - clean))
        ver = verified_neighbor_state(policy, _inp(), cfg, _branch(t, agent=1))
        ver_err.append(abs(ver[0] - clean))
    assert statistics.fmean(ver_err) < 0.5 * statistics.fmean(raw_err)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma=-0.01),
        dict(sigma=0.05, m1=0),
        dict(sigma=0.05, c=0.0),
        dict(sigma=0.05, tau=0.0),
        dict(sigma=0.05, m_max=-1),
        dict(sigma=0.05, trim_frac=0.5),
        dict(sigma=0.05, trim_frac=-0.1),
    ],
)
def test_smoothing_config_validation(kwargs):
    with pytest.raises(InvalidArgumentError):
        SmoothingConfig(**kwargs)
