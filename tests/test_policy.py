"""Decision policies: aggregation arithmetic and the hallucination wrapper."""

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
    SeedSpec,
    UNIT_DOMAIN,
)
from smoothmas.policy import (
    AgentPolicy,
    HallucinationConfig,
    PolicyInput,
    PolicyKind,
    evaluate_policy,
    external_llm,
    hallucinate_wrap,
    llm_mimic,
    mean_aggregation,
)


def _stream(seed: int = 0, idx: int = 0):
    return SeedSpec(seed).stream(0, 0, Purpose.DECIDE, idx)


def _inp(own, nbrs):
    return PolicyInput(own, tuple(enumerate(nbrs, start=1)))


# ---------------------------------------------------------------------------
# Mean aggregation
# ---------------------------------------------------------------------------


def test_mean_aggregation_equal_weights():
    out = evaluate_policy(mean_aggregation(0.5), _inp((0.4,), [(0.6,)]), _stream())
    assert out == (0.5,)


def test_mean_aggregation_zero_self_weight_uses_neighbor_mean():
    out = evaluate_policy(
        mean_aggregation(0.0), _inp((0.9,), [(0.2,), (0.4,)]), _stream()
    )
    assert out[0] == pytest.approx(0.3, abs=1e-12)


def test_mean_aggregation_full_self_weight_keeps_own_state():
    out = evaluate_policy(
        mean_aggregation(1.0), _inp((0.9,), [(0.2,), (0.4,)]), _stream()
    )
    assert out == (0.9,)


def test_mean_aggregation_componentwise_in_three_dimensions():
    dom = Domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    out = evaluate_policy(
        mean_aggregation(0.5),
        _inp((0.2, 0.4, 0.6), [(0.4, 0.8, 0.2), (0.0, 0.0, 1.0)]),
        _stream(),
        domain=dom,
    )
    assert out[0] == pytest.approx(0.5 * 0.2 + 0.5 * 0.2)
    assert out[1] == pytest.approx(0.5 * 0.4 + 0.5 * 0.4)
    assert out[2] == pytest.approx(0.5 * 0.6 + 0.5 * 0.6)


def test_isolated_agent_returns_own_state():
    out = evaluate_policy(mean_aggregation(0.25), PolicyInput((0.7,), ()), _stream())
    assert out == (0.7,)


def test_mean_aggregation_is_deterministic_and_pure():
    inp = _inp((0.3,), [(0.9,), (0.1,)])
    a = evaluate_policy(mean_aggregation(0.5), inp, _stream(1))
    b = evaluate_policy(mean_aggregation(0.5), inp, _stream(2))
    assert a == b  # no draws consumed, stream identity is irrelevant


def test_neighbor_order_does_not_matter():
    fwd = PolicyInput((0.5,), ((1, (0.2,)), (2, (0.8,))))
    rev = PolicyInput((0.5,), ((2, (0.8,)), (1, (0.2,))))
    assert fwd == rev
    assert evaluate_policy(mean_aggregation(), fwd, _stream()) == evaluate_policy(
        mean_aggregation(), rev, _stream()
    )


def test_output_clamped_to_domain():
    dom = Domain((0.0,), (0.45,))
    out = evaluate_policy(mean_aggregation(0.5), _inp((0.4,), [(0.6,)]), _stream(), dom)
    assert out == (0.45,)


# ---------------------------------------------------------------------------
# llm-mimic
# ---------------------------------------------------------------------------


def test_llm_mimic_with_zero_jitter_equals_mean_aggregation():
    inp = _inp((0.4,), [(0.6,), (0.2,)])
    mimic = evaluate_policy(llm_mimic(0.0, self_weight=0.3), inp, _stream(3))
    mean = evaluate_policy(mean_aggregation(0.3), inp, _stream(4))
    assert mimic == mean


def test_llm_mimic_jitter_is_seeded_and_centered():
    inp = _inp((0.4,), [(0.6,)])
    kind = llm_mimic(0.05)
    stream = _stream(17)
    outs = [evaluate_policy(kind, inp, stream)[0] for _ in range(10_000)]
    rerun_stream = _stream(17)
    rerun = [evaluate_policy(kind, inp, rerun_stream)[0] for _ in range(10_000)]
    assert outs == rerun
    assert len(set(outs)) > 9_000  # jitter actually varies
    # mean of jittered outputs converges on the clean aggregate
    assert statistics.fmean(outs) == pytest.approx(0.5, abs=3 * 0.05 / 100)
    assert statistics.pstdev(outs) == pytest.approx(0.05, rel=0.05)


def test_llm_mimic_outputs_stay_in_domain():
    inp = _inp((0.01,), [(0.02,)])
    stream = _stream(9)
    for _ in range(2_000):
        out = evaluate_policy(llm_mimic(0.5), inp, stream)
        assert 0.0 <= out[0] <= 1.0


# ---------------------------------------------------------------------------
# Hallucination wrapper
# ---------------------------------------------------------------------------


def test_inactive_wrapper_is_transparent():
    kind = llm_mimic(0.02)
    for t in range(100):
        stream_a = _stream(100, t)
        stream_b = _stream(100, t)
        own = (stream_a.next_uniform(),)
        nbr = (stream_a.next_uniform(),)
        stream_b.next_uniform(), stream_b.next_uniform()
        inp = PolicyInput(own, ((1, nbr),))
        wrapped = hallucinate_wrap(kind, None, inp, stream_a)
        plain = evaluate_policy(kind, inp, stream_b)
        assert wrapped == plain


def test_zero_probability_wrapper_is_transparent():
    halluc = HallucinationConfig(p_h=0.0)
    inp = _inp((0.4,), [(0.6,)])
    assert hallucinate_wrap(llm_mimic(0.03), halluc, inp, _stream(5)) == evaluate_policy(
        llm_mimic(0.03), inp, _stream(5)
    )


def test_always_on_fixed_target_replaces_output():
    halluc = HallucinationConfig(p_h=1.0, mode="fixed-target", target=(0.0,))
    inp = _inp((0.4,), [(0.6,)])
    for t in range(50):
        assert hallucinate_wrap(mean_aggregation(), halluc, inp, _stream(6, t)) == (0.0,)


def test_fixed_target_is_clamped():
    halluc = HallucinationConfig(p_h=1.0, mode="fixed-target", target=(7.0,))
    out = hallucinate_wrap(mean_aggregation(), halluc, _inp((0.4,), [(0.6,)]), _stream())
    assert out == (1.0,)


def test_hallucination_rate_matches_probability():
    halluc = HallucinationConfig(p_h=0.5, mode="uniform-random")
    kind = mean_aggregation(0.5)
    inp = _inp((0.4,), [(0.6,)])
    base = evaluate_policy(kind, inp, _stream())
    fired = 0
    for t in range(10_000):
        out = hallucinate_wrap(kind, halluc, inp, _stream(7, t))
        if out != base:
            fired += 1
    assert 5_000 - 150 <= fired <= 5_000 + 150


def test_uniform_random_replacement_spans_the_domain():
    halluc = HallucinationConfig(p_h=1.0, mode="uniform-random")
    inp = _inp((0.5,), [(0.5,)])
    outs = [
        hallucinate_wrap(mean_aggregation(), halluc, inp, _stream(8, t))[0]
        for t in range(2_000)
    ]
    assert all(0.0 <= x <= 1.0 for x in outs)
    assert min(outs) < 0.05 and max(outs) > 0.95
    assert statistics.fmean(outs) == pytest.approx(0.5, abs=0.03)


def test_large_jump_displaces_by_magnitude_componentwise():
    dom = Domain((-10.0, -10.0), (10.0, 10.0))
    halluc = HallucinationConfig(p_h=1.0, mode="large-jump", magnitude=0.5)
    inp = PolicyInput((0.0, 0.0), ((1, (0.0, 0.0)),))
    seen = set()
    for t in range(200):
        out = hallucinate_wrap(mean_aggregation(), halluc, inp, _stream(9, t), dom)
        assert all(abs(abs(c) - 0.5) < 1e-12 for c in out)
        seen.add(tuple(c > 0 for c in out))
    assert len(seen) == 4  # both signs per component occur


def test_large_jump_respects_domain_clamp():
    halluc = HallucinationConfig(p_h=1.0, mode="large-jump", magnitude=5.0)
    inp = _inp((0.5,), [(0.5,)])
    for t in range(50):
        out = hallucinate_wrap(mean_aggregation(), halluc, inp, _stream(10, t))
        assert out in {(0.0,), (1.0,)}


@settings(max_examples=60, deadline=None)
@given(
    p_h=st.floats(min_value=0.0, max_value=1.0),
    mode=st.sampled_from(["uniform-random", "large-jump"]),
    own=st.floats(min_value=0.0, max_value=1.0),
    nbr=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_wrapped_outputs_always_in_domain(p_h, mode, own, nbr, seed):
    halluc = HallucinationConfig(p_h=p_h, mode=mode, magnitude=0.7)
    out = hallucinate_wrap(
        llm_mimic(0.1), halluc, _inp((own,), [(nbr,)]), _stream(seed)
    )
    assert UNIT_DOMAIN.contains(out)


# ---------------------------------------------------------------------------
# external-llm and AgentPolicy
# ---------------------------------------------------------------------------


class _EchoGateway:
    def __init__(self):
        self.calls = []

    def query_decision(self, policy_input, domain):
        self.calls.append(policy_input)
        return (2.0,)  # deliberately out of range; caller must clamp


def test_external_llm_requires_gateway():
    with pytest.raises(PolicyUnavailableError, match="gateway"):
        evaluate_policy(external_llm(), _inp((0.4,), [(0.6,)]), _stream())


def test_external_llm_clamps_gateway_reply():
    gw = _EchoGateway()
    out = evaluate_policy(external_llm(), _inp((0.4,), [(0.6,)]), _stream(), gateway=gw)
    assert out == (1.0,)
    assert len(gw.calls) == 1


class _ReplyGateway:
    def __init__(self, reply):
        self.reply = reply

    def query_decision(self, policy_input, domain):
        return self.reply


def test_external_llm_checks_gateway_reply():
    inp = _inp((0.4,), [(0.6,)])
    for reply, want in (((0,), (0.0,)), ((float("inf"),), (1.0,))):
        out = evaluate_policy(external_llm(), inp, _stream(), gateway=_ReplyGateway(reply))
        assert out == want and type(out[0]) is float
    for reply in ((float("nan"),), (0.5, 0.5), ()):
        with pytest.raises(InvalidArgumentError):
            evaluate_policy(external_llm(), inp, _stream(), gateway=_ReplyGateway(reply))


def test_agent_policy_callable_matches_wrapper():
    halluc = HallucinationConfig(p_h=0.3, mode="uniform-random")
    policy = AgentPolicy(llm_mimic(0.05), halluc=halluc)
    inp = _inp((0.4,), [(0.6,)])
    for t in range(20):
        assert policy(inp, _stream(11, t)) == hallucinate_wrap(
            llm_mimic(0.05), halluc, inp, _stream(11, t)
        )


def test_agent_policy_defaults():
    policy = AgentPolicy(mean_aggregation())
    assert policy.domain == UNIT_DOMAIN
    assert policy.halluc is None
    assert policy.gateway is None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("weight", [-0.1, 1.1])
def test_self_weight_bounds(weight):
    with pytest.raises(InvalidArgumentError):
        mean_aggregation(weight)


def test_negative_jitter_rejected():
    with pytest.raises(InvalidArgumentError):
        llm_mimic(-0.01)


def test_unknown_policy_tag_rejected():
    with pytest.raises(InvalidArgumentError):
        PolicyKind("metropolis")


@pytest.mark.parametrize("p_h", [-0.01, 1.01])
def test_hallucination_probability_bounds(p_h):
    with pytest.raises(InvalidArgumentError):
        HallucinationConfig(p_h=p_h)


def test_unknown_hallucination_mode_rejected():
    with pytest.raises(InvalidArgumentError):
        HallucinationConfig(p_h=0.1, mode="teleport")


def test_fixed_target_requires_target():
    with pytest.raises(InvalidArgumentError):
        HallucinationConfig(p_h=0.1, mode="fixed-target")


def test_fixed_target_dimension_checked_at_evaluation():
    halluc = HallucinationConfig(p_h=1.0, mode="fixed-target", target=(0.0, 0.0))
    with pytest.raises(InvalidArgumentError, match="dimension"):
        hallucinate_wrap(mean_aggregation(), halluc, _inp((0.4,), [(0.6,)]), _stream())


def test_negative_magnitude_rejected():
    with pytest.raises(InvalidArgumentError):
        HallucinationConfig(p_h=0.1, mode="large-jump", magnitude=-1.0)


def test_duplicate_neighbor_ids_rejected():
    with pytest.raises(InvalidArgumentError, match="duplicate"):
        PolicyInput((0.5,), ((1, (0.2,)), (1, (0.3,))))


def test_neighbor_dimension_mismatch_rejected():
    with pytest.raises(InvalidArgumentError, match="dimension"):
        PolicyInput((0.5,), ((1, (0.2, 0.3)),))


def test_input_domain_mismatch_rejected():
    with pytest.raises(InvalidArgumentError):
        evaluate_policy(
            mean_aggregation(), PolicyInput((0.5, 0.5), ()), _stream(), UNIT_DOMAIN
        )
