"""Wire-level manipulation: strategies, norm bound, and firing probability."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothmas.adversary import (
    AttackConfig,
    CONSTANT_BIAS,
    OSCILLATING,
    UNIFORM_BOUNDED,
    transmit,
    transmit_detail,
)
from smoothmas.core import (
    Domain,
    InvalidArgumentError,
    Purpose,
    SeedSpec,
    UNIT_DOMAIN,
)


def _stream(seed: int = 0, round_index: int = 0, sender: int = 0, idx: int = 0):
    return SeedSpec(seed).stream(round_index, sender, Purpose.TRANSMIT, idx)


def _cfg(**kw):
    base = dict(malicious=frozenset({0}), p_attack=1.0, delta_max=0.3)
    base.update(kw)
    return AttackConfig(**base)


def _l2(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# Who is affected
# ---------------------------------------------------------------------------


def test_honest_sender_passes_through_unchanged():
    cfg = _cfg(malicious=frozenset({3}))
    out, fired = transmit_detail(cfg, 0, (0.5,), 0, _stream())
    assert out == (0.5,)
    assert fired is False


def test_no_attack_config_passes_through():
    out, fired = transmit_detail(None, 0, (0.5,), 0, _stream())
    assert out == (0.5,)
    assert fired is False


def test_honest_sender_consumes_no_draws():
    cfg = _cfg(malicious=frozenset({3}))
    stream = _stream()
    transmit(cfg, 0, (0.5,), 0, stream)
    assert stream.cursor == 0


@pytest.mark.parametrize("cfg", [None, _cfg(malicious=frozenset({3}))], ids=["no-attack", "honest"])
def test_honest_report_is_forwarded_as_given(cfg):
    state = (0.5,)
    stream = _stream()
    out, fired = transmit_detail(cfg, 0, state, 0, stream)
    assert out is state
    assert fired is False
    assert stream.cursor == 0


@pytest.mark.parametrize("state", [(math.nan,), (math.inf,), ()])
def test_malicious_sender_state_is_checked(state):
    with pytest.raises(InvalidArgumentError):
        transmit_detail(_cfg(), 0, state, 0, _stream())


def test_zero_probability_never_fires():
    cfg = _cfg(p_attack=0.0)
    for t in range(200):
        out, fired = transmit_detail(cfg, 0, (0.5,), t, _stream(1, t))
        assert out == (0.5,)
        assert fired is False


# ---------------------------------------------------------------------------
# Constant bias
# ---------------------------------------------------------------------------


def test_constant_bias_shifts_by_delta_in_one_dimension():
    cfg = _cfg(strategy=CONSTANT_BIAS, delta_max=0.3)
    out, fired = transmit_detail(cfg, 0, (0.5,), 0, _stream())
    assert fired is True
    assert out[0] == pytest.approx(0.8, abs=1e-12)


def test_constant_bias_clamps_at_domain_edge():
    cfg = _cfg(delta_max=0.3)
    out = transmit(cfg, 0, (0.9,), 0, _stream())
    assert out == (1.0,)


def test_negative_bias_sign_shifts_down():
    cfg = _cfg(bias_sign=-1, delta_max=0.3)
    out = transmit(cfg, 0, (0.5,), 0, _stream())
    assert out[0] == pytest.approx(0.2, abs=1e-12)


def test_constant_bias_splits_across_components():
    dom = Domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    cfg = _cfg(delta_max=0.3)
    out = transmit(cfg, 0, (0.5, 0.5, 0.5), 0, _stream(), dom)
    step = 0.3 / math.sqrt(3.0)
    assert all(c == pytest.approx(0.5 + step, abs=1e-12) for c in out)
    assert _l2(out, (0.5, 0.5, 0.5)) == pytest.approx(0.3, abs=1e-12)


# ---------------------------------------------------------------------------
# Oscillating
# ---------------------------------------------------------------------------


def test_oscillating_follows_the_sine_sign():
    cfg = _cfg(strategy=OSCILLATING, period=10, delta_max=0.2)
    seen = set()
    for t in range(30):
        out, fired = transmit_detail(cfg, 0, (0.5,), t, _stream(2, t))
        assert fired is True
        s = math.sin(2.0 * math.pi * t / 10)
        expected = 0.5 + (0.2 if s > 0.0 else (-0.2 if s < 0.0 else 0.0))
        assert out[0] == pytest.approx(expected, abs=1e-12)
        seen.add(round(out[0], 6))
    assert {0.3, 0.7} <= seen  # both half-periods exercised


def test_oscillating_zero_crossing_still_counts_as_fired():
    cfg = _cfg(strategy=OSCILLATING, period=10)
    out, fired = transmit_detail(cfg, 0, (0.5,), 0, _stream())  # sin(0) == 0
    assert fired is True
    assert out == (0.5,)


# ---------------------------------------------------------------------------
# Uniform bounded
# ---------------------------------------------------------------------------


def test_uniform_bounded_varies_and_stays_in_ball():
    cfg = _cfg(strategy=UNIFORM_BOUNDED, delta_max=0.25)
    outs = set()
    for t in range(500):
        out = transmit(cfg, 0, (0.5,), t, _stream(3, t))
        outs.add(out[0])
        assert abs(out[0] - 0.5) <= 0.25 + 1e-12
    assert len(outs) > 450
    assert min(outs) < 0.30 and max(outs) > 0.70  # both directions show up


def test_uniform_bounded_projects_onto_the_ball_in_three_dimensions():
    dom = Domain((-5.0,) * 3, (5.0,) * 3)
    cfg = _cfg(strategy=UNIFORM_BOUNDED, delta_max=0.4)
    true = (0.0, 0.0, 0.0)
    norms = []
    for t in range(2_000):
        out = transmit(cfg, 0, true, t, _stream(4, t), dom)
        norms.append(_l2(out, true))
    assert max(norms) <= 0.4 + 1e-12
    # the cube corners get projected onto the sphere, so the bound is hit
    assert sum(1 for r in norms if r > 0.4 - 1e-9) > 100


# ---------------------------------------------------------------------------
# Norm bound across the board
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    strategy=st.sampled_from([CONSTANT_BIAS, UNIFORM_BOUNDED, OSCILLATING]),
    delta=st.floats(min_value=0.0, max_value=2.0),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    round_index=st.integers(min_value=0, max_value=50),
    sign=st.sampled_from([-1, 1]),
)
def test_displacement_never_exceeds_delta_max(strategy, delta, d, seed, round_index, sign):
    dom = Domain((-10.0,) * d, (10.0,) * d)
    cfg = _cfg(strategy=strategy, delta_max=delta, bias_sign=sign)
    true = (0.25,) * d
    out = transmit(cfg, 0, true, round_index, _stream(seed, round_index), dom)
    # clamping can only move the point closer, so the bound survives it
    assert _l2(out, true) <= delta + 1e-9
    assert dom.contains(out)


# ---------------------------------------------------------------------------
# Firing probability
# ---------------------------------------------------------------------------


def test_firing_rate_matches_probability():
    cfg = _cfg(p_attack=0.3)
    fired = sum(
        transmit_detail(cfg, 0, (0.5,), t, _stream(5, t))[1] for t in range(10_000)
    )
    assert 3_000 - 140 <= fired <= 3_000 + 140


def test_firing_is_deterministic_per_stream():
    cfg = _cfg(p_attack=0.5)
    a = [transmit_detail(cfg, 0, (0.5,), t, _stream(6, t)) for t in range(100)]
    b = [transmit_detail(cfg, 0, (0.5,), t, _stream(6, t)) for t in range(100)]
    assert a == b


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [-0.1, 1.1])
def test_probability_bounds(p):
    with pytest.raises(InvalidArgumentError):
        _cfg(p_attack=p)


def test_negative_delta_rejected():
    with pytest.raises(InvalidArgumentError):
        _cfg(delta_max=-0.1)


def test_unknown_strategy_rejected():
    with pytest.raises(InvalidArgumentError):
        _cfg(strategy="replay")


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_bias_sign_must_be_unit(sign):
    with pytest.raises(InvalidArgumentError):
        _cfg(bias_sign=sign)


def test_period_must_be_positive():
    with pytest.raises(InvalidArgumentError):
        _cfg(period=0)


def test_negative_agent_ids_rejected():
    with pytest.raises(InvalidArgumentError):
        _cfg(malicious=frozenset({-1}))


def test_malicious_ids_normalized_to_frozenset():
    cfg = AttackConfig(malicious=[2, 1, 2], p_attack=1.0, delta_max=0.1)
    assert cfg.malicious == frozenset({1, 2})
