import math
import random

import pytest
from hypothesis import given, strategies as st

from smoothmas.core import InvalidArgumentError
from smoothmas.metrics import (
    consensus_error,
    deviation,
    deviation_magnitudes,
    deviation_report,
    distances_from,
    improvement_pct,
    mean_state,
    normal_avg_deviation,
)


def test_deviation_identical_runs_are_zero():
    states = [(0.2,), (0.7,), (0.5,)]
    assert deviation(states, states) == ((0.0,), (0.0,), (0.0,))


def test_deviation_uniform_shift():
    base = [(0.1,), (0.2,), (0.3,)]
    shifted = [(x[0] + 0.1,) for x in base]
    deltas = deviation(shifted, base)
    for d in deltas:
        assert d[0] == pytest.approx(0.1)


def test_deviation_345_magnitude():
    base = [(0.0, 0.0, 0.0)]
    moved = [(3.0, 4.0, 0.0)]
    mags = deviation_magnitudes(deviation(moved, base))
    assert mags == (5.0,)


def test_deviation_rejects_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        deviation([(0.1,), (0.2,)], [(0.1,)])
    with pytest.raises(InvalidArgumentError):
        deviation([(0.1,)], [(0.1, 0.2)])


def test_normal_avg_deviation():
    deltas = [(0.1,), (-0.3,), (9.0,)]
    assert normal_avg_deviation(deltas, [0, 1]) == pytest.approx(0.2)


def test_normal_avg_deviation_paper_magnitudes():
    # the two published study-level averages feed the reduction formula
    assert improvement_pct(0.1251, 0.0129) == pytest.approx(89.688, abs=0.01)


def test_normal_avg_deviation_zero_case():
    assert normal_avg_deviation([(0.0,), (0.0,)], [0, 1]) == 0.0


def test_normal_avg_deviation_rejects_empty_set():
    with pytest.raises(InvalidArgumentError):
        normal_avg_deviation([(0.1,)], [])


def test_normal_avg_deviation_order_invariant():
    rnd = random.Random(3)
    deltas = [(rnd.uniform(-1, 1),) for _ in range(8)]
    subset = [5, 1, 7]
    assert normal_avg_deviation(deltas, subset) == normal_avg_deviation(
        deltas, list(reversed(subset))
    )


def test_improvement_pct_values():
    assert improvement_pct(0.2, 0.1) == pytest.approx(50.0)
    assert improvement_pct(0.2, 0.2) == pytest.approx(0.0)
    assert improvement_pct(0.1, 0.3) == pytest.approx(-200.0)


def test_improvement_pct_zero_baseline_is_not_applicable():
    assert improvement_pct(0.0, 0.0) is None


@given(
    a=st.floats(1e-6, 10.0),
    b=st.floats(0.0, 10.0),
)
def test_improvement_pct_never_exceeds_100(a, b):
    assert improvement_pct(a, b) <= 100.0


def test_consensus_error_cases():
    assert consensus_error([(0.4,), (0.4,)]) == 0.0
    assert consensus_error([(0.2,), (0.9,)]) == pytest.approx(0.7)
    assert consensus_error([(0.1,), (0.5,), (0.9,)]) == pytest.approx(0.8)


def test_consensus_error_l2_in_3d():
    states = [(0.0, 0.0, 0.0), (1.0, 2.0, 2.0)]
    assert consensus_error(states) == pytest.approx(3.0)


def _consensus_error_per_pair(states):
    # the formula consensus_error replaced: one magnitude per pair
    worst = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            gap = math.sqrt(sum(x * x for x in tuple(a - b for a, b in zip(states[i], states[j]))))
            if gap > worst:
                worst = gap
    return worst


@pytest.mark.parametrize("d", [1, 3])
def test_consensus_error_equals_per_pair_magnitudes(d):
    rng = random.Random(d)
    for _ in range(400):
        n = rng.randint(2, 12)
        # one scale per state, so pairs span many magnitudes and nearly tie
        states = []
        for _ in range(n):
            scale = 10.0 ** rng.uniform(-20, 3)
            states.append(tuple(rng.uniform(-scale, scale) for _ in range(d)))
        if rng.random() < 0.2:
            states.append(states[0])
        got = consensus_error(states)
        assert got.hex() == _consensus_error_per_pair(states).hex(), states


def test_consensus_error_needs_two_agents():
    with pytest.raises(InvalidArgumentError):
        consensus_error([(0.5,)])


def test_mean_state_and_distances():
    states = [(0.0, 0.0), (2.0, 4.0), (4.0, 2.0)]
    assert mean_state(states) == (2.0, 2.0)
    assert mean_state(states, [0, 1]) == (1.0, 2.0)
    dists = distances_from(states, (2.0, 2.0))
    assert dists[0] == pytest.approx(math.sqrt(8.0))
    assert dists[1] == pytest.approx(2.0)


def test_deviation_report_combines_conventions():
    baseline = [(0.5,), (0.5,), (0.5,)]
    no_def = [(0.7,), (0.9,), (0.5,)]
    with_def = [(0.6,), (0.6,), (0.5,)]
    report = deviation_report(baseline, no_def, with_def, normal_agents=[0, 1])

    assert report.no_def_avg == pytest.approx(0.3)
    assert report.def_avg == pytest.approx(0.1)
    assert report.improvement_pct == pytest.approx((0.3 - 0.1) / 0.3 * 100.0)
    # per-agent ratios: agent0 (0.2 -> 0.1) = 50%, agent1 (0.4 -> 0.1) = 75%,
    # agent2 skipped (zero no-defense deviation)
    assert report.improvement_pct_agent_mean == pytest.approx(62.5)
    assert report.normal_agents == (0, 1)


def test_deviation_report_all_zero_deltas():
    states = [(0.5,), (0.5,)]
    report = deviation_report(states, states, states, normal_agents=[0, 1])
    assert report.improvement_pct is None
    assert report.improvement_pct_agent_mean is None
