"""Twelve end-to-end acceptance checks, one printed verdict line each.

Each check pins released behavior against an independent reference
(tests/_oracles.py) or against frozen experiment thresholds. The final check
asserts that nothing in this suite ever touched the network. Checks are
ordered; the network check must stay last.
"""

from __future__ import annotations

import math
import random as _random
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

import _oracles as oracles
from smoothmas import llmgate
from smoothmas.adversary import AttackConfig
from smoothmas.certify import (
    certified_radius,
    certify_decision,
    clopper_pearson_bounds,
    path_attenuation,
    std_normal_quantile,
    uniform_partition,
)
from smoothmas.cli import trajectory_csv
from smoothmas.core import (
    Purpose,
    SeedSpec,
    UNIT_DOMAIN,
    box_domain,
    ring_topology,
)
from smoothmas.metrics import (
    consensus_error,
    deviation,
    distances_from,
    improvement_pct,
    mean_state,
    normal_avg_deviation,
)
from smoothmas.policy import (
    AgentPolicy,
    HallucinationConfig,
    PolicyInput,
    llm_mimic,
    mean_aggregation,
)
from smoothmas.sim import DefenseConfig, ScenarioConfig, run_scenario
from smoothmas.smoothing import SmoothingConfig, adaptive_sample_count, trim_mean


def _verdict(num: int, ok: bool, label: str) -> None:
    print(
        f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {label}",
        file=sys.stdout,
        flush=True,
    )


@contextmanager
def criterion(num: int, label: str, capsys):
    """Run one acceptance check, always printing its verdict to the terminal.

    capsys.disabled() suspends pytest's output capture so the verdict line is
    visible live in every capture mode, for failures as well as passes.
    """
    try:
        yield
    except BaseException:
        with capsys.disabled():
            _verdict(num, False, label)
        raise
    with capsys.disabled():
        _verdict(num, True, label)


# ---------------------------------------------------------------------------
# 1. Closed-form radius
# ---------------------------------------------------------------------------


def test_criterion_01_certified_radius_closed_form(capsys):
    with criterion(1, "closed-form certified radius and exact sigma scaling", capsys):
        unit = certified_radius(0.9, 0.1, 1.0)
        assert unit == pytest.approx(1.2815516, abs=1e-6)
        for sigma in (0.01, 0.05, 0.5, 1.0):
            scaled = certified_radius(0.9, 0.1, sigma)
            assert abs(scaled - sigma * unit) <= 1e-9 * abs(sigma * unit)


# ---------------------------------------------------------------------------
# 2. Quantile vs bisection oracle
# ---------------------------------------------------------------------------


def test_criterion_02_quantile_matches_bisection_oracle(capsys):
    with criterion(2, "normal quantile agrees with the series-CDF bisection oracle", capsys):
        worst = 0.0
        for i in range(1, 200):
            p = i / 200.0
            worst = max(worst, abs(std_normal_quantile(p) - oracles.normal_quantile(p)))
        assert worst <= 1e-7, f"worst quantile gap {worst:.3e}"


# ---------------------------------------------------------------------------
# 3. Confidence bounds vs exact binomial inversion
# ---------------------------------------------------------------------------


def test_criterion_03_confidence_bounds_match_exact_inversion(capsys):
    with criterion(3, "binomial confidence bounds invert the exact CDF to 1e-9", capsys):
        eps = 1e-9
        slack = 1e-12
        for alpha in (0.01, 0.05):
            for n in range(1, 201):
                bounds = [clopper_pearson_bounds(s, n, alpha) for s in range(n + 1)]
                lowers = np.array([b[0] for b in bounds])
                uppers = np.array([b[1] for b in bounds])
                assert lowers[0] == 0.0
                assert uppers[n] == 1.0
                assert abs(lowers[n] - alpha ** (1.0 / n)) <= eps
                assert abs(uppers[0] - (1.0 - alpha ** (1.0 / n))) <= eps
                # the lower bound solves P(X >= s | p) = alpha: a 1e-9 window
                # around our value must straddle alpha (tail increasing in p)
                s_lo = np.arange(1, n + 1)
                lo = lowers[1:]
                below = oracles.binom_tail_rows(s_lo, n, np.clip(lo - eps, 0.0, 1.0))
                above = oracles.binom_tail_rows(s_lo, n, np.clip(lo + eps, 0.0, 1.0))
                assert np.all(below <= alpha + slack), f"n={n} alpha={alpha}"
                assert np.all(above >= alpha - slack), f"n={n} alpha={alpha}"
                # the upper bound solves P(X <= s | p) = alpha (decreasing in p)
                s_up = np.arange(0, n)
                up = uppers[:-1]
                upper_side = oracles.binom_cdf_rows(s_up, n, np.clip(up + eps, 0.0, 1.0))
                lower_side = oracles.binom_cdf_rows(s_up, n, np.clip(up - eps, 0.0, 1.0))
                assert np.all(upper_side <= alpha + slack), f"n={n} alpha={alpha}"
                assert np.all(lower_side >= alpha - slack), f"n={n} alpha={alpha}"
        # large-n spot checks against full bisection on the same equations
        lower_950 = clopper_pearson_bounds(950, 1000, 0.01)[0]
        assert abs(lower_950 - oracles.cp_lower(950, 1000, 0.01)) <= 1e-9
        assert abs(lower_950 - 0.9308) < 0.01
        for s, n, alpha in ((1, 1000, 0.05), (500, 1000, 0.01), (999, 1000, 0.05)):
            lo, up = clopper_pearson_bounds(s, n, alpha)
            assert abs(lo - oracles.cp_lower(s, n, alpha)) <= 1e-9
            assert abs(up - oracles.cp_upper(s, n, alpha)) <= 1e-9


# ---------------------------------------------------------------------------
# 4. Trimmed-mean breakdown resistance
# ---------------------------------------------------------------------------


def test_criterion_04_trimmed_mean_breakdown_resistance(capsys):
    with criterion(4, "planted tail outliers never drag the trimmed mean outside clean range", capsys):
        rng = _random.Random(20240817)
        checked = 0
        for _ in range(1000):
            m = rng.randint(5, 40)
            trim = rng.uniform(0.05, 0.49)
            g = int(trim * m)
            clean = [rng.uniform(-5.0, 5.0) for _ in range(m - 2 * g)]
            low = [rng.uniform(-1e6, -1e2) for _ in range(g)]
            high = [rng.uniform(1e2, 1e6) for _ in range(g)]
            batch = [(v,) for v in clean + low + high]
            rng.shuffle(batch)
            out = trim_mean(batch, trim)[0]
            assert min(clean) - 1e-12 <= out <= max(clean) + 1e-12
            checked += 1
        assert checked == 1000


# ---------------------------------------------------------------------------
# 5. Adaptive sampling rule
# ---------------------------------------------------------------------------


def test_criterion_05_adaptive_sampling_exactness(capsys):
    with criterion(5, "adaptive sample count reproduces the capped ceiling rule on a grid", capsys):
        cs = (0.5, 1.0, 2.0, 5.0, 7.5, 10.0, 12.5, 20.0, 50.0, 100.0)
        taus = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
        variances = (0.0, 1e-6, 1e-4, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)
        for m_max in (0, 7, 20):
            for c in cs:
                for tau in taus:
                    cfg = SmoothingConfig(sigma=0.05, m1=5, c=c, tau=tau, m_max=m_max)
                    for v in variances:
                        want = 0 if v == 0.0 else min(int(math.ceil(c * v / tau)), m_max)
                        assert adaptive_sample_count(v, cfg) == want


# ---------------------------------------------------------------------------
# 6. Relay attenuation model
# ---------------------------------------------------------------------------


def test_criterion_06_relay_attenuation_model(capsys):
    with criterion(6, "path attenuation equals the per-hop product and shrinks with length", capsys):
        rng = _random.Random(7)
        for _ in range(300):
            sigma = rng.uniform(0.01, 2.0)
            delta0 = rng.uniform(0.0, 3.0)
            radii = [rng.uniform(0.0, 3.0) for _ in range(rng.randint(0, 20))]
            expected = delta0
            for r in radii:
                expected *= 1.0 - oracles.normal_cdf(r / sigma)
            assert abs(path_attenuation(delta0, radii, sigma) - expected) <= 1e-12
        for _ in range(100):
            sigma = rng.uniform(0.05, 1.0)
            delta0 = rng.uniform(0.1, 3.0)
            radii = [rng.uniform(0.01, 2.0) for _ in range(12)]
            along_path = [
                path_attenuation(delta0, radii[:k], sigma) for k in range(len(radii) + 1)
            ]
            # strictly decreasing while positive; once the product underflows
            # to zero it must stay there
            for a, b in zip(along_path, along_path[1:]):
                if a == 0.0:
                    assert b == 0.0
                else:
                    assert b < a


# ---------------------------------------------------------------------------
# 7. Honest baseline consensus
# ---------------------------------------------------------------------------


def test_criterion_07_honest_ring_reaches_consensus(capsys):
    with criterion(7, "honest ring matches the linear reference and converges below 1e-3", capsys):
        start = time.monotonic()
        n, rounds, w = 10, 50, 1.0 / 3.0
        policies = tuple(AgentPolicy(mean_aggregation(w)) for _ in range(n))
        cfg = ScenarioConfig(
            topology=ring_topology(n), rounds=rounds, policies=policies, master_seed=0
        )
        traj = run_scenario(cfg)
        assert consensus_error(traj.final_states) < 1e-3
        init = np.array([s[0] for s in traj.states[0]])
        ref = oracles.linear_consensus(init, oracles.ring_weight_matrix(n, w), rounds)
        worst = max(
            abs(ref[t, i] - traj.states[t][i][0])
            for t in range(rounds + 1)
            for i in range(n)
        )
        assert worst <= 1e-12, f"worst reference gap {worst:.3e}"
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 8. Defense efficacy at desk scale
# ---------------------------------------------------------------------------


def test_criterion_08_defense_efficacy_under_constant_bias(capsys):
    with criterion(8, "defense cuts normal-agent deviation >= 60% and wins >= 18/20 seeds", capsys):
        start = time.monotonic()
        n, rounds, w = 10, 50, 1.0 / 3.0
        topo = ring_topology(n)
        malicious = frozenset({4, 9})
        normal = sorted(set(range(n)) - malicious)
        halluc = HallucinationConfig(p_h=0.05, mode="uniform-random")
        attack = AttackConfig(malicious=malicious, p_attack=1.0, delta_max=0.3)
        defense = DefenseConfig(
            smoothing=SmoothingConfig(sigma=0.05, m1=5, m_max=20, trim_frac=0.1)
        )
        initials = tuple((0.05 * i,) for i in range(n))

        def scenario(seed, att, dfn, hal):
            policies = tuple(
                AgentPolicy(llm_mimic(0.05, w), halluc=hal) for _ in range(n)
            )
            return ScenarioConfig(
                topology=topo,
                rounds=rounds,
                policies=policies,
                master_seed=seed,
                attack=att,
                defense=dfn,
                initial_states=initials,
            )

        wins = 0
        nodef_avgs, def_avgs = [], []
        for seed in range(20):
            base = run_scenario(scenario(seed, None, None, None)).final_states
            nodef = run_scenario(scenario(seed, attack, None, halluc)).final_states
            withdef = run_scenario(scenario(seed, attack, defense, halluc)).final_states
            a = normal_avg_deviation(deviation(nodef, base), normal)
            b = normal_avg_deviation(deviation(withdef, base), normal)
            nodef_avgs.append(a)
            def_avgs.append(b)
            if b < a:
                wins += 1
        improvement = improvement_pct(
            statistics.fmean(nodef_avgs), statistics.fmean(def_avgs)
        )
        assert improvement is not None and improvement >= 60.0, (
            f"improvement {improvement:.1f}%"
        )
        assert wins >= 18, f"defense won only {wins}/20 seeds"
        assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------


def test_criterion_09_reruns_are_byte_identical(capsys):
    with criterion(9, "trajectory CSVs identical across rerun, concurrent callers, reversed order", capsys):
        start = time.monotonic()
        n = 8
        attack = AttackConfig(malicious=frozenset({5}), p_attack=0.7, delta_max=0.3)
        defense = DefenseConfig(
            smoothing=SmoothingConfig(sigma=0.05, m1=5, m_max=20, trim_frac=0.1)
        )
        halluc = HallucinationConfig(p_h=0.1, mode="uniform-random")
        policies = tuple(AgentPolicy(llm_mimic(0.05), halluc=halluc) for _ in range(n))
        cfg = ScenarioConfig(
            topology=ring_topology(n),
            rounds=12,
            policies=policies,
            master_seed=123,
            attack=attack,
            defense=defense,
        )
        plain = trajectory_csv(run_scenario(cfg))
        rerun = trajectory_csv(run_scenario(cfg))
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = [trajectory_csv(t) for t in pool.map(run_scenario, [cfg, cfg])]
        reversed_order = trajectory_csv(
            run_scenario(cfg, eval_order=tuple(reversed(range(n))))
        )
        assert plain == rerun
        assert concurrent == [plain, plain]
        assert plain == reversed_order
        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 10. Certification soundness
# ---------------------------------------------------------------------------


def test_criterion_10_certification_false_positive_rate(capsys):
    with criterion(10, "lower confidence bound exceeds the true rate in <= 2% of trials", capsys):
        start = time.monotonic()
        partition = uniform_partition(UNIT_DOMAIN, 2)
        spec = SeedSpec(424242)
        p_true = 0.95
        trials = 1000

        def surrogate(policy_input, rng):
            return (0.25,) if rng.next_uniform() < p_true else (0.75,)

        inp = PolicyInput((0.5,), ())
        exceed = 0
        for t in range(trials):
            cert = certify_decision(
                surrogate,
                inp,
                partition,
                sigma=0.25,
                n=1000,
                alpha=0.01,
                rng=spec.branch(t, 0, Purpose.CERTIFY),
                domain=UNIT_DOMAIN,
            )
            if cert.region == 0 and cert.pA_lower > p_true:
                exceed += 1
        assert exceed / trials <= 0.02, f"bound exceeded truth in {exceed}/1000 trials"
        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 11. 3D formation scenario
# ---------------------------------------------------------------------------


def test_criterion_11_formation_defense_improves_slot_errors(capsys):
    with criterion(11, "3D formation: benign converges, defense wins >= 18/20 seeds", capsys):
        start = time.monotonic()
        n, rounds, w = 10, 60, 1.0 / 3.0
        topo = ring_topology(n)
        domain = box_domain((2000.0, 2000.0, 1000.0))
        limit = 0.01 * domain.diagonal()  # 30 m of a 3 km diagonal
        malicious = frozenset({4, 9})
        normal = sorted(set(range(n)) - malicious)
        attack = AttackConfig(malicious=malicious, p_attack=1.0, delta_max=150.0)
        defense = DefenseConfig(
            smoothing=SmoothingConfig(sigma=10.0, m1=5, m_max=20, trim_frac=0.1)
        )

        def scenario(seed, att, dfn):
            policies = tuple(
                AgentPolicy(llm_mimic(2.0, w), domain=domain) for _ in range(n)
            )
            return ScenarioConfig(
                topology=topo,
                rounds=rounds,
                policies=policies,
                master_seed=seed,
                attack=att,
                defense=dfn,
                domain=domain,
            )

        def spread(final, agents):
            center = mean_state(final, agents)
            dists = distances_from(final, center)
            return [dists[i] for i in agents]

        wins = 0
        for seed in range(20):
            benign = run_scenario(scenario(seed, None, None)).final_states
            assert max(spread(benign, range(n))) < limit, f"seed {seed} did not converge"
            nodef = run_scenario(scenario(seed, attack, None)).final_states
            withdef = run_scenario(scenario(seed, attack, defense)).final_states
            if statistics.fmean(spread(withdef, normal)) < statistics.fmean(
                spread(nodef, normal)
            ):
                wins += 1
        assert wins >= 18, f"defense won only {wins}/20 seeds"
        assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 12. Zero network activity — keep this check last
# ---------------------------------------------------------------------------


def test_criterion_12_zero_network_activity(capsys):
    with criterion(12, "no live endpoint calls occurred anywhere in this suite", capsys):
        assert llmgate.network_call_count() == 0
