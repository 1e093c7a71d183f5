import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from smoothmas.adversary import AttackConfig, CONSTANT_BIAS
from smoothmas.core import (
    Domain,
    InvalidArgumentError,
    PolicyUnavailableError,
    ring_topology,
)
from smoothmas.policy import (
    AgentPolicy,
    HallucinationConfig,
    UNIFORM_RANDOM,
    external_llm,
    llm_mimic,
    mean_aggregation,
)
from smoothmas.sim import (
    DefenseConfig,
    ScenarioConfig,
    initial_world,
    run_scenario,
    step,
    step_detail,
)
from smoothmas.smoothing import SmoothingConfig
from smoothmas import _kernels


def _mean_policies(n, self_weight=0.5, halluc=None):
    return tuple(
        AgentPolicy(mean_aggregation(self_weight), halluc=halluc) for _ in range(n)
    )


def _attacked(n, malicious, rounds, delta=0.3, defense=None, seed=11, p_attack=1.0):
    return ScenarioConfig(
        topology=ring_topology(n),
        rounds=rounds,
        policies=_mean_policies(n),
        master_seed=seed,
        attack=AttackConfig(
            malicious=frozenset(malicious),
            p_attack=p_attack,
            delta_max=delta,
            strategy=CONSTANT_BIAS,
        ),
        defense=defense,
        initial_states=tuple((0.5,) for _ in range(n)),
    )


DEFENSE = DefenseConfig(SmoothingConfig(sigma=0.05, m1=5, m_max=20, trim_frac=0.1))


class TestDynamics:
    def test_two_agents_average_exactly(self):
        cfg = ScenarioConfig(
            topology=ring_topology(2),
            rounds=1,
            policies=_mean_policies(2),
            master_seed=1,
            initial_states=((0.25,), (0.75,)),
        )
        traj = run_scenario(cfg)
        assert traj.final_states == ((0.5,), (0.5,))

    def test_uniform_start_is_fixed_point(self):
        x = 0.7
        cfg = ScenarioConfig(
            topology=ring_topology(5),
            rounds=8,
            policies=_mean_policies(5),
            master_seed=2,
            initial_states=tuple((x,) for _ in range(5)),
        )
        traj = run_scenario(cfg)
        assert traj.final_states == tuple((x,) for _ in range(5))

    def test_constant_bias_shifts_receivers_by_known_amount(self):
        # all at 0.5; sender 0 lies by +delta; a receiver with two
        # neighbors moves by (1 - w) * delta / 2 in one round
        cfg = _attacked(4, {0}, rounds=1, delta=0.2)
        traj = run_scenario(cfg)
        assert traj.final_states[1][0] == pytest.approx(0.55, abs=1e-12)
        assert traj.final_states[3][0] == pytest.approx(0.55, abs=1e-12)
        assert traj.final_states[2] == (0.5,)
        assert traj.final_states[0] == (0.5,)

    def test_row_zero_is_initial_state(self):
        cfg = _attacked(4, {0}, rounds=3)
        traj = run_scenario(cfg)
        assert traj.states[0] == cfg.initial_states
        assert len(traj.states) == cfg.rounds + 1
        assert traj.rounds == 3
        assert traj.n == 4

    def test_states_stay_in_domain(self):
        halluc = HallucinationConfig(p_h=0.2, mode=UNIFORM_RANDOM)
        cfg = ScenarioConfig(
            topology=ring_topology(6),
            rounds=12,
            policies=tuple(
                AgentPolicy(llm_mimic(jitter_sd=0.05), halluc=halluc)
                for _ in range(6)
            ),
            master_seed=3,
            attack=AttackConfig(frozenset({1, 4}), p_attack=0.7, delta_max=0.4),
            defense=DEFENSE,
        )
        traj = run_scenario(cfg)
        dom = cfg.domain
        for row in traj.states:
            for state in row:
                assert dom.contains(state)


    def test_int_domain_bounds_give_float_states(self):
        # every output lands on a bound: large jumps for the decisions, a
        # large bias on the wire; the round loop builds next-round inputs
        # without re-validating, so the bounds must already be floats
        dom = Domain((0,), (2,))
        policy = AgentPolicy(
            mean_aggregation(0.5),
            halluc=HallucinationConfig(p_h=1.0, mode="large-jump", magnitude=5.0),
            domain=dom,
        )
        for defense in (None, DEFENSE):
            cfg = ScenarioConfig(
                topology=ring_topology(4),
                rounds=3,
                policies=(policy,) * 4,
                master_seed=5,
                attack=AttackConfig(frozenset({0}), p_attack=1.0, delta_max=5.0),
                defense=defense,
                domain=dom,
            )
            traj = run_scenario(cfg)
            for row in traj.states[1:]:
                for state in row:
                    assert all(type(x) is float for x in state), state
                    assert dom.contains(state)
            assert {s for row in traj.states[1:] for s in row} & {(0.0,), (2.0,)}


class TestSeeding:
    def test_seeded_initials_deterministic(self):
        cfg = ScenarioConfig(
            topology=ring_topology(5),
            rounds=1,
            policies=_mean_policies(5),
            master_seed=99,
        )
        w1 = initial_world(cfg)
        w2 = initial_world(cfg)
        assert w1 == w2
        assert len(set(w1.states)) == 5
        for s in w1.states:
            assert cfg.domain.contains(s)

    def test_distinct_seeds_give_distinct_runs(self):
        base = dict(
            topology=ring_topology(5),
            rounds=4,
            policies=_mean_policies(5),
        )
        t1 = run_scenario(ScenarioConfig(master_seed=1, **base))
        t2 = run_scenario(ScenarioConfig(master_seed=2, **base))
        assert t1.states != t2.states

    def test_rerun_is_bit_identical(self):
        cfg = _attacked(6, {2}, rounds=6, defense=DEFENSE)
        assert run_scenario(cfg) == run_scenario(cfg)


class TestBookkeeping:
    def test_attack_flags_only_at_malicious_senders(self):
        cfg = _attacked(6, {1, 4}, rounds=5, p_attack=0.6, seed=17)
        traj = run_scenario(cfg)
        for row in traj.attack_fired:
            for i, flag in enumerate(row):
                if i not in {1, 4}:
                    assert not flag
        assert any(row[1] or row[4] for row in traj.attack_fired)

    def test_always_on_attack_fires_every_round(self):
        traj = run_scenario(_attacked(4, {0}, rounds=4, p_attack=1.0))
        assert all(row[0] for row in traj.attack_fired)

    def test_query_counts_under_defense(self):
        cfg = _attacked(5, {0}, rounds=3, defense=DEFENSE)
        traj = run_scenario(cfg)
        m1, m_max = DEFENSE.smoothing.m1, DEFENSE.smoothing.m_max
        for row in traj.queries:
            assert row[0] == 1  # malicious agents never smooth
            for q in row[1:]:
                assert m1 <= q <= m1 + m_max
        # every agent on a ring is somebody's neighbor, so all get verified
        for row in traj.verify_queries:
            for v in row:
                assert m1 <= v <= m1 + m_max

    def test_query_counts_without_defense(self):
        traj = run_scenario(_attacked(5, {0}, rounds=3))
        assert all(q == 1 for row in traj.queries for q in row)
        assert all(v == 0 for row in traj.verify_queries for v in row)

    def test_verification_can_be_ablated(self):
        defense = DefenseConfig(DEFENSE.smoothing, verify_neighbors=False)
        traj = run_scenario(_attacked(5, {0}, rounds=2, defense=defense))
        assert all(v == 0 for row in traj.verify_queries for v in row)
        for row in traj.queries:
            assert all(q > 1 for q in row[1:])

    def test_decision_smoothing_can_be_ablated(self):
        defense = DefenseConfig(DEFENSE.smoothing, smooth_decisions=False)
        traj = run_scenario(_attacked(5, {0}, rounds=2, defense=defense))
        assert all(q == 1 for row in traj.queries for q in row)
        assert all(v > 0 for row in traj.verify_queries for v in row)


class TestScheduleInvariance:
    def test_eval_order_and_parallel_agree(self):
        cfg = _attacked(6, {2}, rounds=5, defense=DEFENSE, seed=23)
        plain = run_scenario(cfg)
        reversed_order = run_scenario(cfg, eval_order=tuple(reversed(range(6))))
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(run_scenario, [cfg, cfg]))
        assert plain == reversed_order
        assert concurrent == [plain, plain]

    def test_backends_agree(self):
        # SMOOTHMAS_REQUIRE_FAST=1 turns a missing kernel into a failure
        if _kernels._fast is None and os.environ.get("SMOOTHMAS_REQUIRE_FAST") != "1":
            pytest.skip("compiled kernels not built")
        cfg = _attacked(5, {1}, rounds=4, defense=DEFENSE, seed=31)
        try:
            _kernels.use_backend("pure")
            pure = run_scenario(cfg)
            _kernels.use_backend("fast")
            fast = run_scenario(cfg)
        finally:
            _kernels.use_backend("auto")
        assert pure == fast

    @pytest.mark.parametrize("seed", [-5, 2**64 + 3])
    def test_backends_agree_on_seeds_outside_64_bits(self, seed):
        # master seeds are any int: the kernel's stream primitives reduce them
        # mod 2^64, as core's do, instead of raising
        if _kernels._fast is None and os.environ.get("SMOOTHMAS_REQUIRE_FAST") != "1":
            pytest.skip("compiled kernels not built")
        cfg = replace(
            _attacked(5, {1}, rounds=4, defense=DEFENSE, seed=seed, p_attack=0.5),
            initial_states=None,
        )
        try:
            _kernels.use_backend("pure")
            pure = run_scenario(cfg)
            _kernels.use_backend("fast")
            fast = run_scenario(cfg)
        finally:
            _kernels.use_backend("auto")
        assert pure == fast
        assert pure.states[0] != run_scenario(replace(cfg, master_seed=seed + 1)).states[0]


class TestDefenseEffect:
    def test_verification_filters_constant_bias(self):
        # all honest agents start at the eventual consensus value, so any
        # deviation is attack leakage; the verified run should keep nearly
        # none of it
        no_def = run_scenario(_attacked(4, {0}, rounds=10, delta=0.3, seed=41))
        with_def = run_scenario(
            _attacked(4, {0}, rounds=10, delta=0.3, defense=DEFENSE, seed=41)
        )

        def avg_dev(traj):
            devs = [abs(traj.final_states[i][0] - 0.5) for i in (1, 2, 3)]
            return sum(devs) / len(devs)

        assert avg_dev(no_def) > 0.05
        assert avg_dev(with_def) < 0.5 * avg_dev(no_def)


class TestValidation:
    def test_policy_unavailable_error_names_round_and_agent(self):
        cfg = ScenarioConfig(
            topology=ring_topology(2),
            rounds=1,
            policies=tuple(AgentPolicy(external_llm()) for _ in range(2)),
            master_seed=5,
            initial_states=((0.3,), (0.6,)),
        )
        with pytest.raises(PolicyUnavailableError, match=r"round 0, agent 0"):
            run_scenario(cfg)

    def test_world_round_mismatch_rejected(self):
        cfg = _attacked(4, {0}, rounds=2)
        world = initial_world(cfg)
        with pytest.raises(InvalidArgumentError, match="round"):
            step(cfg, world, 1)

    def test_eval_order_must_be_permutation(self):
        cfg = _attacked(4, {0}, rounds=1)
        world = initial_world(cfg)
        with pytest.raises(InvalidArgumentError, match="permutation"):
            step_detail(cfg, world, 0, eval_order=(0, 0, 1, 2))

    def test_initial_state_count_checked(self):
        with pytest.raises(InvalidArgumentError, match="initial"):
            ScenarioConfig(
                topology=ring_topology(3),
                rounds=1,
                policies=_mean_policies(3),
                master_seed=1,
                initial_states=((0.5,), (0.5,)),
            )

    def test_initial_state_domain_checked(self):
        with pytest.raises(InvalidArgumentError, match="domain"):
            ScenarioConfig(
                topology=ring_topology(3),
                rounds=1,
                policies=_mean_policies(3),
                master_seed=1,
                initial_states=((0.5,), (1.5,), (0.5,)),
            )

    def test_policy_domain_must_match_scenario(self):
        wide = Domain((0.0,), (2.0,))
        policies = (
            AgentPolicy(mean_aggregation(), domain=wide),
        ) + _mean_policies(2)
        with pytest.raises(InvalidArgumentError, match="domain"):
            ScenarioConfig(
                topology=ring_topology(3),
                rounds=1,
                policies=policies,
                master_seed=1,
            )

    def test_malicious_ids_must_exist(self):
        with pytest.raises(InvalidArgumentError, match="malicious"):
            ScenarioConfig(
                topology=ring_topology(3),
                rounds=1,
                policies=_mean_policies(3),
                master_seed=1,
                attack=AttackConfig(frozenset({7}), p_attack=1.0, delta_max=0.1),
            )

    def test_rounds_must_be_positive(self):
        with pytest.raises(InvalidArgumentError, match="rounds"):
            ScenarioConfig(
                topology=ring_topology(3),
                rounds=0,
                policies=_mean_policies(3),
                master_seed=1,
            )
