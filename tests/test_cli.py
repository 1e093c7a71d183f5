import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from smoothmas.cli import formation_slots, main, parse_seeds, trajectory_csv
from smoothmas.config import ConfigError, parse_config, scenario_config
from smoothmas.certify import certify_decision, uniform_partition
from smoothmas.core import Purpose, SeedSpec
from smoothmas.policy import PolicyInput
from smoothmas.sim import initial_world, run_scenario

TRIPLET_DOC = {
    "schema_version": 1,
    "topology": {"kind": "ring", "n": 6},
    "rounds": 8,
    "policy": {"kind": "llm-mimic", "jitter_sd": 0.05},
    "hallucination": {"p_h": 0.05, "mode": "uniform-random"},
    "attack": {"malicious": [5], "delta_max": 0.3},
    "defense": {"sigma": 0.05},
}

FORMATION_DOC = {
    "schema_version": 1,
    "topology": {"kind": "ring", "n": 6},
    "rounds": 40,
    "dimension": 3,
    "domain": {"low": [0.0, 0.0, 0.0], "high": [2000.0, 2000.0, 1000.0]},
    "attack": {"malicious": [5], "delta_max": 150.0},
    "defense": {"sigma": 10.0},
}


@pytest.fixture
def triplet_config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TRIPLET_DOC))
    return str(path)


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestTrajectoryCsv:
    def test_layout(self):
        cfg = scenario_config(parse_config(TRIPLET_DOC), seed=3)
        traj = run_scenario(cfg)
        lines = trajectory_csv(traj).splitlines()
        assert lines[0] == "round,agent,component_0,attack_fired,queries_used"
        assert len(lines) == 1 + (cfg.rounds + 1) * cfg.n
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[3] == "0" and first[4] == "0"  # no transition into row 0
        some_later = lines[1 + cfg.n].split(",")
        assert int(some_later[4]) >= 1

    def test_three_component_header(self):
        cfg = scenario_config(parse_config(FORMATION_DOC), seed=1)
        traj = run_scenario(cfg)
        header = trajectory_csv(traj).splitlines()[0]
        assert header == (
            "round,agent,component_0,component_1,component_2,"
            "attack_fired,queries_used"
        )

    def test_schedule_does_not_change_bytes(self):
        cfg = scenario_config(parse_config(TRIPLET_DOC), seed=5)
        plain = trajectory_csv(run_scenario(cfg))
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = [trajectory_csv(t) for t in pool.map(run_scenario, [cfg, cfg])]
        backwards = trajectory_csv(
            run_scenario(cfg, eval_order=tuple(reversed(range(cfg.n))))
        )
        assert concurrent == [plain, plain]
        assert plain == backwards


class TestSeedsFlag:
    def test_count_form(self):
        assert parse_seeds("3", master_seed=10) == [10, 11, 12]

    def test_list_form(self):
        assert parse_seeds("5,9,11", master_seed=0) == [5, 9, 11]

    def test_default_is_master_seed(self):
        assert parse_seeds(None, master_seed=42) == [42]

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_seeds("many", master_seed=0)
        with pytest.raises(ConfigError):
            parse_seeds("0", master_seed=0)
        with pytest.raises(ConfigError):
            parse_seeds("1,x", master_seed=0)
        with pytest.raises(ConfigError):
            parse_seeds("3,3", master_seed=0)
        with pytest.raises(ConfigError):
            parse_seeds(",", master_seed=0)


class TestRunCommand:
    def test_triplet_outputs(self, triplet_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", triplet_config_path, "--out", str(out),
                   "--seeds", "2"])
        assert rc == 0
        for seed in (0, 1):
            for leg in ("baseline", "no_defense", "with_defense"):
                assert (out / f"seed_{seed}" / f"{leg}.csv").exists()
                assert (out / f"seed_{seed}" / f"{leg}.svg").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [0, 1]
        assert not summary["incomplete"]
        seed0 = summary["per_seed"]["0"]
        assert len(seed0["baseline"]["consensus_error_per_round"]) == 9
        metrics = seed0["metrics"]
        assert metrics["no_defense"]["avg_normal_deviation"] > 0
        assert "improvement_pct" in metrics
        agg = summary["aggregate"]
        assert agg["seed_count"] == 2
        assert 0 <= agg["defense_wins"] <= 2
        assert agg["no_defense_avg_normal_deviation"]["sd"] is not None

    def test_rerun_is_byte_identical(self, triplet_config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["run", "--config", triplet_config_path, "--seeds", "1"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        for leg in ("baseline", "no_defense", "with_defense"):
            a = (out1 / "seed_0" / f"{leg}.csv").read_bytes()
            b = (out2 / "seed_0" / f"{leg}.csv").read_bytes()
            assert a == b
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "c"), "--parallel"])
        assert exc.value.code == 2

    def test_duplicate_seeds_leave_outdir_untouched(self, triplet_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", triplet_config_path, "--out", str(out),
                   "--seeds", "3,3"])
        assert rc == 1
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("defense", [None, "on"])
    def test_missing_defense_section_leaves_outdir_untouched(self, tmp_path, capsys, defense):
        cfg = _write(tmp_path, {"schema_version": 1, "scenario": "single", "rounds": 3})
        out = tmp_path / "out"
        argv = ["run", "--config", cfg, "--out", str(out)]
        if defense is not None:
            argv += ["--defense", defense]
        assert main(argv) == 1
        assert "no defense section" in capsys.readouterr().err
        assert not out.exists()

    def test_single_scenario_has_no_improvement_metric(self, tmp_path, capsys):
        doc = {"schema_version": 1, "scenario": "single", "rounds": 5}
        cfg = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg, "--out", str(out), "--defense", "off"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        block = summary["per_seed"]["0"]
        assert "metrics" not in block
        assert "aggregate" not in summary
        assert "improvement_pct" not in json.dumps(summary)

    def test_defense_leg_selection(self, triplet_config_path, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", triplet_config_path, "--out", str(out),
                   "--defense", "off"])
        assert rc == 0
        assert (out / "seed_0" / "no_defense.csv").exists()
        assert not (out / "seed_0" / "with_defense.csv").exists()

    def test_refuses_nonempty_outdir(self, triplet_config_path, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "old.txt").write_text("keep me")
        rc = main(["run", "--config", triplet_config_path, "--out", str(out)])
        assert rc == 1
        assert "--force" in capsys.readouterr().err
        rc = main(["run", "--config", triplet_config_path, "--out", str(out),
                   "--force"])
        assert rc == 0

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        cfg = _write(tmp_path, {"schema_version": 1, "rouns": 2})
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "rouns" in capsys.readouterr().err

    def test_live_llm_without_key_flags_incomplete(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        doc = dict(TRIPLET_DOC)
        doc["policy"] = {"kind": "external-llm"}
        doc["llm"] = {"base_url": "http://llm.test", "model": "m", "max_retries": 0}
        cfg = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg, "--out", str(out), "--live-llm"])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["incomplete"]
        assert "LLM_API_KEY" in summary["error"]

    def test_external_llm_requires_live_flag(self, tmp_path, capsys):
        doc = dict(TRIPLET_DOC)
        doc["policy"] = {"kind": "external-llm"}
        cfg = _write(tmp_path, doc)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "live-llm" in capsys.readouterr().err


class TestCertifyCommand:
    def test_report_structure(self, triplet_config_path, tmp_path):
        out = tmp_path / "cert"
        rc = main(["certify", "--config", triplet_config_path, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "seed_0" / "certificates.json").read_text())
        assert set(report["per_agent"]) == {str(i) for i in range(6)}
        entry = report["per_agent"]["0"]
        for key in ("region", "pA_lower", "pB_upper", "radius", "abstained",
                    "confidence", "n_samples", "attenuation_factor"):
            assert key in entry
        assert entry["confidence"] == 0.99
        table = report["attenuation_table"]
        assert [row["agent"] for row in table] == [0, 1, 2, 3, 4]
        for row in table:
            assert row["hops_from_malicious"] >= 1
            assert 0 < row["residual_perturbation"] <= 0.3
        assert report["tolerance_index"] >= 0

    def test_certifies_round_zero_initial_states(self, tmp_path):
        # certify runs no scenario: each seed's certificates are for the
        # round-0 initial states, so rounds, attack and defense do not matter
        cert_doc = {"n": 200, "k_regions": 4, "agents": [0, 3]}
        reports = []
        for rounds in (8, 1):
            doc = dict(TRIPLET_DOC, rounds=rounds, certification=cert_doc)
            if rounds == 1:
                doc.update(scenario="single", attack=None, defense=None)
            out = tmp_path / f"cert_{rounds}"
            rc = main(["certify", "--config", _write(tmp_path, doc), "--out", str(out),
                       "--seeds", "0,4"])
            assert rc == 0
            reports.append({seed: json.loads((out / f"seed_{seed}" / "certificates.json")
                                             .read_text())["per_agent"] for seed in (0, 4)})
        assert reports[0] == reports[1]
        cfg = parse_config(dict(TRIPLET_DOC, certification=cert_doc))
        partition = uniform_partition(cfg.domain, 4)
        for seed in (0, 4):
            scenario = scenario_config(cfg, seed=seed)
            states = initial_world(scenario).states
            for agent in (0, 3):
                pin = PolicyInput(states[agent], tuple(
                    (j, states[j]) for j in scenario.topology.neighbors(agent)))
                expected = certify_decision(
                    scenario.policies[agent], pin, partition, cfg.certification.sigma, 200,
                    cfg.certification.alpha, SeedSpec(seed).branch(0, agent, Purpose.CERTIFY))
                entry = reports[0][seed][str(agent)]
                assert (entry["region"], entry["pA_lower"], entry["radius"]) == (
                    expected.region, expected.pA_lower, expected.radius)

    def test_abstaining_agent_gets_half_attenuation(self, tmp_path):
        doc = {
            "schema_version": 1,
            "scenario": "single",
            "topology": {"kind": "ring", "n": 3},
            "initial_states": [[0.5], [0.5], [0.5]],
            "certification": {"sigma": 1.0, "n": 200, "alpha": 0.01,
                              "k_regions": 2},
        }
        cfg = _write(tmp_path, doc)
        out = tmp_path / "cert"
        rc = main(["certify", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "seed_0" / "certificates.json").read_text())
        entry = report["per_agent"]["0"]
        assert entry["abstained"]
        assert entry["radius"] is None
        assert entry["attenuation_factor"] == 0.5

    def test_live_llm_without_key_flags_incomplete(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        doc = dict(TRIPLET_DOC, certification={"n": 20})
        doc["policy"] = {"kind": "external-llm"}
        doc["llm"] = {"base_url": "http://llm.test", "model": "m", "max_retries": 0}
        cfg = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["certify", "--config", cfg, "--out", str(out), "--live-llm"])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["incomplete"] is True
        assert summary["seeds"] == [0]
        assert "LLM_API_KEY" in summary["error"]
        assert "LLM_API_KEY" in capsys.readouterr().err
        assert not (out / "seed_0").exists()

    def test_rejects_multidimensional_config(self, tmp_path, capsys):
        cfg = _write(tmp_path, FORMATION_DOC)
        rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "one-dimensional" in capsys.readouterr().err


class TestFormationCommand:
    def test_outputs_and_convergence(self, tmp_path):
        cfg = _write(tmp_path, FORMATION_DOC)
        out = tmp_path / "form"
        rc = main(["formation", "--config", cfg, "--out", str(out), "--seeds", "2"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["airspace_diagonal"] == pytest.approx(3000.0)
        assert summary["slot_error_limit"] == pytest.approx(30.0)
        for seed in ("0", "1"):
            block = summary["per_seed"][seed]
            assert block["baseline"]["converged"]
            assert "defense_improves" in block
        assert (out / "seed_0" / "with_defense.svg").exists()
        assert summary["aggregate"]["comparisons"] == 2

    def test_live_llm_without_key_flags_incomplete(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        doc = dict(FORMATION_DOC)
        doc["policy"] = {"kind": "external-llm"}
        doc["llm"] = {"base_url": "http://llm.test", "model": "m", "max_retries": 0}
        cfg = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["formation", "--config", cfg, "--out", str(out), "--live-llm"])
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["incomplete"]
        assert "LLM_API_KEY" in summary["error"]
        assert "LLM_API_KEY" in capsys.readouterr().err

    def test_rejects_one_dimensional_config(self, triplet_config_path, tmp_path, capsys):
        rc = main(["formation", "--config", triplet_config_path,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "three-dimensional" in capsys.readouterr().err

    def test_slot_layout(self):
        slots = formation_slots(4, 300.0)
        assert slots[0] == pytest.approx((300.0, 0.0, 0.0))
        assert slots[1] == pytest.approx((0.0, 300.0, 0.0), abs=1e-9)
        assert all(s[2] == 0.0 for s in slots)
        assert len(set(slots)) == 4


class TestValidateCommand:
    def test_valid_config_prints_materialized_document(self, triplet_config_path, capsys):
        rc = main(["validate-config", "--config", triplet_config_path])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["defense"]["m1"] == 5  # default filled in
        assert parse_config(doc) == parse_config(TRIPLET_DOC)

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,')
        rc = main(["validate-config", "--config", str(path)])
        assert rc == 1
        assert "line" in capsys.readouterr().err
