"""Experiment runner: scenarios, calibration, curves, metrics, export."""

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fanetq.env import EPISODE_BLOCK, ScenarioConfig
from fanetq.errors import CalibrationError, ConfigError, ContractViolation
from fanetq.experiments import (
    CURVE_HEADER,
    QMETRICS_HEADER,
    RunRecord,
    aggregate_curves,
    calibrate,
    derive_metrics,
    ema_smooth,
    export_records,
    load_scenario,
    qmetrics_report,
    random_baseline_cr,
    run_path,
    run_training,
    write_qmetrics_csv,
)
from fanetq.mappo import TrainerConfig

from tests.oracles import save_curve
from tests.test_env import episode_cr_alone


def synthetic_record(solution, seed, crs, start=1000, step=1000):
    curve = [
        {
            "env_steps": start + i * step,
            "cr_mean": float(c),
            "cr_std": 1.0,
            "actor_loss": -0.01,
            "critic_loss": 2.0,
        }
        for i, c in enumerate(crs)
    ]
    return RunRecord(solution=solution, scenario="4a1s", seed=seed, curve=curve)


class TestScenarioRegistry:
    def test_packaged_scenarios_load(self):
        for name, (na, ng, dim) in {
            "4a1s": (4, 1, 13),
            "5a2s": (5, 2, 19),
        }.items():
            cfg = load_scenario(name)
            assert cfg.n_aircraft == na and cfg.n_ground == ng
            assert cfg.obs_dim == dim
            assert cfg.horizon == 50 and cfg.max_links == 2
            assert cfg.v_max == 0.02 and cfg.world_side == 1.0

    def test_file_path_accepted(self, tmp_path):
        cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=0.5)
        cfg.save(tmp_path / "custom.json")
        assert load_scenario(str(tmp_path / "custom.json")) == cfg

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            load_scenario("6a3s")


class TestCalibration:
    def test_tiny_comm_range_kills_connectivity(self):
        # monotone anchor: no links possible when the range is microscopic
        cfg = ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=1e-6)
        mean, _ = random_baseline_cr(cfg, 50, seed=0)
        assert mean < 0.5

    def test_huge_comm_range_approaches_ceiling(self):
        # world-diagonal range: every pair always reachable, CR near the
        # nomination-game ceiling measured by the oracle, far above midrange
        cfg_all = ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=1.5)
        ceiling, _ = random_baseline_cr(cfg_all, 150, seed=1)
        cfg_mid = ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3)
        mid, _ = random_baseline_cr(cfg_mid, 150, seed=1)
        assert ceiling > mid
        assert ceiling > 100.0
        assert ceiling <= 200.0  # T * N_A bound

    def test_unreachable_target_fails_loudly_with_sweep(self):
        base = ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3)
        with pytest.raises(CalibrationError) as exc:
            calibrate(
                base,
                target_cr=500.0,  # above the T*N_A = 200 bound
                tolerance=2.0,
                episodes=20,
            )
        assert len(exc.value.sweep) >= 2

    @pytest.mark.parametrize("world_side, v_max", [(1.5e308, 0.0), (1.0, 1e307)])
    def test_a_bracket_that_overflows_names_the_scenario_fields(self, world_side, v_max):
        # a valid scenario whose farthest distance overflows, refused before any probe; the range it would
        # have probed, inf, is no input of the user's
        base = ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3, world_side=world_side, v_max=v_max)
        with pytest.raises(ConfigError, match="world_side.*v_max.*horizon") as exc:
            calibrate(base, target_cr=60.0, tolerance=2.0, episodes=5)
        assert "comm_range" not in str(exc.value)

    def test_calibrates_to_loose_target(self):
        base = ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3)
        cfg, sweep = calibrate(
            base,
            target_cr=25.0,
            tolerance=6.0,
            episodes=200,
            seed=3,
        )
        measured, _ = random_baseline_cr(cfg, 400, seed=101)
        assert abs(measured - 25.0) < 6.0
        assert sweep  # table attached

    def test_bisection_on_one_bank_is_reproducible_and_monotone(self):
        base = load_scenario("4a1s")
        cfg, sweep = calibrate(base, 60.20, 2.0, episodes=500)
        assert calibrate(base, 60.20, 2.0, episodes=500) == (cfg, sweep)
        (row,) = [row for row in sweep if row["comm_range"] == cfg.comm_range]
        assert random_baseline_cr(cfg, 500, 0)[0] == row["cr_mean"]  # every probe reads the same bank
        crs = [row["cr_mean"] for row in sorted(sweep, key=lambda row: row["comm_range"])]
        assert crs == sorted(crs)

    def test_a_bank_whose_cr_falls_as_the_range_grows_fails_loudly(self, monkeypatch):
        # the probes at 0.375 and 0.4375 of the bracket land in the dip, below the probe at 0.25; bisection
        # alone would still close in on the target at 0.5, within the tolerance
        import fanetq.experiments as experiments

        base = ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3)
        high = math.sqrt(2) * (base.world_side + 2 * base.v_max * base.horizon)

        def dipping_cr(cfg, episodes, seed):
            x = cfg.comm_range / high
            return (10.0 if 0.3 < x < 0.45 else 100.0 * x), 1.0

        monkeypatch.setattr(experiments, "random_baseline_cr", dipping_cr)
        with pytest.raises(CalibrationError, match="not monotone: CR falls from 25.0000") as exc:
            calibrate(base, target_cr=50.0, tolerance=2.0, episodes=10)
        probes = [row["comm_range"] / high for row in exc.value.sweep]
        assert probes[:4] == [0.5, 0.25, 0.375, 0.4375] and len(probes) > 4

    def test_a_world_scaled_tenfold_calibrates_to_tenfold_the_range(self):
        # the bracket comes from the scenario, so a world whose side is not 1 calibrates too
        base = load_scenario("4a1s")
        cfg, sweep = calibrate(base, 60.20, 2.0, episodes=500)
        big = replace(base, world_side=10.0, v_max=0.2, comm_range=10 * base.comm_range)
        cfg10, sweep10 = calibrate(big, 60.20, 2.0, episodes=500)
        assert cfg10.comm_range == pytest.approx(10 * cfg.comm_range, abs=10 * 1e-3)
        (row,) = [row for row in sweep if row["comm_range"] == cfg.comm_range]
        (row10,) = [row for row in sweep10 if row["comm_range"] == cfg10.comm_range]
        assert row10["cr_mean"] == pytest.approx(row["cr_mean"], abs=row["cr_se"])

    @pytest.mark.parametrize("name", ["4a1s", "5a2s"])
    def test_the_bank_mean_rises_with_the_range_around_the_packaged_range(self, name):
        # the property bisection rests on: one bank's mean CR never falls as the range grows
        base = load_scenario(name)
        grid = [base.comm_range * (1 + 0.005 * k) for k in range(-4, 5)]  # +/- 2%
        crs = [random_baseline_cr(replace(base, comm_range=rc), 2000, 0)[0] for rc in grid]
        assert crs == sorted(crs)

    def test_frozen_scenarios_reproduce_baselines(self):
        # the shipped calibrated configs hit the published random-agent CRs
        cfg4 = load_scenario("4a1s")
        mean4, _ = random_baseline_cr(cfg4, 400, seed=11)
        assert abs(mean4 - 60.20) < 2.0
        cfg5 = load_scenario("5a2s")
        mean5, _ = random_baseline_cr(cfg5, 400, seed=11)
        assert abs(mean5 - 84.88) < 3.0

    def test_baselines_keep_their_exact_bits(self):
        # pinned from the all-pairs per-step geometry; any change to the env's arithmetic shows here
        assert random_baseline_cr(load_scenario("5a2s"), 2000, 0) == (83.367, 24.228584585154785)
        assert random_baseline_cr(load_scenario("4a1s"), 500, 3) == (58.76, 24.755896267354167)


def oracle_random_baseline_cr(cfg, episodes, seed):
    """One episode at a time, one (n_aircraft, action_dim) uniform draw per step."""
    rng = np.random.default_rng(seed + 10_000_019)

    def draw(obs, t):
        return rng.uniform(0.0, 1.0, size=(cfg.n_aircraft, cfg.action_dim))

    crs = np.array([episode_cr_alone(cfg, seed + i, draw) for i in range(episodes)])
    return float(crs.mean()), float(crs.std())


class TestRandomBaseline:
    @pytest.mark.parametrize("episodes", [EPISODE_BLOCK + 1, 2 * EPISODE_BLOCK + 2])
    def test_block_boundaries_do_not_change_the_result(self, episodes):
        cfg = ScenarioConfig(n_aircraft=3, n_ground=2, comm_range=0.4, horizon=12)
        assert random_baseline_cr(cfg, episodes, seed=4) == oracle_random_baseline_cr(cfg, episodes, 4)

    def test_5a2s_two_thousand_episodes_pinned(self):
        # the value every version of the env core has produced for this seed
        assert random_baseline_cr(load_scenario("5a2s"), 2000, seed=0) == (83.367, 24.228584585154785)

    def test_computes_the_in_range_planes_once_per_block_and_no_lk_rows(self, monkeypatch):
        # the open-loop pass reads only whether each pair is in range at each step
        import fanetq.env as env

        tables, planes = [], []
        lk_table, in_range = env._lk_table, env._in_range
        monkeypatch.setattr(env, "_lk_table", lambda world, cfg: tables.append(world.t) or lk_table(world, cfg))
        monkeypatch.setattr(env, "_in_range", lambda world, cfg: planes.append(world.pos.shape[:-2]) or in_range(world, cfg))
        random_baseline_cr(load_scenario("5a2s"), 2 * EPISODE_BLOCK + 2, seed=9)
        assert tables == [] and planes == [(EPISODE_BLOCK,), (EPISODE_BLOCK,), (2,)]

    def test_every_episode_cr_is_summed_by_one_run_episodes_call(self, monkeypatch):
        import fanetq.experiments as experiments

        calls, run_episodes = [], experiments.run_episodes
        monkeypatch.setattr(experiments, "run_episodes", lambda *args: calls.append(list(args[1])) or run_episodes(*args))
        random_baseline_cr(load_scenario("4a1s"), 2 * EPISODE_BLOCK + 2, seed=9)
        assert calls == [list(range(9, 9 + 2 * EPISODE_BLOCK + 2))]

    @pytest.mark.parametrize(
        "episodes, seed, name",
        [(2.5, 0, "episodes"), (True, 0, "episodes"), (4, 1.5, "seed"), (4, -1, "seed"), (4, True, "seed")],
    )
    def test_counts_and_seeds_must_be_integers_in_range(self, episodes, seed, name):
        # a bool is no count: True would run one episode
        with pytest.raises(ContractViolation, match=f"^{name} must be"):
            random_baseline_cr(load_scenario("4a1s"), episodes, seed)


class TestRunRecords:
    def test_csv_roundtrip_and_header(self, tmp_path):
        rec = synthetic_record("NN-4", 0, [10.0, 20.0, 30.0])
        path = tmp_path / "seed0.csv"
        save_curve(rec, path)
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(CURVE_HEADER)
        assert "\r" not in text
        loaded = RunRecord.load_csv(path, "NN-4", "4a1s", 0)
        assert loaded.curve == rec.curve

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env_steps,cr\n1,2\n")
        with pytest.raises(ContractViolation):
            RunRecord.load_csv(path, "NN-4", "4a1s", 0)

    def test_run_path_layout(self):
        assert str(run_path("runs", "4a1s", "NN-4", 2)).endswith("runs/4a1s/NN-4/seed2.csv")

    def test_training_persists_incrementally_and_reproduces(self, tmp_path):
        tcfg = TrainerConfig(rollout_steps=500, eval_interval=500, eval_episodes=2)
        recs1 = run_training("NN-4", "4a1s", [5], 2000, tmp_path / "a", trainer_cfg=tcfg)
        recs2 = run_training("NN-4", "4a1s", [5], 2000, tmp_path / "b", trainer_cfg=tcfg)
        assert recs1[0].curve == recs2[0].curve  # same seed, identical curve
        assert len(recs1[0].curve) == 4
        on_disk = RunRecord.load_csv(run_path(tmp_path / "a", "4a1s", "NN-4", 5), "NN-4", "4a1s", 5)
        assert [p["env_steps"] for p in on_disk.curve] == [500, 1000, 1500, 2000]
        assert run_path(tmp_path / "a", "4a1s", "NN-4", 5).with_name("seed5_actor.json").exists()
        assert run_path(tmp_path / "a", "4a1s", "NN-4", 5).with_name("seed5_critic.json").exists()

    @pytest.mark.parametrize("total_steps, eval_interval", [(999, 1000), (199, 200)])
    def test_fewer_steps_than_one_evaluation_are_rejected_before_any_file(self, tmp_path, total_steps, eval_interval):
        tcfg = TrainerConfig(rollout_steps=200, eval_interval=eval_interval, eval_episodes=1)
        with pytest.raises(ContractViolation, match=f"at least eval_interval {eval_interval}, got {total_steps}"):
            run_training("NN-4", "4a1s", [0], total_steps, tmp_path, trainer_cfg=tcfg)
        assert not any(tmp_path.iterdir())
        assert len(run_training("NN-4", "4a1s", [0], eval_interval, tmp_path, trainer_cfg=tcfg)[0].curve) == 1

    @pytest.mark.parametrize("seeds", [[True], [1.5], [-1], [0, "1"]])
    def test_a_seed_that_is_no_integer_in_range_is_rejected_before_any_file(self, tmp_path, seeds):
        # a bool seed would train as seed 1 under the name seedTrue
        with pytest.raises(ContractViolation, match="^seed must be"):
            run_training("NN-4", "4a1s", seeds, 1000, tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("total_steps", [1500.5, 2000.0, True])
    def test_a_step_count_that_is_no_integer_is_rejected_before_any_file(self, tmp_path, total_steps):
        # 1500.5 left a header-only curve behind and then failed as a bare TypeError
        with pytest.raises(ContractViolation, match="^total_steps must be an integer"):
            run_training("NN-4", "4a1s", [0], total_steps, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_rows_are_on_disk_before_the_run_ends(self, tmp_path, monkeypatch):
        import fanetq.mappo as mappo

        evaluate = mappo.evaluate
        calls = []

        def failing_second_eval(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("killed")
            return evaluate(*args)

        monkeypatch.setattr(mappo, "evaluate", failing_second_eval)
        tcfg = TrainerConfig(rollout_steps=200, eval_interval=200, eval_episodes=1)
        with pytest.raises(RuntimeError, match="killed"):
            run_training("NN-4", "4a1s", [0], 1000, tmp_path, trainer_cfg=tcfg)
        lines = run_path(tmp_path, "4a1s", "NN-4", 0).read_text().splitlines()
        assert lines[0] == ",".join(CURVE_HEADER)
        assert [line.split(",")[0] for line in lines[1:]] == ["200"]

    def test_an_update_runs_one_evaluation_block(self, tmp_path, monkeypatch):
        # 2000 steps at the default config are one update that crosses two evaluation points
        import fanetq.mappo as mappo

        blocks = []
        run_episodes = mappo.run_episodes
        monkeypatch.setattr(mappo, "run_episodes", lambda *args: blocks.append(len(args[1])) or run_episodes(*args))
        run_training("NN-4", "4a1s", [0], 2000, tmp_path)
        assert blocks == [2 * TrainerConfig().eval_episodes]

    def test_a_training_op_counts_the_future_once_per_episode_block(self, tmp_path, monkeypatch):
        import fanetq.env as env

        builds = []
        lk_table = env._lk_table
        monkeypatch.setattr(env, "_lk_table", lambda world, cfg: builds.append(world.pos.shape[:-2]) or lk_table(world, cfg))
        run_training("NN-4", "4a1s", [0], 2000, tmp_path)
        # the rollout's 40 episodes, then both evaluation points' 5 + 5; no world is observed and dropped
        assert builds == [(40,), (10,)]

    @pytest.mark.parametrize("solution", ["NN-4", "VQC-1A"])
    def test_training_reproduces_committed_curve_prefix(self, tmp_path, solution):
        # 2000 env steps = one rollout/update and two evaluations of seed 0
        run_training(solution, "4a1s", [0], 2000, tmp_path)
        with open(run_path(tmp_path, "4a1s", solution, 0), newline="", encoding="utf-8") as fh:
            got = list(csv.DictReader(fh))
        committed = Path(__file__).resolve().parent.parent / "runs"
        with open(run_path(committed, "4a1s", solution, 0), newline="", encoding="utf-8") as fh:
            want = list(csv.DictReader(fh))[: len(got)]
        assert [row["env_steps"] for row in got] == ["1000", "2000"]
        for g, w in zip(got, want):
            for col in ("env_steps", "cr_mean", "cr_std"):
                assert float(g[col]) == float(w[col]), (col, g, w)
            for col in ("actor_loss", "critic_loss"):
                assert math.isclose(float(g[col]), float(w[col]), rel_tol=1e-9, abs_tol=1e-12), (col, g, w)


class TestAggregation:
    def test_mean_and_standard_error(self):
        recs = [
            synthetic_record("NN-4", 0, [10, 20]),
            synthetic_record("NN-4", 1, [20, 30]),
            synthetic_record("NN-4", 2, [30, 40]),
        ]
        steps, mean, se = aggregate_curves(recs)
        assert steps.tolist() == [1000, 2000]
        assert mean.tolist() == [20.0, 30.0]
        # recompute oracle: std/sqrt(3) for three seeds
        expected_se = np.std([10, 20, 30]) / math.sqrt(3)
        assert se[0] == pytest.approx(expected_se)

    def test_truncates_to_shortest(self):
        recs = [synthetic_record("NN-4", 0, [1, 2, 3]), synthetic_record("NN-4", 1, [4, 5])]
        steps, mean, _ = aggregate_curves(recs)
        assert len(steps) == 2

    def test_mismatched_grids_rejected(self):
        a = synthetic_record("NN-4", 0, [1, 2], start=1000)
        b = synthetic_record("NN-4", 1, [1, 2], start=500)
        with pytest.raises(ContractViolation):
            aggregate_curves([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate_curves([])
        with pytest.raises(ContractViolation):
            aggregate_curves([RunRecord("NN-4", "4a1s", 0, [])])


class TestDeriveMetrics:
    def test_thresholds_exact(self):
        rec = synthetic_record("NN-4", 0, [100.0])
        assert derive_metrics([rec], 60.20)["threshold"] == pytest.approx(75.25)
        assert derive_metrics([rec], 84.88)["threshold"] == pytest.approx(106.1)

    def test_flat_curve_at_threshold_crosses_immediately(self):
        cr = 1.25 * 60.20
        rec = synthetic_record("NN-4", 0, [cr, cr, cr], start=0)
        m = derive_metrics([rec], 60.20)
        assert m["cs"] == 0.0

    def test_cs_first_crossing_in_thousands(self):
        rec = synthetic_record("NN-4", 0, [10, 50, 76, 80], start=1000)
        m = derive_metrics([rec], 60.20)
        assert m["cs"] == pytest.approx(3.0)

    def test_cs_not_reached(self):
        rec = synthetic_record("NN-4", 0, [10, 20, 30])
        assert derive_metrics([rec], 60.20)["cs"] is None

    def test_mcr_is_max_of_aggregate(self):
        recs = [synthetic_record("NN-4", 0, [10, 80, 20]), synthetic_record("NN-4", 1, [30, 40, 60])]
        m = derive_metrics(recs, 60.20)
        assert m["mcr"] == pytest.approx(60.0)  # max of means, not mean of maxes

    def test_ccr_window_past_one_million(self):
        crs = [50.0] * 1200  # steps 1k..1200k
        rec = synthetic_record("NN-4", 0, crs)
        rec.curve[-1]["cr_mean"] = 80.0
        m = derive_metrics([rec], 60.20)
        window = [p["cr_mean"] for p in rec.curve if p["env_steps"] > 1_000_000]
        assert m["ccr"] == pytest.approx(float(np.mean(window)))

    def test_ccr_nan_for_short_runs(self):
        rec = synthetic_record("NN-4", 0, [50.0, 60.0])
        assert math.isnan(derive_metrics([rec], 60.20)["ccr"])

    def test_aggregation_order_mean_then_max(self):
        # aggregated-then-max differs from max-then-aggregated; spec wants the former
        recs = [synthetic_record("NN-4", 0, [0, 100]), synthetic_record("NN-4", 1, [100, 0])]
        assert derive_metrics(recs, 60.20)["mcr"] == pytest.approx(50.0)

    def test_pure_function_of_curves(self, tmp_path):
        recs = [synthetic_record("NN-4", s, [10 + s, 70 + s, 90 + s]) for s in range(3)]
        before = derive_metrics(recs, 60.20)
        for r in recs:
            save_curve(r, tmp_path / f"seed{r.seed}.csv")
        reloaded = [
            RunRecord.load_csv(tmp_path / f"seed{s}.csv", "NN-4", "4a1s", s) for s in range(3)
        ]
        after = derive_metrics(reloaded, 60.20)
        assert after["mcr"] == before["mcr"]
        assert after["cs"] == before["cs"]
        assert after["threshold"] == before["threshold"]
        assert math.isnan(after["ccr"]) == math.isnan(before["ccr"])


class TestEmaAndExport:
    def test_ema_factor_zero_is_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(ema_smooth(x, 0.0), x)

    def test_ema_of_constant_is_constant(self):
        x = np.full(10, 7.5)
        assert np.allclose(ema_smooth(x, 0.9), 7.5)

    def test_ema_validates_factor(self):
        with pytest.raises(ContractViolation):
            ema_smooth(np.ones(3), 1.0)

    def test_export_csv_schema_and_se(self, tmp_path):
        recs = [synthetic_record("NN-4", s, [10.0 * (s + 1), 20.0 * (s + 1)]) for s in range(3)]
        paths = export_records(recs, tmp_path, fmt="csv", smoothing=0.5)
        assert paths[0].name == "4a1s_NN-4.csv"
        with open(paths[0]) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["env_steps", "cr_mean", "cr_se", "cr_ema"]
        assert float(rows[0]["cr_mean"]) == pytest.approx(20.0)
        assert float(rows[0]["cr_se"]) == pytest.approx(np.std([10, 20, 30]) / math.sqrt(3))
        assert float(rows[0]["cr_ema"]) == pytest.approx(20.0)  # first EMA point is raw

    def test_export_json(self, tmp_path):
        recs = [synthetic_record("VQC-1N", 0, [5.0, 6.0])]
        paths = export_records(recs, tmp_path, fmt="json", smoothing=0.0)
        payload = json.loads(paths[0].read_text())
        assert payload["solution"] == "VQC-1N"
        assert len(payload["curve"]) == 2


class TestQmetricsReport:
    def test_classical_not_applicable(self, tmp_path):
        rows = qmetrics_report(["NN-4"], n_samples=200, seed=0)
        assert rows[0]["ent_mean"] == "not applicable"
        assert list(rows[0].items()) == [
            ("circuit_id", "NN-4"),
            ("L", ""),
            ("scaling_fn", ""),
            ("ent_mean", "not applicable"),
            ("ent_std", ""),
            ("expr_mean", ""),
            ("expr_std", ""),
            ("n_samples", ""),
            ("seed", ""),
        ]
        write_qmetrics_csv(rows, tmp_path / "q.csv")
        assert (tmp_path / "q.csv").read_bytes() == (
            b"circuit_id,L,scaling_fn,ent_mean,ent_std,expr_mean,expr_std,n_samples,seed\n"
            b"NN-4,,,not applicable,,,,,\n"
        )

    def test_quantum_rows_and_csv(self, tmp_path):
        rows = qmetrics_report(["VQC-1N"], n_samples=500, seed=0)
        row = rows[0]
        assert row["L"] == 1 and row["scaling_fn"] == "identity"
        assert 0.0 <= row["ent_mean"] <= 1.0
        assert row["expr_mean"] >= 0.0
        write_qmetrics_csv(rows, tmp_path / "q.csv")
        with open(tmp_path / "q.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == QMETRICS_HEADER
            assert len(list(reader)) == 1

    def test_identical_spec_identical_rows(self):
        # the metric rows depend on the circuit alone (same seed, same spec)
        a = qmetrics_report(["VQC-1A"], n_samples=300, seed=4)
        b = qmetrics_report(["VQC-1A"], n_samples=300, seed=4)
        assert a == b

    @pytest.mark.parametrize(
        "n_samples, seed, message",
        [(100, -1, "^seed must be non-negative"), (100, True, "^seed must be an integer"),
         (100, 1.5, "^seed must be an integer"), (100.0, 0, "^n_samples must be an integer")],
    )
    def test_a_seed_or_sample_count_that_is_no_integer_in_range_is_rejected(self, n_samples, seed, message):
        # numpy's ValueError, a silent seed 1 written as "seed": True, or a bare TypeError before
        with pytest.raises(ContractViolation, match=message):
            qmetrics_report(["VQC-1N"], n_samples, seed)

    def test_every_name_is_parsed_before_any_circuit_is_sampled(self, monkeypatch):
        import fanetq.experiments as experiments

        calls = []
        monkeypatch.setattr(experiments, "sample_states", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match="unknown solution 'BAD'"):
            qmetrics_report(["VQC-3A", "VQC-3N", "BAD"], 100, 0)
        assert calls == []

    def test_vqc_1n_row_near_reference(self):
        row = qmetrics_report(["VQC-1N"], n_samples=2000, seed=1)[0]
        assert abs(row["ent_mean"] - 0.8476) < 0.04
