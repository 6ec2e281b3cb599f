"""Critic architectures, solution registry, weight parity."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from fanetq.critics import (
    ALL_SOLUTIONS,
    CLASSICAL_SOLUTIONS,
    PAIRINGS,
    PARITY_TOLERANCE,
    QUANTUM_SOLUTIONS,
    ClassicalCritic,
    QuantumCritic,
    SolutionId,
    build_critic,
    load_critic,
    parity_report,
    save_critic,
    weight_table,
)
from fanetq.errors import ConfigError
from fanetq.nets import GaussianPolicyHead
from fanetq.qsim import VqcSpec, vqc_forward

OBS_DIMS = {"4a1s": 52, "5a2s": 95}


class TestSolutionId:
    def test_parse_classical(self):
        sol = SolutionId.parse("NN-10")
        assert sol.kind == "classical" and sol.width == 10

    def test_parse_quantum(self):
        sol = SolutionId.parse("VQC-2A")
        assert sol.kind == "quantum"
        assert sol.n_layers == 2
        assert sol.scaling_fn == "arctan"
        assert SolutionId.parse("VQC-3N").scaling_fn == "identity"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            SolutionId.parse("NN-5")

    def test_suffix_convention(self):
        for name in QUANTUM_SOLUTIONS:
            sol = SolutionId.parse(name)
            assert sol.n_layers == int(name[4])
            expected = "identity" if name.endswith("N") else "arctan"
            assert sol.scaling_fn == expected


class TestWeightBookkeeping:
    @pytest.mark.parametrize("scenario", ["4a1s", "5a2s"])
    def test_quantum_weight_counts_exactly_12L(self, scenario):
        for name in QUANTUM_SOLUTIONS:
            critic = build_critic(name, scenario, OBS_DIMS[scenario], np.random.default_rng(0))
            assert critic.quantum_weights == 12 * int(name[4])
            assert critic.spec.xi.size == 4 * int(name[4])

    @pytest.mark.parametrize("scenario", ["4a1s", "5a2s"])
    def test_pairs_within_five_percent(self, scenario):
        for row in parity_report(scenario, OBS_DIMS[scenario]):
            assert row["rel_gap"] <= PARITY_TOLERANCE, row

    def test_counts_match_live_parameters(self):
        rng = np.random.default_rng(1)
        for scenario in PAIRINGS:
            for name in ALL_SOLUTIONS:
                try:
                    critic = build_critic(name, scenario, OBS_DIMS[scenario], rng)
                except ConfigError:
                    continue
                live = sum(p.size for p in critic.adam_params())
                if critic.kind == "quantum":
                    live += critic.spec.theta.size
                assert critic.total_weights == live

    def test_registry_completeness(self):
        # every named solution resolves on its scenario(s)
        for scenario in PAIRINGS:
            valid_nn = {nn for nn, _ in PAIRINGS[scenario]}
            for name in ALL_SOLUTIONS:
                sol = SolutionId.parse(name)
                if sol.kind == "classical" and name not in valid_nn:
                    with pytest.raises(ConfigError):
                        build_critic(name, scenario, OBS_DIMS[scenario], np.random.default_rng(0))
                else:
                    build_critic(name, scenario, OBS_DIMS[scenario], np.random.default_rng(0))

    def test_weight_table_rows(self):
        rows = weight_table("4a1s", 52)
        names = [r["solution"] for r in rows]
        assert names == ["NN-4", "VQC-1N", "VQC-1A", "NN-7", "VQC-2N", "VQC-2A", "NN-10", "VQC-3N", "VQC-3A"]
        for r in rows:
            assert r["tw"] == r["cw"] + r["qw"]


class TestClassicalCritic:
    def test_value_shape_and_determinism(self):
        rng = np.random.default_rng(2)
        critic = ClassicalCritic.create(52, 4, rng, post_hidden=2)
        O = rng.standard_normal((7, 52))
        v1, v2 = critic.value(O), critic.value(O)
        assert v1.shape == (7,)
        assert np.array_equal(v1, v2)

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        critic = ClassicalCritic.create(20, 4, rng)
        save_critic(critic, tmp_path / "c.json")
        clone = load_critic(tmp_path / "c.json")
        O = rng.standard_normal((5, 20))
        assert np.array_equal(critic.value(O), clone.value(O))


class TestQuantumCritic:
    def test_three_circuit_evaluations_per_estimate(self):
        rng = np.random.default_rng(4)
        critic = QuantumCritic.create(20, 1, "arctan", rng)
        O = rng.standard_normal((9, 20))
        targets = rng.standard_normal(9)
        critic.circuit_evaluations = 0
        v, cache = critic.value_cached(O)
        assert critic.circuit_evaluations == 1

        def loss_fn(values):
            return float(np.mean((values - targets) ** 2))

        critic.backward(cache, 2 * (v - targets) / 9, loss_fn)
        assert critic.circuit_evaluations == 3

    def test_joint_perturbation_draws_match_separate_theta_and_angle_draws(self):
        # one 16-sign draw for the joint (theta, angle shift) vector reads the
        # generator exactly as 12 theta signs followed by 4 angle signs do
        joint = np.random.default_rng(3).integers(0, 2, size=16)
        rng = np.random.default_rng(3)
        split = np.concatenate([rng.integers(0, 2, size=12), rng.integers(0, 2, size=4)])
        assert np.array_equal(joint, split)

    def test_theta_step_is_the_joint_spsa_estimate(self):
        rng = np.random.default_rng(8)
        critic = QuantumCritic.create(20, 1, "arctan", rng)
        O = rng.standard_normal((9, 20))
        targets = rng.standard_normal(9)

        def loss_fn(values):
            return float(np.mean((values - targets) ** 2))

        draws = copy.deepcopy(critic.spsa.rng)
        ck, ak = critic.spsa.perturbation_size(), critic.spsa.step_size()
        theta0 = critic.spec.theta.copy()
        v, cache = critic.value_cached(O)
        critic.backward(cache, 2 * (v - targets) / 9, loss_fn)

        delta_theta = draws.integers(0, 2, size=12) * 2.0 - 1.0
        delta_x = draws.integers(0, 2, size=4) * 2.0 - 1.0
        angles = cache[2]

        def loss_at(sign):
            spec = VqcSpec(n_layers=1, theta=theta0 + sign * ck * delta_theta)
            return loss_fn(critic.post.forward(vqc_forward(spec, angles + sign * ck * delta_x))[..., 0])

        expected = theta0 - ak * (loss_at(+1.0) - loss_at(-1.0)) / (2.0 * ck * delta_theta)
        assert np.array_equal(critic.spec.theta, expected)
        assert critic.spsa.k == 1

    def test_spsa_moves_theta_downhill_on_average(self):
        rng = np.random.default_rng(5)
        critic = QuantumCritic.create(12, 1, "identity", rng, lr=0.02, spsa_seed=1)
        O = rng.standard_normal((32, 12))
        targets = rng.uniform(-0.5, 0.5, 32)

        def loss_now():
            return float(np.mean((critic.value(O) - targets) ** 2))

        from fanetq.nets import Adam

        opt = Adam(critic.adam_params(), lr=0.02)
        start = loss_now()
        for _ in range(60):
            v, cache = critic.value_cached(O)
            d_v = 2 * (v - targets) / 32

            def loss_fn(values):
                return float(np.mean((values - targets) ** 2))

            grads = critic.backward(cache, d_v, loss_fn)
            opt.step(critic.adam_params(), grads)
        assert loss_now() < start

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        critic = QuantumCritic.create(16, 2, "arctan", rng, post_hidden=3)
        save_critic(critic, tmp_path / "q.json")
        clone = load_critic(tmp_path / "q.json")
        O = rng.standard_normal((4, 16))
        assert np.allclose(critic.value(O), clone.value(O), atol=1e-12)
        assert clone.quantum_weights == 24

    def test_pre_block_feeds_four_features_per_layer(self):
        rng = np.random.default_rng(7)
        for L in (1, 2, 3):
            critic = QuantumCritic.create(10, L, "identity", rng)
            assert critic.pre.out_dim == 4 * L


class TestCheckpointChecks:
    def critic_dicts(self):
        rng = np.random.default_rng(30)
        return [ClassicalCritic.create(16, 4, rng).to_dict(), QuantumCritic.create(16, 1, "arctan", rng).to_dict()]

    @pytest.mark.parametrize("version", [None, 0, 99])
    def test_version_checked_on_load(self, tmp_path, version):
        for d in self.critic_dicts():
            if version is None:
                del d["version"]
            else:
                d["version"] = version
            path = tmp_path / f"{d['kind']}.json"
            path.write_text(json.dumps(d))
            with pytest.raises(ConfigError, match="version"):
                load_critic(path)

    @pytest.mark.parametrize("kind", [None, "Quantum", "hybrid"])
    def test_unknown_kind_rejected(self, tmp_path, kind):
        d = self.critic_dicts()[1]
        if kind is None:
            del d["kind"]
        else:
            d["kind"] = kind
        (tmp_path / "c.json").write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="kind"):
            load_critic(tmp_path / "c.json")

    def test_unreadable_file_names_its_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read .*missing.json"):
            load_critic(tmp_path / "missing.json")
        (tmp_path / "c.json").write_text('{"kind": ')
        with pytest.raises(ConfigError, match="c.json is not valid JSON"):
            load_critic(tmp_path / "c.json")

    @pytest.mark.parametrize("solution", ["NN-4", "VQC-1A"])
    def test_committed_checkpoints_load(self, solution):
        run_dir = Path(__file__).resolve().parent.parent / "runs" / "4a1s" / solution
        for seed in range(3):
            actor = GaussianPolicyHead.load(run_dir / f"seed{seed}_actor.json")
            critic = load_critic(run_dir / f"seed{seed}_critic.json")
            assert critic.kind == SolutionId.parse(solution).kind
            obs = np.zeros((2, OBS_DIMS["4a1s"]))
            assert np.all(np.isfinite(critic.value(obs)))
            assert np.all(np.isfinite(actor.mean(obs.reshape(-1, 13))))
