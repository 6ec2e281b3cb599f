"""Critic architectures, solution registry, weight parity."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fanetq.critics import (
    ALL_SOLUTIONS,
    CLASSICAL_SOLUTIONS,
    PAIRINGS,
    QUANTUM_SOLUTIONS,
    ClassicalCritic,
    QuantumCritic,
    SolutionId,
    build_critic,
    load_critic,
    parity_report,
    save_critic,
    tuned_post_hidden,
)
from fanetq.errors import ConfigError
from fanetq.nets import DenseNet, GaussianPolicyHead
from fanetq.qsim import VqcSpec, vqc_forward

from tests.oracles import grad_views
from tests.test_nets import finite_difference_check

OBS_DIMS = {"4a1s": 52, "5a2s": 95}
PARITY_TOLERANCE = 0.05  # largest relative weight gap allowed between compared critics


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

    @pytest.mark.parametrize(
        "scenario, post_hidden, totals",
        [
            ("4a1s", [("NN-4", (2, 3)), ("NN-7", (6, 4)), ("NN-10", (4, 0))], [(245, 247), (482, 481), (689, 689)]),
            ("5a2s", [("NN-4", (2, 3)), ("NN-8", (0, 8)), ("NN-11", (5, 9))], [(417, 419), (849, 849), (1254, 1255)]),
        ],
    )
    def test_tuned_widths_and_totals_match_the_readme_table(self, scenario, post_hidden, totals):
        assert tuned_post_hidden(scenario, OBS_DIMS[scenario]) == dict(post_hidden)
        rows = parity_report(scenario, OBS_DIMS[scenario])
        # each NN-X is compared with both VQC-LN and VQC-LA of its depth
        assert [(r["tw_classical"], r["tw_quantum"]) for r in rows] == [pair for pair in totals for _ in "NA"]

    def test_tuned_widths_are_found_once_not_per_critic(self, monkeypatch):
        build_critic("VQC-2A", "5a2s", OBS_DIMS["5a2s"], np.random.default_rng(0))
        created = []
        create = DenseNet.create
        monkeypatch.setattr(DenseNet, "create", classmethod(lambda cls, *args: created.append(args[0]) or create(*args)))
        build_critic("VQC-2A", "5a2s", OBS_DIMS["5a2s"], np.random.default_rng(0))
        assert created == [[95, 8], [4, 8, 1]]  # the critic's own pre and post blocks, nothing more

    def test_counts_match_live_parameters(self):
        rng = np.random.default_rng(1)
        for scenario in PAIRINGS:
            for name in ALL_SOLUTIONS:
                try:
                    critic = build_critic(name, scenario, OBS_DIMS[scenario], rng)
                except ConfigError:
                    continue
                live = sum(p.size for p in critic.params())
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
        rows = parity_report("4a1s", 52)
        names = list(dict.fromkeys(name for r in rows for name in (r["classical"], r["quantum"])))
        assert names == ["NN-4", "VQC-1N", "VQC-1A", "NN-7", "VQC-2N", "VQC-2A", "NN-10", "VQC-3N", "VQC-3A"]
        for name in names:
            critic = build_critic(name, "4a1s", 52, np.random.default_rng(0))
            assert critic.total_weights == critic.classical_weights + critic.quantum_weights


@pytest.mark.parametrize("solution", ["NN-4", "NN-10", "VQC-1A", "VQC-2N", "VQC-3A"])
@pytest.mark.parametrize("shape", [(40, 50), (1, 7), (3, 50), (64, 13), (7, 1), (64, 1)])
def test_stacked_value_equals_each_episode_pass(solution, shape):
    # a rollout block takes its (episodes, steps) values from one stacked pass
    rng = np.random.default_rng(11)
    critic = build_critic(solution, "4a1s", 52, rng)
    O = rng.standard_normal(shape + (52,))
    assert np.array_equal(critic.value(O), np.stack([critic.value(g) for g in O]))


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

        critic.backward(cache, 2 * (v - targets) / 9, loss_fn, loss_fn(v))
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
        critic.backward(cache, 2 * (v - targets) / 9, loss_fn, loss_fn(v))

        delta_theta = draws.integers(0, 2, size=12) * 2.0 - 1.0
        delta_x = draws.integers(0, 2, size=4) * 2.0 - 1.0
        angles = cache[2]

        def loss_at(sign):
            spec = VqcSpec(n_layers=1, theta=theta0 + sign * ck * delta_theta)
            return loss_fn(critic.post.forward(vqc_forward(spec, angles + sign * ck * delta_x))[..., 0])

        expected = theta0 - ak * (loss_at(+1.0) - loss_at(-1.0)) / (2.0 * ck * delta_theta)
        assert np.array_equal(critic.spec.theta, expected)
        assert critic.spsa.k == 1

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("scaling", ["identity", "arctan"])
    def test_angle_gradient_chains_into_xi_and_pre_by_finite_differences(self, monkeypatch, scaling, batched):
        # with the SPSA estimate pinned to g, the xi and pre gradients are those
        # of sum(g_angles / batch * x) with x = f(pre(O) * xi)
        import fanetq.critics as critics_module

        rng = np.random.default_rng(9)
        critic = QuantumCritic.create(12, 2, scaling, rng)
        critic.spec.xi = rng.uniform(0.5, 2.0, 8)
        O = rng.standard_normal((5, 12) if batched else 12)
        n_theta = critic.spec.theta.size
        g = rng.standard_normal(n_theta + critic.spec.n_features)
        monkeypatch.setattr(critics_module, "spsa_gradient", lambda *args, **kwargs: (g.copy(), 0.0))
        v, cache = critic.value_cached(O)
        critic.backward(cache, np.zeros_like(v), lambda values: 0.0, 0.0)
        w = g[n_theta:] / (5 if batched else 1)

        def chained():
            return float(np.sum(w * critic.spec.scaled_angles(critic.pre.forward(O))))

        params = critic.pre.params() + [critic.spec.xi]
        finite_difference_check(chained, params, grad_views(critic)[: len(params)], rng)

    def test_spsa_moves_theta_downhill_on_average(self):
        rng = np.random.default_rng(5)
        critic = QuantumCritic.create(12, 1, "identity", rng, lr=0.02, spsa_seed=1)
        O = rng.standard_normal((32, 12))
        targets = rng.uniform(-0.5, 0.5, 32)

        def loss_now():
            return float(np.mean((critic.value(O) - targets) ** 2))

        from fanetq.nets import Adam

        opt = Adam(critic.flat, lr=0.02)
        start = loss_now()
        for _ in range(60):
            v, cache = critic.value_cached(O)
            d_v = 2 * (v - targets) / 32

            def loss_fn(values):
                return float(np.mean((values - targets) ** 2))

            critic.backward(cache, d_v, loss_fn, loss_fn(v))
            opt.step(critic.flat, critic.grad)
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

    @pytest.mark.parametrize("version", [None, 0, 99, True, 1.0])
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

    @pytest.mark.parametrize(
        "drop, message",
        [
            ("pre", "checkpoint has no 'pre'"),
            ("core", "checkpoint has no 'core'"),
            ("circuit", "checkpoint has no 'circuit'"),
            ("theta", "circuit has no 'theta'"),
            ("weights", "dense net has no 'weights'"),
            ("spsa_k", "checkpoint has no 'spsa_k'"),
        ],
    )
    def test_missing_key_is_named(self, tmp_path, drop, message):
        for d in self.critic_dicts():
            if drop == "theta":
                if d["kind"] != "quantum":
                    continue
                del d["circuit"]["theta"]
            elif drop == "weights":
                del d["post"]["weights"]
            elif drop in d:
                del d[drop]
            else:
                continue
            (tmp_path / "c.json").write_text(json.dumps(d))
            with pytest.raises(ConfigError, match=message):
                load_critic(tmp_path / "c.json")

    def test_bare_classical_checkpoint_names_its_first_missing_net(self, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({"version": 1, "kind": "classical"}))
        with pytest.raises(ConfigError, match="checkpoint has no 'pre'"):
            load_critic(tmp_path / "c.json")
        (tmp_path / "c.json").write_text("[]")
        with pytest.raises(ConfigError, match="kind"):
            load_critic(tmp_path / "c.json")

    def test_unreadable_file_names_its_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read .*missing.json"):
            load_critic(tmp_path / "missing.json")
        (tmp_path / "c.json").write_text('{"kind": ')
        with pytest.raises(ConfigError, match="c.json is not valid JSON"):
            load_critic(tmp_path / "c.json")

    @pytest.mark.parametrize("spsa_k", [-5, "abc", 1.5, True, None, [3]])
    def test_spsa_k_must_be_a_non_negative_integer(self, tmp_path, spsa_k):
        d = self.critic_dicts()[1]
        (tmp_path / "c.json").write_text(json.dumps({**d, "spsa_k": spsa_k}))
        with pytest.raises(ConfigError, match="spsa_k must be a non-negative integer"):
            load_critic(tmp_path / "c.json")
        (tmp_path / "c.json").write_text(json.dumps({**d, "spsa_k": 7}))
        assert load_critic(tmp_path / "c.json").spsa.k == 7

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("L", "1", "L must be an integer"),
            ("L", 1.0, "L must be an integer"),
            ("theta", ["x"] * 12, "theta is not a list of numbers"),
            ("xi", {"a": 1}, "xi is not a list of numbers"),
            ("theta", [None] + [0.0] * 11, "theta is not a list of numbers"),
            ("theta", [math.nan] + [0.0] * 11, "theta holds a NaN or infinite number"),
            ("theta", [0.0] * 11 + [-math.inf], "theta holds a NaN or infinite number"),
            ("xi", [1.0, None, 1.0, 1.0], "xi is not a list of numbers"),
            ("xi", [1.0, 1.0, 1.0, True], "xi is not a list of numbers"),
            ("xi", [1.0, math.nan, 1.0, 1.0], "xi holds a NaN or infinite number"),
            ("xi", [1.0, 1.0, math.inf, 1.0], "xi holds a NaN or infinite number"),
        ],
    )
    def test_malformed_circuit_is_a_config_error(self, tmp_path, key, value, message):
        d = self.critic_dicts()[1]
        d["circuit"][key] = value
        (tmp_path / "c.json").write_text(json.dumps(d))
        with pytest.raises(ConfigError, match=message):
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
