"""Dense nets, policy head, Adam: exact gradients against finite differences."""

from pathlib import Path

import numpy as np
import pytest

from fanetq.errors import ConfigError, ContractViolation, TrainingError
from fanetq.nets import CHECKPOINT_VERSION, Adam, DenseNet, GaussianPolicyHead

COMMITTED_ACTORS = sorted((Path(__file__).resolve().parent.parent / "runs").glob("*/*/seed*_actor.json"))


def finite_difference_check(loss_fn, params, grads, rng, n_coords=6, h=1e-5, tol=1e-4):
    """Relative error of analytic grads vs central differences at random coords."""
    worst = 0.0
    for p, g in zip(params, grads):
        flat, gflat = p.ravel(), g.ravel()
        for idx in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            old = flat[idx]
            flat[idx] = old + h
            fp = loss_fn()
            flat[idx] = old - h
            fm = loss_fn()
            flat[idx] = old
            num = (fp - fm) / (2 * h)
            denom = max(abs(num), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(num - gflat[idx]) / denom)
    assert worst < tol, f"finite-difference mismatch: {worst}"


class TestDenseNetForward:
    def test_zero_weights_zero_output(self):
        net = DenseNet(
            [np.zeros((3, 4)), np.zeros((2, 3))],
            [np.zeros(3), np.zeros(2)],
            ["tanh", "identity"],
        )
        assert np.all(net.forward(np.ones(4)) == 0.0)

    def test_identity_layer_echoes(self):
        net = DenseNet([np.eye(5)], [np.zeros(5)], ["identity"])
        x = np.linspace(-2, 2, 5)
        assert np.array_equal(net.forward(x), x)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        net = DenseNet.create([4, 6, 3], ["tanh", "identity"], rng)
        x = rng.standard_normal(4)
        h = np.empty(6)
        for i in range(6):
            acc = net.biases[0][i]
            for j in range(4):
                acc += net.weights[0][i, j] * x[j]
            h[i] = np.tanh(acc)
        y = np.empty(3)
        for i in range(3):
            acc = net.biases[1][i]
            for j in range(6):
                acc += net.weights[1][i, j] * h[j]
            y[i] = acc
        assert np.abs(net.forward(x) - y).max() < 1e-12

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(0)
        net = DenseNet.create([4, 3], ["tanh"], rng)
        with pytest.raises(ContractViolation):
            net.forward(np.zeros(5))

    def test_wrong_last_dimension_raises_for_stacked_input(self):
        net = DenseNet.create([4, 3], ["tanh"], np.random.default_rng(0))
        for shape in [(2, 5), (3, 2, 5), (3, 2, 3), (4, 1)]:
            with pytest.raises(ContractViolation, match="input dim"):
                net.forward(np.zeros(shape))

    @pytest.mark.parametrize("path", COMMITTED_ACTORS, ids=lambda p: f"{p.parent.name}-{p.stem}")
    def test_stacked_forward_equals_the_per_slice_passes_bit_for_bit(self, path):
        # a block rollout runs one (b, n_aircraft, obs_dim) pass per step; its
        # actions must equal b separate (n_aircraft, obs_dim) passes
        net = GaussianPolicyHead.load(path).mean_net
        rng = np.random.default_rng(24)
        for b in (1, 2, 7, 40, 64):
            x = rng.uniform(-1.0, 1.0, size=(b, 4, net.in_dim))
            y = net.forward(x)
            assert y.shape == (b, 4, net.out_dim)
            assert np.array_equal(y, np.stack([net.forward(xi) for xi in x]))

    def test_stacked_forward_on_fresh_nets_of_other_sizes(self):
        rng = np.random.default_rng(25)
        for n, d in [(1, 4), (3, 10), (6, 25)]:
            net = DenseNet.create([d, 64, 64, 5], ["tanh", "tanh", "identity"], rng)
            x = rng.standard_normal((9, n, d))
            assert np.array_equal(net.forward(x), np.stack([net.forward(xi) for xi in x]))

    def test_bad_chain_rejected(self):
        with pytest.raises(ContractViolation):
            DenseNet([np.zeros((3, 4)), np.zeros((2, 5))], [np.zeros(3), np.zeros(2)], ["tanh", "tanh"])

    def test_parameter_count_by_serialization_recount(self):
        rng = np.random.default_rng(1)
        net = DenseNet.create([7, 5, 2], ["tanh", "identity"], rng)
        d = net.to_dict()
        recount = sum(len(w) for w in d["weights"]) + sum(len(b) for b in d["biases"])
        assert net.parameter_count == recount == 7 * 5 + 5 + 5 * 2 + 2

    def test_checkpoint_roundtrip(self):
        rng = np.random.default_rng(2)
        net = DenseNet.create([3, 4, 1], ["tanh", "identity"], rng)
        clone = DenseNet.from_dict(net.to_dict())
        x = rng.standard_normal((5, 3))
        assert np.array_equal(net.forward(x), clone.forward(x))


class TestDenseNetBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sizes = [int(rng.integers(2, 7)) for _ in range(3)]
            net = DenseNet.create(sizes, ["tanh", "identity"], rng)
            x = rng.standard_normal((4, sizes[0]))
            w = rng.standard_normal((4, sizes[-1]))

            def loss():
                return float(np.sum(w * net.forward(x)))

            _, cache = net.forward_cached(x)
            grads, _ = net.backward(cache, w)
            finite_difference_check(loss, net.params(), grads, rng, n_coords=4)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(4)
        net = DenseNet.create([3, 5, 2], ["tanh", "identity"], rng)
        _, cache = net.forward_cached(rng.standard_normal((6, 3)))
        grads, dx = net.backward(cache, np.zeros((6, 2)))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(dx == 0)

    def test_linear_net_input_grad_exact(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 4))
        net = DenseNet([W], [np.zeros(3)], ["identity"])
        _, cache = net.forward_cached(rng.standard_normal(4))
        upstream = rng.standard_normal(3)
        _, dx = net.backward(cache, upstream)
        assert np.abs(dx - W.T @ upstream).max() < 1e-14


class TestGaussianHead:
    def test_sample_deterministic_in_zero_std_limit(self):
        rng = np.random.default_rng(6)
        head = GaussianPolicyHead.create(4, 2, (8,), rng)
        head.log_std[:] = -40.0  # numerically deterministic
        obs = rng.standard_normal(4)
        action, _, _ = head.sample(obs, np.random.default_rng(0))
        assert np.abs(action - head.mean(obs)).max() < 1e-12

    def test_sample_returns_its_log_density_and_the_mean(self):
        rng = np.random.default_rng(15)
        head = GaussianPolicyHead.create(4, 3, (8,), rng)
        obs = rng.standard_normal((5, 4))
        action, log_prob, mu = head.sample(obs, np.random.default_rng(1))
        assert np.array_equal(mu, head.mean(obs))
        assert np.array_equal(log_prob, head.log_prob(obs, action))
        # exactly one standard-normal draw of the action's shape
        noise = np.random.default_rng(1).standard_normal((5, 3))
        assert np.array_equal(action, mu + np.exp(head.log_std) * noise)

    def test_log_prob_at_mean(self):
        rng = np.random.default_rng(7)
        head = GaussianPolicyHead.create(3, 4, (8,), rng)
        obs = rng.standard_normal(3)
        mu = head.mean(obs)
        expected = -np.sum(head.log_std + 0.5 * np.log(2 * np.pi))
        assert head.log_prob(obs, mu) == pytest.approx(expected)

    def test_empirical_mean_of_samples(self):
        rng = np.random.default_rng(8)
        head = GaussianPolicyHead.create(3, 2, (8,), rng)
        obs = rng.standard_normal(3)
        sample_rng = np.random.default_rng(9)
        n = 100_000
        actions = np.stack([head.sample(obs, sample_rng)[0] for _ in range(n)])
        mu = head.mean(obs)
        sigma = np.exp(head.log_std)
        err = np.abs(actions.mean(axis=0) - mu)
        assert np.all(err < 3 * sigma / np.sqrt(n) + 1e-12)

    def test_entropy_closed_form(self):
        rng = np.random.default_rng(10)
        head = GaussianPolicyHead.create(3, 5, (4,), rng)
        expected = np.sum(head.log_std + 0.5 * np.log(2 * np.pi * np.e))
        assert head.entropy() == pytest.approx(float(expected))

    def test_log_prob_gradients(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            head = GaussianPolicyHead.create(4, 3, (6,), rng)
            obs = rng.standard_normal((5, 4))
            acts = rng.standard_normal((5, 3))
            w = rng.standard_normal(5)

            def loss():
                return float(np.sum(w * head.log_prob(obs, acts)))

            _, mu, cache = head.log_prob_cached(obs, acts)
            grads = head.backward_log_prob(cache, mu, acts, w)
            finite_difference_check(loss, head.params(), grads, rng, n_coords=4)

    def test_log_prob_gradients_with_extra_mean_gradient(self):
        # d_mu_other carries dLoss/dmu from terms outside the log-prob
        rng = np.random.default_rng(16)
        for _ in range(5):
            head = GaussianPolicyHead.create(4, 3, (6,), rng)
            obs = rng.standard_normal((5, 4))
            acts = rng.standard_normal((5, 3))
            w = rng.standard_normal(5)
            g = rng.standard_normal((5, 3))

            def loss():
                return float(np.sum(w * head.log_prob(obs, acts)) + np.sum(g * head.mean(obs)))

            _, mu, cache = head.log_prob_cached(obs, acts)
            grads = head.backward_log_prob(cache, mu, acts, w, g)
            finite_difference_check(loss, head.params(), grads, rng, n_coords=4)

    def test_kl_zero_for_identical(self):
        rng = np.random.default_rng(12)
        head = GaussianPolicyHead.create(3, 2, (4,), rng)
        obs = rng.standard_normal((6, 3))
        mu = head.mean_net.forward(obs)
        kl = head.kl_divergence(mu, head.log_std.copy(), mu)
        assert np.abs(kl).max() < 1e-14

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        head = GaussianPolicyHead.create(3, 2, (4,), rng)
        head.save(tmp_path / "actor.json")
        clone = GaussianPolicyHead.load(tmp_path / "actor.json")
        obs = rng.standard_normal((4, 3))
        assert np.array_equal(head.mean(obs), clone.mean(obs))
        assert np.array_equal(head.log_std, clone.log_std)

    @pytest.mark.parametrize("version", [None, 0, 99, "1"])
    def test_checkpoint_version_checked_on_load(self, version):
        d = GaussianPolicyHead.create(3, 2, (4,), np.random.default_rng(17)).to_dict()
        assert d["version"] == CHECKPOINT_VERSION
        if version is None:
            del d["version"]
        else:
            d["version"] = version
        with pytest.raises(ConfigError, match="version"):
            GaussianPolicyHead.from_dict(d)


class TestAdam:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(14)
        params = [rng.standard_normal((3, 3)), rng.standard_normal(3)]
        before = [p.copy() for p in params]
        opt = Adam(params, lr=0.01)
        opt.step(params, [np.zeros_like(p) for p in params])
        for p, b in zip(params, before):
            assert np.array_equal(p, b)

    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update -lr * sign(g)
        params = [np.zeros(4)]
        opt = Adam(params, lr=0.05)
        g = np.array([3.0, -2.0, 0.5, -0.1])
        opt.step(params, [g])
        expected = -0.05 * np.sign(g) * (1.0 / (1.0 + 1e-8 / np.abs(g * 0 + np.sqrt(g * g))))
        assert np.abs(params[0] + 0.05 * np.sign(g)).max() < 1e-6

    def test_quadratic_bowl_descent(self):
        rng = np.random.default_rng(15)
        target = rng.standard_normal(6)
        params = [np.zeros(6)]
        opt = Adam(params, lr=0.01)
        losses = []
        for _ in range(500):
            g = 2 * (params[0] - target)
            losses.append(float(np.sum((params[0] - target) ** 2)))
            opt.step(params, [g])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_non_finite_gradient_raises(self):
        params = [np.zeros(2)]
        opt = Adam(params)
        with pytest.raises(TrainingError):
            opt.step(params, [np.array([np.nan, 0.0])])

    def test_deterministic_given_seed(self):
        def run():
            rng = np.random.default_rng(16)
            net = DenseNet.create([3, 4, 1], ["tanh", "identity"], rng)
            opt = Adam(net.params(), lr=0.01)
            x = rng.standard_normal((8, 3))
            for _ in range(10):
                y, cache = net.forward_cached(x)
                grads, _ = net.backward(cache, 2 * y)
                opt.step(net.params(), grads)
            return net.forward(x)

        assert np.array_equal(run(), run())
