"""Dense nets, policy head, Adam: exact gradients against finite differences."""

import json
from pathlib import Path

import numpy as np
import pytest

from fanetq import nets
from fanetq.errors import ConfigError, ContractViolation, TrainingError, read_json
from fanetq.nets import CHECKPOINT_VERSION, Adam, DenseNet, GaussianPolicyHead, views

from tests.oracles import grad_views, sample_action

COMMITTED_ACTORS = sorted((Path(__file__).resolve().parent.parent / "runs").glob("*/*/seed*_actor.json"))


class AdamReference:
    """Per-array bias-corrected Adam: the oracle for the flat-state ``Adam``."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> float:
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise TrainingError("non-finite gradient in Adam step")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


def flat(arrays) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays])


def flat_views(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """(vector, copies of ``arrays`` as views of it): the layout Adam steps."""
    vector = flat(arrays)
    return vector, views(vector, [np.shape(a) for a in arrays])


def dense_forward_reference(net, x):
    """One new array per bias add and activation: the oracle for the in-place forward pass."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = x[None, :] if squeeze else x
    cache = [h]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        h = h @ w.T + b
        if act == "tanh":
            h = np.tanh(h)
        cache.append(h)
    return (h[0] if squeeze else h), cache


def dense_backward_reference(net, cache, upstream, *, input_grad=True):
    """The out-of-place backward pass; copies its gradients into ``net.grad``, as ``DenseNet.backward`` writes them.

    Takes ``input_grad`` so it can stand in for ``DenseNet.backward``, but always
    returns the input gradient.
    """
    upstream = np.asarray(upstream, dtype=float)
    squeeze = upstream.ndim == 1
    d = upstream[None, :] if squeeze else upstream
    grads = []
    for k in range(len(net.weights) - 1, -1, -1):
        out_k = cache[k + 1]
        if net.activations[k] == "tanh":
            d = d * (1.0 - out_k * out_k)
        dw = d.T @ cache[k]
        db = d.sum(axis=0)
        grads.append(db)
        grads.append(dw)
        d = d @ net.weights[k]
    grads.reverse()
    for view, g in zip(grad_views(net), grads, strict=True):
        view[...] = g
    return d[0] if squeeze else d


def random_net(rng):
    n_layers = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, 9)) for _ in range(n_layers + 1)]
    acts = [str(rng.choice(["tanh", "identity"])) for _ in range(n_layers)]
    net = DenseNet.create(sizes, acts, rng)
    for b in net.biases:
        b += rng.standard_normal(b.shape)
    return net


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
        assert net.flat.size == recount == 7 * 5 + 5 + 5 * 2 + 2

    def test_an_unknown_activation_is_refused_at_construction(self):
        net = DenseNet.create([3, 4, 1], ["tanh", "identity"], np.random.default_rng(3))
        with pytest.raises(ContractViolation, match="unknown activation 'relu'"):
            DenseNet(net.weights, net.biases, ["relu", "identity"])

    def test_a_checkpoint_with_an_unknown_activation_fails_on_load(self, tmp_path):
        # it used to load, and fail only on its first forward pass
        d = read_json(COMMITTED_ACTORS[0])
        d["mean_net"]["activations"][0] = "relu"
        (tmp_path / "actor.json").write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="^dense net: unknown activation 'relu'"):
            GaussianPolicyHead.load(tmp_path / "actor.json")

    def test_checkpoint_roundtrip(self):
        rng = np.random.default_rng(2)
        net = DenseNet.create([3, 4, 1], ["tanh", "identity"], rng)
        clone = DenseNet.from_dict(net.to_dict())
        x = rng.standard_normal((5, 3))
        assert np.array_equal(net.forward(x), clone.forward(x))


class TestInPlacePasses:
    def test_forward_equals_the_out_of_place_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            net = random_net(rng)
            shape = [(net.in_dim,), (int(rng.integers(1, 7)), net.in_dim), (3, 2, net.in_dim)][int(rng.integers(3))]
            x = 2.0 * rng.standard_normal(shape)
            y, cache = net.forward_cached(x)
            want_y, want_cache = dense_forward_reference(net, x)
            assert np.array_equal(y, want_y)
            assert all(np.array_equal(a, b) for a, b in zip(cache, want_cache, strict=True))

    def test_forward_leaves_its_input_alone_and_no_cache_entry_aliases_another(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            net = random_net(rng)
            x = rng.standard_normal((int(rng.integers(1, 6)), net.in_dim))
            before = x.copy()
            _, cache = net.forward_cached(x)
            assert np.array_equal(x, before)
            for k, entry in enumerate(cache[1:], start=1):
                assert not np.shares_memory(entry, x)
                assert not any(np.shares_memory(entry, other) for other in cache[k + 1 :])

    def test_backward_equals_the_out_of_place_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            net = random_net(rng)
            batched = bool(rng.integers(2))
            x = rng.standard_normal((5, net.in_dim) if batched else net.in_dim)
            upstream = rng.standard_normal((5, net.out_dim) if batched else net.out_dim)
            _, cache = net.forward_cached(x)
            upstream_before = upstream.copy()
            want_dx = dense_backward_reference(net, cache, upstream)
            want_grads = [g.copy() for g in grad_views(net)]
            net.grad.fill(np.nan)  # so every gradient compared below is one the pass wrote
            dx = net.backward(cache, upstream)
            grads = grad_views(net)
            assert np.array_equal(upstream, upstream_before)
            assert np.array_equal(dx, want_dx)
            assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads, strict=True))
            net.grad.fill(np.nan)
            dx = net.backward(cache, upstream, input_grad=False)
            assert dx is None
            assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads, strict=True))


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
            net.backward(cache, w)
            finite_difference_check(loss, net.params(), grad_views(net), rng, n_coords=4)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(4)
        net = DenseNet.create([3, 5, 2], ["tanh", "identity"], rng)
        _, cache = net.forward_cached(rng.standard_normal((6, 3)))
        dx = net.backward(cache, np.zeros((6, 2)))
        assert all(np.all(g == 0) for g in grad_views(net))
        assert np.all(dx == 0)

    def test_linear_net_input_grad_exact(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((3, 4))
        net = DenseNet([W], [np.zeros(3)], ["identity"])
        _, cache = net.forward_cached(rng.standard_normal(4))
        upstream = rng.standard_normal(3)
        dx = net.backward(cache, upstream)
        assert np.abs(dx - W.T @ upstream).max() < 1e-14


class TestGaussianHead:
    def test_a_mean_net_that_another_head_holds_is_refused(self):
        head = GaussianPolicyHead.create(4, 2, (8,), np.random.default_rng(16))
        with pytest.raises(ContractViolation, match="^the mean_net block is given twice or already has an owner$"):
            GaussianPolicyHead(head.mean_net, head.log_std.copy())
        assert head.mean_net.flat.base is head.flat

    def test_sample_deterministic_in_zero_std_limit(self):
        rng = np.random.default_rng(6)
        head = GaussianPolicyHead.create(4, 2, (8,), rng)
        head.log_std[:] = -40.0  # numerically deterministic
        obs = rng.standard_normal(4)
        action, _, _ = sample_action(head, obs, np.random.default_rng(0))
        assert np.abs(action - head.mean(obs)).max() < 1e-12

    def test_sample_returns_its_log_density_and_the_mean(self):
        rng = np.random.default_rng(15)
        head = GaussianPolicyHead.create(4, 3, (8,), rng)
        obs = rng.standard_normal((5, 4))
        action, log_prob, mu = sample_action(head, obs, np.random.default_rng(1))
        assert np.array_equal(mu, head.mean(obs))
        assert np.array_equal(log_prob, head.log_prob_cached(obs, action)[0])
        # exactly one standard-normal draw of the action's shape
        noise = np.random.default_rng(1).standard_normal((5, 3))
        assert np.array_equal(action, mu + np.exp(head.log_std) * noise)

    def test_log_prob_at_mean(self):
        rng = np.random.default_rng(7)
        head = GaussianPolicyHead.create(3, 4, (8,), rng)
        obs = rng.standard_normal(3)
        mu = head.mean(obs)
        expected = -np.sum(head.log_std + 0.5 * np.log(2 * np.pi))
        assert head.log_prob_cached(obs, mu)[0] == pytest.approx(expected)

    def test_empirical_mean_of_samples(self):
        rng = np.random.default_rng(8)
        head = GaussianPolicyHead.create(3, 2, (8,), rng)
        obs = rng.standard_normal(3)
        sample_rng = np.random.default_rng(9)
        n = 100_000
        actions = np.stack([sample_action(head, obs, sample_rng)[0] for _ in range(n)])
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
                return float(np.sum(w * head.log_prob_cached(obs, acts)[0]))

            _, _, cache = head.log_prob_cached(obs, acts)
            head.backward_log_prob(cache, w)
            finite_difference_check(loss, head.params(), grad_views(head), rng, n_coords=4)

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
                return float(np.sum(w * head.log_prob_cached(obs, acts)[0]) + np.sum(g * head.mean(obs)))

            _, _, cache = head.log_prob_cached(obs, acts)
            head.backward_log_prob(cache, w, g)
            finite_difference_check(loss, head.params(), grad_views(head), rng, n_coords=4)

    def test_kl_zero_for_identical(self):
        rng = np.random.default_rng(12)
        head = GaussianPolicyHead.create(3, 2, (4,), rng)
        obs = rng.standard_normal((6, 3))
        mu = head.mean_net.forward(obs)
        kl, _, _ = head.kl_divergence(mu, head.log_std.copy(), mu, np.exp(2.0 * head.log_std), 1.0)
        assert np.abs(kl).max() < 1e-14

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        head = GaussianPolicyHead.create(3, 2, (4,), rng)
        head.save(tmp_path / "actor.json")
        clone = GaussianPolicyHead.load(tmp_path / "actor.json")
        obs = rng.standard_normal((4, 3))
        assert np.array_equal(head.mean(obs), clone.mean(obs))
        assert np.array_equal(head.log_std, clone.log_std)

    @pytest.mark.parametrize("version", [None, 0, 99, "1", True, 1.0])
    def test_checkpoint_version_checked_on_load(self, version):
        d = GaussianPolicyHead.create(3, 2, (4,), np.random.default_rng(17)).to_dict()
        assert d["version"] == CHECKPOINT_VERSION
        if version is None:
            del d["version"]
        else:
            d["version"] = version
        with pytest.raises(ConfigError, match="version"):
            GaussianPolicyHead.from_dict(d)

    @pytest.mark.parametrize("cut", [slice(None, -1), slice(None, 0)], ids=["one-short", "empty"])
    def test_a_log_std_that_does_not_fit_the_actions_fails_on_load(self, tmp_path, cut):
        d = GaussianPolicyHead.create(3, 2, (4,), np.random.default_rng(18)).to_dict()
        d["log_std"] = d["log_std"][cut]
        (tmp_path / "actor.json").write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="^checkpoint log_std: log_std must match the action dimension"):
            GaussianPolicyHead.load(tmp_path / "actor.json")


class TestAdam:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(14)
        vector, params = flat_views([rng.standard_normal((3, 3)), rng.standard_normal(3)])
        before = [p.copy() for p in params]
        opt = Adam(vector, lr=0.01)
        opt.step(vector, flat([np.zeros_like(p) for p in params]))
        for p, b in zip(params, before):
            assert np.array_equal(p, b)

    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update -lr * sign(g)
        params = [np.zeros(4)]
        opt = Adam(params[0], lr=0.05)
        g = np.array([3.0, -2.0, 0.5, -0.1])
        opt.step(params[0], g)
        expected = -0.05 * np.sign(g) * (1.0 / (1.0 + 1e-8 / np.abs(g * 0 + np.sqrt(g * g))))
        assert np.abs(params[0] + 0.05 * np.sign(g)).max() < 1e-6

    def test_quadratic_bowl_descent(self):
        rng = np.random.default_rng(15)
        target = rng.standard_normal(6)
        params = [np.zeros(6)]
        opt = Adam(params[0], lr=0.01)
        losses = []
        for _ in range(500):
            g = 2 * (params[0] - target)
            losses.append(float(np.sum((params[0] - target) ** 2)))
            opt.step(params[0], g)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_non_finite_gradient_raises(self):
        params = [np.zeros(2)]
        opt = Adam(params[0])
        with pytest.raises(TrainingError):
            opt.step(params[0], np.array([np.nan, 0.0]))

    def test_deterministic_given_seed(self):
        def run():
            rng = np.random.default_rng(16)
            net = DenseNet.create([3, 4, 1], ["tanh", "identity"], rng)
            opt = Adam(net.flat, lr=0.01)
            x = rng.standard_normal((8, 3))
            for _ in range(10):
                y, cache = net.forward_cached(x)
                net.backward(cache, 2 * y)
                opt.step(net.flat, net.grad)
            return net.forward(x)

        assert np.array_equal(run(), run())

    def test_flat_state_equals_the_per_array_oracle_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(43)
        for _ in range(12):
            shapes = [tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(1, 3))) for _ in range(rng.integers(1, 8))]
            vector, params = flat_views([rng.standard_normal(shape) for shape in shapes])
            oracle_params = [p.copy() for p in params]
            kw = dict(lr=float(10 ** rng.uniform(-5, -1)), beta1=float(rng.uniform(0.5, 0.99)), beta2=float(rng.uniform(0.9, 0.9999)))
            # the decay rates are module constants; the draws set them as the oracle's arguments
            monkeypatch.setattr(nets, "ADAM_BETA1", kw["beta1"])
            monkeypatch.setattr(nets, "ADAM_BETA2", kw["beta2"])
            opt, oracle = Adam(vector, lr=kw["lr"]), AdamReference(oracle_params, **kw)
            for _ in range(50):
                scale = 10.0 ** rng.uniform(-8, 3)
                grads = [scale * rng.standard_normal(shape) * (rng.random(shape) > 0.2) for shape in shapes]
                norm = opt.step(vector, flat(grads))
                want = oracle.step(oracle_params, grads)
                assert norm == pytest.approx(want, rel=1e-12, abs=0.0)
                assert all(np.array_equal(p, q) for p, q in zip(params, oracle_params))
                assert np.array_equal(opt.m, flat(oracle.m)) and np.array_equal(opt.v, flat(oracle.v))
                assert opt.t == oracle.t

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_any_array_changes_nothing(self, bad):
        rng = np.random.default_rng(44)
        shapes = [(3, 4), (4,), (2, 3), (1,)]
        vector, params = flat_views([rng.standard_normal(shape) for shape in shapes])
        opt = Adam(vector, lr=0.01)
        for _ in range(3):
            opt.step(vector, flat([rng.standard_normal(shape) for shape in shapes]))
        for k, shape in enumerate(shapes):
            grads = [rng.standard_normal(shape) for shape in shapes]
            grads[k].flat[int(rng.integers(grads[k].size))] = bad
            before = [p.copy() for p in params], opt.m.copy(), opt.v.copy(), opt.t
            with pytest.raises(TrainingError):
                opt.step(vector, flat(grads))
            assert all(np.array_equal(p, q) for p, q in zip(params, before[0]))
            assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
            assert opt.t == before[3]

    def test_returns_the_norm_even_when_the_squares_overflow(self):
        params = [np.zeros(2)]
        with np.errstate(over="ignore"):
            assert Adam(params[0]).step(params[0], np.array([1e200, 0.0])) == np.inf
        assert np.all(np.isfinite(params[0]))

    def test_rejects_a_gradient_list_that_does_not_match(self):
        vector, _ = flat_views([np.zeros((2, 2)), np.zeros(2)])
        opt = Adam(vector)
        with pytest.raises(ContractViolation):
            opt.step(vector, flat([np.zeros((2, 2))]))
        with pytest.raises(ContractViolation):
            opt.step(vector, flat([np.zeros((2, 2)), np.zeros(3)]))
