"""MAPPO: GAE, losses vs per-sample oracles, rollouts, update mechanics."""

from pathlib import Path

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanetq.critics import ClassicalCritic, QuantumCritic, build_critic
from fanetq.env import EPISODE_BLOCK, FanetEnv, ScenarioConfig, init_world, observe_all
from fanetq.errors import ConfigError, ContractViolation, TrainingError
from fanetq.mappo import (
    EPISODE_SEED_STRIDE,
    EVAL_SEED_STRIDE,
    RolloutBatch,
    Trainer,
    TrainerConfig,
    UpdateStats,
    collect_rollout,
    evaluate,
    gae,
    _actor_loss_and_grads,
    _critic_loss_and_grads,
)
from fanetq.nets import DenseNet, GaussianPolicyHead

from tests.oracles import grad_views, sample_action
from tests.test_env import assert_closed_form, episode_cr_alone
from tests.test_nets import AdamReference, dense_backward_reference, dense_forward_reference, flat


COMMITTED_ACTOR = Path(__file__).resolve().parent.parent / "runs" / "4a1s" / "NN-4" / "seed0_actor.json"


def cfg_4a1s(**kw):
    return ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.6406, **kw)


class TestTrainerConfig:
    def test_defaults_match_published_hyperparameters(self):
        cfg = TrainerConfig()
        assert cfg.gamma == 0.99
        assert cfg.gae_lambda == 0.99
        assert cfg.clip_eps == 0.2
        assert cfg.entropy_coeff == 0.01
        assert cfg.kl_coeff == 0.2
        assert cfg.lr == 1e-4
        assert cfg.eval_interval == 1000

    def test_validation(self):
        with pytest.raises(ContractViolation):
            TrainerConfig(clip_eps=1.5)
        with pytest.raises(ContractViolation):
            TrainerConfig(gamma=-0.1)

    @pytest.mark.parametrize("name", ["rollout_steps", "epochs", "minibatch_size", "eval_interval", "eval_episodes"])
    @pytest.mark.parametrize("value", [0, -1, 2.0, 1.5, True, "8", None])
    def test_counts_must_be_positive_integers(self, name, value):
        # eval_interval=0 used to make Trainer.train loop forever; only construction runs here
        with pytest.raises(ContractViolation, match=name):
            TrainerConfig(**{name: value})

    @pytest.mark.parametrize("name", ["gamma", "gae_lambda", "clip_eps", "entropy_coeff", "kl_coeff", "lr"])
    @pytest.mark.parametrize(
        "value",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            "0.1",
            None,
            True,
            # integers beyond the float range, which math.isfinite cannot convert
            pytest.param(10**400, id="10**400"),
            pytest.param(-(10**400), id="-10**400"),
        ],
    )
    def test_rates_must_be_finite_numbers(self, name, value):
        with pytest.raises(ContractViolation, match=name):
            TrainerConfig(**{name: value})

    @pytest.mark.parametrize("name", ["gamma", "gae_lambda"])
    def test_discounts_lie_in_the_unit_interval(self, name):
        for bad in (1.5, 1.0 + 1e-12, -1e-12):
            with pytest.raises(ContractViolation, match=name):
                TrainerConfig(**{name: bad})
        for good in (0.0, 0, 1.0, 1, 0.5):
            assert getattr(TrainerConfig(**{name: good}), name) == good

    def test_integer_like_values_are_accepted(self):
        cfg = TrainerConfig(rollout_steps=np.int64(64), minibatch_size=1, lr=np.float64(1e-3), kl_coeff=0)
        assert cfg.rollout_steps == 64 and cfg.minibatch_size == 1


class TestGae:
    def test_lambda_zero_is_td_error(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(30)
        v = rng.standard_normal(30)
        bootstrap = float(rng.standard_normal())
        adv, _ = gae(r, v, bootstrap, 0.97, 0.0)
        v_next = np.concatenate([v[1:], [bootstrap]])
        expected = r + 0.97 * v_next - v
        assert np.abs(adv - expected).max() < 1e-12

    def test_lambda_one_zero_values_is_discounted_return(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal(40)
        adv, ret = gae(r, np.zeros(40), 0.0, 0.99, 1.0)
        brute = np.array([sum(0.99**l * r[t + l] for l in range(40 - t)) for t in range(40)])
        assert np.abs(adv - brute).max() < 1e-10
        assert np.abs(ret - brute).max() < 1e-10

    def test_zero_rewards_zero_values(self):
        adv, ret = gae(np.zeros(10), np.zeros(10), 0.0, 0.99, 0.95)
        assert np.all(adv == 0.0) and np.all(ret == 0.0)

    def test_returns_are_advantage_plus_value(self):
        rng = np.random.default_rng(2)
        r, v = rng.standard_normal(25), rng.standard_normal(25)
        adv, ret = gae(r, v, 0.3, 0.95, 0.9)
        assert np.abs(ret - (adv + v)).max() < 1e-12

    def test_misaligned_rejected(self):
        with pytest.raises(ContractViolation):
            gae(np.zeros(5), np.zeros(4), 0.0, 0.99, 0.99)


def actor_loss(actor, obs, actions, log_prob_old, advantages, mu_old, log_std_old, cfg) -> float:
    """Value-only clipped-surrogate actor objective: the finite-difference oracle.

    loss = -mean(min(r A, clip(r) A)) - entropy_coeff * S
           + kl_coeff * mean(KL(old || new)).
    """
    lp_new = actor.log_prob_cached(obs, actions)[0]
    ratio = np.exp(lp_new - log_prob_old)
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    surr = np.minimum(ratio * advantages, clipped * advantages)
    mu_new = actor.mean_net.forward(obs)
    kl = actor.kl_divergence(mu_old, log_std_old, mu_new, np.exp(2.0 * actor.log_std), 1.0)[0].mean()
    return float(-surr.mean() - cfg.entropy_coeff * actor.entropy() + cfg.kl_coeff * kl)


def critic_loss(critic, global_obs, returns, values_old, cfg) -> float:
    """Value-only clipped value objective: the finite-difference oracle."""
    v = critic.value(global_obs)
    clipped = np.clip(v, values_old - cfg.clip_eps, values_old + cfg.clip_eps)
    return float(np.mean(np.maximum((v - returns) ** 2, (clipped - returns) ** 2)))


def naive_actor_loss(actor, obs, acts, lp_old, adv, mu_old, ls_old, cfg):
    """Per-sample reimplementation of the clipped objective."""
    total = 0.0
    m = obs.shape[0]
    for i in range(m):
        lp = float(actor.log_prob_cached(obs[i], acts[i])[0])
        ratio = np.exp(lp - lp_old[i])
        clipped = min(max(ratio, 1 - cfg.clip_eps), 1 + cfg.clip_eps)
        total += min(ratio * adv[i], clipped * adv[i])
    surr = total / m
    kl_total = 0.0
    var_new = np.exp(2 * actor.log_std)
    for i in range(m):
        mu_new = actor.mean(obs[i])
        kl_total += float(
            np.sum(
                actor.log_std
                - ls_old
                + (np.exp(2 * ls_old) + (mu_old[i] - mu_new) ** 2) / (2 * var_new)
                - 0.5
            )
        )
    return -surr - cfg.entropy_coeff * actor.entropy() + cfg.kl_coeff * kl_total / m


class TestActorLoss:
    def setup_method(self):
        self.rng = np.random.default_rng(3)
        self.actor = GaussianPolicyHead.create(5, 3, (8,), self.rng)
        self.cfg = TrainerConfig()
        self.obs = self.rng.standard_normal((16, 5))
        self.acts = self.rng.standard_normal((16, 3))
        self.adv = self.rng.standard_normal(16)

    def test_new_equals_old_gives_unit_ratio(self):
        lp_old = self.actor.log_prob_cached(self.obs, self.acts)[0]
        mu_old = self.actor.mean_net.forward(self.obs)
        loss = actor_loss(
            self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, self.actor.log_std.copy(), self.cfg
        )
        # ratio = 1 everywhere: surrogate equals mean advantage, KL = 0
        expected = -self.adv.mean() - self.cfg.entropy_coeff * self.actor.entropy()
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_clipped_branch_kills_gradient(self):
        # ratio far above 1+eps with positive advantage: surrogate grad is zero
        obs = self.rng.standard_normal((4, 5))
        acts = self.actor.mean_net.forward(obs)  # at the mean
        lp_old = self.actor.log_prob_cached(obs, acts)[0] - 2.0  # new/old ratio = e^2 >> 1+eps
        adv = np.ones(4)
        mu_old = self.actor.mean_net.forward(obs)
        cfg = TrainerConfig(entropy_coeff=0.0, kl_coeff=0.0)
        _actor_loss_and_grads(self.actor, obs, acts, lp_old, adv, mu_old, self.actor.log_std.copy(), cfg)
        for g in grad_views(self.actor):
            assert np.abs(g).max() < 1e-12

    def test_matches_per_sample_oracle(self):
        for trial in range(10):
            lp_old = self.actor.log_prob_cached(self.obs, self.acts)[0] + 0.1 * self.rng.standard_normal(16)
            mu_old = self.actor.mean_net.forward(self.obs) + 0.1 * self.rng.standard_normal((16, 3))
            ls_old = self.actor.log_std + 0.05 * self.rng.standard_normal(3)
            got = actor_loss(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, self.cfg)
            want = naive_actor_loss(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, self.cfg)
            assert got == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        from tests.test_nets import finite_difference_check

        lp_old = self.actor.log_prob_cached(self.obs, self.acts)[0] + 0.05 * self.rng.standard_normal(16)
        mu_old = self.actor.mean_net.forward(self.obs) + 0.05 * self.rng.standard_normal((16, 3))
        ls_old = self.actor.log_std + 0.02

        def loss():
            return actor_loss(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, self.cfg)

        _actor_loss_and_grads(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, self.cfg)
        finite_difference_check(loss, self.actor.params(), grad_views(self.actor), self.rng, n_coords=5)

    def test_clip_inert_with_infinite_epsilon(self):
        # with the clip range blown up the clipped losses equal plain PPO ones
        from types import SimpleNamespace

        lp_old = self.actor.log_prob_cached(self.obs, self.acts)[0] + self.rng.standard_normal(16)
        mu_old = self.actor.mean_net.forward(self.obs)
        ls_old = self.actor.log_std.copy()
        wide = SimpleNamespace(clip_eps=1e12, entropy_coeff=0.0, kl_coeff=0.0)
        got = actor_loss(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, wide)
        lp_new = self.actor.log_prob_cached(self.obs, self.acts)[0]
        ratio = np.exp(lp_new - lp_old)
        plain = float(-(ratio * self.adv).mean())
        assert got == pytest.approx(plain, abs=1e-12)

        critic = ClassicalCritic.create(5, 3, self.rng)
        O = self.rng.standard_normal((9, 5))
        returns = self.rng.standard_normal(9)
        v_old = self.rng.standard_normal(9)
        got_v = critic_loss(critic, O, returns, v_old, wide)
        v = critic.value(O)
        assert got_v == pytest.approx(float(np.mean((v - returns) ** 2)), abs=1e-12)

    def test_one_mask_equals_the_reference_on_the_clip_boundaries(self):
        # ratios exactly on 1 - eps and 1 + eps, and inside the range, where the reference also masks by
        # ``inside``; random draws do not land on a boundary, so log_prob_old is nudged until they do
        m = 64
        obs, acts = self.rng.standard_normal((3 * m, 5)), self.rng.standard_normal((3 * m, 3))
        adv = self.rng.standard_normal(3 * m)
        lo, hi = 1.0 - self.cfg.clip_eps, 1.0 + self.cfg.clip_eps
        targets = np.repeat([lo, hi, 1.0 + 0.5 * self.cfg.clip_eps], m)
        lp_new = self.actor.log_prob_cached(obs, acts)[0]
        lp_old = lp_new - np.log(targets)
        for _ in range(4):
            ratio = np.exp(lp_new - lp_old)
            up, down = np.nextafter(lp_old, np.inf), np.nextafter(lp_old, -np.inf)
            lp_old = np.where(ratio > targets, up, np.where(ratio < targets, down, lp_old))
        ratio = np.exp(self.actor.log_prob_cached(obs, acts)[0] - lp_old)
        assert (ratio == lo).any() and (ratio == hi).any()  # landed on each boundary
        assert ((ratio > lo) & (ratio < hi)).sum() >= m
        mu_old = self.actor.mean(obs) + 0.1 * self.rng.standard_normal((3 * m, 3))
        ls_old = self.actor.log_std + 0.05
        loss, stats = _actor_loss_and_grads(self.actor, obs, acts, lp_old, adv, mu_old, ls_old, self.cfg)
        got = self.actor.grad.copy()
        want_loss, want_grads, want_stats = actor_loss_and_grads_reference(
            self.actor, obs, acts, lp_old, adv, mu_old, ls_old, self.cfg
        )
        assert loss == want_loss and stats == want_stats
        assert np.array_equal(got, np.concatenate([g.ravel() for g in want_grads]))


class TestCriticLoss:
    def setup_method(self):
        self.rng = np.random.default_rng(4)
        self.critic = ClassicalCritic.create(10, 4, self.rng)
        self.cfg = TrainerConfig()
        self.O = self.rng.standard_normal((12, 10))

    def test_zero_when_everything_matches(self):
        v = self.critic.value(self.O)
        assert critic_loss(self.critic, self.O, v, v, self.cfg) == pytest.approx(0.0, abs=1e-16)

    def test_clipped_term_dominates_outside_band(self):
        v = self.critic.value(self.O)
        returns = v.copy()
        v_old = v - 10.0  # current value far above the clip band around v_old
        loss = critic_loss(self.critic, self.O, returns, v_old, self.cfg)
        clipped = np.clip(v, v_old - self.cfg.clip_eps, v_old + self.cfg.clip_eps)
        assert loss == pytest.approx(float(np.mean((clipped - returns) ** 2)), abs=1e-12)
        assert loss > 0.0

    def test_matches_per_sample_oracle(self):
        for _ in range(10):
            returns = self.rng.standard_normal(12)
            v_old = self.rng.standard_normal(12)
            got = critic_loss(self.critic, self.O, returns, v_old, self.cfg)
            v = self.critic.value(self.O)
            total = 0.0
            for i in range(12):
                clipped = min(max(v[i], v_old[i] - 0.2), v_old[i] + 0.2)
                total += max((v[i] - returns[i]) ** 2, (clipped - returns[i]) ** 2)
            assert got == pytest.approx(total / 12, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        from tests.test_nets import finite_difference_check

        returns = self.rng.standard_normal(12)
        v_old = self.critic.value(self.O) + 0.05 * self.rng.standard_normal(12)

        def loss():
            return critic_loss(self.critic, self.O, returns, v_old, self.cfg)

        _critic_loss_and_grads(self.critic, self.O, returns, v_old, self.cfg)
        finite_difference_check(loss, self.critic.params(), grad_views(self.critic), self.rng, n_coords=5)

    def test_one_mask_equals_the_reference_on_the_clip_boundaries(self):
        # values exactly on values_old -/+ eps, inside the range and outside it, where the reference also
        # masks by ``inside``; the stub critic returns the chosen values and keeps the dLoss/dV it is given
        class StubCritic:
            grad = np.empty(0)

            def __init__(self, v):
                self.v, self.d_v = v, []

            def params(self):
                return []

            def value_cached(self, global_obs):
                return self.v.copy(), None

            def backward(self, cache, d_value, loss_fn, loss_center):
                self.d_v.append(d_value.copy())

        eps, m = self.cfg.clip_eps, 16
        values_old = self.rng.standard_normal(5 * m)
        offsets = np.repeat([-eps, eps, 0.0, 0.5 * eps, -0.5 * eps], m)
        v = values_old + offsets
        v[2 * m : 3 * m] = values_old[2 * m : 3 * m]
        v[4 * m :] = values_old[4 * m :] + self.rng.choice([-3.0, 3.0], m) * eps  # outside the range
        lower, upper = values_old - eps, values_old + eps
        assert np.array_equal(v[:m], lower[:m]) and np.array_equal(v[m : 2 * m], upper[m : 2 * m])
        assert ((v[2 * m : 4 * m] > lower[2 * m : 4 * m]) & (v[2 * m : 4 * m] < upper[2 * m : 4 * m])).all()
        returns = values_old + self.rng.standard_normal(5 * m)
        got, want, global_obs = StubCritic(v), StubCritic(v), np.zeros((5 * m, 1))
        loss = _critic_loss_and_grads(got, global_obs, returns, values_old, self.cfg)
        want_loss, _ = critic_loss_and_grads_reference(want, global_obs, returns, values_old, self.cfg)
        assert loss == want_loss
        assert np.array_equal(got.d_v[0], want.d_v[0])
        assert (got.d_v[0][4 * m :] == 0.0).any()  # some outside values take the clipped error


def collect_rollout_serial(env, actor, critic, steps, rng, base_seed, episode_counter, cfg):
    """Oracle rollout: one FanetEnv episode, one step and one GaussianPolicyHead.sample at a time.

    GAE runs per segment: each finished episode bootstraps with 0, a segment
    cut at the rollout boundary with the critic value of its next
    observation.  The env resets right after an episode ends, so the counter
    runs one episode ahead.  collect_rollout must match it bit for bit.
    """
    obs_l, gobs_l, act_l, lp_l, mu_l, rew_l = [], [], [], [], [], []

    if env.world is None or env.t >= env.cfg.horizon:
        obs = env.reset(base_seed + EPISODE_SEED_STRIDE * episode_counter)
        episode_counter += 1
    else:
        obs = observe_all(env.world, env.cfg)

    seg_start = 0
    val_parts, adv_parts, ret_parts = [], [], []

    def close_segment(bootstrap: float) -> None:
        nonlocal seg_start
        seg_val = critic.value(np.stack(gobs_l[seg_start:]))
        seg_rew = np.array(rew_l[seg_start:])
        a, ret = gae(seg_rew, seg_val, bootstrap, cfg.gamma, cfg.gae_lambda)
        val_parts.append(seg_val)
        adv_parts.append(a)
        ret_parts.append(ret)
        seg_start = len(rew_l)

    for _ in range(steps):
        gobs = obs.reshape(-1)
        action, log_prob, mu = sample_action(actor, obs, rng)

        next_obs, r, done = env.step(action)

        obs_l.append(obs)
        gobs_l.append(gobs)
        act_l.append(action)
        lp_l.append(log_prob)
        mu_l.append(mu)
        rew_l.append(r)

        obs = next_obs
        if done:
            close_segment(0.0)
            obs = env.reset(base_seed + EPISODE_SEED_STRIDE * episode_counter)
            episode_counter += 1

    if seg_start < len(rew_l):
        close_segment(float(critic.value(obs.reshape(-1)[None, :])[0]))

    batch = RolloutBatch(
        obs=np.stack(obs_l),
        global_obs=np.stack(gobs_l),
        actions=np.stack(act_l),
        log_prob_old=np.stack(lp_l),
        mu_old=np.stack(mu_l),
        log_std_old=actor.log_std.copy(),
        rewards=np.array(rew_l),
        values=np.concatenate(val_parts),
        advantages=np.concatenate(adv_parts),
        returns=np.concatenate(ret_parts),
    )
    return batch, episode_counter


def assert_same_batch(got: RolloutBatch, want: RolloutBatch):
    for name, w in vars(want).items():
        g = getattr(got, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.array_equal(g, w), name


@settings(max_examples=60, deadline=None)
@given(
    n_aircraft=st.integers(1, 6),
    n_ground=st.integers(1, 3),
    horizon=st.integers(1, 12),
    quantum=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_block_rollout_equals_the_serial_oracle(n_aircraft, n_ground, horizon, quantum, seed, data):
    # chains of consecutive rollouts: single steps, lengths that cut episodes,
    # and more than one block of whole episodes; the actor moves in between
    cfg = ScenarioConfig(n_aircraft=n_aircraft, n_ground=n_ground, comm_range=0.5, horizon=horizon)
    lengths = data.draw(
        st.lists(
            st.one_of(
                st.just(1),
                st.integers(1, 3 * horizon),
                st.integers(EPISODE_BLOCK * horizon + 1, (EPISODE_BLOCK + 2) * horizon),
            ),
            min_size=1,
            max_size=4,
        )
    )
    rng = np.random.default_rng(seed)
    actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
    if quantum:
        critic = QuantumCritic.create(cfg.global_obs_dim, 1, "arctan", rng)
    else:
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
    tcfg = TrainerConfig()
    world, start = None, 3 * horizon
    oracle_env, oracle_counter = FanetEnv(cfg), 3
    rollout_rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for steps in lengths:
        batch, world = collect_rollout(world, cfg, actor, critic, steps, rollout_rng, seed, start, tcfg)
        want, oracle_counter = collect_rollout_serial(
            oracle_env, actor, critic, steps, oracle_rng, seed, oracle_counter, tcfg
        )
        start += steps
        assert_same_batch(batch, want)
        # the oracle resets as an episode ends, so its counter runs one episode ahead
        assert oracle_counter == start // horizon + 1 and oracle_env.t == start % horizon
        assert (world is None) == (start % horizon == 0)
        if world is not None:
            assert world.t == oracle_env.t
            assert np.array_equal(world.pos[0], oracle_env.world.pos)
            assert np.array_equal(world.links[0], oracle_env.world.links)
        for p in actor.params():
            p += 0.05 * rng.standard_normal(p.shape)


@settings(max_examples=40, deadline=None)
@given(
    horizon=st.integers(2, 30),
    first=st.integers(1, 200),
    second=st.integers(1, 200),
    seed=st.integers(0, 2**20),
)
def test_a_cut_tail_keeps_its_episode_anchor_across_rollouts(horizon, first, second, seed):
    # the world a rollout leaves unfinished moves on from the anchor of its episode's start, not from the cut;
    # so does the one a Trainer carries, which is None exactly on an episode boundary
    assume(first % horizon)
    cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=0.4, horizon=horizon, v_max=0.1)
    rng = np.random.default_rng(seed)
    actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
    critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)

    def assert_carried(world, run_step):
        episode, t = divmod(run_step, horizon)
        assert (world is None) == (t == 0)
        if world is not None:
            assert world.t == t
            assert_closed_form(world, 0, init_world(cfg, seed + EPISODE_SEED_STRIDE * episode).pos)

    world, start = None, 0
    for steps in (first, second):
        _, world = collect_rollout(world, cfg, actor, critic, steps, rng, seed, start, TrainerConfig())
        start += steps
        assert_carried(world, start)
    trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=first), seed=seed)
    for total in (first, first + second):
        trainer.train(total)
        assert_carried(trainer.world, trainer.env_steps)


def test_a_trainer_builds_each_lk_table_at_its_episode_start(monkeypatch):
    # the cut tail a rollout carries keeps the table it was built with, so no table is built after t = 0
    import fanetq.env as env

    built = []
    inner = env._lk_table

    def spy(world, cfg):
        built.append(world.t)
        return inner(world, cfg)

    monkeypatch.setattr(env, "_lk_table", spy)
    cfg = cfg_4a1s()
    critic = ClassicalCritic.create(cfg.global_obs_dim, 4, np.random.default_rng(0))
    trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=130), seed=0)
    trainer.train(1040)
    # two tables per rollout of 130 steps (whole episodes, then the cut tail), and one for the evaluation
    assert built == [0] * 16


@pytest.mark.parametrize("solution", ["NN-4", "VQC-1A"])
def test_a_training_cycle_holds_its_rollout_once(solution):
    # minibatches gather their own rows, blocks write into the batch and a batch is gone before the next rollout:
    # the traced peak was 3.8 batches with per-epoch shuffled copies, per-block concatenation and the finished
    # batch alive through the next rollout, and 2.9 with the batch alone kept alive; VQC-1A's was 2.6 while the
    # critic valued a whole rollout block in one circuit pass, and 1.9 in minibatch-sized episode groups
    cfg = cfg_4a1s()
    critic = build_critic(solution, "4a1s", cfg.global_obs_dim, np.random.default_rng(0))
    trainer = Trainer(cfg, critic, seed=0)
    batch, _ = collect_rollout(
        None, cfg, trainer.actor, critic, trainer.cfg.rollout_steps, np.random.default_rng(1), 0, 0, trainer.cfg
    )
    batch_bytes = sum(a.nbytes for name, a in vars(batch).items() if name != "global_obs")  # a view of obs
    del batch
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        trainer.train(4000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2.25 * batch_bytes, f"traced peak {peak / batch_bytes:.2f} rollout batches"


@pytest.mark.parametrize("rollout_steps, cycles", [(2000, 1), (777, 2)])
@pytest.mark.parametrize("solution", ["NN-4", "VQC-1A"])
def test_no_critic_pass_of_a_training_cycle_covers_more_rows_than_a_minibatch(
    solution, rollout_steps, cycles, monkeypatch
):
    # a rollout valued each 40-episode block in one pass of 2000 rows; 777 steps carry a cut episode into the
    # second cycle and end in a cut tail
    import fanetq.critics as critics

    cfg = cfg_4a1s()
    critic = build_critic(solution, "4a1s", cfg.global_obs_dim, np.random.default_rng(0))
    rows = []

    def counted(inner):
        def spy(*args):
            rows.append(int(np.prod(args[-1].shape[:-1])))
            return inner(*args)

        return spy

    monkeypatch.setattr(type(critic), "value_cached", counted(type(critic).value_cached))
    if critic.kind == "quantum":
        monkeypatch.setattr(critics, "vqc_forward", counted(critics.vqc_forward))
    trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=rollout_steps), seed=0)
    trainer.train(cycles * rollout_steps)
    assert rows and max(rows) <= trainer.cfg.minibatch_size, max(rows)


def test_a_rollout_values_each_episode_as_one_critic_pass_does():
    # a 40-episode block in minibatch-sized groups, then a cut tail: each episode's values equal one
    # critic.value call on its rows alone, bit for bit
    cfg = cfg_4a1s()
    rng = np.random.default_rng(6)
    actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
    critic = build_critic("VQC-1A", "4a1s", cfg.global_obs_dim, rng)
    batch, world = collect_rollout(None, cfg, actor, critic, 40 * cfg.horizon + 30, rng, 0, 0, TrainerConfig())
    assert world.t == 30
    bounds = list(range(0, 40 * cfg.horizon + 1, cfg.horizon)) + [batch.n_steps]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert np.array_equal(batch.values[lo:hi], critic.value(batch.global_obs[lo:hi])), (lo, hi)


class TestRollout:
    def test_blocks_write_into_the_batch_arrays(self, monkeypatch):
        # a carried episode, a block of whole ones and a cut tail: each block's obs, means and actions, and the
        # actions its policy returns, are views of the one batch allocation
        import fanetq.mappo as mappo

        cfg = cfg_4a1s()
        rng = np.random.default_rng(4)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        _, world = collect_rollout(None, cfg, actor, critic, 30, rng, 0, 0, TrainerConfig())
        blocks, returned = [], []
        inner_block, inner_step = mappo._rollout_block, mappo.step_episodes

        def block_spy(*args):
            blocks.append(args[-1])
            return inner_block(*args)

        def step_spy(world, steps, scenario, policy):
            return inner_step(world, steps, scenario, lambda o, t: returned.append(policy(o, t)) or returned[-1])

        monkeypatch.setattr(mappo, "_rollout_block", block_spy)
        monkeypatch.setattr(mappo, "step_episodes", step_spy)
        batch, _ = collect_rollout(world, cfg, actor, critic, 250, rng, 0, 30, TrainerConfig())
        assert [len(out["obs"]) for out in blocks] == [20, 4 * 50, 30]  # the horizon is 50
        for out in blocks:
            for name in ("obs", "mu_old", "actions"):
                assert np.shares_memory(out[name], getattr(batch, name))
        assert len(returned) == 20 + 50 + 30 and all(np.shares_memory(a, batch.actions) for a in returned)
        assert np.shares_memory(batch.global_obs, batch.obs)

    def test_record_counts_and_shapes(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(5)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        tcfg = TrainerConfig()
        batch, world = collect_rollout(None, cfg, actor, critic, 50, rng, 0, 0, tcfg)
        assert batch.n_steps == 50
        assert batch.n_agents == 4
        assert batch.obs.shape == (50, 4, 13)
        assert batch.global_obs.shape == (50, 52)
        assert batch.actions.shape == (50, 4, 4)
        # one whole episode consumed, so nothing is carried into the next rollout
        assert world is None

    def test_log_prob_self_consistency(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(6)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        batch, _ = collect_rollout(None, cfg, actor, critic, 30, rng, 0, 0, TrainerConfig())
        for t in range(30):
            recomputed = actor.log_prob_cached(batch.obs[t], batch.actions[t])[0]
            assert np.abs(recomputed - batch.log_prob_old[t]).max() < 1e-12

    def test_actions_come_from_the_policy_sampler(self):
        # one rollout step draws exactly what the serial sampler draws
        cfg = cfg_4a1s()
        rng = np.random.default_rng(17)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        batch, _ = collect_rollout(None, cfg, actor, critic, 3, np.random.default_rng(18), 0, 0, TrainerConfig())
        sample_rng = np.random.default_rng(18)
        for t in range(3):
            action, log_prob, mu = sample_action(actor, batch.obs[t], sample_rng)
            assert np.array_equal(action, batch.actions[t])
            assert np.array_equal(log_prob, batch.log_prob_old[t])
            assert np.array_equal(mu, batch.mu_old[t])

    def test_rejects_an_empty_rollout(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(21)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        with pytest.raises(ContractViolation, match="steps"):
            collect_rollout(None, cfg, actor, critic, 0, rng, 0, 0, TrainerConfig())

    def test_rejects_a_run_step_off_the_carried_world(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(23)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        _, world = collect_rollout(None, cfg, actor, critic, 30, rng, 0, 0, TrainerConfig())
        assert world.t == 30
        for carried, start in ((world, 0), (world, 31), (None, 30)):
            with pytest.raises(ContractViolation, match="run step"):
                collect_rollout(carried, cfg, actor, critic, 5, rng, 0, start, TrainerConfig())

    def test_batch_requires_advantages_and_returns(self):
        z = np.zeros(1)
        with pytest.raises(TypeError):
            RolloutBatch(z, z, z, z, z, z, z, z)  # advantages and returns missing

    def test_global_observation_dimensions(self):
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.637)
        rng = np.random.default_rng(7)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        batch, _ = collect_rollout(None, cfg, actor, critic, 10, rng, 0, 0, TrainerConfig())
        assert batch.global_obs.shape[1] == 95

    def test_advantages_normalize_in_update(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(8)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=100, minibatch_size=64), seed=0)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 100, trainer.rollout_rng, 0, 0, trainer.cfg
        )
        adv = batch.advantages
        normalized = (adv - adv.mean()) / (adv.std() + 1e-8)
        assert abs(normalized.mean()) < 1e-10
        assert normalized.std() == pytest.approx(1.0, abs=1e-6)


class TestUpdateMechanics:
    def test_ratio_unity_on_first_minibatch(self):
        # before any optimizer step the recomputed log-probs equal the stored ones
        cfg = cfg_4a1s()
        rng = np.random.default_rng(9)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50), seed=1)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 1, 0, trainer.cfg
        )
        lp_new = trainer.actor.log_prob_cached(
            batch.obs.reshape(-1, cfg.obs_dim), batch.actions.reshape(-1, cfg.action_dim)
        )[0]
        ratio = np.exp(lp_new - batch.log_prob_old.reshape(-1))
        assert np.abs(ratio - 1.0).max() < 1e-10

    def test_zero_advantage_moves_params_only_via_entropy_and_kl(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(10)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        tcfg = TrainerConfig(rollout_steps=50, epochs=1, minibatch_size=200)
        trainer = Trainer(cfg, critic, tcfg, seed=2)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 2, 0, trainer.cfg
        )
        batch.advantages[:] = 0.0
        mean_before = [w.copy() for w in trainer.actor.mean_net.weights]
        log_std_before = trainer.actor.log_std.copy()
        trainer.update(batch)
        # ratio starts at 1 and KL at 0 for the first minibatch, so the mean
        # net only moves through later-minibatch KL corrections: tiny
        mean_moved = max(np.abs(w - b).max() for w, b in zip(trainer.actor.mean_net.weights, mean_before))
        log_std_moved = np.abs(trainer.actor.log_std - log_std_before).max()
        assert log_std_moved > 1e-6  # entropy bonus pushes log_std
        assert mean_moved < 1e-4

    def test_critic_loss_decreases_on_fixed_batch(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(11)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        tcfg = TrainerConfig(rollout_steps=100, epochs=1, minibatch_size=100, lr=3e-3)
        trainer = Trainer(cfg, critic, tcfg, seed=3)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 100, trainer.rollout_rng, 3, 0, trainer.cfg
        )
        first = critic_loss(critic, batch.global_obs, batch.returns, batch.values, tcfg)
        for _ in range(50):
            trainer.update(batch)
        last = critic_loss(critic, batch.global_obs, batch.returns, batch.values, tcfg)
        assert last < first

    def test_quantum_update_issues_three_evals_per_estimate(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(12)
        critic = build_critic("VQC-1N", "4a1s", cfg.global_obs_dim, rng)
        tcfg = TrainerConfig(rollout_steps=50, epochs=1, minibatch_size=50)
        trainer = Trainer(cfg, critic, tcfg, seed=4)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 4, 0, trainer.cfg
        )
        critic.circuit_evaluations = 0
        trainer.update(batch)
        # one critic minibatch -> one estimate -> exactly 3 batched passes
        assert critic.circuit_evaluations == 3

    def test_quantum_critic_reuses_the_minibatch_loss_as_spsa_center(self, monkeypatch):
        import fanetq.mappo as mappo

        calls = []
        inner = mappo._value_objective

        def spy(*args):
            calls.append(inner(*args))
            return calls[-1]

        monkeypatch.setattr(mappo, "_value_objective", spy)
        rng = np.random.default_rng(22)
        critic = QuantumCritic.create(52, 1, "arctan", rng)
        global_obs = rng.standard_normal((16, 52))
        returns, values_old = rng.standard_normal(16), rng.standard_normal(16)
        loss = _critic_loss_and_grads(critic, global_obs, returns, values_old, TrainerConfig())
        # the returned loss, then the two perturbed SPSA losses; the center is not computed again
        assert len(calls) == 3 and calls[0] == loss

    def test_aborted_update_restores_parameters(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(13)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50, epochs=1, minibatch_size=50), seed=5)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 5, 0, trainer.cfg
        )
        batch.returns[:] = np.nan  # poisons the critic loss
        before_actor = [p.copy() for p in trainer.actor.params()]
        before_critic = [p.copy() for p in critic.params()]
        with pytest.warns(RuntimeWarning):
            stats = trainer.update(batch)
        assert stats.aborted
        for p, b in zip(trainer.actor.params(), before_actor):
            assert np.array_equal(p, b)
        for p, b in zip(critic.params(), before_critic):
            assert np.array_equal(p, b)

    @staticmethod
    def optimizer_state(trainer):
        opts = [(opt.m.copy(), opt.v.copy(), opt.t) for opt in (trainer.actor_opt, trainer.critic_opt)]
        return opts, trainer.critic.spsa.k, trainer.critic.spec.theta.copy()

    def assert_optimizer_state(self, trainer, expected):
        (opts, k, theta), (want_opts, want_k, want_theta) = self.optimizer_state(trainer), expected
        for (m, v, t), (wm, wv, wt) in zip(opts, want_opts):
            assert np.array_equal(m, wm) and np.array_equal(v, wv) and t == wt
        assert k == want_k and np.array_equal(theta, want_theta)

    @pytest.mark.parametrize("warm", [False, True])
    def test_aborted_update_restores_the_optimizers(self, warm):
        cfg = cfg_4a1s()
        critic = QuantumCritic.create(cfg.global_obs_dim, 1, "arctan", np.random.default_rng(13))
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50, epochs=2, minibatch_size=50), seed=5)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 5, 0, trainer.cfg
        )
        if warm:  # a clean update first, so the optimizers hold state that is not all zeros
            assert not trainer.update(batch).aborted
        before = self.optimizer_state(trainer)
        batch.returns[:] = np.nan  # the actor steps through epoch 1, then the critic loss aborts
        with pytest.warns(RuntimeWarning):
            assert trainer.update(batch).aborted
        self.assert_optimizer_state(trainer, before)

    def test_abort_in_a_later_epoch_restores_the_critic_optimizer_and_spsa(self, monkeypatch):
        import fanetq.mappo as mappo

        inner = mappo._critic_loss_and_grads
        calls = []

        def nan_in_epoch_2(*args):
            calls.append(None)
            loss = inner(*args)
            return np.nan if len(calls) > 1 else loss

        monkeypatch.setattr(mappo, "_critic_loss_and_grads", nan_in_epoch_2)
        cfg = cfg_4a1s()
        critic = QuantumCritic.create(cfg.global_obs_dim, 1, "arctan", np.random.default_rng(14))
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50, epochs=2, minibatch_size=50), seed=6)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 6, 0, trainer.cfg
        )
        before = self.optimizer_state(trainer)
        with pytest.warns(RuntimeWarning):
            assert trainer.update(batch).aborted
        assert len(calls) == 2  # epoch 1's critic step ran, epoch 2's aborted
        self.assert_optimizer_state(trainer, before)

    def test_an_aborted_update_reports_nan_stats(self, monkeypatch):
        # epoch 1 stepped both nets before epoch 2's critic loss aborted; the rolled-back update has no
        # losses to report, so no partial sums of epoch 1 leak out
        import fanetq.mappo as mappo

        inner, calls = mappo._critic_loss_and_grads, []

        def nan_in_epoch_2(*args):
            calls.append(None)
            return np.nan if len(calls) > 1 else inner(*args)

        monkeypatch.setattr(mappo, "_critic_loss_and_grads", nan_in_epoch_2)
        cfg = cfg_4a1s()
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, np.random.default_rng(15))
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50, epochs=2, minibatch_size=64), seed=6)
        batch, _ = collect_rollout(None, cfg, trainer.actor, critic, 50, trainer.rollout_rng, 6, 0, trainer.cfg)
        with pytest.warns(RuntimeWarning, match="^update aborted"):
            stats = trainer.update(batch)
        assert stats.aborted and stats.skipped_minibatches == 0 and len(calls) == 2
        floats = [field.name for field in dataclasses.fields(UpdateStats) if field.type == "float"]
        assert len(floats) == 7 and all(np.isnan(getattr(stats, name)) for name in floats)

    def test_an_update_that_skipped_every_actor_minibatch_reports_nan_actor_stats(self):
        # no actor minibatch stepped, so there is no actor loss or entropy to report, not a 0.0
        cfg = cfg_4a1s()
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, np.random.default_rng(18))
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50, epochs=2, minibatch_size=64), seed=7)
        batch, _ = collect_rollout(None, cfg, trainer.actor, critic, 50, trainer.rollout_rng, 7, 0, trainer.cfg)
        batch.log_prob_old[:] = -np.inf  # every ratio is infinite
        with pytest.warns(RuntimeWarning, match="^skipped actor minibatch"):
            stats = trainer.update(batch)
        assert not stats.aborted and stats.skipped_minibatches == 2 * 4  # 200 rows in minibatches of 64
        actor_fields = ("actor_loss", "kl", "clip_frac", "entropy", "actor_grad_norm")
        assert all(np.isnan(getattr(stats, name)) for name in actor_fields)
        assert np.isfinite(stats.critic_loss) and np.isfinite(stats.critic_grad_norm)

    def test_the_curve_of_an_aborted_update_has_nan_losses(self, monkeypatch):
        import fanetq.mappo as mappo

        monkeypatch.setattr(mappo, "_critic_loss_and_grads", lambda *args: np.nan)
        cfg = cfg_4a1s()
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, np.random.default_rng(17))
        tcfg = TrainerConfig(rollout_steps=100, eval_interval=100, eval_episodes=2)
        trainer = Trainer(cfg, critic, tcfg, seed=8)
        with pytest.warns(RuntimeWarning, match="^update aborted"):
            curve = trainer.train(200)
        assert [point["env_steps"] for point in curve] == [100, 200]
        for point in curve:
            assert np.isnan(point["actor_loss"]) and np.isnan(point["critic_loss"])
            assert np.isfinite(point["cr_mean"])

    def test_clip_frac_is_the_mean_over_actor_minibatches(self, monkeypatch):
        import fanetq.mappo as mappo

        seen = []
        inner = mappo._actor_loss_and_grads

        def spy(*args):
            res = inner(*args)
            seen.append(res[1]["clip_frac"])
            return res

        monkeypatch.setattr(mappo, "_actor_loss_and_grads", spy)
        cfg = cfg_4a1s()
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, np.random.default_rng(16))
        tcfg = TrainerConfig(rollout_steps=100, epochs=3, minibatch_size=64, lr=3e-3)
        trainer = Trainer(cfg, critic, tcfg, seed=6)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 100, trainer.rollout_rng, 6, 0, trainer.cfg
        )
        stats = trainer.update(batch)
        assert len(seen) == 3 * 7  # 400 rows in minibatches of 64, three epochs
        assert seen[0] == 0.0  # ratio is 1 before the first step
        assert all(0.0 <= f <= 1.0 for f in seen)
        assert stats.clip_frac == pytest.approx(np.mean(seen), abs=1e-15)
        assert 0.0 < stats.clip_frac <= 1.0  # this learning rate pushes ratios past the clip

    def test_single_minibatch_update_clips_nothing(self):
        cfg = cfg_4a1s()
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, np.random.default_rng(19))
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50, epochs=1, minibatch_size=200), seed=7)
        batch, _ = collect_rollout(
            None, cfg, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 7, 0, trainer.cfg
        )
        assert trainer.update(batch).clip_frac == 0.0

    @pytest.mark.parametrize("solution", ["NN-4", "VQC-1A"])
    def test_parameters_and_gradients_stay_views_of_the_flat_vectors(self, solution):
        # Adam steps owner.flat from owner.grad; an array that stopped sharing
        # their memory would silently stop training
        cfg = cfg_4a1s()

        def assert_views(owner, arrays, vector):
            assert all(np.shares_memory(a, vector) for a in arrays)
            assert sum(a.size for a in arrays) == vector.size

        def assert_owned(actor, critic):
            assert_views(actor, actor.params(), actor.flat)
            assert_views(critic, critic.params(), critic.flat)

        critic = build_critic(solution, "4a1s", cfg.global_obs_dim, np.random.default_rng(3), spsa_seed=3)
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50, epochs=2, minibatch_size=50), seed=3)
        assert_owned(trainer.actor, critic)
        batch, _ = collect_rollout(None, cfg, trainer.actor, critic, 50, trainer.rollout_rng, 3, 0, trainer.cfg)
        adv = np.repeat(batch.advantages, cfg.n_aircraft)
        obs, acts = batch.obs.reshape(200, -1), batch.actions.reshape(200, -1)
        lp, mu = batch.log_prob_old.reshape(200), batch.mu_old.reshape(200, -1)
        for owner in (trainer.actor, critic):
            owner.grad.fill(np.nan)  # so a gradient the passes do not write into grad shows
        _actor_loss_and_grads(trainer.actor, obs, acts, lp, adv, mu, batch.log_std_old, trainer.cfg)
        assert_views(trainer.actor, grad_views(trainer.actor), trainer.actor.grad)
        _critic_loss_and_grads(critic, batch.global_obs, batch.returns, batch.values, trainer.cfg)
        assert_views(critic, grad_views(critic), critic.grad)
        assert np.isfinite(trainer.actor.grad).all() and np.isfinite(critic.grad).all()

        assert_owned(GaussianPolicyHead.from_dict(trainer.actor.to_dict()), type(critic).from_dict(critic.to_dict()))

        assert not trainer.update(batch).aborted
        batch.returns[:] = np.nan
        with pytest.warns(RuntimeWarning):
            assert trainer.update(batch).aborted
        assert_owned(trainer.actor, critic)
        means, values = trainer.actor.mean(obs), critic.value(batch.global_obs)
        batch.returns[:] = batch.advantages + batch.values
        assert not trainer.update(batch).aborted  # and the nets use what Adam stepped
        assert not np.array_equal(trainer.actor.mean(obs), means)
        assert not np.array_equal(critic.value(batch.global_obs), values)


def actor_loss_and_grads_reference(actor, obs, actions, log_prob_old, advantages, mu_old, log_std_old, cfg):
    """The actor loss arithmetic before the shared-variance head methods, step for step."""
    m = obs.shape[0]
    mu_new, cache = actor.mean_net.forward_cached(obs)
    z = (actions - mu_new) / np.exp(actor.log_std)
    lp_new = -0.5 * np.sum(z * z + 2.0 * actor.log_std + np.log(2.0 * np.pi), axis=-1)
    ratio = np.exp(lp_new - log_prob_old)
    if not np.all(np.isfinite(ratio)):
        return None
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    unclipped_term = ratio * advantages
    clipped_term = clipped * advantages
    surr = np.minimum(unclipped_term, clipped_term)
    inside = (ratio > 1.0 - cfg.clip_eps) & (ratio < 1.0 + cfg.clip_eps)
    active = (unclipped_term <= clipped_term) | inside
    d_lp = -(active * ratio * advantages) / m

    var = np.exp(2.0 * actor.log_std)
    var_old = np.exp(2.0 * log_std_old)
    kl = np.sum(
        actor.log_std - log_std_old + (var_old + (mu_old - mu_new) ** 2) / (2.0 * np.exp(2.0 * actor.log_std)) - 0.5,
        axis=-1,
    )
    d_mu_kl = cfg.kl_coeff / m * (mu_new - mu_old) / var
    diff = actions - mu_new
    d_mu = d_lp[..., None] * diff / np.exp(2.0 * actor.log_std) + d_mu_kl
    actor.mean_net.backward(cache, d_mu)
    z2 = diff * diff / np.exp(2.0 * actor.log_std)
    d_log_std = (d_lp[..., None] * (z2 - 1.0)).reshape(-1, actor.log_std.size).sum(axis=0)
    d_log_std -= cfg.entropy_coeff
    d_log_std += cfg.kl_coeff / m * (1.0 - (var_old + (mu_old - mu_new) ** 2) / var).sum(axis=0)

    loss = float(-surr.mean() - cfg.entropy_coeff * actor.entropy() + cfg.kl_coeff * kl.mean())
    stats = {"kl": float(kl.mean()), "entropy": actor.entropy(), "clip_frac": float((~active).mean())}
    return loss, grad_views(actor.mean_net) + [d_log_std], stats


def critic_loss_and_grads_reference(critic, global_obs, returns, values_old, cfg):
    m = global_obs.shape[0]
    v, cache = critic.value_cached(global_obs)

    def loss_fn(values):
        clipped = np.clip(values, values_old - cfg.clip_eps, values_old + cfg.clip_eps)
        return float(np.mean(np.maximum((values - returns) ** 2, (clipped - returns) ** 2)))

    loss = loss_fn(v)
    clipped = np.clip(v, values_old - cfg.clip_eps, values_old + cfg.clip_eps)
    take_unclipped = (v - returns) ** 2 >= (clipped - returns) ** 2
    inside = (v > values_old - cfg.clip_eps) & (v < values_old + cfg.clip_eps)
    d_v = np.where(take_unclipped, 2.0 * (v - returns), np.where(inside, 2.0 * (clipped - returns), 0.0)) / m
    critic.backward(cache, d_v, loss_fn, loss)
    return loss, grad_views(critic)


def update_reference(actor, critic, actor_opt, critic_opt, shuffle_rng, cfg, batch) -> UpdateStats:
    """Trainer.update as it ran before the flat Adam and the in-place dense passes.

    ``actor_opt``/``critic_opt`` are per-array AdamReference optimizers; the
    dense passes are the out-of-place oracles, the grad norms one sum per array.
    """
    with mock.patch.object(DenseNet, "forward_cached", dense_forward_reference), mock.patch.object(
        DenseNet, "backward", dense_backward_reference
    ):
        adv = batch.advantages
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        S, n = batch.n_steps, batch.n_agents
        obs_flat = batch.obs.reshape(S * n, -1)
        act_flat = batch.actions.reshape(S * n, -1)
        lp_flat = batch.log_prob_old.reshape(S * n)
        mu_flat = batch.mu_old.reshape(S * n, -1)
        adv_flat = np.repeat(adv, n)
        actor_snapshot = [p.copy() for p in actor.params()]
        critic_snapshot = [p.copy() for p in critic.params()]
        theta_snapshot = critic.spec.theta.copy() if critic.kind == "quantum" else None
        stats = UpdateStats(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        n_actor_mb = n_critic_mb = 0
        try:
            for _ in range(cfg.epochs):
                order = shuffle_rng.permutation(S * n)
                for lo in range(0, S * n, cfg.minibatch_size):
                    idx = order[lo : lo + cfg.minibatch_size]
                    res = actor_loss_and_grads_reference(
                        actor, obs_flat[idx], act_flat[idx], lp_flat[idx], adv_flat[idx], mu_flat[idx],
                        batch.log_std_old, cfg,
                    )
                    if res is None:
                        stats.skipped_minibatches += 1
                        continue
                    loss, grads, mb_stats = res
                    if not np.isfinite(loss):
                        raise TrainingError("non-finite actor loss")
                    stats.actor_grad_norm += actor_opt.step(actor.params(), grads)
                    stats.actor_loss += loss
                    stats.kl += mb_stats["kl"]
                    stats.clip_frac += mb_stats["clip_frac"]
                    stats.entropy = mb_stats["entropy"]
                    n_actor_mb += 1
                step_order = shuffle_rng.permutation(S)
                for lo in range(0, S, cfg.minibatch_size):
                    idx = step_order[lo : lo + cfg.minibatch_size]
                    loss, grads = critic_loss_and_grads_reference(
                        critic, batch.global_obs[idx], batch.returns[idx], batch.values[idx], cfg
                    )
                    if not np.isfinite(loss):
                        raise TrainingError("non-finite critic loss")
                    stats.critic_grad_norm += critic_opt.step(critic.params(), grads)
                    stats.critic_loss += loss
                    n_critic_mb += 1
        except TrainingError:
            for p, snap in zip(actor.params(), actor_snapshot):
                p[...] = snap
            for p, snap in zip(critic.params(), critic_snapshot):
                p[...] = snap
            if theta_snapshot is not None:
                critic.spec.theta = theta_snapshot
            stats.aborted = True
            return stats
    if n_actor_mb:
        stats.actor_loss /= n_actor_mb
        stats.kl /= n_actor_mb
        stats.clip_frac /= n_actor_mb
        stats.actor_grad_norm /= n_actor_mb
    if n_critic_mb:
        stats.critic_loss /= n_critic_mb
        stats.critic_grad_norm /= n_critic_mb
    return stats


@settings(max_examples=30, deadline=None)
@given(
    solution=st.sampled_from(["NN-4", "VQC-1A", "VQC-2N"]),
    steps=st.integers(2, 40),
    minibatch_size=st.integers(3, 70),
    epochs=st.integers(1, 3),
    n_updates=st.integers(1, 3),
    lr=st.sampled_from([1e-4, 3e-3, 3e-2]),
    seed=st.integers(0, 2**31 - 1),
)
def test_update_equals_the_pre_change_reference(solution, steps, minibatch_size, epochs, n_updates, lr, seed):
    # the last actor minibatch is shorter than the rest
    assume((4 * steps) % minibatch_size != 0)
    cfg = cfg_4a1s()
    tcfg = TrainerConfig(rollout_steps=steps, epochs=epochs, minibatch_size=minibatch_size, lr=lr)

    def make_trainer():
        critic = build_critic(solution, "4a1s", cfg.global_obs_dim, np.random.default_rng(seed), lr=lr, spsa_seed=seed)
        return Trainer(cfg, critic, tcfg, seed=seed)

    trainer, oracle = make_trainer(), make_trainer()
    actor_opt = AdamReference(oracle.actor.params(), lr=lr)
    critic_opt = AdamReference(oracle.critic.params(), lr=lr)
    batch, _ = collect_rollout(None, cfg, trainer.actor, trainer.critic, steps, trainer.rollout_rng, seed, 0, tcfg)
    for _ in range(n_updates):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = trainer.update(batch)
            want = update_reference(oracle.actor, oracle.critic, actor_opt, critic_opt, oracle.shuffle_rng, tcfg, batch)
        for field in dataclasses.fields(UpdateStats):
            g, w = getattr(got, field.name), getattr(want, field.name)
            if field.name.endswith("grad_norm"):
                assert g == pytest.approx(w, rel=1e-12, abs=0.0), field.name
            else:
                assert g == w, field.name
        params = trainer.actor.params() + trainer.critic.params()
        oracle_params = oracle.actor.params() + oracle.critic.params()
        assert all(np.array_equal(p, q) for p, q in zip(params, oracle_params, strict=True))
        if trainer.critic.kind == "quantum":
            assert np.array_equal(trainer.critic.spec.theta, oracle.critic.spec.theta)
            assert trainer.critic.spsa.k == oracle.critic.spsa.k
        for opt, ref in ((trainer.actor_opt, actor_opt), (trainer.critic_opt, critic_opt)):
            assert opt.t == ref.t
            assert np.array_equal(opt.m, flat(ref.m)) and np.array_equal(opt.v, flat(ref.v))


class TestEvaluate:
    def test_perfect_policy_reaches_bound(self):
        # trivially connectable layout: huge comm range, any policy connects
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=5.0, horizon=10)
        rng = np.random.default_rng(14)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (4,), rng)
        mean, std = evaluate(actor, cfg, n_episodes=3, seed=0)
        assert mean == pytest.approx(cfg.horizon * cfg.n_aircraft)

    def test_deterministic_and_critic_free(self):
        import inspect

        cfg = cfg_4a1s()
        rng = np.random.default_rng(15)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        a = evaluate(actor, cfg, n_episodes=4, seed=3)
        b = evaluate(actor, cfg, n_episodes=4, seed=3)
        assert a == b
        # CTDE boundary: the evaluation interface has no critic parameter
        assert "critic" not in inspect.signature(evaluate).parameters

    def test_equals_one_episode_at_a_time_across_a_block_boundary(self):
        cfg = cfg_4a1s(horizon=6)
        actor = GaussianPolicyHead.load(COMMITTED_ACTOR)
        n_episodes = EPISODE_BLOCK + 1
        seeds = [9 + EVAL_SEED_STRIDE * ep for ep in range(n_episodes)]
        crs = [episode_cr_alone(cfg, seed, lambda obs, t: actor.mean(obs)) for seed in seeds]
        assert evaluate(actor, cfg, n_episodes, seed=9) == (float(np.mean(crs)), float(np.std(crs)))

    def test_actions_come_from_one_forward_pass_per_episode(self, monkeypatch):
        # on trained weights a single forward pass over the folded (b * n_aircraft)
        # rows rounds differently from b per-episode passes; curves use the latter
        import fanetq.mappo as mappo

        cfg = cfg_4a1s()
        actor = GaussianPolicyHead.load(COMMITTED_ACTOR)
        obs = np.random.default_rng(23).uniform(-1.0, 1.0, size=(EPISODE_BLOCK, cfg.n_aircraft, cfg.obs_dim))
        actions = []

        def spy(world, steps, cfg, policy):
            actions.append(policy(obs, 0))
            return world, None, np.zeros(world.vel.shape[:-2] + (steps,))

        monkeypatch.setattr(mappo, "step_episodes", spy)
        evaluate(actor, cfg, n_episodes=3, seed=0)
        assert np.array_equal(actions[0], np.stack([actor.mean(o) for o in obs]))

    def test_a_sequence_of_seeds_equals_one_call_per_seed(self):
        # 3 x 30 episodes cross a block boundary inside the second seed's episodes
        cfg = cfg_4a1s(horizon=6)
        actor = GaussianPolicyHead.load(COMMITTED_ACTOR)
        seeds = [9, 70_001, 9]
        assert 3 * 30 > EPISODE_BLOCK > 30
        assert evaluate(actor, cfg, 30, seeds) == [evaluate(actor, cfg, 30, seed) for seed in seeds]

    @pytest.mark.parametrize("points", [1, 2, 3])
    def test_an_update_evaluates_every_point_it_crosses_in_one_call(self, points, monkeypatch):
        import fanetq.mappo as mappo

        cfg = cfg_4a1s()
        critic = build_critic("NN-4", "4a1s", cfg.global_obs_dim, np.random.default_rng(31))
        tcfg = TrainerConfig(rollout_steps=100 * points, eval_interval=100, eval_episodes=3)
        trainer = Trainer(cfg, critic, tcfg, seed=31)
        calls = []
        monkeypatch.setattr(mappo, "evaluate", lambda *args: calls.append(args) or evaluate(*args))
        curve = trainer.train(100 * points)
        ((_, _, n_episodes, seeds),) = calls
        assert n_episodes == 3 and len(seeds) == points
        assert [point["env_steps"] for point in curve] == [100 * (k + 1) for k in range(points)]
        for point, seed in zip(curve, seeds, strict=True):
            assert (point["cr_mean"], point["cr_std"]) == evaluate(trainer.actor, cfg, 3, seed)

    @pytest.mark.parametrize(
        "rollout_steps, calls",
        [(100, [(300, [100, 200, 300]), (500, [400, 500])]), (150, [(150, [100]), (400, [200, 300, 400])])],
    )
    def test_a_later_train_call_returns_only_the_points_it_crosses(self, rollout_steps, calls):
        cfg = cfg_4a1s()
        critic = build_critic("NN-4", "4a1s", cfg.global_obs_dim, np.random.default_rng(32))
        tcfg = TrainerConfig(rollout_steps=rollout_steps, eval_interval=100, eval_episodes=1)
        trainer = Trainer(cfg, critic, tcfg, seed=32)
        for total_steps, points in calls:
            assert [point["env_steps"] for point in trainer.train(total_steps)] == points

    @pytest.mark.parametrize(
        "obs_dim, action_dim, message",
        [
            (13, 4, "^the actor maps 13 observations to 4 actions, the scenario has 19 and 6$"),
            (19, 4, "^the actor maps 19 observations to 4 actions, the scenario has 19 and 6$"),
        ],
    )
    def test_refuses_an_actor_sized_for_another_scenario_naming_both(self, obs_dim, action_dim, message):
        # before any episode runs, not as the dense net's input-dim error or a broadcast failure
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.637)
        actor = GaussianPolicyHead.create(obs_dim, action_dim, (4,), np.random.default_rng(20))
        with pytest.raises(ConfigError, match=message):
            evaluate(actor, cfg, 2, 0)

    @pytest.mark.parametrize("n_episodes", [0, -1])
    def test_rejects_fewer_than_one_episode(self, n_episodes):
        cfg = cfg_4a1s()
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (4,), np.random.default_rng(20))
        with pytest.raises(ContractViolation, match="n_episodes"):
            evaluate(actor, cfg, n_episodes=n_episodes, seed=0)

    @pytest.mark.parametrize("n_episodes", [2.5, True])
    def test_rejects_an_episode_count_that_is_no_integer(self, n_episodes):
        cfg = cfg_4a1s()
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (4,), np.random.default_rng(20))
        with pytest.raises(ContractViolation, match="n_episodes must be an integer"):
            evaluate(actor, cfg, n_episodes=n_episodes, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, [], [3, True], [3, -1]])
    def test_rejects_a_seed_that_is_no_integer_in_range(self, seed):
        # refused here, not as numpy's ValueError or a bare TypeError, and True is not seed 1
        cfg = cfg_4a1s()
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (4,), np.random.default_rng(20))
        with pytest.raises(ContractViolation, match="^seed must be"):
            evaluate(actor, cfg, 2, seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_a_trainer_rejects_a_seed_that_is_no_integer_in_range(self, seed):
        # True would train as seed 1
        cfg = cfg_4a1s()
        critic = build_critic("NN-4", "4a1s", cfg.global_obs_dim, np.random.default_rng(0))
        with pytest.raises(ContractViolation, match="^seed must be"):
            Trainer(cfg, critic, seed=seed)

    @pytest.mark.parametrize("total_steps", [1000.5, 1000.0, True])
    def test_a_trainer_rejects_a_step_count_that_is_no_integer(self, total_steps):
        # 1000.5 failed as a bare TypeError inside the rollout, and True trained one step
        cfg = cfg_4a1s()
        critic = build_critic("NN-4", "4a1s", cfg.global_obs_dim, np.random.default_rng(0))
        trainer = Trainer(cfg, critic, seed=0)
        with pytest.raises(ContractViolation, match="^total_steps must be an integer"):
            trainer.train(total_steps)
        assert trainer.env_steps == 0 and trainer.world is None

    def test_reproducible_training_curve(self):
        cfg = cfg_4a1s()

        def run():
            rng = np.random.default_rng([7, 2])
            critic = build_critic("NN-4", "4a1s", cfg.global_obs_dim, rng)
            tcfg = TrainerConfig(rollout_steps=500, eval_interval=500, eval_episodes=2)
            trainer = Trainer(cfg, critic, tcfg, seed=7)
            return trainer.train(2000)

        c1, c2 = run(), run()
        assert c1 == c2
