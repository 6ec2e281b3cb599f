"""MAPPO: GAE, losses vs per-sample oracles, rollouts, update mechanics."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanetq.critics import ClassicalCritic, QuantumCritic, build_critic
from fanetq.env import EPISODE_BLOCK, FanetEnv, ScenarioConfig, observe_all
from fanetq.errors import ContractViolation
from fanetq.mappo import (
    EPISODE_SEED_STRIDE,
    EVAL_SEED_STRIDE,
    RolloutBatch,
    Trainer,
    TrainerConfig,
    collect_rollout,
    evaluate,
    gae,
    _actor_loss_and_grads,
    _critic_loss_and_grads,
)
from fanetq.nets import GaussianPolicyHead

from tests.test_env import episode_cr_alone


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
    lp_new = actor.log_prob(obs, actions)
    ratio = np.exp(lp_new - log_prob_old)
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    surr = np.minimum(ratio * advantages, clipped * advantages)
    mu_new = actor.mean_net.forward(obs)
    kl = actor.kl_divergence(mu_old, log_std_old, mu_new).mean()
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
        lp = float(actor.log_prob(obs[i], acts[i]))
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
        lp_old = self.actor.log_prob(self.obs, self.acts)
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
        lp_old = self.actor.log_prob(obs, acts) - 2.0  # new/old ratio = e^2 >> 1+eps
        adv = np.ones(4)
        mu_old = self.actor.mean_net.forward(obs)
        cfg = TrainerConfig(entropy_coeff=0.0, kl_coeff=0.0)
        loss, grads, _ = _actor_loss_and_grads(
            self.actor, obs, acts, lp_old, adv, mu_old, self.actor.log_std.copy(), cfg
        )
        for g in grads:
            assert np.abs(g).max() < 1e-12

    def test_matches_per_sample_oracle(self):
        for trial in range(10):
            lp_old = self.actor.log_prob(self.obs, self.acts) + 0.1 * self.rng.standard_normal(16)
            mu_old = self.actor.mean_net.forward(self.obs) + 0.1 * self.rng.standard_normal((16, 3))
            ls_old = self.actor.log_std + 0.05 * self.rng.standard_normal(3)
            got = actor_loss(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, self.cfg)
            want = naive_actor_loss(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, self.cfg)
            assert got == pytest.approx(want, abs=1e-10)

    def test_gradients_match_finite_differences(self):
        from tests.test_nets import finite_difference_check

        lp_old = self.actor.log_prob(self.obs, self.acts) + 0.05 * self.rng.standard_normal(16)
        mu_old = self.actor.mean_net.forward(self.obs) + 0.05 * self.rng.standard_normal((16, 3))
        ls_old = self.actor.log_std + 0.02

        def loss():
            return actor_loss(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, self.cfg)

        _, grads, _ = _actor_loss_and_grads(
            self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, self.cfg
        )
        finite_difference_check(loss, self.actor.params(), grads, self.rng, n_coords=5)

    def test_clip_inert_with_infinite_epsilon(self):
        # with the clip range blown up the clipped losses equal plain PPO ones
        from types import SimpleNamespace

        lp_old = self.actor.log_prob(self.obs, self.acts) + self.rng.standard_normal(16)
        mu_old = self.actor.mean_net.forward(self.obs)
        ls_old = self.actor.log_std.copy()
        wide = SimpleNamespace(clip_eps=1e12, entropy_coeff=0.0, kl_coeff=0.0)
        got = actor_loss(self.actor, self.obs, self.acts, lp_old, self.adv, mu_old, ls_old, wide)
        lp_new = self.actor.log_prob(self.obs, self.acts)
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

        _, grads = _critic_loss_and_grads(self.critic, self.O, returns, v_old, self.cfg)
        finite_difference_check(loss, self.critic.adam_params(), grads, self.rng, n_coords=5)


def collect_rollout_serial(env, actor, critic, steps, rng, base_seed, episode_counter, cfg):
    """Oracle rollout: one FanetEnv episode, one step and one GaussianPolicyHead.sample at a time.

    GAE runs per segment: each finished episode bootstraps with 0, a segment
    cut at the rollout boundary with the critic value of its next
    observation.  The env resets right after an episode ends, so the counter
    runs one episode ahead.  collect_rollout must match it bit for bit.
    """
    obs_l, gobs_l, act_l, lp_l, mu_l, rew_l, done_l = [], [], [], [], [], [], []

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
        action, log_prob, mu = actor.sample(obs, rng)

        next_obs, r, done = env.step(action)

        obs_l.append(obs)
        gobs_l.append(gobs)
        act_l.append(action)
        lp_l.append(log_prob)
        mu_l.append(mu)
        rew_l.append(r)
        done_l.append(done)

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
        dones=np.array(done_l, dtype=bool),
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
    env, oracle_env = FanetEnv(cfg), FanetEnv(cfg)
    rollout_rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    counter = oracle_counter = 3
    for steps in lengths:
        batch, counter = collect_rollout(env, actor, critic, steps, rollout_rng, seed, counter, tcfg)
        want, oracle_counter = collect_rollout_serial(
            oracle_env, actor, critic, steps, oracle_rng, seed, oracle_counter, tcfg
        )
        assert_same_batch(batch, want)
        assert counter == oracle_counter and env.t == oracle_env.t
        assert np.array_equal(env.world.pos, oracle_env.world.pos)
        assert np.array_equal(env.world.links, oracle_env.world.links)
        for p in actor.params():
            p += 0.05 * rng.standard_normal(p.shape)


class TestRollout:
    def test_record_counts_and_shapes(self):
        cfg = cfg_4a1s()
        env = FanetEnv(cfg)
        rng = np.random.default_rng(5)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        tcfg = TrainerConfig()
        batch, counter = collect_rollout(env, actor, critic, 50, rng, 0, 0, tcfg)
        assert batch.n_steps == 50
        assert batch.n_agents == 4
        assert batch.obs.shape == (50, 4, 13)
        assert batch.global_obs.shape == (50, 52)
        assert batch.actions.shape == (50, 4, 4)
        # one episode consumed, plus the reset pre-seeding the next rollout
        assert counter == 2

    def test_log_prob_self_consistency(self):
        cfg = cfg_4a1s()
        env = FanetEnv(cfg)
        rng = np.random.default_rng(6)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        batch, _ = collect_rollout(env, actor, critic, 30, rng, 0, 0, TrainerConfig())
        for t in range(30):
            recomputed = actor.log_prob(batch.obs[t], batch.actions[t])
            assert np.abs(recomputed - batch.log_prob_old[t]).max() < 1e-12

    def test_actions_come_from_the_policy_sampler(self):
        # one rollout step draws exactly what GaussianPolicyHead.sample draws
        cfg = cfg_4a1s()
        env = FanetEnv(cfg)
        rng = np.random.default_rng(17)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        batch, _ = collect_rollout(env, actor, critic, 3, np.random.default_rng(18), 0, 0, TrainerConfig())
        sample_rng = np.random.default_rng(18)
        for t in range(3):
            action, log_prob, mu = actor.sample(batch.obs[t], sample_rng)
            assert np.array_equal(action, batch.actions[t])
            assert np.array_equal(log_prob, batch.log_prob_old[t])
            assert np.array_equal(mu, batch.mu_old[t])

    def test_rejects_an_empty_rollout(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(21)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        with pytest.raises(ContractViolation, match="steps"):
            collect_rollout(FanetEnv(cfg), actor, critic, 0, rng, 0, 0, TrainerConfig())

    def test_batch_requires_advantages_and_returns(self):
        z = np.zeros(1)
        with pytest.raises(TypeError):
            RolloutBatch(z, z, z, z, z, z, z, z, z)  # advantages and returns missing

    def test_global_observation_dimensions(self):
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.637)
        env = FanetEnv(cfg)
        rng = np.random.default_rng(7)
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (8,), rng)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        batch, _ = collect_rollout(env, actor, critic, 10, rng, 0, 0, TrainerConfig())
        assert batch.global_obs.shape[1] == 95

    def test_advantages_normalize_in_update(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(8)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=100, minibatch_size=64), seed=0)
        batch, trainer.episode_counter = collect_rollout(
            trainer.env, trainer.actor, trainer.critic, 100, trainer.rollout_rng, 0, 0, trainer.cfg
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
            trainer.env, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 1, 0, trainer.cfg
        )
        lp_new = trainer.actor.log_prob(
            batch.obs.reshape(-1, cfg.obs_dim), batch.actions.reshape(-1, cfg.action_dim)
        )
        ratio = np.exp(lp_new - batch.log_prob_old.reshape(-1))
        assert np.abs(ratio - 1.0).max() < 1e-10

    def test_zero_advantage_moves_params_only_via_entropy_and_kl(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(10)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        tcfg = TrainerConfig(rollout_steps=50, epochs=1, minibatch_size=200)
        trainer = Trainer(cfg, critic, tcfg, seed=2)
        batch, _ = collect_rollout(
            trainer.env, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 2, 0, trainer.cfg
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
            trainer.env, trainer.actor, trainer.critic, 100, trainer.rollout_rng, 3, 0, trainer.cfg
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
            trainer.env, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 4, 0, trainer.cfg
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
        loss, _ = _critic_loss_and_grads(critic, global_obs, returns, values_old, TrainerConfig())
        # the returned loss, then the two perturbed SPSA losses; the center is not computed again
        assert len(calls) == 3 and calls[0] == loss

    def test_aborted_update_restores_parameters(self):
        cfg = cfg_4a1s()
        rng = np.random.default_rng(13)
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, rng)
        trainer = Trainer(cfg, critic, TrainerConfig(rollout_steps=50, epochs=1, minibatch_size=50), seed=5)
        batch, _ = collect_rollout(
            trainer.env, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 5, 0, trainer.cfg
        )
        batch.returns[:] = np.nan  # poisons the critic loss
        before_actor = [p.copy() for p in trainer.actor.params()]
        before_critic = [p.copy() for p in critic.adam_params()]
        with pytest.warns(RuntimeWarning):
            stats = trainer.update(batch)
        assert stats.aborted
        for p, b in zip(trainer.actor.params(), before_actor):
            assert np.array_equal(p, b)
        for p, b in zip(critic.adam_params(), before_critic):
            assert np.array_equal(p, b)

    def test_clip_frac_is_the_mean_over_actor_minibatches(self, monkeypatch):
        import fanetq.mappo as mappo

        seen = []
        inner = mappo._actor_loss_and_grads

        def spy(*args):
            res = inner(*args)
            seen.append(res[2]["clip_frac"])
            return res

        monkeypatch.setattr(mappo, "_actor_loss_and_grads", spy)
        cfg = cfg_4a1s()
        critic = ClassicalCritic.create(cfg.global_obs_dim, 4, np.random.default_rng(16))
        tcfg = TrainerConfig(rollout_steps=100, epochs=3, minibatch_size=64, lr=3e-3)
        trainer = Trainer(cfg, critic, tcfg, seed=6)
        batch, _ = collect_rollout(
            trainer.env, trainer.actor, trainer.critic, 100, trainer.rollout_rng, 6, 0, trainer.cfg
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
            trainer.env, trainer.actor, trainer.critic, 50, trainer.rollout_rng, 7, 0, trainer.cfg
        )
        assert trainer.update(batch).clip_frac == 0.0


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

        def spy(cfg, seeds, policy):
            actions.append(policy(obs, 0))
            return np.zeros(len(seeds))

        monkeypatch.setattr(mappo, "run_episodes", spy)
        evaluate(actor, cfg, n_episodes=3, seed=0)
        assert np.array_equal(actions[0], np.stack([actor.mean(o) for o in obs]))

    @pytest.mark.parametrize("n_episodes", [0, -1])
    def test_rejects_fewer_than_one_episode(self, n_episodes):
        cfg = cfg_4a1s()
        actor = GaussianPolicyHead.create(cfg.obs_dim, cfg.action_dim, (4,), np.random.default_rng(20))
        with pytest.raises(ContractViolation, match="n_episodes"):
            evaluate(actor, cfg, n_episodes=n_episodes, seed=0)

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
