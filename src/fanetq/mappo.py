"""Centralized-training / decentralized-execution MAPPO.

A parameter-shared Gaussian actor acts on local observations; a centralized
critic (classical or quantum-core) values the concatenated global
observation during training only.  Losses follow the clipped-surrogate /
clipped-value scheme with an entropy bonus and a KL penalty against the
rollout policy; two optimizers run side by side (Adam for everything
classical, the SPSA rule inside the quantum critic for circuit weights).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .env import EPISODE_BLOCK, FanetEnv, ScenarioConfig, WorldState, init_world
from .env import run_episodes, stack_worlds, step_episodes
from .errors import ContractViolation, TrainingError
from .nets import Adam, GaussianPolicyHead

ACTOR_HIDDEN = (64, 64)
EPISODE_SEED_STRIDE = 1_000_003
EVAL_SEED_STRIDE = 7_919


@dataclass
class TrainerConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.99
    clip_eps: float = 0.2
    entropy_coeff: float = 0.01
    kl_coeff: float = 0.2
    lr: float = 1e-4
    rollout_steps: int = 2000
    epochs: int = 5
    minibatch_size: int = 256
    eval_interval: int = 1000
    eval_episodes: int = 5

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 1.0:
            raise ContractViolation("clip_eps must be in (0, 1)")
        for name in ("gamma", "gae_lambda", "entropy_coeff", "kl_coeff", "lr"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be non-negative")


@dataclass
class RolloutBatch:
    """Per-step arrays; the agent axis sits second where it exists."""

    obs: np.ndarray          # (S, n, obs_dim)
    global_obs: np.ndarray   # (S, n * obs_dim)
    actions: np.ndarray      # (S, n, act_dim)
    log_prob_old: np.ndarray # (S, n)
    mu_old: np.ndarray       # (S, n, act_dim)
    log_std_old: np.ndarray  # (act_dim,)
    rewards: np.ndarray      # (S,) global scalar reward
    values: np.ndarray       # (S,)
    dones: np.ndarray        # (S,)
    advantages: np.ndarray   # (S,)
    returns: np.ndarray      # (S,)

    @property
    def n_steps(self) -> int:
        return self.obs.shape[0]

    @property
    def n_agents(self) -> int:
        return self.obs.shape[1]


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    bootstrap: float | np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over episode segments along the last axis.

    delta_t = r_t + gamma V_{t+1} - V_t with V_T = bootstrap (a scalar or
    one per segment); A_t = sum_l (gamma lam)^l delta_{t+l}; returns are A + V.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape:
        raise ContractViolation("rewards and values must align")
    adv = np.empty_like(rewards)
    next_value = bootstrap
    running = 0.0
    for t in range(rewards.shape[-1] - 1, -1, -1):
        delta = rewards[..., t] + gamma * next_value - values[..., t]
        running = delta + gamma * lam * running
        adv[..., t] = running
        next_value = values[..., t]
    return adv, adv + values


def collect_rollout(
    env: FanetEnv,
    actor: GaussianPolicyHead,
    critic,
    steps: int,
    rng: np.random.Generator,
    base_seed: int,
    episode_counter: int,
    cfg: TrainerConfig,
) -> tuple[RolloutBatch, int]:
    """Gather ``steps`` env steps in episode order, computing GAE per episode segment.

    Episodes reset with seeds derived from (base_seed, episode index).  The
    episode ``env`` carries over and a tail cut at the rollout boundary step
    alone, whole episodes in blocks of up to EPISODE_BLOCK; every field
    equals that of stepping one episode at a time.  A cut tail bootstraps
    with the critic value of its next observation and stays in ``env``.
    """
    if steps < 1:
        raise ContractViolation("steps must be positive")
    horizon = env.cfg.horizon
    if env.world is None or env.t >= horizon:
        env.reset(base_seed + EPISODE_SEED_STRIDE * episode_counter)
        episode_counter += 1
    plan, world = [], env.world  # (start world, steps) per episode
    while steps > 0:
        k = min(steps, horizon - world.t)
        plan.append((world, k))
        steps -= k
        if world.t + k == horizon:  # the counter runs one episode ahead, as env resets at once
            world = init_world(env.cfg, base_seed + EPISODE_SEED_STRIDE * episode_counter)
            episode_counter += 1
    parts = []
    for (_, k), group in itertools.groupby(plan, key=lambda p: (p[0].t, p[1])):
        worlds = [w for w, _ in group]
        for lo in range(0, len(worlds), EPISODE_BLOCK):
            block = stack_worlds(worlds[lo : lo + EPISODE_BLOCK])
            end, part = _rollout_block(block, k, env.cfg, actor, critic, rng, cfg)
            parts.append(part)
    env.world = world if end.t == horizon else WorldState(end.t, end.pos[0], end.vel[0], end.n_aircraft, end.links[0])
    fields = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    global_obs = fields["obs"].reshape(len(fields["obs"]), -1)
    return RolloutBatch(global_obs=global_obs, log_std_old=actor.log_std.copy(), **fields), episode_counter


def _rollout_block(world, k, scenario, actor, critic, rng, cfg) -> tuple[WorldState, dict]:
    """Step b episodes at the same t k steps; returns the end world and the (b * k, ...) batch fields.

    The action noise comes in one episode-major draw, the same stream as one draw per step.
    """
    b, t0 = world.pos.shape[0], world.t
    noise = rng.standard_normal((b, k, scenario.n_aircraft, scenario.action_dim))
    obs = np.empty((b, k, scenario.n_aircraft, scenario.obs_dim))
    mu, actions, std = np.empty_like(noise), np.empty_like(noise), np.exp(actor.log_std)

    def policy(o, t):
        obs[:, t - t0], mu[:, t - t0] = o, actor.mean(o)  # one stacked actor pass per step
        actions[:, t - t0] = mu[:, t - t0] + std * noise[:, t - t0]
        return actions[:, t - t0]

    world, last_obs, rewards = step_episodes(world, k, scenario, policy)
    values = np.stack([critic.value(g) for g in obs.reshape(b, k, -1)])  # one critic pass per episode
    done = world.t == scenario.horizon
    bootstrap = 0.0 if done else critic.value(last_obs.reshape(b, -1))
    advantages, returns = gae(rewards, values, bootstrap, cfg.gamma, cfg.gae_lambda)
    dones = np.broadcast_to((np.arange(k) == k - 1) & done, (b, k))
    fields = dict(obs=obs, actions=actions, log_prob_old=actor._log_prob(mu, actions), mu_old=mu, rewards=rewards,
                  values=values, dones=dones, advantages=advantages, returns=returns)
    return world, {name: a.reshape((b * k,) + a.shape[2:]) for name, a in fields.items()}


def _actor_loss_and_grads(actor, obs, actions, log_prob_old, advantages, mu_old, log_std_old, cfg):
    """Clipped-surrogate actor objective, arranged for descent, and its gradients.

    loss = -mean(min(r A, clip(r) A)) - entropy_coeff * S
           + kl_coeff * mean(KL(old || new)).
    Returns (loss, grads in params() order, stats), or None when a ratio is
    non-finite.
    """
    m = obs.shape[0]
    lp_new, mu_new, cache = actor.log_prob_cached(obs, actions)
    ratio = np.exp(lp_new - log_prob_old)
    if not np.all(np.isfinite(ratio)):
        return None  # caller skips this minibatch
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    unclipped_term = ratio * advantages
    clipped_term = clipped * advantages
    surr = np.minimum(unclipped_term, clipped_term)
    inside = (ratio > 1.0 - cfg.clip_eps) & (ratio < 1.0 + cfg.clip_eps)
    active = (unclipped_term <= clipped_term) | inside
    d_lp = -(active * ratio * advantages) / m

    var = np.exp(2.0 * actor.log_std)
    var_old = np.exp(2.0 * log_std_old)
    kl = actor.kl_divergence(mu_old, log_std_old, mu_new)
    d_mu_kl = cfg.kl_coeff / m * (mu_new - mu_old) / var
    grads = actor.backward_log_prob(cache, mu_new, actions, d_lp, d_mu_kl)
    d_log_std = grads[-1]
    d_log_std -= cfg.entropy_coeff
    d_log_std += cfg.kl_coeff / m * (1.0 - (var_old + (mu_old - mu_new) ** 2) / var).sum(axis=0)

    loss = float(-surr.mean() - cfg.entropy_coeff * actor.entropy() + cfg.kl_coeff * kl.mean())
    stats = {"kl": float(kl.mean()), "entropy": actor.entropy(), "clip_frac": float((~active).mean())}
    return loss, grads, stats


def _value_objective(v: np.ndarray, returns: np.ndarray, values_old: np.ndarray, eps: float) -> float:
    """Clipped value objective: mean of max(unclipped, clipped) squared errors."""
    clipped = np.clip(v, values_old - eps, values_old + eps)
    return float(np.mean(np.maximum((v - returns) ** 2, (clipped - returns) ** 2)))


def _critic_loss_and_grads(critic, global_obs, returns, values_old, cfg):
    m = global_obs.shape[0]
    v, cache = critic.value_cached(global_obs)

    def loss_fn(values: np.ndarray) -> float:
        return _value_objective(values, returns, values_old, cfg.clip_eps)

    loss = loss_fn(v)
    clipped = np.clip(v, values_old - cfg.clip_eps, values_old + cfg.clip_eps)
    take_unclipped = (v - returns) ** 2 >= (clipped - returns) ** 2
    inside = (v > values_old - cfg.clip_eps) & (v < values_old + cfg.clip_eps)
    d_v = np.where(
        take_unclipped,
        2.0 * (v - returns),
        np.where(inside, 2.0 * (clipped - returns), 0.0),
    ) / m
    grads = critic.backward(cache, d_v, loss_fn, loss)
    return loss, grads


def evaluate(actor: GaussianPolicyHead, cfg: ScenarioConfig, n_episodes: int, seed: int) -> tuple[float, float]:
    """Deterministic-mean-action episode CR statistics.

    Execution is decentralized: only local observations reach the actor,
    and no critic (hence no global observation) exists here.  CR per
    episode is the sum over steps of connected-aircraft counts.
    """
    if n_episodes < 1:
        raise ContractViolation("n_episodes must be positive")
    seeds = range(seed, seed + EVAL_SEED_STRIDE * n_episodes, EVAL_SEED_STRIDE)
    # one stacked pass; a folded (b * n_aircraft) batch would accumulate in another order
    crs = run_episodes(cfg, seeds, lambda obs, t: actor.mean(obs))
    return float(crs.mean()), float(crs.std())


@dataclass
class UpdateStats:
    actor_loss: float
    critic_loss: float
    kl: float
    clip_frac: float
    entropy: float
    actor_grad_norm: float
    critic_grad_norm: float
    skipped_minibatches: int = 0
    aborted: bool = False


def _grad_norm(grads: list[np.ndarray]) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


class Trainer:
    """Owns the actor, critic, optimizers and the training/evaluation loop."""

    def __init__(
        self,
        scenario_cfg: ScenarioConfig,
        critic,
        cfg: TrainerConfig | None = None,
        seed: int = 0,
    ):
        self.scenario_cfg = scenario_cfg
        self.cfg = cfg or TrainerConfig()
        self.seed = seed
        self.env = FanetEnv(scenario_cfg)
        actor_rng = np.random.default_rng([seed, 0])
        self.actor = GaussianPolicyHead.create(
            scenario_cfg.obs_dim, scenario_cfg.action_dim, ACTOR_HIDDEN, actor_rng
        )
        self.critic = critic
        self.actor_opt = Adam(self.actor.params(), lr=self.cfg.lr)
        self.critic_opt = Adam(critic.adam_params(), lr=self.cfg.lr)
        self.rollout_rng = np.random.default_rng([seed, 1])
        self.shuffle_rng = np.random.default_rng([seed, 2])
        self.episode_counter = 0
        self.env_steps = 0
        self.last_stats: UpdateStats | None = None

    def update(self, batch: RolloutBatch) -> UpdateStats:
        """One MAPPO update: epochs of shuffled minibatches on both losses.

        Advantages are normalized once per update.  Non-finite ratios skip a
        minibatch with a warning; a non-finite loss aborts the whole update
        and restores the pre-update parameters.
        """
        cfg = self.cfg
        adv = batch.advantages
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        S, n = batch.n_steps, batch.n_agents
        obs_flat = batch.obs.reshape(S * n, -1)
        act_flat = batch.actions.reshape(S * n, -1)
        lp_flat = batch.log_prob_old.reshape(S * n)
        mu_flat = batch.mu_old.reshape(S * n, -1)
        adv_flat = np.repeat(adv, n)

        actor_snapshot = [p.copy() for p in self.actor.params()]
        critic_snapshot = [p.copy() for p in self.critic.adam_params()]
        theta_snapshot = (
            self.critic.spec.theta.copy() if self.critic.kind == "quantum" else None
        )

        stats = UpdateStats(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        n_actor_mb = 0
        n_critic_mb = 0
        try:
            for _ in range(cfg.epochs):
                order = self.shuffle_rng.permutation(S * n)
                for lo in range(0, S * n, cfg.minibatch_size):
                    idx = order[lo : lo + cfg.minibatch_size]
                    res = _actor_loss_and_grads(
                        self.actor,
                        obs_flat[idx],
                        act_flat[idx],
                        lp_flat[idx],
                        adv_flat[idx],
                        mu_flat[idx],
                        batch.log_std_old,
                        cfg,
                    )
                    if res is None:
                        stats.skipped_minibatches += 1
                        warnings.warn("skipped actor minibatch: non-finite ratio", RuntimeWarning)
                        continue
                    loss, grads, mb_stats = res
                    if not np.isfinite(loss):
                        raise TrainingError("non-finite actor loss")
                    self.actor_opt.step(self.actor.params(), grads)
                    stats.actor_loss += loss
                    stats.kl += mb_stats["kl"]
                    stats.clip_frac += mb_stats["clip_frac"]
                    stats.entropy = mb_stats["entropy"]
                    stats.actor_grad_norm += _grad_norm(grads)
                    n_actor_mb += 1

                step_order = self.shuffle_rng.permutation(S)
                for lo in range(0, S, cfg.minibatch_size):
                    idx = step_order[lo : lo + cfg.minibatch_size]
                    loss, grads = _critic_loss_and_grads(
                        self.critic,
                        batch.global_obs[idx],
                        batch.returns[idx],
                        batch.values[idx],
                        cfg,
                    )
                    if not np.isfinite(loss):
                        raise TrainingError("non-finite critic loss")
                    self.critic_opt.step(self.critic.adam_params(), grads)
                    stats.critic_loss += loss
                    stats.critic_grad_norm += _grad_norm(grads)
                    n_critic_mb += 1
        except TrainingError as exc:
            for p, snap in zip(self.actor.params(), actor_snapshot):
                p[...] = snap
            for p, snap in zip(self.critic.adam_params(), critic_snapshot):
                p[...] = snap
            if theta_snapshot is not None:
                self.critic.spec.theta = theta_snapshot
            warnings.warn(f"update aborted, parameters restored: {exc}", RuntimeWarning)
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

    def train(self, total_steps: int, on_eval=None) -> list[dict]:
        """Run rollout/update cycles for ``total_steps`` env steps.

        Evaluates the deterministic policy every ``eval_interval`` env steps
        (one evaluation per crossed boundary) and returns the curve as a
        list of {env_steps, cr_mean, cr_std, actor_loss, critic_loss} dicts.
        ``on_eval(point)`` is called after each evaluation.
        """
        cfg = self.cfg
        curve: list[dict] = []
        next_eval = cfg.eval_interval
        while self.env_steps < total_steps:
            steps = min(cfg.rollout_steps, total_steps - self.env_steps)
            batch, self.episode_counter = collect_rollout(
                self.env,
                self.actor,
                self.critic,
                steps,
                self.rollout_rng,
                self.seed,
                self.episode_counter,
                cfg,
            )
            self.env_steps += steps
            self.last_stats = self.update(batch)
            while next_eval <= self.env_steps:
                eval_seed = int(np.random.default_rng([self.seed, 3, next_eval]).integers(0, 2**31 - 1))
                cr_mean, cr_std = evaluate(self.actor, self.scenario_cfg, cfg.eval_episodes, eval_seed)
                point = {
                    "env_steps": next_eval,
                    "cr_mean": cr_mean,
                    "cr_std": cr_std,
                    "actor_loss": self.last_stats.actor_loss,
                    "critic_loss": self.last_stats.critic_loss,
                }
                curve.append(point)
                if on_eval is not None:
                    on_eval(point)
                next_eval += cfg.eval_interval
        return curve
