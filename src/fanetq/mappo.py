"""Centralized-training / decentralized-execution MAPPO.

A parameter-shared Gaussian actor acts on local observations; a centralized
critic (classical or quantum-core) values the concatenated global
observation during training only.  Losses follow the clipped-surrogate /
clipped-value scheme with an entropy bonus and a KL penalty against the
rollout policy; two optimizers run side by side (Adam for everything
classical, the SPSA rule inside the quantum critic for circuit weights).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .env import EPISODE_BLOCK, ScenarioConfig, WorldState, init_world, run_episodes, step_episodes
from .errors import ConfigError, ContractViolation, TrainingError, check_int, check_seeds, is_finite_number
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
        for name in ("rollout_steps", "epochs", "minibatch_size", "eval_interval", "eval_episodes"):
            check_int(getattr(self, name), name, 1)
        for name in ("gamma", "gae_lambda", "clip_eps", "entropy_coeff", "kl_coeff", "lr"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ContractViolation(f"{name} must be a finite number, got {value!r}")
        if not 0.0 < self.clip_eps < 1.0:
            raise ContractViolation("clip_eps must be in (0, 1)")
        for name in ("gamma", "gae_lambda"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ContractViolation(f"{name} must be in [0, 1]")
        for name in ("entropy_coeff", "kl_coeff", "lr"):
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
    world: WorldState | None,
    scenario: ScenarioConfig,
    actor: GaussianPolicyHead,
    critic,
    steps: int,
    rng: np.random.Generator,
    base_seed: int,
    start: int,
    cfg: TrainerConfig,
) -> tuple[RolloutBatch, WorldState | None]:
    """Gather ``steps`` env steps from run step ``start``, computing GAE per episode segment.

    Run step s is step s % horizon of episode s // horizon, seeded base_seed + EPISODE_SEED_STRIDE * (s // horizon).
    ``world``, the episode the last rollout cut (a block of one), or None on an episode boundary, steps first, so
    its lk table carries on; then the whole episodes in blocks of up to EPISODE_BLOCK, then one cut tail.  Every
    field equals that of stepping one episode at a time.  A cut tail bootstraps with the critic value of its next
    observation and is returned as the next world; otherwise None is.  Each field is allocated once for the whole
    rollout and every block writes its rows into it, in run order; ``global_obs`` is a view of ``obs``.  The critic
    values each block in groups of max(1, minibatch_size // k) episodes of k steps, so no critic pass of a rollout
    covers more rows than a minibatch does (or than one episode, where that is longer).
    """
    if steps < 1:
        raise ContractViolation("steps must be positive")
    horizon, n, act_dim = scenario.horizon, scenario.n_aircraft, scenario.action_dim
    if (0 if world is None else world.t) != start % horizon:
        raise ContractViolation(f"run step {start} is not at the carried world's step")
    row_shapes = dict(obs=(n, scenario.obs_dim), actions=(n, act_dim), log_prob_old=(n,), mu_old=(n, act_dim),
                      rewards=(), values=(), advantages=(), returns=())
    fields = {name: np.empty((steps,) + shape) for name, shape in row_shapes.items()}
    plan = []  # (block, steps) in run order
    if world is not None:
        plan.append((world, min(steps, horizon - world.t)))
        start, steps = start + plan[0][1], steps - plan[0][1]
    whole, tail = divmod(steps, horizon)
    seeds = [base_seed + EPISODE_SEED_STRIDE * (start // horizon + i) for i in range(whole + (tail > 0))]
    for lo in range(0, whole, EPISODE_BLOCK):
        plan.append((init_world(scenario, seeds[lo : min(lo + EPISODE_BLOCK, whole)]), horizon))
    if tail:
        plan.append((init_world(scenario, seeds[-1:]), tail))
    lo = 0
    for block, k in plan:
        hi = lo + block.vel.shape[0] * k
        world = _rollout_block(block, k, scenario, actor, critic, rng, cfg, {f: a[lo:hi] for f, a in fields.items()})
        lo = hi
    batch = RolloutBatch(global_obs=fields["obs"].reshape(len(fields["obs"]), -1), log_std_old=actor.log_std.copy(), **fields)
    return batch, (world if world.t < horizon else None)


def _rollout_block(world, k, scenario, actor, critic, rng, cfg, out: dict) -> WorldState:
    """Step b episodes at the same t k steps into ``out``, the (b * k, ...) rows of each batch field; returns the
    end world.

    The rows are episode-major.  Obs, means and actions are written through the policy, step by step; the log
    probs, rewards, values, advantages and returns after GAE.  The action noise comes in one episode-major draw,
    the same stream as one draw per step.  The values come from one stacked critic pass per group of
    max(1, cfg.minibatch_size // k) episodes, each equal to one pass per episode.
    """
    b, t0 = world.vel.shape[0], world.t
    noise = rng.standard_normal((b, k, scenario.n_aircraft, scenario.action_dim))
    obs, mu, actions = (out[name].reshape((b, k) + out[name].shape[1:]) for name in ("obs", "mu_old", "actions"))
    std = np.exp(actor.log_std)

    def policy(o, t):
        obs[:, t - t0], mu[:, t - t0] = o, actor.mean(o)  # one stacked actor pass per step
        actions[:, t - t0] = mu[:, t - t0] + std * noise[:, t - t0]
        return actions[:, t - t0]

    world, last_obs, rewards = step_episodes(world, k, scenario, policy)
    global_obs, values = obs.reshape(b, k, -1), np.empty((b, k))
    group = max(1, cfg.minibatch_size // k)
    for lo in range(0, b, group):  # each stacked pass equals one pass per episode
        values[lo : lo + group] = critic.value(global_obs[lo : lo + group])
    bootstrap = 0.0 if world.t == scenario.horizon else critic.value(last_obs.reshape(b, -1))
    advantages, returns = gae(rewards, values, bootstrap, cfg.gamma, cfg.gae_lambda)
    out["log_prob_old"][...] = actor.log_prob_of(actions - mu).reshape(b * k, -1)
    for name, a in (("rewards", rewards), ("values", values), ("advantages", advantages), ("returns", returns)):
        out[name][...] = a.reshape(b * k)
    return world


def _actor_loss_and_grads(actor, obs, actions, log_prob_old, advantages, mu_old, log_std_old, cfg):
    """Clipped-surrogate actor objective, arranged for descent; its gradients go into ``actor.grad``.

    loss = -mean(min(r A, clip(r) A)) - entropy_coeff * S
           + kl_coeff * mean(KL(old || new)).
    Returns (loss, stats), or None when a ratio is non-finite.  The clip is
    minimum(maximum()), which equals np.clip on the finite ratios that reach
    it; each mean is add.reduce / m, as np.mean is.
    """
    m = obs.shape[0]
    lp_new, mu_new, cache = actor.log_prob_cached(obs, actions)
    ratio = np.exp(lp_new - log_prob_old)
    if not np.isfinite(ratio).all():
        return None  # caller skips this minibatch
    unclipped_term = ratio * advantages
    clipped_term = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps)
    clipped_term *= advantages
    surr = np.minimum(unclipped_term, clipped_term)
    active = unclipped_term <= clipped_term  # a ratio inside the clip range clips to itself, so the terms tie
    d_lp = -(active * ratio * advantages) / m

    kl, d_mu_kl, d_log_std_kl = actor.kl_divergence(mu_old, log_std_old, mu_new, cache[2], cfg.kl_coeff / m)
    actor.backward_log_prob(cache, d_lp, d_mu_kl)
    actor.log_std_grad -= cfg.entropy_coeff
    actor.log_std_grad += d_log_std_kl

    kl_mean, entropy = float(np.add.reduce(kl) / m), actor.entropy()
    loss = float(-(np.add.reduce(surr) / m) - cfg.entropy_coeff * entropy + cfg.kl_coeff * kl_mean)
    stats = {"kl": kl_mean, "entropy": entropy, "clip_frac": float(np.count_nonzero(~active) / m)}
    return loss, stats


def _value_objective(v: np.ndarray, returns: np.ndarray, values_old: np.ndarray, eps: float) -> float:
    """Clipped value objective: mean of max(unclipped, clipped) squared errors."""
    clipped = np.clip(v, values_old - eps, values_old + eps)
    return float(np.mean(np.maximum((v - returns) ** 2, (clipped - returns) ** 2)))


def _critic_loss_and_grads(critic, global_obs, returns, values_old, cfg) -> float:
    """The clipped value objective; its gradients go into ``critic.grad``.

    One mask gives dLoss/dV: the unclipped error where it is the larger one, else 0, since a clipped value
    outside the range does not move with V.  Inside the range np.clip returns V itself, so the two errors tie
    and the mask already takes the unclipped one.
    """
    m = global_obs.shape[0]
    v, cache = critic.value_cached(global_obs)

    def loss_fn(values: np.ndarray) -> float:
        return _value_objective(values, returns, values_old, cfg.clip_eps)

    loss = loss_fn(v)
    clipped = np.clip(v, values_old - cfg.clip_eps, values_old + cfg.clip_eps)
    d_v = np.where((v - returns) ** 2 >= (clipped - returns) ** 2, 2.0 * (v - returns), 0.0) / m
    critic.backward(cache, d_v, loss_fn, loss)
    return loss


def evaluate(actor: GaussianPolicyHead, cfg: ScenarioConfig, n_episodes: int, seed):
    """Deterministic-mean-action episode CR statistics, (mean, std).

    Execution is decentralized: only local observations reach the actor,
    and no critic (hence no global observation) exists here.  CR per
    episode is the sum over steps of connected-aircraft counts.  For a
    sequence of seeds, the episodes of all of them run as one block and
    the result is a list with one (mean, std) per seed, each equal to its
    own call.  An actor whose sizes are not the scenario's is a ConfigError.
    """
    if (sizes := (actor.mean_net.in_dim, actor.mean_net.out_dim)) != (cfg.obs_dim, cfg.action_dim):
        raise ConfigError(f"the actor maps {sizes[0]} observations to {sizes[1]} actions, "
                          f"the scenario has {cfg.obs_dim} and {cfg.action_dim}")
    check_int(n_episodes, "n_episodes", 1)
    seeds, single = check_seeds(seed)
    episode_seeds = [s + EVAL_SEED_STRIDE * ep for s in seeds for ep in range(n_episodes)]
    # one stacked pass; a folded (b * n_aircraft) batch would accumulate in another order
    crs = run_episodes(cfg, episode_seeds, lambda w: step_episodes(w, cfg.horizon, cfg, lambda o, t: actor.mean(o))[2])
    crs = crs.reshape(len(seeds), n_episodes)
    stats = [(float(row.mean()), float(row.std())) for row in crs]
    return stats[0] if single else stats


def _column_means(records: list[tuple], width: int) -> list[float]:
    """Per-column means of minibatch records, NaN for none; each column sums left to right from 0.0.

    That is the order of ``+=``; ``sum`` compensates float sums from Python 3.12 on.
    """
    totals = [0.0] * width
    for record in records:
        totals = [total + x for total, x in zip(totals, record)]
    return [total / len(records) for total in totals] if records else [math.nan] * width


@dataclass
class UpdateStats:
    """The means over the stepped minibatches of one update; ``entropy`` is the last actor minibatch's.

    An aborted update was rolled back, so every float field is NaN.  An update that stepped no actor minibatch
    has NaN actor fields (``actor_loss``, ``kl``, ``clip_frac``, ``entropy``, ``actor_grad_norm``) beside its
    critic means.  ``skipped_minibatches`` counts the actor minibatches skipped for a non-finite ratio, before
    the abort where there was one.
    """

    actor_loss: float
    critic_loss: float
    kl: float
    clip_frac: float
    entropy: float
    actor_grad_norm: float
    critic_grad_norm: float
    skipped_minibatches: int = 0
    aborted: bool = False


class Trainer:
    """Owns the actor, critic, optimizers and the training/evaluation loop."""

    def __init__(
        self,
        scenario_cfg: ScenarioConfig,
        critic,
        cfg: TrainerConfig | None = None,
        seed: int = 0,
    ):
        check_int(seed, "seed", 0)
        self.scenario_cfg = scenario_cfg
        self.cfg = cfg or TrainerConfig()
        self.seed = seed
        actor_rng = np.random.default_rng([seed, 0])
        self.actor = GaussianPolicyHead.create(
            scenario_cfg.obs_dim, scenario_cfg.action_dim, ACTOR_HIDDEN, actor_rng
        )
        self.critic = critic
        self.actor_opt = Adam(self.actor.flat, lr=self.cfg.lr)
        self.critic_opt = Adam(critic.flat, lr=self.cfg.lr)
        self.rollout_rng = np.random.default_rng([seed, 1])
        self.shuffle_rng = np.random.default_rng([seed, 2])
        self.env_steps = 0
        self.world: WorldState | None = None  # the episode the last rollout cut

    def update(self, batch: RolloutBatch) -> UpdateStats:
        """One MAPPO update: epochs of shuffled minibatches on both losses.

        Each minibatch gathers its own rows of the batch, one np.take per
        array, so no shuffled copy of the whole batch is made.  Advantages
        are normalized once per update.  Non-finite ratios skip a
        minibatch with a warning; a non-finite loss aborts the whole update
        and restores the pre-update parameters, Adam moments and steps, and
        SPSA step count; its stats are NaN.  The RNG streams keep their advance.
        """
        cfg = self.cfg
        adv = batch.advantages
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        S, n = batch.n_steps, batch.n_agents
        actor_rows = (
            batch.obs.reshape(S * n, -1),
            batch.actions.reshape(S * n, -1),
            batch.log_prob_old.reshape(S * n),
            np.repeat(adv, n),
            batch.mu_old.reshape(S * n, -1),
        )
        critic_rows = (batch.global_obs, batch.returns, batch.values)

        actor_snapshot, critic_snapshot = self.actor.flat.copy(), self.critic.flat.copy()
        opts = (self.actor_opt, self.critic_opt)
        opt_snapshot = [(opt.m.copy(), opt.v.copy(), opt.t) for opt in opts]
        circuit_snapshot = (
            (self.critic.spec.theta.copy(), self.critic.spsa.k) if self.critic.kind == "quantum" else None
        )

        actor_records, critic_records = [], []  # one per stepped minibatch
        skipped, entropy = 0, math.nan
        try:
            for _ in range(cfg.epochs):
                order = self.shuffle_rng.permutation(S * n)
                for lo in range(0, S * n, cfg.minibatch_size):
                    mb = order[lo : lo + cfg.minibatch_size]
                    obs, act, lp, adv_rows, mu = (np.take(rows, mb, axis=0) for rows in actor_rows)
                    res = _actor_loss_and_grads(self.actor, obs, act, lp, adv_rows, mu, batch.log_std_old, cfg)
                    if res is None:
                        skipped += 1
                        warnings.warn("skipped actor minibatch: non-finite ratio", RuntimeWarning)
                        continue
                    loss, mb_stats = res
                    if not np.isfinite(loss):
                        raise TrainingError("non-finite actor loss")
                    grad_norm = self.actor_opt.step(self.actor.flat, self.actor.grad)
                    actor_records.append((loss, mb_stats["kl"], mb_stats["clip_frac"], grad_norm))
                    entropy = mb_stats["entropy"]

                step_order = self.shuffle_rng.permutation(S)
                for lo in range(0, S, cfg.minibatch_size):
                    mb = step_order[lo : lo + cfg.minibatch_size]
                    global_obs, returns, values = (np.take(rows, mb, axis=0) for rows in critic_rows)
                    loss = _critic_loss_and_grads(self.critic, global_obs, returns, values, cfg)
                    if not np.isfinite(loss):
                        raise TrainingError("non-finite critic loss")
                    critic_records.append((loss, self.critic_opt.step(self.critic.flat, self.critic.grad)))
        except TrainingError as exc:
            self.actor.flat[...] = actor_snapshot
            self.critic.flat[...] = critic_snapshot
            for opt, (m, v, t) in zip(opts, opt_snapshot):
                opt.m, opt.v, opt.t = m, v, t
            if circuit_snapshot is not None:
                self.critic.spec.theta, self.critic.spsa.k = circuit_snapshot
            warnings.warn(f"update aborted, parameters and optimizers restored: {exc}", RuntimeWarning)
            return UpdateStats(*[math.nan] * 7, skipped_minibatches=skipped, aborted=True)

        actor_loss, kl, clip_frac, actor_grad_norm = _column_means(actor_records, 4)
        critic_loss, critic_grad_norm = _column_means(critic_records, 2)
        return UpdateStats(actor_loss, critic_loss, kl, clip_frac, entropy, actor_grad_norm, critic_grad_norm, skipped)

    def train(self, total_steps: int, on_eval=None) -> list[dict]:
        """Run rollout/update cycles for ``total_steps`` env steps.

        Evaluates the deterministic policy every ``eval_interval`` env steps
        (one evaluation per crossed boundary; the boundaries one update
        crosses share one ``evaluate`` call) and returns the curve as a
        list of {env_steps, cr_mean, cr_std, actor_loss, critic_loss} dicts;
        the losses are those of the update just run, NaN if it aborted.
        ``on_eval(point)`` is called after each point's evaluation.  A
        later call continues from ``env_steps`` and returns only the points
        it crosses.  Each batch is dropped once its update has run, so no
        evaluation or next rollout is built beside it.
        """
        check_int(total_steps, "total_steps", None)
        cfg = self.cfg
        curve: list[dict] = []
        while self.env_steps < total_steps:
            steps = min(cfg.rollout_steps, total_steps - self.env_steps)
            batch, self.world = collect_rollout(
                self.world, self.scenario_cfg, self.actor, self.critic, steps, self.rollout_rng, self.seed,
                self.env_steps, cfg,
            )
            first = (self.env_steps // cfg.eval_interval + 1) * cfg.eval_interval  # the next point not yet passed
            self.env_steps += steps
            stats = self.update(batch)
            del batch
            due = range(first, self.env_steps + 1, cfg.eval_interval)  # the points this update crossed
            if not due:
                continue
            eval_seeds = [int(np.random.default_rng([self.seed, 3, at]).integers(0, 2**31 - 1)) for at in due]
            # one evaluate call, so one block of episodes, for all of them
            results = evaluate(self.actor, self.scenario_cfg, cfg.eval_episodes, eval_seeds)
            losses = {"actor_loss": stats.actor_loss, "critic_loss": stats.critic_loss}
            for at, (cr_mean, cr_std) in zip(due, results):
                point = {"env_steps": at, "cr_mean": cr_mean, "cr_std": cr_std, **losses}
                curve.append(point)
                if on_eval is not None:
                    on_eval(point)
        return curve
