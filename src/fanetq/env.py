"""Seeded FANET simulation: one array core for link resolution, connectivity and observations.

Aircraft and ground stations live in a square world; positions advance by
constant per-episode velocities, in closed form from each world's anchor.
Each step every aircraft proposes a desirability score for every other
entity, the top-2 proposals are resolved into links (mutual consent between
aircraft, capacity-limited acceptance at ground stations), and the global
reward is the fraction of aircraft with a multi-hop path to ground;
run_episodes sums it into every episode CR.

Entity ids: aircraft occupy 0 .. n_aircraft-1, ground stations follow.  The
link graph is a symmetric (N, N) boolean adjacency matrix over those ids.

The step functions (resolve_links, path_to_ground, observe_all, env_step,
reward) also take leading batch axes: a batch of episodes that step together
has (..., N, 2) positions, (..., n_aircraft, N-1) proposals and (..., N, N)
links.  Each episode's numbers equal those of its own unbatched run.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation, check_seeds, json_fields, read_json

ACTION_CLAMP_LOW = 1e-6
ACTION_CLAMP_HIGH = 1.0 - 1e-6
_FLOAT = np.finfo(float)


@dataclass(frozen=True)
class ScenarioConfig:
    """World geometry and episode parameters.

    Distances are in world units (side of the square), velocities in world
    units per step.  ``max_links`` is fixed at 2 by the use case.
    """

    n_aircraft: int
    n_ground: int
    comm_range: float
    horizon: int = 50
    world_side: float = 1.0
    v_max: float = 0.02
    max_links: int = 2

    def __post_init__(self):
        for name in ("n_aircraft", "n_ground", "horizon", "max_links"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("comm_range", "world_side", "v_max"):
            value = getattr(self, name)
            # an exact comparison, where math.isfinite would overflow on an int beyond the float range
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= float(_FLOAT.max):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.n_aircraft < 1 or self.n_ground < 1:
            raise ConfigError("need at least one aircraft and one ground station")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.comm_range <= 0:
            raise ConfigError("comm_range must be positive")
        if self.world_side <= 0:
            raise ConfigError("world_side must be positive")
        if self.v_max < 0:
            raise ConfigError("v_max must be non-negative")
        if not math.isfinite(2.0 * self.v_max):  # the range v_max - (-v_max) of the velocity draw
            raise ConfigError(f"v_max must be at most half the largest float, got {self.v_max!r}")
        if self.max_links != 2:
            raise ConfigError("max_links is fixed at 2")

    @property
    def n_entities(self) -> int:
        return self.n_aircraft + self.n_ground

    @property
    def obs_dim(self) -> int:
        """1 + 3(N-1): own path-to-ground, then (ptg, lk, oc) per other entity."""
        return 1 + 3 * (self.n_entities - 1)

    @property
    def action_dim(self) -> int:
        return self.n_entities - 1

    @property
    def global_obs_dim(self) -> int:
        return self.n_aircraft * self.obs_dim

    def to_dict(self) -> dict:
        return {
            "n_aircraft": int(self.n_aircraft),
            "n_ground": int(self.n_ground),
            "horizon": int(self.horizon),
            "comm_range": float(self.comm_range),
            "world_side": float(self.world_side),
            "v_max": float(self.v_max),
            "max_links": int(self.max_links),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        json_fields(d, what="scenario")  # ConfigError unless d is a JSON object
        known = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING}
        if set(d) - known:
            raise ConfigError(f"unknown scenario keys: {sorted(set(d) - known)}")
        if required - set(d):
            raise ConfigError(f"missing scenario keys: {sorted(required - set(d))}")
        return cls(**d)

    def save(self, path: str | Path) -> None:
        """Write the config as indented JSON, creating missing parent directories."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_dict(read_json(path))


@dataclass
class WorldState:
    """Velocities and the position anchor of all entities, plus the active link graph.

    ``vel`` is (..., N, 2); leading axes, if any, index episodes that step
    together and share ``t``.  Positions are closed-form in the step and
    stored once, in ``anchor`` (t_a, pos_a): ``at(t)`` = pos_a + (t - t_a) * vel,
    and ``pos`` is ``at(t)``.  ``links`` is a symmetric (..., N, N) boolean
    adjacency matrix; it is all False until the first step resolves links.
    ``lk_table`` is the remaining episode's geometry (see _geometry).
    """

    t: int
    vel: np.ndarray  # (..., N, 2)
    n_aircraft: int
    anchor: tuple  # (t_a, pos_a), pos_a (..., N, 2)
    links: np.ndarray | None = None  # (..., N, N) bool
    lk_table: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.links is None:
            self.links = np.zeros(self.vel.shape[:-1] + (self.n_entities,), dtype=bool)

    @property
    def n_entities(self) -> int:
        return self.vel.shape[-2]

    @property
    def pos(self) -> np.ndarray:
        """(..., N, 2) positions at step t; at the anchor step they are pos_a itself, as vel is finite."""
        return self.at(self.t)

    def at(self, t: int) -> np.ndarray:
        """(..., N, 2) positions at step t, pos_a + (t - t_a) * vel."""
        return self.anchor[1] + (t - self.anchor[0]) * self.vel


def init_world(cfg: ScenarioConfig, seed) -> WorldState:
    """Fresh world at t = 0: uniform positions, constant aircraft velocities.

    Identical (cfg, seed) pairs produce bit-identical worlds.  For a sequence of seeds the world's leading axis
    holds the world of each seed in order, each drawn from its own default_rng(seed) stream as if alone.
    One random() draw u per seed gives its positions, then its aircraft velocities, as uniform: low + (high - low) * u.
    """
    (seeds, single), n, n_a = check_seeds(seed), cfg.n_entities, cfg.n_aircraft
    u = np.empty((len(seeds), 2 * (n + n_a)))
    for row, s in zip(u, seeds):
        np.random.default_rng(s).random(out=row)
    side, v_max = float(cfg.world_side), float(cfg.v_max)
    pos, vel = side * u[:, : 2 * n].reshape(-1, n, 2), np.zeros((len(seeds), n, 2))  # 0 + side * u is side * u
    vel[:, :n_a] = -v_max + 2 * v_max * u[:, 2 * n :].reshape(-1, n_a, 2)
    if single:
        pos, vel = pos[0], vel[0]
    return WorldState(t=0, vel=vel, n_aircraft=n_a, anchor=(0, pos))


def clamp_actions(desirability: np.ndarray) -> np.ndarray:
    """Map arbitrary reals into the open interval (0, 1) used by the env."""
    # equal to np.clip, which costs twice as much on arrays this small
    return np.minimum(np.maximum(desirability, ACTION_CLAMP_LOW), ACTION_CLAMP_HIGH)


def _aircraft_offsets(a: np.ndarray, n_aircraft: int) -> np.ndarray:
    """(2, n_aircraft, N, ...) x and y planes of a[:, i] - a[:, j], aircraft i to entity j, of (2, N, ...) planes a."""
    return a[:, :n_aircraft, None] - a[:, None]


@functools.lru_cache(maxsize=None)
def _proposal_columns(n_aircraft: int, n_entities: int) -> np.ndarray:
    """Read-only (n_aircraft, N) column of entity j in aircraft i's proposal row, j - (j > i), and -1 at i itself."""
    ids, own = np.arange(n_entities), np.arange(n_aircraft)[:, None]
    columns = np.where(ids == own, -1, ids - (ids > own))
    columns.flags.writeable = False
    return columns


def resolve_links(in_range: np.ndarray, proposals: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Resolve per-aircraft desirability vectors into the (..., N, N) link matrix.

    Row a of ``proposals`` (..., n_aircraft, N-1) scores every other entity in ascending id order, so column c
    is entity c + (c >= a); its leading axes, episodes or steps, match those of ``in_range`` (..., n_aircraft, N),
    the step's mask (see _geometry).  Each aircraft nominates its top ``max_links`` entities, ties to the lower id.
    Aircraft-aircraft edges need both sides to nominate each other and the
    pair to be in range (distance <= comm_range).  Ground stations are not
    agents: each accepts its in-range nominators in decreasing desirability
    order (ties to the lower aircraft id) up to ``max_links``.  NaN has no
    rank and is rejected; +-inf is clamped.  Each ranking is one stable argsort.
    """
    proposals = np.asarray(proposals, dtype=float)
    n_a, n, k = cfg.n_aircraft, cfg.n_entities, cfg.max_links
    batch = in_range.shape[:-2]
    if in_range.shape[-2:] != (n_a, n) or proposals.shape != batch + (n_a, n - 1):
        raise ContractViolation(f"proposals must have shape {batch + (n_a, n - 1)}, got {proposals.shape}")
    if np.isnan(proposals).any():
        raise ContractViolation("proposals contain NaN, which has no desirability rank")
    rank = -clamp_actions(proposals)  # ascending rank is descending desirability
    order, columns = rank.argsort(axis=-1, kind="stable"), _proposal_columns(n_a, n)
    asks = functools.reduce(np.logical_or, (order[..., c, None] == columns for c in range(min(k, n - 1))))
    asks &= in_range  # (..., n_a, N): the entities of each row's first max_links columns that are in range

    # every ground station ranks its asks by their proposals for it, the aircraft that did not ask last
    order = np.where(asks[..., n_a:], rank[..., n_a - 1 :], np.inf).argsort(axis=-2, kind="stable")
    aircraft = np.arange(n_a)[:, None]
    accepted = functools.reduce(np.logical_or, (order[..., c, None, :] == aircraft for c in range(min(k, n_a))))
    accepted &= asks[..., n_a:]

    links = np.zeros(batch + (n, n), dtype=bool)  # written symmetric
    np.logical_and(asks[..., :n_a], np.swapaxes(asks[..., :n_a], -1, -2), out=links[..., :n_a, :n_a])
    links[..., :n_a, n_a:] = accepted
    links[..., n_a:, :n_a] = np.swapaxes(accepted, -1, -2)
    return links


def path_to_ground(links: np.ndarray, world: WorldState) -> np.ndarray:
    """Per-entity indicator (..., N): 1 if the entity is a ground station or reaches one.

    Boolean propagation seeded with every ground station.  A shortest path
    to ground visits each aircraft at most once, so n_aircraft rounds reach
    every connected entity.  Each round is a few vector ops over the links'
    entity-major (N, N, B) planes, all B instances at once.
    """
    n = world.n_entities
    planes = links.reshape((-1, n, n)).transpose(1, 2, 0).copy()  # planes[i, j] is link i-j of every instance
    reach = np.zeros(planes.shape[1:], dtype=bool)  # (N, B)
    reach[world.n_aircraft :] = True
    for _ in range(world.n_aircraft):  # one hop: i reaches ground if it links to some j that does
        reach |= np.logical_or.reduce(planes & reach, axis=1)
    return reach.T.reshape(links.shape[:-1]).astype(int)


def reward(ptg_aircraft: np.ndarray) -> np.ndarray | float:
    """Global reward: mean path-to-ground over the aircraft (last axis), in [0, 1]."""
    return np.asarray(ptg_aircraft).mean(axis=-1)


def _in_range(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """(horizon - t + 1, ..., n_aircraft, N) planes of hypot(x, y) <= comm_range at each tau in {t, ..., horizon},
    (x, y) the offsets of the positions world.at(tau), for the world's remaining episode from its step t.

    x*x + y*y decides every entry beyond a relative 1e-12 of r*r, which its few roundings cannot cross, and
    hypot decides the entries within it, or all of them when r*r so widened is not a normal float.
    """
    t_a, pos_a = world.anchor
    r, h = float(cfg.comm_range), cfg.horizon
    lo, hi = r * r * (1.0 - 1e-12), r * r * (1.0 + 1e-12)
    lo, hi = (lo, hi) if lo >= _FLOAT.tiny and hi <= _FLOAT.max else (np.nan, np.nan)  # NaN: every entry to hypot
    steps = np.arange(world.t - t_a, max(h, world.t) - t_a + 1, dtype=float).reshape((-1,) + (1,) * (pos_a.ndim - 2))
    # (2, N, tau, ...) positions as world.at gives them, entity axes first: the offsets loop over tau and episodes
    p, v = (np.ascontiguousarray(np.moveaxis(a, (-1, -2), (0, 1))[:, :, None]) for a in (pos_a, world.vel))
    pos = p + steps * v
    x, y = _aircraft_offsets(pos, cfg.n_aircraft)
    with np.errstate(over="ignore"):  # an inf square is out of range, as the distance is
        sq = np.add(np.square(x, out=x), np.square(y, out=y), out=x)
    within = sq <= lo
    near = ~(within | (sq >= hi))
    if near.any():  # their offsets, taken anew from the positions as _aircraft_offsets takes them
        i, j, *rest = np.nonzero(near)
        within[near] = np.hypot(*(pos[(slice(None), i, *rest)] - pos[(slice(None), j, *rest)])) <= r
    return np.ascontiguousarray(np.moveaxis(within, (0, 1), (-2, -1)))


def _lk_table(world: WorldState, cfg: ScenarioConfig) -> tuple:
    """(cfg, t0, in_range, lk) for the world's remaining episode, t0 its step; see _geometry.  in_range is
    _in_range's planes and lk[k] the lk row at t0 + k, both read-only."""
    in_range = _in_range(world, cfg)
    counts = np.zeros(in_range.shape, dtype=int)
    for k in range(len(counts) - 2, -1, -1):  # suffix sums, counts[k] from t0 + k to horizon - 1, one row add each
        np.add(counts[k + 1], in_range[k], out=counts[k])
    lk = np.where(in_range, counts / cfg.horizon, -1.0)
    for a in (in_range, lk):
        a.flags.writeable = False
    return cfg, world.t, in_range, lk


def _geometry(world: WorldState, cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """(in range now, lk rows), each (..., n_aircraft, N), of the world under cfg, read from world.lk_table.

    In range now is hypot(pos[i] - pos[j]) <= comm_range.  The lk rows count the steps tau in {t, ..., horizon-1}
    at which aircraft i and entity j, at world.at(tau), are within comm_range, normalized by the full horizon; -1
    where the pair is not in range now.  Positions are closed-form in tau, so the first call on a world under cfg
    decides its remaining episode once, from the positions each later step will have; env_step carries it on.
    """
    if world.lk_table is None or world.lk_table[0] != cfg:
        world.lk_table = _lk_table(world, cfg)
    _, t0, in_range, lk = world.lk_table
    return in_range[world.t - t0], lk[world.t - t0]


@functools.lru_cache(maxsize=None)
def _obs_index(n_aircraft: int, n_entities: int) -> np.ndarray:
    """Read-only flat index of the observations in the rows [own ptg, then (ptg, lk, oc) per entity] of observe_all."""
    ids = np.arange(n_aircraft * (1 + 3 * n_entities)).reshape(n_aircraft, -1)
    others = ids[:, 1:].reshape(n_aircraft, n_entities, 3)[_proposal_columns(n_aircraft, n_entities) >= 0]
    index = np.concatenate([ids[:, :1], others.reshape(n_aircraft, -1)], axis=1).ravel()
    index.flags.writeable = False
    return index


def observe_all(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """(..., n_aircraft, obs_dim) local observations: [own ptg, then (ptg, lk, oc) per other entity].

    Other entities appear in ascending id order.  ``oc`` maps an entity's
    active connection count linearly so that 0 -> -1, 1 -> 0, 2 -> +1.
    Uses the most recent link graph; at episode start the graph is empty.
    Each aircraft's row is written once and read out with one np.take (see _obs_index).
    """
    n_a, n = cfg.n_aircraft, cfg.n_entities
    batch = world.vel.shape[:-2]
    ptg = path_to_ground(world.links, world).astype(float)
    rows = np.empty(batch + (n_a, 1 + 3 * n))
    rows[..., 0] = ptg[..., :n_a]
    block = rows[..., 1:].reshape(batch + (n_a, n, 3))
    block[..., 0] = ptg[..., None, :]
    block[..., 1] = _geometry(world, cfg)[1]
    block[..., 2] = world.links.sum(axis=-2)[..., None, :] - 1.0
    obs = np.take(rows.reshape(batch + (-1,)), _obs_index(n_a, n), axis=-1)
    return obs.reshape(batch + (n_a, cfg.obs_dim))


def env_step(
    world: WorldState, joint_action: np.ndarray, cfg: ScenarioConfig
) -> tuple[WorldState, np.ndarray, np.ndarray | float, bool]:
    """One environment step of one episode, or of a batch of episodes at the same t.

    Order of effects: move to step t + 1, whose in-range mask the world's lk
    table holds, resolve links from the joint action, then build the next
    observations on the new graph; the reward is the mean of the aircraft's
    own path-to-ground entries, one per episode.  Done when t reaches horizon.
    """
    if world.t >= cfg.horizon:
        raise ContractViolation("cannot step a finished episode")
    new = WorldState(t=world.t + 1, vel=world.vel, n_aircraft=world.n_aircraft, anchor=world.anchor)
    new.lk_table = world.lk_table
    new.links = resolve_links(_geometry(new, cfg)[0], joint_action, cfg)
    obs = observe_all(new, cfg)
    done = new.t >= cfg.horizon
    return new, obs, reward(obs[..., 0]), done


class FanetEnv:
    """Stateful reset/step wrapper over the functional core, one episode at a time.

    `reset(seed)` starts a fresh episode; `step(actions)` returns
    (observations, reward, done).  Observations are an
    (n_aircraft, obs_dim) array.  Nothing in the package steps through it.
    It stays because ``perfbench/worker.py`` wraps ``reset`` for its
    ``env.reset`` probe, and the tests use it as their oracle episode loop.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.world: WorldState | None = None

    def reset(self, seed: int) -> np.ndarray:
        self.world = init_world(self.cfg, seed)
        return observe_all(self.world, self.cfg)

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, float, bool]:
        if self.world is None:
            raise ContractViolation("call reset before step")
        self.world, obs, r, done = env_step(self.world, actions, self.cfg)
        return obs, r, done

    @property
    def t(self) -> int:
        return 0 if self.world is None else self.world.t


EPISODE_BLOCK = 64  # episodes stepped together; bounds the (steps, block, n_aircraft, N) lk temporaries


def step_episodes(
    world: WorldState, steps: int, cfg: ScenarioConfig, policy
) -> tuple[WorldState, np.ndarray, np.ndarray]:
    """Step a world, one episode or a block of them, ``steps`` times.

    ``policy(obs, t)`` maps the (..., n_aircraft, obs_dim) observations
    before step t to the (..., n_aircraft, action_dim) joint actions.
    Returns the final world, its observations and the (..., steps) rewards.
    """
    obs = observe_all(world, cfg)
    rewards = np.empty(world.vel.shape[:-2] + (steps,))
    for s in range(steps):
        world, obs, rewards[..., s], _ = env_step(world, policy(obs, world.t), cfg)
    return world, obs, rewards


def open_loop_rewards(world: WorldState, actions: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """(..., steps) rewards of the rest of a world's episode, steps = horizon - t, under fixed actions (..., steps,
    n_aircraft, N-1), as step_episodes gives them to a policy that returns actions[..., s, :, :] at step s.  A step's
    links read only its actions and in-range mask, so one resolve_links call takes the in-range planes of steps
    t+1 .. horizon, and no observation is built.  Only those planes are computed, in closed form from the world's
    anchor, with no lk rows, and the world's table, if it carries one, is left as it is."""
    rows = np.moveaxis(_in_range(world, cfg)[1:], 0, world.vel.ndim - 2)  # steps after episodes
    return reward(path_to_ground(resolve_links(rows, actions, cfg), world)[..., : cfg.n_aircraft])


def run_episodes(cfg: ScenarioConfig, seeds, rewards_of) -> np.ndarray:
    """Per-episode CR: connected-aircraft counts summed over the steps of each episode.

    The episodes of the sequence ``seeds`` run in order, in blocks of up to EPISODE_BLOCK fresh worlds (init_world);
    ``rewards_of(world)`` returns a block's (block, horizon) rewards, e.g. step_episodes' or open_loop_rewards'.
    """
    crs = np.empty(len(seeds))
    for start in range(0, len(seeds), EPISODE_BLOCK):
        rewards = rewards_of(init_world(cfg, seeds[start : start + EPISODE_BLOCK]))
        # a running sum adds the steps in order, as a step-by-step total does
        crs[start : start + len(rewards)] = np.cumsum(rewards * cfg.n_aircraft, axis=-1)[:, -1]
    return crs
