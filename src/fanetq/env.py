"""Seeded FANET simulation: one array core for link resolution, connectivity and observations.

Aircraft and ground stations live in a square world; positions advance by
constant per-episode velocities.  Each step every aircraft proposes a
desirability score for every other entity, the top-2 proposals are resolved
into links (mutual consent between aircraft, capacity-limited acceptance at
ground stations), and the global reward is the fraction of aircraft with a
multi-hop path to ground.

Entity ids: aircraft occupy 0 .. n_aircraft-1, ground stations follow.  The
link graph is a symmetric (N, N) boolean adjacency matrix over those ids.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractViolation

ACTION_CLAMP_LOW = 1e-6
ACTION_CLAMP_HIGH = 1.0 - 1e-6


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
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
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
        known = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING}
        if set(d) - known:
            raise ConfigError(f"unknown scenario keys: {sorted(set(d) - known)}")
        if required - set(d):
            raise ConfigError(f"missing scenario keys: {sorted(required - set(d))}")
        return cls(**d)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class WorldState:
    """Positions/velocities of all entities plus the active link graph.

    ``links`` is a symmetric (N, N) boolean adjacency matrix; it is all
    False until the first step resolves links.
    """

    t: int
    pos: np.ndarray  # (N, 2)
    vel: np.ndarray  # (N, 2)
    n_aircraft: int
    links: np.ndarray | None = None  # (N, N) bool

    def __post_init__(self):
        if self.links is None:
            self.links = np.zeros((self.n_entities, self.n_entities), dtype=bool)

    @property
    def n_entities(self) -> int:
        return self.pos.shape[0]


def init_world(cfg: ScenarioConfig, seed: int) -> WorldState:
    """Fresh world at t = 0: uniform positions, constant aircraft velocities.

    Identical (cfg, seed) pairs produce bit-identical worlds.
    """
    rng = np.random.default_rng(seed)
    n = cfg.n_entities
    pos = rng.uniform(0.0, cfg.world_side, size=(n, 2))
    vel = np.zeros((n, 2))
    vel[: cfg.n_aircraft] = rng.uniform(-cfg.v_max, cfg.v_max, size=(cfg.n_aircraft, 2))
    return WorldState(t=0, pos=pos, vel=vel, n_aircraft=cfg.n_aircraft)


def clamp_actions(desirability: np.ndarray) -> np.ndarray:
    """Map arbitrary reals into the open interval (0, 1) used by the env."""
    return np.clip(desirability, ACTION_CLAMP_LOW, ACTION_CLAMP_HIGH)


def _aircraft_offsets(a: np.ndarray, n_aircraft: int) -> np.ndarray:
    """(n_aircraft, N, 2) differences a[i] - a[j] from every aircraft i to every entity j."""
    return a[:n_aircraft, None, :] - a[None, :, :]


def _norm(d: np.ndarray) -> np.ndarray:
    return np.hypot(d[..., 0], d[..., 1])


def resolve_links(world: WorldState, proposals: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Resolve per-aircraft desirability vectors into the (N, N) link matrix.

    Row a of ``proposals`` scores every other entity in ascending id order.
    Each aircraft nominates its top ``max_links`` entities, ties to the
    lower id.  Aircraft-aircraft edges need both sides to nominate each
    other and the pair to be in range (distance <= comm_range).  Ground
    stations are not agents: each accepts its in-range nominators in
    decreasing desirability order (ties to the lower aircraft id) up to
    ``max_links``.  NaN has no rank and is rejected; +-inf is clamped.
    """
    proposals = np.asarray(proposals, dtype=float)
    n_a, n = cfg.n_aircraft, cfg.n_entities
    if proposals.shape != (n_a, n - 1):
        raise ContractViolation(f"proposals must have shape {(n_a, n - 1)}, got {proposals.shape}")
    if np.isnan(proposals).any():
        raise ContractViolation("proposals contain NaN, which has no desirability rank")
    not_self = ~np.eye(n_a, n, dtype=bool)
    desir = np.full((n_a, n), -np.inf)
    desir[not_self] = clamp_actions(proposals).ravel()

    # with fewer than max_links candidates the -inf self slot is picked; not_self drops it
    asks = np.zeros((n_a, n), dtype=bool)
    asks[np.arange(n_a)[:, None], (-desir).argsort(axis=1, kind="stable")[:, : cfg.max_links]] = True
    asks &= not_self & (_norm(_aircraft_offsets(world.pos, n_a)) <= cfg.comm_range)

    bids = np.where(asks[:, n_a:], desir[:, n_a:], -np.inf)
    accepted = np.zeros(bids.shape, dtype=bool)
    accepted[(-bids).argsort(axis=0, kind="stable")[: cfg.max_links], np.arange(cfg.n_ground)] = True

    links = np.zeros((n, n), dtype=bool)
    links[:n_a, :n_a] = asks[:, :n_a] & asks[:, :n_a].T
    links[:n_a, n_a:] = accepted & asks[:, n_a:]
    return links | links.T


def path_to_ground(links: np.ndarray, world: WorldState) -> np.ndarray:
    """Per-entity indicator: 1 if the entity is a ground station or reaches one.

    Boolean propagation seeded with every ground station.  A shortest path
    to ground visits each aircraft at most once, so n_aircraft rounds reach
    every connected entity.
    """
    reach = np.arange(world.n_entities) >= world.n_aircraft
    for _ in range(world.n_aircraft):
        reach = reach | (links @ reach)
    return reach.astype(int)


def reward(ptg_aircraft: np.ndarray) -> float:
    """Global reward: mean path-to-ground over all aircraft, in [0, 1]."""
    ptg_aircraft = np.asarray(ptg_aircraft)
    return float(ptg_aircraft.mean())


def _lk_rows(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """(n_aircraft, N) lk features: fraction of the horizon a pair stays in range.

    Counts steps s in {t, ..., horizon-1} at which the constant-velocity
    extrapolations of aircraft i and entity j are within comm_range,
    normalized by the full horizon; -1 where the pair is not in range now.
    """
    dp = _aircraft_offsets(world.pos, cfg.n_aircraft)
    dv = _aircraft_offsets(world.vel, cfg.n_aircraft)
    steps = np.arange(0, max(cfg.horizon - world.t, 0), dtype=float)
    rel = dp[None, ...] + steps[:, None, None, None] * dv[None, ...]
    counts = (_norm(rel) <= cfg.comm_range).sum(axis=0)
    return np.where(_norm(dp) <= cfg.comm_range, counts / cfg.horizon, -1.0)


def observe_all(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """(n_aircraft, obs_dim) local observations: [own ptg, then (ptg, lk, oc) per other entity].

    Other entities appear in ascending id order.  ``oc`` maps an entity's
    active connection count linearly so that 0 -> -1, 1 -> 0, 2 -> +1.
    Uses the most recent link graph; at episode start the graph is empty.
    """
    n_a, n = cfg.n_aircraft, cfg.n_entities
    ptg = path_to_ground(world.links, world).astype(float)
    block = np.empty((n_a, n, 3))
    block[..., 0] = ptg
    block[..., 1] = _lk_rows(world, cfg)
    block[..., 2] = world.links.sum(axis=0) - 1.0
    others = block[~np.eye(n_a, n, dtype=bool)].reshape(n_a, 3 * (n - 1))
    return np.concatenate([ptg[:n_a, None], others], axis=1)


def env_step(
    world: WorldState, joint_action: np.ndarray, cfg: ScenarioConfig
) -> tuple[WorldState, np.ndarray, float, bool]:
    """One environment step.

    Order of effects: advance positions by one velocity step, resolve links
    from the joint action, then build the next observations on the new
    graph; the reward is the mean of the aircraft's own path-to-ground
    entries.  Done when t reaches horizon.
    """
    if world.t >= cfg.horizon:
        raise ContractViolation("cannot step a finished episode")
    new = WorldState(
        t=world.t + 1,
        pos=world.pos + world.vel,
        vel=world.vel,
        n_aircraft=world.n_aircraft,
    )
    new.links = resolve_links(new, joint_action, cfg)
    obs = observe_all(new, cfg)
    done = new.t >= cfg.horizon
    return new, obs, reward(obs[:, 0]), done


class FanetEnv:
    """Stateful reset/step wrapper over the functional core.

    `reset(seed)` starts a fresh episode; `step(actions)` returns
    (observations, reward, done).  Observations are an
    (n_aircraft, obs_dim) array.
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


def run_episode(cfg: ScenarioConfig, seed: int, policy) -> float:
    """Episode CR: connected-aircraft counts summed over the steps of one episode.

    ``policy(obs)`` maps the (n_aircraft, obs_dim) observations to the joint action.
    """
    env = FanetEnv(cfg)
    obs = env.reset(seed)
    total, done = 0.0, False
    while not done:
        obs, r, done = env.step(policy(obs))
        total += r * cfg.n_aircraft
    return total


def dump_trajectory(path: str | Path, cfg: ScenarioConfig, seed: int, action_fn) -> None:
    """Write a JSON-lines trajectory: one record per step.

    ``action_fn(obs, t)`` must return the joint action array.  Each record
    holds {t, positions, links, ptg, reward}.
    """
    env = FanetEnv(cfg)
    obs = env.reset(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(cfg.horizon):
            actions = action_fn(obs, t)
            obs, r, done = env.step(actions)
            rec = {
                "t": env.world.t,
                "positions": env.world.pos.tolist(),
                "links": np.argwhere(np.triu(env.world.links)).tolist(),
                "ptg": path_to_ground(env.world.links, env.world).tolist(),
                "reward": r,
            }
            fh.write(json.dumps(rec) + "\n")
            if done:
                break
