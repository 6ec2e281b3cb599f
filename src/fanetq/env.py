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

from .errors import ConfigError, ContractViolation, check_int, check_seeds, is_finite_number, json_fields, read_json

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
            if not is_finite_number(value):
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


# numpy's SeedSequence constants (INIT_A, MULT_A), (INIT_B, MULT_B), MIX_MULT_L and MIX_MULT_R, and PCG64's multiplier
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R, _PCG_MULT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), 0x2360ED051FC65DA44385DF649FCCF645
_OTHERS = np.array([[dst for dst in range(4) if dst != src] for src in range(4)])  # the pool words src mixes into


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """Read-only (count + 1, 1) uint32 column init * mult**i mod 2**32: hashmix call i takes rows i and i + 1."""
    consts = np.array([init * pow(mult, i, 1 << 32) % (1 << 32) for i in range(count + 1)], np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 ``values``, its calls along axis 0 under (consts[i], consts[i + 1])."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ mixed >> 16


@functools.lru_cache(maxsize=None)
def _jumps(k: int) -> tuple:
    """Read-only uint64 (hi, lo, lo's 32-bit halves), each (2, 1, k), of M**(j+1) and 1 + M + ... + M**(j+1), j <= k."""
    powers = [pow(_PCG_MULT, j, 1 << 128) for j in range(k + 2)]
    c = np.array([powers[2:], np.cumsum(powers, dtype=object)[2:] % (1 << 128)], dtype=object)[:, None]
    jumps = tuple(a.astype(np.uint64) for a in (c >> 64, c & (1 << 64) - 1, c & 0xFFFFFFFF, c >> 32 & 0xFFFFFFFF))
    for a in jumps:
        a.flags.writeable = False
    return jumps


def _seeded_uniforms(seeds: list, k: int) -> np.ndarray:
    """(len(seeds), k) doubles, row i bit for bit np.random.default_rng(seeds[i]).random(k), in one uint64 pass.

    SeedSequence hashmixes a seed's first 4 little-endian 32-bit words, zero-padded, into a pool, each pool word in
    turn into the other 3, then each later word into all 4.  generate_state(4, uint64) gives PCG64's 128-bit seed s
    and stream inc = 2 i + 1; seeding steps the LCG x -> M x + inc from 0 to (inc + s) M + inc, j more steps give
    M**(j+1) s + (1 + M + ... + M**(j+1)) inc mod 2**128, and draw j is its XSL-RR output as (x >> 11) * 2**-53.
    """
    ints = np.array(list(map(int, seeds)), dtype=object)
    n_words = -(-int(ints.max()).bit_length() // 32)
    words, rest = np.zeros((max(n_words, 4), len(ints)), np.uint32), ints
    for w in range(n_words):
        words[w], rest = rest & 0xFFFFFFFF, rest >> 32
    consts = _hash_consts(*_HASH_A, 4 * len(words))
    pool = _hashmix(words[:4], consts[:5])
    for src, others in enumerate(_OTHERS):  # hashmix calls 4 + 3 src .. 6 + 3 src
        pool[others] = _mix(pool[others], _hashmix(pool[src], consts[4 + 3 * src : 8 + 3 * src]))
    for w in range(4, n_words):  # hashmix calls 4 w .. 4 w + 3
        pool = np.where(ints >= 1 << 32 * w, _mix(pool, _hashmix(words[w], consts[4 * w : 4 * w + 5])), pool)
    state = _hashmix(np.concatenate([pool, pool]), _hash_consts(*_HASH_B, 8)).astype(np.uint64)
    x = (state[0::2] | state[1::2] << 32)[:, :, None]  # (4, n, 1) uint64 words s_hi, s_lo, i_hi, i_lo
    x[2], x[3] = x[2] << 1 | x[3] >> 63, x[3] << 1 | 1  # i to inc
    # s and inc, each (2, n, 1), times their (2, 1, k) jump constants mod 2**128 as (hi, lo) words, then summed
    (x_hi, x_lo), (c_hi, c_lo, c0, c1) = (x[0::2], x[1::2]), _jumps(k)
    x0, x1 = x_lo & 0xFFFFFFFF, x_lo >> 32
    lo, u = c_lo * x_lo, c1 * x0 + (c0 * x0 >> 32)
    v = c0 * x1 + (u & 0xFFFFFFFF)
    hi = c1 * x1 + (u >> 32) + (v >> 32) + c_hi * x_lo + c_lo * x_hi  # c_lo * x_lo's high word, then the cross terms
    total = lo[0] + lo[1]
    hi = hi[0] + hi[1] + (total < lo[0])
    out, rot = hi ^ total, hi >> 58
    return ((out >> rot | out << (64 - rot & 63)) >> 11) * 2.0**-53


def init_world(cfg: ScenarioConfig, seed) -> WorldState:
    """Fresh world at t = 0: uniform positions, constant aircraft velocities.

    Identical (cfg, seed) pairs produce bit-identical worlds.  For a sequence of seeds the world's leading axis
    holds the world of each seed in order, each as default_rng(seed) draws it alone; one uint64 pass seeds the block.
    One random() draw u per seed gives its positions, then its aircraft velocities, as uniform: low + (high - low) * u.
    """
    (seeds, single), n, n_a = check_seeds(seed), cfg.n_entities, cfg.n_aircraft
    u = _seeded_uniforms(seeds, 2 * (n + n_a))
    side, v_max = float(cfg.world_side), float(cfg.v_max)
    pos, vel = side * u[:, : 2 * n].reshape(-1, n, 2), np.zeros((len(seeds), n, 2))  # 0 + side * u is side * u
    vel[:, :n_a] = -v_max + 2 * v_max * u[:, 2 * n :].reshape(-1, n_a, 2)
    if single:
        pos, vel = pos[0], vel[0]
    return WorldState(t=0, vel=vel, n_aircraft=n_a, anchor=(0, pos))


def clamp_actions(desirability: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map arbitrary reals, as float64, into the open interval (0, 1) used by the env, written into ``out`` if given."""
    # equal to np.clip, which costs twice as much on arrays this small
    return np.minimum(np.maximum(desirability, ACTION_CLAMP_LOW, out=out, dtype=float), ACTION_CLAMP_HIGH, out=out)


def _aircraft_offsets(a: np.ndarray, n_aircraft: int) -> np.ndarray:
    """(2, n_aircraft, N, ...) x and y planes of a[:, i] - a[:, j], aircraft i to entity j, of (2, N, ...) planes a."""
    return a[:, :n_aircraft, None] - a[:, None]


@functools.lru_cache(maxsize=None)
def _nomination_rows(n_aircraft: int, n_entities: int) -> np.ndarray:
    """Read-only (N, n_aircraft) row c * n_aircraft + a of aircraft a's column c = j - (j > a), any row at j = a."""
    ids, own = np.arange(n_entities)[:, None], np.arange(n_aircraft)
    rows = np.maximum(ids - (ids >= own), 0) * n_aircraft + own
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=None)
def _top_plan(length: int, count: int, ndim: int) -> tuple:
    """Read-only int8 (length, length, 1, ...) mask of the pairs i < j and (length, 1, ...) bound of _top."""
    upper = np.triu(np.ones((length, length), np.int8), 1).reshape((length, length) + (1,) * (ndim - 1))
    bound = (np.arange(length) + count - length).astype(np.min_scalar_type(-length)).reshape(upper.shape[1:])
    upper.flags.writeable = bound.flags.writeable = False
    return upper, bound


def _top(keys: np.ndarray, count: int) -> np.ndarray:
    """Boolean mask of the ``count`` largest keys along axis 0, ties to the lower index: the first ``count`` places of
    a stable argsort of -keys.  Entry j is marked when fewer than ``count`` entries beat it, i beating j when
    k_i > k_j, or k_i == k_j and i < j.  One (length, length, ...) comparison and whole-plane sums, no sort."""
    upper, bound = _top_plan(len(keys), count, keys.ndim)
    beats = (keys[:, None] >= keys).view(np.int8)  # beats[i, j]: k_i >= k_j, for i < j i beating j
    beats &= upper  # keep i < j; int8, as numpy's bool loop is not vectorized against a broadcast mask
    # the n-1-j later i beat j unless k_j >= k_i: j is beaten sum_i beats[i, j] - beats[j, i] + n-1-j times
    return np.add.reduce(beats - beats.swapaxes(0, 1), axis=0, dtype=bound.dtype) <= bound


def resolve_links(in_range: np.ndarray, proposals: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Resolve per-aircraft desirability vectors into the (..., N, N) link matrix.

    Row a of ``proposals`` (..., n_aircraft, N-1) scores every other entity in ascending id order, so column c is
    entity c + (c >= a); its leading axes, episodes or steps, match those of the boolean ``in_range`` (..., n_aircraft,
    N), the step's mask (see _geometry).  Each aircraft nominates its top ``max_links`` entities, ties to the lower
    id.  Aircraft-aircraft edges need both sides to nominate each other and the pair to be in range (distance <=
    comm_range).  Ground stations are not agents: each accepts its in-range nominators in decreasing desirability
    order (ties to the lower aircraft id) up to ``max_links``.  Proposals must be real; NaN has no rank and is
    rejected, +-inf is clamped.  Both rankings are _top over entity-major planes, batch axes last and reversed (.T):
    the clamped (N-1, n_aircraft, ...) proposals along the column axis, whose nominations one np.take moves to
    (N, n_aircraft, ...) entity planes, then each ground station's plane along the aircraft axis.  The links are
    written as (N, N, ...) planes; their .T view is the link matrix, as the graph is symmetric.
    """
    if not isinstance(in_range, np.ndarray) or in_range.dtype != bool:
        raise ContractViolation(f"in_range must be a boolean array, got {getattr(in_range, 'dtype', type(in_range))}")
    try:
        proposals = np.asarray(proposals)
    except ValueError:  # a ragged nesting, which numpy gives no shape
        raise ContractViolation("proposals must be a rectangular array, got a ragged nesting") from None
    if proposals.dtype.kind not in "iuf":
        raise ContractViolation(f"proposals must be real numbers, got dtype {proposals.dtype}")
    n_a, n, k = cfg.n_aircraft, cfg.n_entities, cfg.max_links
    batch = in_range.shape[:-2]
    if in_range.shape[-2:] != (n_a, n) or proposals.shape != batch + (n_a, n - 1):
        raise ContractViolation(f"proposals must have shape {batch + (n_a, n - 1)}, got {proposals.shape}")
    desire = clamp_actions(proposals.T, out=np.empty(proposals.shape[::-1]))  # [c, a]: aircraft a's column c
    if math.isnan(desire.sum()):  # the clamped proposals are finite, so their sum is NaN exactly where one is
        raise ContractViolation("proposals contain NaN, which has no desirability rank")
    rev = batch[::-1]
    nominated = _top(desire, min(k, n - 1)).reshape(((n - 1) * n_a,) + rev)
    asks = nominated.take(_nomination_rows(n_a, n), axis=0)  # asks[j, a]: aircraft a nominates entity j
    asks[:n_a].reshape((n_a * n_a,) + rev)[:: n_a + 1] = False  # not its own entity
    asks &= in_range.T

    ground = desire[n_a - 1 :]  # (n_ground, n_aircraft, ...): the aircraft that did not ask a station rank last, at 0
    ground *= asks[n_a:]
    links = np.zeros((n, n) + rev, dtype=bool)  # written symmetric
    np.logical_and(asks[:n_a], asks[:n_a].swapaxes(0, 1), out=links[:n_a, :n_a])
    accepted = np.logical_and(_top(ground.swapaxes(0, 1), k), asks[n_a:].swapaxes(0, 1), out=links[:n_a, n_a:])
    links[n_a:, :n_a] = accepted.swapaxes(0, 1)
    return links.T


def path_to_ground(links: np.ndarray, world: WorldState) -> np.ndarray:
    """Per-entity indicator (..., N): 1 if the entity is a ground station or reaches one.

    Boolean propagation seeded with every ground station.  A shortest path to ground visits each aircraft at most
    once, so n_aircraft rounds reach every connected entity.  Each round is a few vector ops over the links'
    entity-major (N, N, B) planes links.T, all B instances at once, which resolve_links' links are without a copy.
    """
    n = world.n_entities
    planes = links.T.reshape((n, n, -1)).swapaxes(0, 1)  # planes[i, j] is link i-j of every instance
    reach = np.zeros(planes.shape[1:], dtype=bool)  # (N, B)
    reach[world.n_aircraft :] = True
    for _ in range(world.n_aircraft):  # one hop: i reaches ground if it links to some j that does
        reach |= np.logical_or.reduce(planes & reach, axis=1)
    return reach.reshape((n,) + links.shape[-3::-1]).T.astype(int, order="C")


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
    lk = np.divide(counts, cfg.horizon)
    lk[~in_range] = -1.0
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
    others = ids[:, 1:].reshape(n_aircraft, n_entities, 3)[np.arange(n_entities) != np.arange(n_aircraft)[:, None]]
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
    check_int(steps, "steps", 0)
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
