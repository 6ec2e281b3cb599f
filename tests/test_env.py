"""FANET environment: geometry, link resolution, observations, reward."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanetq.env import (
    ACTION_CLAMP_LOW,
    EPISODE_BLOCK,
    FanetEnv,
    ScenarioConfig,
    WorldState,
    _geometry,
    _in_range,
    _lk_table,
    _seeded_uniforms,
    _top,
    clamp_actions,
    env_step,
    init_world,
    observe_all,
    open_loop_rewards,
    path_to_ground,
    resolve_links,
    reward,
    run_episodes,
    step_episodes,
)
from fanetq.errors import ConfigError, ContractViolation
from fanetq.experiments import load_scenario
from tests.oracles import init_world as oracle_init_world, lk_rows_per_step, seeded_uniforms, stack_worlds


_FLOAT_MAX = float(np.finfo(float).max)


def cfg_4a1s(comm_range=0.3, **kw):
    return ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=comm_range, **kw)


def make_world(positions, n_aircraft, velocities=None, t=0):
    pos = np.asarray(positions, dtype=float)
    vel = np.zeros_like(pos) if velocities is None else np.asarray(velocities, dtype=float)
    return WorldState(t=t, vel=vel, n_aircraft=n_aircraft, anchor=(t, pos))


def adjacency(n, edges):
    """Symmetric (n, n) boolean link matrix from an edge list."""
    links = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        links[a, b] = links[b, a] = True
    return links


def edge_set(links):
    return {(int(a), int(b)) for a, b in np.argwhere(np.triu(links))}


def lk(world, cfg, aircraft_id, entity_id):
    """The core's lk feature for one (aircraft, other entity) pair, read from observe_all."""
    k = entity_id if entity_id < aircraft_id else entity_id - 1
    return observe_all(world, cfg)[aircraft_id, 2 + 3 * k]


# ---------------------------------------------------------------------------
# Scalar oracle: the per-entity rules, with sorted() nominations, an edge set,
# a breadth-first search and a per-agent observer.  The array core must match
# it bit for bit.
# ---------------------------------------------------------------------------


def oracle_candidate_ids(aircraft_id, n_entities):
    """Entity ids addressed by an action vector, ascending, self excluded."""
    return [e for e in range(n_entities) if e != aircraft_id]


def oracle_nominations(aircraft_id, desirability, cfg):
    """Top-2 entity ids by desirability; ties go to the lower entity id."""
    cands = oracle_candidate_ids(aircraft_id, cfg.n_entities)
    order = sorted(range(len(cands)), key=lambda k: (-desirability[k], cands[k]))
    return [cands[k] for k in order[: cfg.max_links]]


def oracle_resolve_links(world, proposals, cfg):
    """Edge set {(a, b), a < b} from mutual consent and ground acceptance."""
    proposals = clamp_actions(np.asarray(proposals, dtype=float))
    dist = np.hypot(
        world.pos[:, None, 0] - world.pos[None, :, 0],
        world.pos[:, None, 1] - world.pos[None, :, 1],
    )
    reachable = dist <= cfg.comm_range
    noms, desir_for = [], []
    for a in range(cfg.n_aircraft):
        cands = oracle_candidate_ids(a, cfg.n_entities)
        desir_for.append({e: proposals[a][k] for k, e in enumerate(cands)})
        noms.append(oracle_nominations(a, proposals[a], cfg))
    edges = set()
    for a in range(cfg.n_aircraft):
        for e in noms[a]:
            if e < cfg.n_aircraft and a < e and a in noms[e] and reachable[a, e]:
                edges.add((a, e))
    for g in range(cfg.n_aircraft, cfg.n_entities):
        applicants = [a for a in range(cfg.n_aircraft) if g in noms[a] and reachable[a, g]]
        applicants.sort(key=lambda a: (-desir_for[a][g], a))
        for a in applicants[: cfg.max_links]:
            edges.add((a, g))
    return edges


def oracle_path_to_ground(edges, n_entities, n_aircraft):
    """Breadth-first traversal seeded with every ground station."""
    adj = [[] for _ in range(n_entities)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    ptg = np.zeros(n_entities, dtype=int)
    frontier = list(range(n_aircraft, n_entities))
    ptg[frontier] = 1
    while frontier:
        nxt = []
        for e in frontier:
            for nb in adj[e]:
                if not ptg[nb]:
                    ptg[nb] = 1
                    nxt.append(nb)
        frontier = nxt
    return ptg


def oracle_link_range_fraction(i, j, world, cfg):
    """Fraction of the horizon the pair (i, j) stays in range; -1 if out of range now."""
    if i == j:
        raise ContractViolation("link_range_fraction needs two distinct entities")
    if float(np.hypot(*(world.pos[i] - world.pos[j]))) > cfg.comm_range:
        return -1.0
    # both entities at their closed-form positions pos_a + (tau - t_a) * vel, tau in {t, ..., horizon - 1}
    t_a, pos_a = world.anchor
    elapsed = np.arange(world.t, cfg.horizon) - t_a
    rel = (pos_a[i] + elapsed[:, None] * world.vel[i]) - (pos_a[j] + elapsed[:, None] * world.vel[j])
    return int(np.count_nonzero(np.hypot(rel[:, 0], rel[:, 1]) <= cfg.comm_range)) / cfg.horizon


def oracle_observe(world, aircraft_id, cfg, edges):
    """One aircraft's observation: [own ptg, then (ptg, lk, oc) per other entity]."""
    ptg = oracle_path_to_ground(edges, cfg.n_entities, cfg.n_aircraft)
    obs = np.empty(cfg.obs_dim)
    obs[0] = ptg[aircraft_id]
    k = 1
    for e in oracle_candidate_ids(aircraft_id, cfg.n_entities):
        obs[k] = ptg[e]
        obs[k + 1] = oracle_link_range_fraction(aircraft_id, e, world, cfg)
        obs[k + 2] = sum(1 for edge in edges if e in edge) - 1.0
        k += 3
    return obs


def oracle_step(world, edges, joint_action, cfg):
    """One step of the scalar path: (world, edges, obs, reward, done)."""
    new = WorldState(t=world.t + 1, vel=world.vel, n_aircraft=world.n_aircraft, anchor=world.anchor)
    edges = oracle_resolve_links(new, joint_action, cfg)
    ptg = oracle_path_to_ground(edges, cfg.n_entities, cfg.n_aircraft)
    obs = np.stack([oracle_observe(new, a, cfg, edges) for a in range(cfg.n_aircraft)])
    return new, edges, obs, float(ptg[: cfg.n_aircraft].mean()), new.t >= cfg.horizon


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3, world_side=-1.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3, horizon=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=-0.1)
        with pytest.raises(ConfigError):
            ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=0.3, max_links=3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("comm_range", math.nan),
            ("comm_range", math.inf),
            ("comm_range", "0.3"),
            ("world_side", math.inf),
            ("v_max", math.nan),
            # integers beyond the float range, which math.isfinite cannot convert
            pytest.param("comm_range", 10**400, id="comm_range-10**400"),
            pytest.param("world_side", 10**400, id="world_side-10**400"),
            pytest.param("v_max", 10**400, id="v_max-10**400"),
            ("n_aircraft", 4.5),
            ("n_ground", True),
            ("horizon", 50.0),
            ("max_links", 2.0),
        ],
    )
    def test_rejects_non_finite_and_non_integer_values(self, field, value):
        kw = {"n_aircraft": 4, "n_ground": 1, "comm_range": 0.3, field: value}
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**kw)

    @pytest.mark.parametrize("v_max", [1e308, _FLOAT_MAX, math.nextafter(_FLOAT_MAX / 2, math.inf)])
    def test_rejects_a_v_max_whose_draw_range_overflows(self, v_max):
        # init_world draws velocities over the range v_max - (-v_max), which must be a finite float
        with pytest.raises(ConfigError, match="v_max"):
            cfg_4a1s(v_max=v_max)
        assert np.isfinite(init_world(cfg_4a1s(v_max=_FLOAT_MAX / 2), range(8)).vel).all()

    def test_accepts_and_saves_numpy_numbers(self, tmp_path):
        cfg = ScenarioConfig(n_aircraft=np.int64(4), n_ground=np.int32(1), comm_range=np.float64(0.3))
        assert cfg.obs_dim == 13
        cfg.save(tmp_path / "s.json")
        assert ScenarioConfig.load(tmp_path / "s.json") == cfg_4a1s()

    def test_from_dict_names_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError, match="comm_rnage"):
            ScenarioConfig.from_dict({"n_aircraft": 4, "n_ground": 1, "comm_range": 0.3, "comm_rnage": 0.3})
        with pytest.raises(ConfigError, match="comm_range"):
            ScenarioConfig.from_dict({"n_aircraft": 4, "n_ground": 1})

    def test_observation_dims_match_scenarios(self):
        assert cfg_4a1s().obs_dim == 13
        assert ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.3).obs_dim == 19
        assert cfg_4a1s().global_obs_dim == 52
        assert ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.3).global_obs_dim == 95

    def test_roundtrip(self, tmp_path):
        cfg = cfg_4a1s(comm_range=0.456)
        cfg.save(tmp_path / "s.json")
        assert ScenarioConfig.load(tmp_path / "s.json") == cfg


class TestInitWorld:
    def test_ground_station_static(self):
        cfg = cfg_4a1s()
        world = init_world(cfg, seed=5)
        assert world.n_entities - world.n_aircraft == 1
        assert np.all(world.vel[cfg.n_aircraft :] == 0.0)

    def test_deterministic(self):
        cfg = cfg_4a1s()
        w1, w2 = init_world(cfg, 0), init_world(cfg, 0)
        assert np.array_equal(w1.pos, w2.pos)
        assert np.array_equal(w1.vel, w2.vel)
        assert w1.t == 0
        assert w1.links.shape == (5, 5) and w1.links.dtype == bool and not w1.links.any()

    def test_position_mean_over_seeds(self):
        # Monte-Carlo oracle: uniform positions have mean world_side / 2
        cfg = cfg_4a1s()
        means = [init_world(cfg, s).pos.mean() for s in range(1000)]
        mean = np.mean(means)
        se = np.std(means) / np.sqrt(len(means))
        assert abs(mean - 0.5) < 3 * se + 1e-12

    def test_velocity_bounds(self):
        cfg = cfg_4a1s()
        for s in range(20):
            w = init_world(cfg, s)
            assert np.all(np.abs(w.vel[: cfg.n_aircraft]) <= cfg.v_max)
            assert np.all(w.vel[cfg.n_aircraft :] == 0.0)

    @pytest.mark.parametrize("cfg", [cfg_4a1s(), ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.3)])
    @pytest.mark.parametrize("n_seeds", [1, 2, EPISODE_BLOCK])
    def test_a_sequence_of_seeds_equals_their_worlds_stacked(self, cfg, n_seeds):
        seeds = [7 + 3 * k for k in range(n_seeds)]
        want = stack_worlds([init_world(cfg, s) for s in seeds])
        for got in (init_world(cfg, seeds), init_world(cfg, range(7, 7 + 3 * n_seeds, 3))):
            assert got.t == want.t == 0 and got.anchor[0] == want.anchor[0] == 0
            for name in ("pos", "vel", "links"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape == (n_seeds,) + b.shape[1:] and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes(), name
            assert got.anchor[1].tobytes() == want.anchor[1].tobytes()
        assert init_world(cfg, seeds[0]).pos.shape == (cfg.n_entities, 2)  # one seed: no leading axis

    @pytest.mark.parametrize(
        "cfg",
        [
            load_scenario("4a1s"),
            load_scenario("5a2s"),
            cfg_4a1s(world_side=1e-300),
            cfg_4a1s(world_side=1e300),
            cfg_4a1s(v_max=0),
            cfg_4a1s(v_max=0.0),
            cfg_4a1s(v_max=1e300),
        ],
    )
    @pytest.mark.parametrize(
        "seed",
        [5, [5], [7, 10], list(range(7, 7 + 3 * EPISODE_BLOCK, 3)), np.uint64(2**63 + 5), [2**160 + 7, 3]],
        ids=["5", "[5]", "[7, 10]", "3 blocks", "np.uint64 2**63 + 5", "[2**160 + 7, 3]"],
    )
    def test_draws_the_worlds_of_the_per_seed_uniform_oracle_bit_for_bit(self, cfg, seed):
        got, want = init_world(cfg, seed), oracle_init_world(cfg, seed)
        assert got.t == want.t == 0 and got.anchor[0] == want.anchor[0] == 0
        for name, a, b in [
            ("pos", got.pos, want.pos),
            ("vel", got.vel, want.vel),
            ("links", got.links, want.links),
            ("anchor", got.anchor[1], want.anchor[1]),
        ]:
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize(
        "seed", [2.0, 1.5, True, -1, "3", None, [], range(0), [0, 1.5], [0, True], [3, -1], [1, [2, 3]]]
    )
    def test_a_seed_that_is_no_integer_in_range_is_a_contract_violation(self, seed):
        # refused here, not as a bare TypeError or numpy's ValueError, and True is not seed 1
        with pytest.raises(ContractViolation, match="^seed must be"):
            init_world(cfg_4a1s(), seed)


EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**160 + 7, 2**300 + 1]


class TestSeededUniforms:
    """The one-pass block kernel against a default_rng(seed).random(k) per seed, compared as uint64 bits."""

    @staticmethod
    def assert_bits_equal(seeds, k):
        got, want = _seeded_uniforms(seeds, k), seeded_uniforms(seeds, k)
        assert got.shape == want.shape == (len(seeds), k) and got.dtype == want.dtype == np.float64
        bad = np.flatnonzero((got.view(np.uint64) != want.view(np.uint64)).any(axis=1))
        assert not bad.size, f"rows of seeds {[seeds[i] for i in bad[:5]]} differ"

    @pytest.mark.parametrize("k", [1, 2, 18, 24, 28])  # 18 and 24 are the 4a1s and 5a2s draws
    def test_edge_seeds_bit_for_bit(self, k):
        # the 32-bit word boundaries, 4 and 5 pool words, and words past the pool that SeedSequence mixes in last
        self.assert_bits_equal(EDGE_SEEDS + [1, 5, 2**96 + 3], k)
        for seed in EDGE_SEEDS:  # each alone, so that no longer seed in the block sets its word count
            self.assert_bits_equal([seed], k)

    @pytest.mark.parametrize("k", [1, 24, 28])
    def test_5000_random_seeds_bit_for_bit(self, k):
        seeds = np.random.default_rng(k).integers(0, 2**63, 5000).tolist()
        self.assert_bits_equal(seeds, k)

    def test_numpy_integer_seeds_bit_for_bit(self):
        seeds = [np.int64(0), np.int64(7), np.int64(2**63 - 1), np.uint64(2**63), np.uint64(2**64 - 1), 12, 2**200]
        self.assert_bits_equal(seeds, 24)
        self.assert_bits_equal([np.uint64(2**63 + 2**33 * i) for i in range(128)], 18)


def links_1a1s(positions, comm_range):
    """Whether the lone aircraft of a 1a1s world links to its ground station."""
    cfg = ScenarioConfig(n_aircraft=1, n_ground=1, comm_range=comm_range)
    return bool(resolve_links(_geometry(make_world(positions, n_aircraft=1), cfg)[0], np.array([[0.5]]), cfg)[0, 1])


class TestInRange:
    def test_identical_positions(self):
        assert links_1a1s([[0.2, 0.2], [0.2, 0.2]], comm_range=0.1)

    def test_boundary_inclusive(self):
        assert links_1a1s([[0.0, 0.0], [0.25, 0.0]], comm_range=0.25)

    def test_just_out_of_range(self):
        assert not links_1a1s([[0.0, 0.0], [0.25 + 1e-9, 0.0]], comm_range=0.25)


class TestLinkRangeFraction:
    def test_static_pair_in_range(self):
        cfg = ScenarioConfig(n_aircraft=1, n_ground=2, comm_range=0.3, horizon=50)
        w = make_world([[0.1, 0.1], [0.2, 0.1], [0.9, 0.9]], n_aircraft=1, t=10)
        assert lk(w, cfg, 0, 1) == (50 - 10) / 50

    def test_out_of_range_marker(self):
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=0.1)
        w = make_world([[0.0, 0.0], [0.9, 0.9], [0.5, 0.5]], n_aircraft=2)
        assert lk(w, cfg, 0, 1) == -1.0

    def test_colocated_opposite_velocities_closed_form(self):
        # kinematics: distance 2vs stays within Rc for s <= Rc / (2v)
        v, rc, horizon = 0.01, 0.095, 50
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=rc, horizon=horizon)
        w = make_world(
            [[0.5, 0.5], [0.5, 0.5], [0.1, 0.1]],
            n_aircraft=2,
            velocities=[[v, 0.0], [-v, 0.0], [0.0, 0.0]],
        )
        expected = min(int(rc / (2 * v)) + 1, horizon) / horizon
        assert lk(w, cfg, 0, 1) == expected

    def test_matches_step_by_step_simulation(self):
        # forward-simulation oracle on random instances
        rng = np.random.default_rng(3)
        cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=0.3, horizon=40)
        for _ in range(50):
            pos = rng.uniform(0, 1, size=(4, 2))
            vel = np.zeros((4, 2))
            vel[:3] = rng.uniform(-0.02, 0.02, size=(3, 2))
            t = int(rng.integers(0, 40))
            w = make_world(pos, n_aircraft=3, velocities=vel, t=t)
            got = lk(w, cfg, 0, 1)
            if np.hypot(*(pos[0] - pos[1])) > cfg.comm_range:
                assert got == -1.0
                continue
            count = 0
            for s in range(0, cfg.horizon - t):
                p0 = pos[0] + s * vel[0]
                p1 = pos[1] + s * vel[1]
                if np.hypot(*(p0 - p1)) <= cfg.comm_range:
                    count += 1
            assert got == pytest.approx(count / cfg.horizon)

    def test_rejects_self_pair(self):
        w = make_world([[0, 0], [1, 1]], n_aircraft=1)
        with pytest.raises(ContractViolation):
            oracle_link_range_fraction(0, 0, w, cfg_4a1s())


def assert_lk_equals_plain_hypot(world, cfg):
    """Every (aircraft, other entity) lk of the core equals the hypot-per-step oracle, bit for bit."""
    got = _geometry(world, cfg)[1]
    for i in range(cfg.n_aircraft):
        for j in range(cfg.n_entities):
            if j != i:
                assert got[i, j] == oracle_link_range_fraction(i, j, world, cfg), (i, j)


class TestLkSquaredDistancePrefilter:
    # the core decides "in range" from x*x + y*y and calls hypot only near
    # comm_range; the booleans must equal hypot(x, y) <= comm_range everywhere

    @pytest.mark.parametrize("scale", [1e-200, 1e-154, 1e-153, 1.0, 1e153, 1e154, 1e200])
    def test_pairs_placed_exactly_at_comm_range(self, scale):
        r = 0.25 * scale
        cfg = ScenarioConfig(n_aircraft=2, n_ground=3, comm_range=r, horizon=6, world_side=scale, v_max=0.1 * scale)
        # 3-4-5 triangles and axis offsets land on r exactly; the velocities move pairs across it
        pos = [[0.0, 0.0], [0.6 * r, 0.8 * r], [r, 0.0], [0.0, -r], [-0.8 * r, 0.6 * r]]
        vel = [[0.0, 0.0], [0.0, -0.2 * r], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        for t in (0, 3):
            assert_lk_equals_plain_hypot(make_world(pos, n_aircraft=2, velocities=vel, t=t), cfg)

    @settings(max_examples=200, deadline=None)
    @given(
        n_aircraft=st.integers(1, 5),
        n_ground=st.integers(1, 3),
        horizon=st.integers(1, 12),
        scale=st.sampled_from([1e-200, 1e-154, 1e-153, 1e-100, 1.0, 1e100, 1e153, 1e154, 1e200]),
        ulps=st.sampled_from([None, -1, 0, 1]),
        seed=st.integers(0, 2**31 - 1),
    )
    # draws on which the table and an oracle extrapolating from re-added positions, pos + vel each step, disagree
    @example(n_aircraft=1, n_ground=2, horizon=11, scale=1e154, ulps=0, seed=169)
    @example(n_aircraft=1, n_ground=1, horizon=2, scale=1e-154, ulps=0, seed=6)
    @example(n_aircraft=3, n_ground=1, horizon=3, scale=1e-200, ulps=-1, seed=524287)
    @example(n_aircraft=1, n_ground=1, horizon=3, scale=1e-100, ulps=0, seed=193)
    def test_random_worlds_at_extreme_scales(self, n_aircraft, n_ground, horizon, scale, ulps, seed):
        cfg = ScenarioConfig(
            n_aircraft=n_aircraft, n_ground=n_ground, comm_range=0.5 * scale, horizon=horizon,
            world_side=scale, v_max=0.05 * scale,
        )
        rng = np.random.default_rng(seed)
        fresh = init_world(cfg, seed)
        world = make_world(fresh.pos, n_aircraft, fresh.vel, t=int(rng.integers(0, horizon)))
        if ulps is not None:
            # comm_range on the distance of one pair at one step, or one ulp off it; the world's anchor is (t, pos)
            i, j = int(rng.integers(0, n_aircraft)), int(rng.integers(0, cfg.n_entities))
            s = float(rng.integers(0, horizon - world.t))
            d = float(np.hypot(*((world.pos[i] + s * world.vel[i]) - (world.pos[j] + s * world.vel[j]))))
            d = d if ulps == 0 else float(np.nextafter(d, ulps * np.inf))
            assume(0.0 < d < np.inf)
            cfg = dataclasses.replace(cfg, comm_range=d)
        assert_lk_equals_plain_hypot(world, cfg)


WORLDS_ON_A_RANGE = dict(
    batch=st.sampled_from([(), (2,)]),
    n_aircraft=st.integers(1, 4),
    n_ground=st.integers(1, 2),
    horizon=st.integers(1, 50),
    scale=st.sampled_from([0.0, 1e3, 1e5, 1e6, 1e7]),
    nudge=st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-10, -1e-10, 1e-9, -1e-9]),
    seed=st.integers(0, 2**31 - 1),
)


def world_on_a_range(batch, n_aircraft, n_ground, horizon, scale, nudge, seed):
    """(rng, cfg, world at t0) with comm_range on, or a relative nudge off, one pair's distance at a step >= t0."""
    rng = np.random.default_rng(seed)
    n = n_aircraft + n_ground
    # entities within a few comm_range of each other, up to 1e7 comm_range from the origin
    pos = scale * rng.uniform(0.5, 1.0, 2) + rng.uniform(-2.0, 2.0, batch + (n, 2))
    vel = np.zeros_like(pos)
    vel[..., :n_aircraft, :] = rng.uniform(-0.1, 0.1, batch + (n_aircraft, 2))
    t0 = int(rng.integers(0, horizon))  # the table is built at t0, mid-episode when t0 > 0
    # comm_range on (or a relative nudge off) one pair's distance at a future step, as seen from t0
    i, j = int(rng.integers(0, n_aircraft)), int(rng.integers(0, n))
    assume(i != j)
    s = float(rng.integers(0, horizon - t0))  # positions at t0 + s are pos + s * vel, the anchor being (t0, pos)
    d = np.hypot(*np.moveaxis((pos[..., i, :] + s * vel[..., i, :]) - (pos[..., j, :] + s * vel[..., j, :]), -1, 0)).flat[0]
    cfg = ScenarioConfig(
        n_aircraft=n_aircraft, n_ground=n_ground, comm_range=float(d) * (1.0 + nudge), horizon=horizon,
        world_side=max(scale, 1.0),
    )
    return rng, cfg, WorldState(t=t0, vel=vel, n_aircraft=n_aircraft, anchor=(t0, pos))


def in_range_oracle(world, cfg):
    """hypot(pos[i] - pos[j]) <= comm_range from every aircraft i to every entity j, taken from world.pos alone."""
    dp = world.pos[..., : cfg.n_aircraft, None, :] - world.pos[..., None, :, :]
    return np.hypot(dp[..., 0], dp[..., 1]) <= cfg.comm_range


def assert_links_follow_the_in_range_oracle(world, proposals, links, cfg):
    """The mask of the world's table is the oracle's, and each episode's links are the scalar resolver's."""
    assert world.lk_table[0] == cfg
    assert np.array_equal(_geometry(world, cfg)[0], in_range_oracle(world, cfg)), world.t
    pos, links = world.pos.reshape((-1,) + world.pos.shape[-2:]), links.reshape((-1,) + links.shape[-2:])
    for p, a, got in zip(pos, proposals.reshape((len(pos),) + proposals.shape[-2:]), links):
        assert edge_set(got) == oracle_resolve_links(make_world(p, cfg.n_aircraft), a, cfg), world.t


class TestCarriedLkTable:
    # the table counts each pair's future once, from its first observed step;
    # every later step must read the lk rows of counting anew at that step from
    # the closed-form positions of the world's anchor

    @settings(max_examples=300, deadline=None)
    @given(**WORLDS_ON_A_RANGE)
    # draws on which the table and an oracle extrapolating from re-added positions, pos + vel each step, disagree
    @example(batch=(), n_aircraft=3, n_ground=1, horizon=4, scale=1e5, nudge=0.0, seed=0)
    @example(batch=(), n_aircraft=1, n_ground=2, horizon=5, scale=0.0, nudge=0.0, seed=74)
    @example(batch=(2,), n_aircraft=1, n_ground=1, horizon=4, scale=1e3, nudge=0.0, seed=5)
    @example(batch=(), n_aircraft=1, n_ground=1, horizon=3, scale=1e5, nudge=-1e-13, seed=40)
    def test_every_step_equals_the_per_step_oracle(self, batch, n_aircraft, n_ground, horizon, scale, nudge, seed):
        rng, cfg, world = world_on_a_range(batch, n_aircraft, n_ground, horizon, scale, nudge, seed)
        assert np.array_equal(_geometry(world, cfg)[1], lk_rows_per_step(world, cfg))
        table = world.lk_table
        while world.t < horizon:
            actions = rng.uniform(0.0, 1.0, batch + (n_aircraft, cfg.action_dim))
            world, obs, _, _ = env_step(world, actions, cfg)
            assert world.lk_table is table
            assert np.array_equal(_geometry(world, cfg)[1], lk_rows_per_step(world, cfg)), world.t

    @settings(max_examples=300, deadline=None)
    @given(**WORLDS_ON_A_RANGE)
    def test_every_step_links_over_the_in_range_mask_of_its_own_positions(
        self, batch, n_aircraft, n_ground, horizon, scale, nudge, seed
    ):
        # the mask comes from the table, the finished world's at t = horizon too; a fresh world builds it in
        # _geometry, and a world read under a second config (one ulp shorter a range) takes that config's
        rng, cfg, world = world_on_a_range(batch, n_aircraft, n_ground, horizon, scale, nudge, seed)
        shorter = dataclasses.replace(cfg, comm_range=float(np.nextafter(cfg.comm_range, 0.0)))
        for c in (cfg, shorter, cfg):
            actions = rng.uniform(0.0, 1.0, batch + (n_aircraft, cfg.action_dim))
            links = resolve_links(_geometry(world, c)[0], actions, c)
            assert_links_follow_the_in_range_oracle(world, actions, links, c)
        while world.t < horizon:
            actions = rng.uniform(0.0, 1.0, batch + (n_aircraft, cfg.action_dim))
            world, *_ = env_step(world, actions, cfg)
            assert_links_follow_the_in_range_oracle(world, actions, world.links, cfg)
        actions = rng.uniform(0.0, 1.0, batch + (n_aircraft, cfg.action_dim))
        links = resolve_links(_geometry(world, shorter)[0], actions, shorter)
        assert_links_follow_the_in_range_oracle(world, actions, links, shorter)

    def test_a_world_read_under_another_config_counts_anew(self):
        # the pair starts 0.3 apart and closes in by 0.01 a step: always in range of 0.35, not now of 0.25
        w = make_world([[0.0, 0.0], [0.3, 0.0]], n_aircraft=1, velocities=[[0.01, 0.0], [0.0, 0.0]])
        short, wide = (ScenarioConfig(n_aircraft=1, n_ground=1, comm_range=r, horizon=10) for r in (0.25, 0.35))
        assert [_geometry(w, cfg)[1][0, 1] for cfg in (short, wide, short)] == [-1.0, 1.0, -1.0]
        w2, *_ = env_step(w, np.full((1, 1), 0.5), wide)
        assert _geometry(w2, short)[1][0, 1] == -1.0 and _geometry(w2, wide)[1][0, 1] == 0.9

    def test_one_table_per_episode_block(self, monkeypatch):
        # a guard against counting the future anew at every step
        import fanetq.env as env

        builds = []
        monkeypatch.setattr(env, "_lk_table", lambda world, cfg: builds.append(world.t) or _lk_table(world, cfg))
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.3)
        half = lambda obs, t: np.full(obs.shape[:-1] + (cfg.action_dim,), 0.5)
        run_episodes(cfg, range(130), lambda w: step_episodes(w, cfg.horizon, cfg, half)[2])
        assert builds == [0, 0, 0]  # blocks of 64, 64 and 2 episodes
        builds.clear()
        fanet = FanetEnv(cfg)
        fanet.reset(3)
        for _ in range(cfg.horizon):
            fanet.step(np.full((cfg.n_aircraft, cfg.action_dim), 0.5))
        assert builds == [0]

    def test_one_geometry_read_per_table(self, monkeypatch):
        # a guard against all-pairs offsets and distances at every step
        import fanetq.env as env

        reads = []
        offsets = env._aircraft_offsets
        monkeypatch.setattr(env, "_aircraft_offsets", lambda a, n_aircraft: reads.append(a.shape) or offsets(a, n_aircraft))
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.3)
        half = lambda obs, t: np.full(obs.shape[:-1] + (cfg.action_dim,), 0.5)
        run_episodes(cfg, range(130), lambda w: step_episodes(w, cfg.horizon, cfg, half)[2])
        # the (x and y, entity, tau, episode) positions of every step, once per table of the blocks of 64, 64 and 2
        assert reads == [(2, 7, 51, 64)] * 2 + [(2, 7, 51, 2)]

    def test_the_rows_a_step_reads_are_read_only(self):
        # every later step of the episode reads the same table, so no caller may write into its rows
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.3)
        world = stack_worlds([init_world(cfg, seed) for seed in range(3)])
        actions = np.full((3, cfg.n_aircraft, cfg.action_dim), 0.5)
        for _ in range(3):
            now, lk = _geometry(world, cfg)
            with pytest.raises(ValueError):
                now[..., 0, 1] = ~now[..., 0, 1]
            with pytest.raises(ValueError):
                lk[...] = 0.5
            world, *_ = env_step(world, actions, cfg)
            assert np.array_equal(_geometry(world, cfg)[1], lk_rows_per_step(world, cfg)), world.t
            assert np.array_equal(_geometry(world, cfg)[0], in_range_oracle(world, cfg)), world.t


class TestResolveLinks:
    def test_mutual_aircraft_edge(self):
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=0.5)
        w = make_world([[0.1, 0.1], [0.2, 0.1], [0.9, 0.9]], n_aircraft=2)
        # each aircraft ranks the other highest (ground is far anyway)
        proposals = np.array([[0.9, 0.1], [0.9, 0.1]])
        links = resolve_links(_geometry(w, cfg)[0], proposals, cfg)
        assert links[0, 1] and links[1, 0]

    def test_mutual_but_out_of_range(self):
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=0.05)
        w = make_world([[0.1, 0.1], [0.9, 0.9], [0.5, 0.5]], n_aircraft=2)
        proposals = np.array([[0.9, 0.1], [0.9, 0.1]])
        assert not resolve_links(_geometry(w, cfg)[0], proposals, cfg)[0, 1]

    def test_ground_capacity_by_desirability(self):
        # three aircraft court one ground station: 0.9 and 0.8 win, 0.7 loses
        cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=1.5)
        w = make_world([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.2, 0.2]], n_aircraft=3)
        proposals = np.array(
            [
                # candidates for a0: [a1, a2, g3]; make the ground the top pick
                [0.01, 0.02, 0.9],
                [0.01, 0.02, 0.8],
                [0.01, 0.02, 0.7],
            ]
        )
        links = resolve_links(_geometry(w, cfg)[0], proposals, cfg)
        assert links[0, 3] and links[1, 3]
        assert not links[2, 3]
        assert links[3].sum() == 2

    def test_wrong_length_rejected(self):
        cfg = cfg_4a1s()
        w = init_world(cfg, 0)
        with pytest.raises(ContractViolation):
            resolve_links(_geometry(w, cfg)[0], np.zeros((4, 5)), cfg)

    def test_nan_proposal_rejected(self):
        cfg = cfg_4a1s()
        w = init_world(cfg, 0)
        proposals = np.full((4, 4), 0.5)
        proposals[2, 1] = np.nan
        with pytest.raises(ContractViolation, match="NaN"):
            resolve_links(_geometry(w, cfg)[0], proposals, cfg)

    def test_infinite_proposals_are_clamped(self):
        cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=1.5)
        w = make_world([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.2, 0.2]], n_aircraft=3)
        proposals = np.array([[np.inf, -np.inf, 0.5], [np.inf, 0.2, -np.inf], [0.3, np.inf, 0.1]])
        got = resolve_links(_geometry(w, cfg)[0], proposals, cfg)
        assert np.array_equal(got, resolve_links(_geometry(w, cfg)[0], clamp_actions(proposals), cfg))
        assert edge_set(got) == {(0, 1), (1, 2), (0, 3)}

    def test_nomination_tie_breaks_to_lower_id(self):
        cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=1.5)
        assert oracle_nominations(0, np.array([0.5, 0.5, 0.5]), cfg) == [1, 2]
        # a0 ties over {a1, a2, g3} and must pick a1, a2; a1 and a2 rank a0 first
        w = make_world([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.2, 0.2]], n_aircraft=3)
        proposals = np.array([[0.5, 0.5, 0.5], [0.9, 0.1, 0.1], [0.9, 0.1, 0.1]])
        assert edge_set(resolve_links(_geometry(w, cfg)[0], proposals, cfg)) == {(0, 1), (0, 2), (1, 2)}

    @pytest.mark.parametrize(
        "in_range, got",
        [(lambda mask: mask.astype(int), "int64"), (lambda mask: mask.astype(float), "float64"), (np.ndarray.tolist, "list")],
        ids=["int mask", "float mask", "list"],
    )
    def test_an_in_range_that_is_no_boolean_array_is_refused(self, in_range, got):
        # numpy's UFuncTypeError, a TypeError and an AttributeError before
        cfg = cfg_4a1s()
        mask = _geometry(init_world(cfg, 0), cfg)[0]
        with pytest.raises(ContractViolation, match=f"^in_range must be a boolean array, got .*{got}"):
            resolve_links(in_range(mask), np.full((4, 4), 0.5), cfg)

    @pytest.mark.parametrize("value", [0.5 + 0.5j, "0.5", True], ids=["complex", "str", "bool"])
    def test_proposals_that_are_no_real_numbers_are_refused(self, value):
        # complex proposals lost their imaginary part with a ComplexWarning, strings raised a bare ValueError
        cfg = cfg_4a1s()
        proposals = np.full((4, 4), value)
        with pytest.raises(ContractViolation, match=f"^proposals must be real numbers, got dtype {proposals.dtype}$"):
            resolve_links(_geometry(init_world(cfg, 0), cfg)[0], proposals, cfg)

    def test_ragged_proposals_are_refused(self):
        # numpy's bare ValueError "setting an array element with a sequence" before
        cfg = cfg_4a1s()
        mask = _geometry(init_world(cfg, 0), cfg)[0]
        with pytest.raises(ContractViolation, match="^proposals must be a rectangular array, got a ragged nesting$"):
            resolve_links(mask, [[0.5] * 4] * 3 + [[0.5] * 3], cfg)

    def test_proposals_are_ranked_as_float64(self):
        # float16 has no value at ACTION_CLAMP_LOW: the nearest is above it and the next one down below it, so the
        # two clamp apart as float64 and would tie, both clamped up to the nearest, in float16 arithmetic
        cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=1.5)
        low = np.float16(ACTION_CLAMP_LOW)
        below = np.nextafter(low, np.float16(0))
        assert float(below) < ACTION_CLAMP_LOW < float(low)
        proposals = np.array([[below, below, low], [0.5] * 3, [0.5] * 3], np.float16)
        in_range = _geometry(init_world(cfg, 0), cfg)[0]
        got = resolve_links(in_range, proposals, cfg)
        assert np.array_equal(got, resolve_links(in_range, proposals.astype(float), cfg)) and got[0, 3] and not got[0, 2]

    @pytest.mark.parametrize("scenario, episodes", [("5a2s", 50), ("4a1s", 64)])
    def test_the_open_loop_shapes_equal_the_contiguous_and_the_unbatched_calls(self, scenario, episodes):
        # the (episodes, horizon) instances a random_baseline_cr block resolves at once, the in-range mask being
        # open_loop_rewards' np.moveaxis view of the (steps, episodes, ...) planes, and the proposals tied often
        cfg = load_scenario(scenario)
        in_range = np.moveaxis(_in_range(init_world(cfg, list(range(episodes))), cfg)[1:], 0, 1)
        assert in_range.shape[:2] == (episodes, cfg.horizon) and not in_range.flags.c_contiguous
        values = [-np.inf, 0.0, 0.3, 0.7, 1.0, np.inf]
        proposals = np.random.default_rng(episodes).choice(values, size=in_range.shape[:-1] + (cfg.action_dim,))
        got = resolve_links(in_range, proposals, cfg)
        assert got.shape == in_range.shape[:2] + (cfg.n_entities, cfg.n_entities)
        assert np.array_equal(got, resolve_links(np.ascontiguousarray(in_range), proposals, cfg))
        for i in np.ndindex(in_range.shape[:2]):
            assert np.array_equal(got[i], resolve_links(in_range[i], proposals[i], cfg)), i

    def _brute_force_resolver(self, world, proposals, cfg):
        """Independent O(N^2) re-derivation of the link rules."""
        n_a, n = cfg.n_aircraft, cfg.n_entities
        noms = {}
        desir = {}
        for a in range(n_a):
            cands = [e for e in range(n) if e != a]
            scored = sorted(zip(proposals[a], cands), key=lambda p: (-p[0], p[1]))
            noms[a] = {e for _, e in scored[:2]}
            desir[a] = dict(zip(cands, proposals[a]))
        edges = set()
        for a in range(n_a):
            for b in range(a + 1, n_a):
                close = np.hypot(*(world.pos[a] - world.pos[b])) <= cfg.comm_range
                if b in noms[a] and a in noms[b] and close:
                    edges.add((a, b))
        for g in range(n_a, n):
            pool = [
                a
                for a in range(n_a)
                if g in noms[a] and np.hypot(*(world.pos[a] - world.pos[g])) <= cfg.comm_range
            ]
            pool.sort(key=lambda a: (-desir[a][g], a))
            for a in pool[:2]:
                edges.add((a, g))
        return edges

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(12)
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.45)
        for _ in range(200):
            w = make_world(rng.uniform(0, 1, size=(7, 2)), n_aircraft=5)
            proposals = rng.uniform(0, 1, size=(5, 6))
            got = resolve_links(_geometry(w, cfg)[0], proposals, cfg)
            assert np.array_equal(got, got.T) and not got.diagonal().any()
            assert edge_set(got) == self._brute_force_resolver(w, proposals, cfg)

    @settings(max_examples=300, deadline=None)
    @given(
        n_aircraft=st.integers(1, 5),
        n_ground=st.integers(1, 3),
        batch=st.lists(st.integers(1, 3), max_size=2).map(tuple),  # none, episodes, or (episodes, steps)
        # a few distinct values, outside (0, 1) and infinite too, so that the clamped proposals tie often
        values=st.lists(st.sampled_from([-np.inf, -0.5, 0.0, 0.2, 0.5, 0.9, 1.0, 2.0, np.inf]), min_size=1, max_size=3),
        comm_range=st.sampled_from([0.2, 0.5, 1.5]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n_aircraft=1, n_ground=1, batch=(), values=[0.5], comm_range=1.5, seed=0)  # 1a1s: one proposal column
    @example(n_aircraft=5, n_ground=2, batch=(2, 3), values=[np.inf, -np.inf], comm_range=1.5, seed=1)
    def test_batched_links_match_the_brute_force_resolver_entry_by_entry(
        self, n_aircraft, n_ground, batch, values, comm_range, seed
    ):
        cfg = ScenarioConfig(n_aircraft=n_aircraft, n_ground=n_ground, comm_range=comm_range)
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 1, size=batch + (cfg.n_entities, 2))
        proposals = rng.choice(values, size=batch + (n_aircraft, cfg.action_dim))
        got = resolve_links(in_range_oracle(make_world(pos, n_aircraft), cfg), proposals, cfg)
        assert got.shape == batch + (cfg.n_entities, cfg.n_entities) and got.dtype == bool
        for i in np.ndindex(batch):
            # the resolver ranks the clamped proposals, so +-inf ties with the other values clamped to its bound
            edges = self._brute_force_resolver(make_world(pos[i], n_aircraft), clamp_actions(proposals[i]), cfg)
            assert np.array_equal(got[i], adjacency(cfg.n_entities, edges)), i

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_degree_bound_property(self, data):
        cfg = ScenarioConfig(n_aircraft=4, n_ground=2, comm_range=0.6)
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        w = make_world(rng.uniform(0, 1, size=(6, 2)), n_aircraft=4)
        links = resolve_links(_geometry(w, cfg)[0], rng.uniform(0, 1, size=(4, 5)), cfg)
        assert np.all(links.sum(axis=0) <= cfg.max_links)

    def test_degree_bound_ten_thousand_proposal_sets(self):
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.7)
        rng = np.random.default_rng(99)
        w = make_world(rng.uniform(0, 1, size=(7, 2)), n_aircraft=5)
        for k in range(10_000):
            if k % 500 == 0:
                w = make_world(rng.uniform(0, 1, size=(7, 2)), n_aircraft=5)
            links = resolve_links(_geometry(w, cfg)[0], rng.uniform(0, 1, size=(5, 6)), cfg)
            assert np.all(links.sum(axis=0) <= cfg.max_links)


def stable_top_oracle(keys, count):
    """The entries in the first ``count`` places of a stable argsort of -keys along axis 0."""
    marks = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(marks, np.argsort(-keys, axis=0, kind="stable")[:count], True, axis=0)
    return marks


class TestTop:
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(5,), (6, 4), (7, 3, 5), (2, 9), (3, 2, 2)])
    def test_marks_the_first_places_of_a_stable_argsort(self, shape, count):
        # a few distinct values, infinite too, so that the keys tie often
        rng = np.random.default_rng([count, *shape])
        for _ in range(20):
            keys = rng.choice([-np.inf, -1.0, 0.0, 0.25, 0.5, np.inf], size=shape)
            assert np.array_equal(_top(keys, count), stable_top_oracle(keys, count))

    def test_ranks_a_view_along_its_first_axis(self):
        # resolve_links ranks each ground station's plane through a swapaxes view
        keys = np.random.default_rng(1).choice([0.1, 0.2, 0.3], size=(4, 5, 6)).swapaxes(0, 1)
        assert np.array_equal(_top(keys, 2), stable_top_oracle(keys, 2))

    @pytest.mark.parametrize("shape", [(1,), (1, 3), (1, 2, 2)])
    @pytest.mark.parametrize("count", [1, 2])
    def test_an_axis_of_length_one_marks_its_entry(self, shape, count):
        # one proposal column: the 1-aircraft, 1-station case
        keys = np.random.default_rng(0).uniform(size=shape)
        assert _top(keys, count).all() and np.array_equal(_top(keys, count), stable_top_oracle(keys, count))

    @pytest.mark.parametrize("pad", [-np.inf, np.inf])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_a_single_finite_key_among_infinite_ones(self, pad, where):
        keys = np.full((5, 2), pad)
        keys[where] = 0.5
        for count in (1, 2):
            assert np.array_equal(_top(keys, count), stable_top_oracle(keys, count)), count


class TestPathToGround:
    def test_figure_topology(self):
        # 6 aircraft, 2 ground stations; A4-A5 form an isolated pair
        w = make_world(np.zeros((8, 2)), n_aircraft=6)
        links = adjacency(8, [(0, 6), (1, 0), (2, 6), (3, 7), (4, 5)])
        ptg = path_to_ground(links, w)
        assert ptg[:4].tolist() == [1, 1, 1, 1]
        assert ptg[4] == 0 and ptg[5] == 0
        assert ptg[6] == 1 and ptg[7] == 1

    def test_empty_graph(self):
        w = make_world(np.zeros((5, 2)), n_aircraft=4)
        ptg = path_to_ground(adjacency(5, []), w)
        assert ptg.tolist() == [0, 0, 0, 0, 1]

    def test_chain_of_four(self):
        w = make_world(np.zeros((5, 2)), n_aircraft=4)
        links = adjacency(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert path_to_ground(links, w).tolist() == [1, 1, 1, 1, 1]

    @pytest.mark.parametrize("n_ground", [1, 3])
    @pytest.mark.parametrize("n_aircraft", range(1, 7))
    def test_a_chain_from_ground_takes_every_round(self, n_aircraft, n_ground):
        # ground - a(n-1) - ... - a0: a0 is n_aircraft hops from ground, the longest shortest path there is
        n = n_aircraft + n_ground
        chain = adjacency(n, [(a, a + 1) for a in range(n_aircraft)])
        links = np.stack([chain, np.zeros_like(chain), chain])
        ptg = path_to_ground(links, make_world(np.zeros((3, n, 2)), n_aircraft))
        assert ptg.tolist() == [[1] * n, [0] * n_aircraft + [1] * n_ground, [1] * n]

    @settings(max_examples=300, deadline=None)
    @given(
        n_aircraft=st.integers(1, 6),
        n_ground=st.integers(1, 3),
        batch=st.lists(st.integers(0, 3), max_size=2).map(tuple),
        density=st.sampled_from([0.1, 0.3, 0.6, 1.0]),  # the denser graphs have degrees the resolver never makes
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n_aircraft=4, n_ground=1, batch=(0,), density=0.3, seed=0)
    @example(n_aircraft=5, n_ground=2, batch=(3, 0), density=0.3, seed=0)
    @example(n_aircraft=5, n_ground=2, batch=(50, 50), density=0.3, seed=1)  # an open-loop (episodes, steps) block
    def test_batched_reach_matches_the_breadth_first_oracle_instance_by_instance(
        self, n_aircraft, n_ground, batch, density, seed
    ):
        n = n_aircraft + n_ground
        upper = np.triu(np.random.default_rng(seed).random(batch + (n, n)) < density, 1)
        links = upper | np.swapaxes(upper, -1, -2)  # symmetric, no self-links, ground-ground links too
        got = path_to_ground(links, make_world(np.zeros(batch + (n, 2)), n_aircraft))
        assert got.shape == batch + (n,) and got.dtype == int
        for i in np.ndindex(batch):
            assert got[i].tolist() == oracle_path_to_ground(edge_set(links[i]), n, n_aircraft).tolist(), i

    def test_matches_brute_force_reachability(self):
        rng = np.random.default_rng(5)
        w = make_world(np.zeros((7, 2)), n_aircraft=5)
        for _ in range(100):
            edges = set()
            for i in range(7):
                for j in range(i + 1, 7):
                    if rng.random() < 0.25:
                        edges.add((i, j))
            ptg = path_to_ground(adjacency(7, edges), w)
            # brute force: repeated relaxation
            reach = [False] * 5 + [True, True]
            for _ in range(7):
                for a, b in edges:
                    if reach[a] or reach[b]:
                        reach[a] = reach[b] = True
            assert ptg.tolist() == [int(x) for x in reach]


class TestReward:
    def test_all_connected(self):
        assert reward(np.ones(4)) == 1.0

    def test_none_connected(self):
        assert reward(np.zeros(4)) == 0.0

    def test_figure_state(self):
        assert reward(np.array([1, 1, 1, 1, 0, 0])) == pytest.approx(4 / 6)


class TestEnvStep:
    def test_position_advance(self):
        cfg = ScenarioConfig(n_aircraft=1, n_ground=1, comm_range=0.3)
        w = make_world([[0.0, 0.0], [0.9, 0.9]], n_aircraft=1, velocities=[[0.01, 0.0], [0, 0]])
        w2, _, _, _ = env_step(w, np.array([[0.5]]), cfg)
        assert w2.pos[0].tolist() == [0.01, 0.0]
        assert w2.t == 1

    def test_all_connected_static_episode(self):
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=1.5, horizon=10)
        w = make_world([[0.4, 0.5], [0.6, 0.5], [0.5, 0.5]], n_aircraft=2)
        total = 0.0
        for _ in range(cfg.horizon):
            w, _, r, done = env_step(w, np.array([[0.1, 0.9], [0.1, 0.9]]), cfg)
            total += r
        assert done
        assert total == pytest.approx(cfg.horizon)

    def test_step_after_done_raises(self):
        cfg = ScenarioConfig(n_aircraft=1, n_ground=1, comm_range=0.5, horizon=1)
        w = make_world([[0.1, 0.1], [0.2, 0.2]], n_aircraft=1)
        w, _, _, done = env_step(w, np.array([[0.5]]), cfg)
        assert done
        with pytest.raises(ContractViolation):
            env_step(w, np.array([[0.5]]), cfg)

    def test_ragged_actions_raise(self):
        cfg = cfg_4a1s()
        with pytest.raises(ContractViolation, match="^proposals must be a rectangular array"):
            env_step(init_world(cfg, 0), [[0.5] * 4] * 3 + [[0.5] * 3], cfg)

    def test_nan_actions_raise(self):
        env = FanetEnv(cfg_4a1s())
        env.reset(0)
        with pytest.raises(ContractViolation, match="NaN"):
            env.step(np.full((4, 4), np.nan))

    def test_trajectory_determinism(self):
        cfg = cfg_4a1s(comm_range=0.5)

        def run():
            env = FanetEnv(cfg)
            obs = env.reset(7)
            rng = np.random.default_rng(42)
            out = [obs]
            for _ in range(cfg.horizon):
                obs, r, done = env.step(rng.uniform(0, 1, size=(4, 4)))
                out.append((obs.copy(), r))
            return out

        run1, run2 = run(), run()
        for (o1, *rest1), (o2, *rest2) in zip(run1[1:], run2[1:]):
            assert np.array_equal(o1, o2)
            assert rest1 == rest2


@settings(max_examples=200, deadline=None)
@given(
    n_aircraft=st.integers(1, 6),
    n_ground=st.integers(1, 3),
    horizon=st.integers(1, 12),
    comm_range=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_core_matches_scalar_oracle_over_episodes(n_aircraft, n_ground, horizon, comm_range, seed):
    cfg = ScenarioConfig(n_aircraft=n_aircraft, n_ground=n_ground, comm_range=comm_range, horizon=horizon)
    rng = np.random.default_rng(seed)
    world = init_world(cfg, seed)
    oracle_world, oracle_edges = world, set()
    obs = observe_all(world, cfg)
    for a in range(n_aircraft):
        assert np.array_equal(obs[a], oracle_observe(world, a, cfg, oracle_edges))
    done = False
    while not done:
        # one decimal place, with values outside (0, 1) clamped, so desirability ties are common
        actions = np.round(rng.uniform(-0.2, 1.2, size=(n_aircraft, cfg.action_dim)), 1)
        world, obs, r, done = env_step(world, actions, cfg)
        oracle_world, oracle_edges, o_obs, o_r, o_done = oracle_step(oracle_world, oracle_edges, actions, cfg)
        assert edge_set(world.links) == oracle_edges
        assert np.array_equal(obs, o_obs)
        assert r == o_r and done == o_done


def stacked_world(cfg, seeds):
    """The batched t = 0 world of ``seeds``: each episode's init_world along a leading axis."""
    worlds = [init_world(cfg, seed) for seed in seeds]
    return WorldState(
        t=0,
        vel=np.stack([w.vel for w in worlds]),
        n_aircraft=cfg.n_aircraft,
        anchor=(0, np.stack([w.pos for w in worlds])),
    )


@settings(max_examples=150, deadline=None)
@given(
    batch=st.integers(1, 8),
    n_aircraft=st.integers(1, 6),
    n_ground=st.integers(1, 3),
    horizon=st.integers(1, 12),
    comm_range=st.floats(0.05, 1.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_batched_core_matches_each_episode_alone(batch, n_aircraft, n_ground, horizon, comm_range, seed):
    # the unbatched core is pinned to the scalar oracle above; here every
    # episode of a batch must equal its own unbatched run, bit for bit
    cfg = ScenarioConfig(n_aircraft=n_aircraft, n_ground=n_ground, comm_range=comm_range, horizon=horizon)
    rng = np.random.default_rng(seed)
    seeds = [seed + k for k in range(batch)]
    world = stacked_world(cfg, seeds)
    alone = [init_world(cfg, s) for s in seeds]
    obs = observe_all(world, cfg)
    assert obs.shape == (batch, n_aircraft, cfg.obs_dim)
    for b, w in enumerate(alone):
        assert np.array_equal(obs[b], observe_all(w, cfg))
    done = False
    while not done:
        # one decimal place, with values outside (0, 1) clamped, so desirability ties are common
        actions = np.round(rng.uniform(-0.2, 1.2, size=(batch, n_aircraft, cfg.action_dim)), 1)
        world, obs, r, done = env_step(world, actions, cfg)
        assert world.links.shape == (batch, cfg.n_entities, cfg.n_entities) and r.shape == (batch,)
        for b in range(batch):
            alone[b], o_obs, o_r, o_done = env_step(alone[b], actions[b], cfg)
            assert np.array_equal(world.links[b], alone[b].links)
            assert np.array_equal(obs[b], o_obs)
            assert r[b] == o_r and done == o_done


def assert_closed_form(world, t_a, pos_a):
    """world keeps the anchor (t_a, pos_a), and world.pos is pos_a + (t - t_a) * vel bit for bit."""
    assert world.anchor[0] == t_a and world.anchor[1].tobytes() == pos_a.tobytes()
    assert world.pos.tobytes() == (pos_a + float(world.t - t_a) * world.vel).tobytes(), world.t


@settings(max_examples=100, deadline=None)
@given(
    batch=st.sampled_from([None, 1, 3, 8]),
    n_aircraft=st.integers(1, 5),
    n_ground=st.integers(1, 3),
    horizon=st.integers(1, 60),
    v_max=st.sampled_from([0.0, 0.02, 0.3, 1e3]),
    seed=st.integers(0, 2**31 - 1),
)
def test_positions_are_closed_form_in_the_step(batch, n_aircraft, n_ground, horizon, v_max, seed):
    # a single world (batch None) or a stacked block, fresh at t = 0 or anchored mid-episode at its own (t, pos)
    cfg = ScenarioConfig(n_aircraft=n_aircraft, n_ground=n_ground, comm_range=0.3, horizon=horizon, v_max=v_max)
    rng = np.random.default_rng(seed)
    worlds = [init_world(cfg, seed + k) for k in range(batch or 1)]
    world = worlds[0] if batch is None else stack_worlds(worlds)
    if rng.integers(0, 2):
        t = int(rng.integers(0, horizon))
        world = WorldState(t=t, vel=world.vel, n_aircraft=n_aircraft, anchor=(t, world.pos))
    t_a, pos_a = world.anchor
    assert t_a == world.t and np.array_equal(pos_a, world.pos)
    while world.t < horizon:
        actions = rng.uniform(0.0, 1.0, world.pos.shape[:-2] + (n_aircraft, cfg.action_dim))
        world, *_ = env_step(world, actions, cfg)
        assert_closed_form(world, t_a, pos_a)


class TestStackWorlds:
    def test_carries_each_world_and_its_anchor(self):
        cfg = cfg_4a1s()
        worlds = [init_world(cfg, seed) for seed in (0, 2)]
        for _ in range(2):
            worlds = [env_step(w, np.full((4, 4), 0.5), cfg)[0] for w in worlds]
        stacked = stack_worlds(worlds)
        assert stacked.t == 2 and stacked.anchor[0] == 0
        assert np.array_equal(stacked.anchor[1], np.stack([init_world(cfg, seed).pos for seed in (0, 2)]))
        assert np.array_equal(stacked.pos, np.stack([w.pos for w in worlds]))
        assert_closed_form(env_step(stacked, np.full((2, 4, 4), 0.5), cfg)[0], 0, stacked.anchor[1])

    def test_rejects_no_worlds_and_worlds_at_different_steps_or_anchor_steps(self):
        cfg = cfg_4a1s()
        fresh = init_world(cfg, 0)
        stepped = env_step(fresh, np.full((4, 4), 0.5), cfg)[0]
        with pytest.raises(ContractViolation, match=r"got \[\]"):
            stack_worlds([])
        with pytest.raises(ContractViolation, match=r"\(0, 0\), \(1, 0\)"):
            stack_worlds([fresh, stepped])
        # one step, two anchor steps: a world anchored at t = 1 beside one anchored at t = 0
        with pytest.raises(ContractViolation, match=r"\(1, 0\), \(1, 1\)"):
            stack_worlds([stepped, WorldState(t=1, vel=stepped.vel, n_aircraft=4, anchor=(1, stepped.pos))])


@pytest.mark.parametrize("steps, message", [(-1, "^steps must be non-negative$"), (2.0, "^steps must be an integer")])
def test_step_episodes_refuses_a_step_count_that_is_no_non_negative_integer(steps, message):
    # -1 was numpy's bare "negative dimensions are not allowed"
    cfg = cfg_4a1s()
    with pytest.raises(ContractViolation, match=message):
        step_episodes(init_world(cfg, 0), steps, cfg, lambda obs, t: np.full((4, 4), 0.5))


def test_batched_proposals_must_match_the_batch():
    cfg = cfg_4a1s()
    world = stacked_world(cfg, [0, 1, 2])
    with pytest.raises(ContractViolation, match="shape"):
        resolve_links(_geometry(world, cfg)[0], np.full((4, 4), 0.5), cfg)
    with pytest.raises(ContractViolation, match="shape"):
        env_step(world, np.full((2, 4, 4), 0.5), cfg)
    proposals = np.full((3, 4, 4), 0.5)
    proposals[1, 2, 3] = np.nan
    with pytest.raises(ContractViolation, match="NaN"):
        resolve_links(_geometry(world, cfg)[0], proposals, cfg)


def episode_cr_alone(cfg, seed, action_fn):
    """Oracle episode loop: one FanetEnv episode, ``action_fn(obs, t)`` per step, CR summed step by step."""
    env = FanetEnv(cfg)
    obs = env.reset(seed)
    total, done = 0.0, False
    while not done:
        obs, r, done = env.step(action_fn(obs, env.t))
        total += r * cfg.n_aircraft
    return total


class TestRunEpisodes:
    @staticmethod
    def policy(obs, t):
        # a deterministic function of the observations with frequent ties: the lk features, rounded
        return np.round(obs[..., 2::3] + 0.1 * (t % 3), 1)

    @pytest.mark.parametrize("episodes", [1, EPISODE_BLOCK - 1, EPISODE_BLOCK + 1])
    def test_each_episode_equals_its_own_run(self, episodes):
        cfg = ScenarioConfig(n_aircraft=3, n_ground=2, comm_range=0.45, horizon=9)
        seeds = [5 + 3 * k for k in range(episodes)]
        crs = run_episodes(cfg, seeds, lambda w: step_episodes(w, cfg.horizon, cfg, self.policy)[2])
        assert crs.shape == (episodes,)
        alone = [episode_cr_alone(cfg, s, lambda obs, t: self.policy(obs[None], t)[0]) for s in seeds]
        assert crs.tolist() == alone

    def test_policy_sees_each_block_with_its_step(self):
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=0.5, horizon=3)
        calls = []

        def policy(obs, t):
            calls.append((obs.shape, t))
            return np.full(obs.shape[:-1] + (cfg.action_dim,), 0.5)

        run_episodes(cfg, range(EPISODE_BLOCK + 2), lambda w: step_episodes(w, cfg.horizon, cfg, policy)[2])
        block, rest = (EPISODE_BLOCK, 2, cfg.obs_dim), (2, 2, cfg.obs_dim)
        assert calls == [(block, t) for t in range(3)] + [(rest, t) for t in range(3)]


def tied_actions(rng, shape):
    """Actions to one decimal place, outside (0, 1) too, so desirability ties are common."""
    return np.round(rng.uniform(-0.2, 1.2, size=shape), 1)


def tied_policy(rng, cfg):
    """A policy of tied_actions that reads only the shape of its observations."""
    return lambda obs, t: tied_actions(rng, obs.shape[:-1] + (cfg.action_dim,))


def fixed_actions(rng, world, cfg):
    """Joint actions for the rest of the world's episode, (..., horizon - t, n_aircraft, action_dim)."""
    return tied_actions(rng, world.pos.shape[:-2] + (cfg.horizon - world.t, cfg.n_aircraft, cfg.action_dim))


class TestOpenLoopRewards:
    @settings(max_examples=200, deadline=None)
    @given(
        episodes=st.sampled_from([None, 1, 2, 5]),  # None: one world with no episode axis
        n_aircraft=st.integers(1, 5),
        n_ground=st.integers(1, 3),
        horizon=st.integers(1, 12),
        comm_range=st.floats(1e-6, 2.0),  # 2 is past the diagonal of the unit world
        start=st.integers(0, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equals_stepping_under_a_policy_of_the_same_actions(
        self, episodes, n_aircraft, n_ground, horizon, comm_range, start, seed
    ):
        cfg = ScenarioConfig(n_aircraft=n_aircraft, n_ground=n_ground, comm_range=comm_range, horizon=horizon)
        start = min(start, horizon)

        def world_at_start():
            # the same episodes, stepped to t = start by the same actions
            rng = np.random.default_rng(seed)
            seeds = [seed + k for k in range(episodes or 1)]
            world = init_world(cfg, seed) if episodes is None else stack_worlds([init_world(cfg, s) for s in seeds])
            return step_episodes(world, start, cfg, tied_policy(rng, cfg))[0]

        actions = fixed_actions(np.random.default_rng([seed, 1]), world_at_start(), cfg)
        _, _, stepped = step_episodes(world_at_start(), horizon - start, cfg, lambda obs, t: actions[..., t - start, :, :])
        got = open_loop_rewards(world_at_start(), actions, cfg)
        assert got.shape == stepped.shape == actions.shape[:-2]
        assert got.tobytes() == stepped.tobytes()

    def test_a_world_at_a_later_step_keeps_its_table_and_equals_stepping(self, monkeypatch):
        import fanetq.env as env

        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.3, horizon=10)
        rng = np.random.default_rng(3)
        world = stack_worlds([init_world(cfg, seed) for seed in range(4)])
        world, _, _ = step_episodes(world, 4, cfg, tied_policy(rng, cfg))
        assert world.t == 4 and world.lk_table[1] == 0  # built at t = 0, carried on
        table, builds = world.lk_table, []
        monkeypatch.setattr(env, "_lk_table", lambda w, c: builds.append(w.t) or _lk_table(w, c))
        actions = fixed_actions(rng, world, cfg)
        got = open_loop_rewards(world, actions, cfg)
        assert builds == [] and world.lk_table is table
        _, _, stepped = step_episodes(world, cfg.horizon - world.t, cfg, lambda obs, t: actions[:, t - 4])
        assert builds == []
        assert got.shape == (4, 6) and got.tobytes() == stepped.tobytes()

    @pytest.mark.parametrize("episodes", [None, 3])
    def test_a_world_resolved_open_loop_then_stepped_equals_a_fresh_one(self, episodes):
        # open_loop_rewards computes only the in-range planes of a world with no table; the world must still
        # build its whole table, lk rows too, when it is observed and stepped
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.3, horizon=10)
        seeds = 11 if episodes is None else range(11, 11 + episodes)
        used, fresh = init_world(cfg, seeds), init_world(cfg, seeds)
        rng = np.random.default_rng(6)
        open_loop_rewards(used, fixed_actions(rng, used, cfg), cfg)
        assert np.array_equal(observe_all(used, cfg), observe_all(fresh, cfg))
        while fresh.t < cfg.horizon:
            actions = tied_actions(rng, fresh.pos.shape[:-2] + (cfg.n_aircraft, cfg.action_dim))
            used, obs, r, _ = env_step(used, actions, cfg)
            fresh, want_obs, want_r, _ = env_step(fresh, actions, cfg)
            assert np.array_equal(_geometry(used, cfg)[1], _geometry(fresh, cfg)[1]), fresh.t
            assert np.array_equal(_geometry(used, cfg)[1], lk_rows_per_step(used, cfg)), fresh.t
            assert np.array_equal(used.links, fresh.links) and np.array_equal(obs, want_obs), fresh.t
            assert np.asarray(r).tobytes() == np.asarray(want_r).tobytes(), fresh.t

    @pytest.mark.parametrize(
        "case, shape",
        [
            ("past the horizon", (3, 6, 3, 4)),
            ("short of the horizon", (3, 4, 3, 4)),
            ("no episode axis", (5, 3, 4)),
            ("wrong action_dim", (3, 5, 3, 5)),
            ("NaN", (3, 5, 3, 4)),
        ],
    )
    def test_bad_actions_are_contract_violations(self, case, shape):
        # t = 1 of a 6-step episode: each episode has 5 steps left
        cfg = ScenarioConfig(n_aircraft=3, n_ground=2, comm_range=0.4, horizon=6)
        world, *_ = env_step(stack_worlds([init_world(cfg, s) for s in range(3)]), np.full((3, 3, 4), 0.5), cfg)
        actions = np.full(shape, 0.5)
        if case == "NaN":
            actions[1, 2, 0, 3] = np.nan
        with pytest.raises(ContractViolation, match="NaN" if case == "NaN" else "shape"):
            open_loop_rewards(world, actions, cfg)

    def test_ragged_actions_are_contract_violations(self):
        cfg = cfg_4a1s(horizon=2)
        actions = [[[[0.5] * 4] * 4, [[0.5] * 4] * 3 + [[0.5] * 3]]] * 2  # 2 episodes, step 2 ragged
        with pytest.raises(ContractViolation, match="^proposals must be a rectangular array"):
            open_loop_rewards(init_world(cfg, [0, 1]), actions, cfg)


class TestObserve:
    def test_dimensions(self):
        for (na, ng, dim) in [(4, 1, 13), (5, 2, 19)]:
            cfg = ScenarioConfig(n_aircraft=na, n_ground=ng, comm_range=0.3)
            w = init_world(cfg, 0)
            assert observe_all(w, cfg).shape == (na, dim)

    def test_fresh_world_features(self):
        cfg = cfg_4a1s()
        w = init_world(cfg, 11)
        obs = observe_all(w, cfg)[0]
        assert obs[0] == 0.0  # no links yet, aircraft unconnected
        assert np.all(obs[3::3] == -1.0)  # all oc = -1
        # ptg of other aircraft 0, of the ground station 1
        assert obs[1::3].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_vectorized_matches_single(self):
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.4)
        env = FanetEnv(cfg)
        env.reset(3)
        rng = np.random.default_rng(1)
        for _ in range(5):
            env.step(rng.uniform(0, 1, size=(5, 6)))
        stacked = observe_all(env.world, cfg)
        edges = edge_set(env.world.links)
        for a in range(5):
            assert np.array_equal(stacked[a], oracle_observe(env.world, a, cfg, edges))

    def test_observation_value_ranges(self):
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.4)
        env = FanetEnv(cfg)
        obs = env.reset(9)
        rng = np.random.default_rng(2)
        for _ in range(cfg.horizon):
            obs, r, done = env.step(rng.uniform(0, 1, size=(5, 6)))
            assert set(np.unique(obs[:, 0])) <= {0.0, 1.0}
            ptg = obs[:, 1::3]
            assert set(np.unique(ptg)) <= {0.0, 1.0}
            lk = obs[:, 2::3]
            assert np.all((lk == -1.0) | ((lk >= 0.0) & (lk <= 1.0)))
            oc = obs[:, 3::3]
            assert set(np.unique(oc)) <= {-1.0, 0.0, 1.0}
            assert 0.0 <= r <= 1.0


class TestClamp:
    def test_clamp_bounds(self):
        out = clamp_actions(np.array([-5.0, 0.5, 7.0]))
        assert out[0] == pytest.approx(1e-6)
        assert out[1] == 0.5
        assert out[2] == pytest.approx(1.0 - 1e-6)
