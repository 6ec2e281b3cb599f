"""FANET environment: geometry, link resolution, observations, reward."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fanetq.env import (
    EPISODE_BLOCK,
    FanetEnv,
    ScenarioConfig,
    WorldState,
    _lk_rows,
    clamp_actions,
    env_step,
    init_world,
    observe_all,
    path_to_ground,
    resolve_links,
    reward,
    run_episodes,
)
from fanetq.errors import ConfigError, ContractViolation


def cfg_4a1s(comm_range=0.3, **kw):
    return ScenarioConfig(n_aircraft=4, n_ground=1, comm_range=comm_range, **kw)


def make_world(positions, n_aircraft, velocities=None, t=0):
    pos = np.asarray(positions, dtype=float)
    vel = np.zeros_like(pos) if velocities is None else np.asarray(velocities, dtype=float)
    return WorldState(t=t, pos=pos, vel=vel, n_aircraft=n_aircraft)


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
    dp = world.pos[i] - world.pos[j]
    if float(np.hypot(*dp)) > cfg.comm_range:
        return -1.0
    dv = world.vel[i] - world.vel[j]
    steps = np.arange(0, cfg.horizon - world.t)
    rel = dp[None, :] + steps[:, None] * dv[None, :]
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
    new = WorldState(t=world.t + 1, pos=world.pos + world.vel, vel=world.vel, n_aircraft=world.n_aircraft)
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


def links_1a1s(positions, comm_range):
    """Whether the lone aircraft of a 1a1s world links to its ground station."""
    cfg = ScenarioConfig(n_aircraft=1, n_ground=1, comm_range=comm_range)
    return bool(resolve_links(make_world(positions, n_aircraft=1), np.array([[0.5]]), cfg)[0, 1])


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
    got = _lk_rows(world, cfg)
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
    def test_random_worlds_at_extreme_scales(self, n_aircraft, n_ground, horizon, scale, ulps, seed):
        cfg = ScenarioConfig(
            n_aircraft=n_aircraft, n_ground=n_ground, comm_range=0.5 * scale, horizon=horizon,
            world_side=scale, v_max=0.05 * scale,
        )
        rng = np.random.default_rng(seed)
        fresh = init_world(cfg, seed)
        world = make_world(fresh.pos, n_aircraft, fresh.vel, t=int(rng.integers(0, horizon)))
        if ulps is not None:
            # comm_range on the extrapolated distance of one pair at one step, or one ulp off it
            i, j = int(rng.integers(0, n_aircraft)), int(rng.integers(0, cfg.n_entities))
            s = float(rng.integers(0, horizon - world.t))
            d = float(np.hypot(*(s * (world.vel[i] - world.vel[j]) + (world.pos[i] - world.pos[j]))))
            d = d if ulps == 0 else float(np.nextafter(d, ulps * np.inf))
            assume(0.0 < d < np.inf)
            cfg = dataclasses.replace(cfg, comm_range=d)
        assert_lk_equals_plain_hypot(world, cfg)


class TestResolveLinks:
    def test_mutual_aircraft_edge(self):
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=0.5)
        w = make_world([[0.1, 0.1], [0.2, 0.1], [0.9, 0.9]], n_aircraft=2)
        # each aircraft ranks the other highest (ground is far anyway)
        proposals = np.array([[0.9, 0.1], [0.9, 0.1]])
        links = resolve_links(w, proposals, cfg)
        assert links[0, 1] and links[1, 0]

    def test_mutual_but_out_of_range(self):
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=0.05)
        w = make_world([[0.1, 0.1], [0.9, 0.9], [0.5, 0.5]], n_aircraft=2)
        proposals = np.array([[0.9, 0.1], [0.9, 0.1]])
        assert not resolve_links(w, proposals, cfg)[0, 1]

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
        links = resolve_links(w, proposals, cfg)
        assert links[0, 3] and links[1, 3]
        assert not links[2, 3]
        assert links[3].sum() == 2

    def test_wrong_length_rejected(self):
        cfg = cfg_4a1s()
        w = init_world(cfg, 0)
        with pytest.raises(ContractViolation):
            resolve_links(w, np.zeros((4, 5)), cfg)

    def test_nan_proposal_rejected(self):
        cfg = cfg_4a1s()
        w = init_world(cfg, 0)
        proposals = np.full((4, 4), 0.5)
        proposals[2, 1] = np.nan
        with pytest.raises(ContractViolation, match="NaN"):
            resolve_links(w, proposals, cfg)

    def test_infinite_proposals_are_clamped(self):
        cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=1.5)
        w = make_world([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.2, 0.2]], n_aircraft=3)
        proposals = np.array([[np.inf, -np.inf, 0.5], [np.inf, 0.2, -np.inf], [0.3, np.inf, 0.1]])
        got = resolve_links(w, proposals, cfg)
        assert np.array_equal(got, resolve_links(w, clamp_actions(proposals), cfg))
        assert edge_set(got) == {(0, 1), (1, 2), (0, 3)}

    def test_nomination_tie_breaks_to_lower_id(self):
        cfg = ScenarioConfig(n_aircraft=3, n_ground=1, comm_range=1.5)
        assert oracle_nominations(0, np.array([0.5, 0.5, 0.5]), cfg) == [1, 2]
        # a0 ties over {a1, a2, g3} and must pick a1, a2; a1 and a2 rank a0 first
        w = make_world([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.2, 0.2]], n_aircraft=3)
        proposals = np.array([[0.5, 0.5, 0.5], [0.9, 0.1, 0.1], [0.9, 0.1, 0.1]])
        assert edge_set(resolve_links(w, proposals, cfg)) == {(0, 1), (0, 2), (1, 2)}

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
            got = resolve_links(w, proposals, cfg)
            assert np.array_equal(got, got.T) and not got.diagonal().any()
            assert edge_set(got) == self._brute_force_resolver(w, proposals, cfg)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_degree_bound_property(self, data):
        cfg = ScenarioConfig(n_aircraft=4, n_ground=2, comm_range=0.6)
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        w = make_world(rng.uniform(0, 1, size=(6, 2)), n_aircraft=4)
        links = resolve_links(w, rng.uniform(0, 1, size=(4, 5)), cfg)
        assert np.all(links.sum(axis=0) <= cfg.max_links)

    def test_degree_bound_ten_thousand_proposal_sets(self):
        cfg = ScenarioConfig(n_aircraft=5, n_ground=2, comm_range=0.7)
        rng = np.random.default_rng(99)
        w = make_world(rng.uniform(0, 1, size=(7, 2)), n_aircraft=5)
        for k in range(10_000):
            if k % 500 == 0:
                w = make_world(rng.uniform(0, 1, size=(7, 2)), n_aircraft=5)
            links = resolve_links(w, rng.uniform(0, 1, size=(5, 6)), cfg)
            assert np.all(links.sum(axis=0) <= cfg.max_links)


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
        pos=np.stack([w.pos for w in worlds]),
        vel=np.stack([w.vel for w in worlds]),
        n_aircraft=cfg.n_aircraft,
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


def test_batched_proposals_must_match_the_batch():
    cfg = cfg_4a1s()
    world = stacked_world(cfg, [0, 1, 2])
    with pytest.raises(ContractViolation, match="shape"):
        resolve_links(world, np.full((4, 4), 0.5), cfg)
    with pytest.raises(ContractViolation, match="shape"):
        env_step(world, np.full((2, 4, 4), 0.5), cfg)
    proposals = np.full((3, 4, 4), 0.5)
    proposals[1, 2, 3] = np.nan
    with pytest.raises(ContractViolation, match="NaN"):
        resolve_links(world, proposals, cfg)


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
        crs = run_episodes(cfg, seeds, self.policy)
        assert crs.shape == (episodes,)
        alone = [episode_cr_alone(cfg, s, lambda obs, t: self.policy(obs[None], t)[0]) for s in seeds]
        assert crs.tolist() == alone

    def test_policy_sees_each_block_with_its_step(self):
        cfg = ScenarioConfig(n_aircraft=2, n_ground=1, comm_range=0.5, horizon=3)
        calls = []

        def policy(obs, t):
            calls.append((obs.shape, t))
            return np.full(obs.shape[:-1] + (cfg.action_dim,), 0.5)

        run_episodes(cfg, range(EPISODE_BLOCK + 2), policy)
        block, rest = (EPISODE_BLOCK, 2, cfg.obs_dim), (2, 2, cfg.obs_dim)
        assert calls == [(block, t) for t in range(3)] + [(rest, t) for t in range(3)]


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


class TestTrajectoryDump:
    def test_jsonl_schema(self, tmp_path):
        import json

        from fanetq.env import dump_trajectory

        cfg = cfg_4a1s(horizon=5)
        rng = np.random.default_rng(0)
        path = tmp_path / "traj.jsonl"
        dump_trajectory(path, cfg, seed=3, action_fn=lambda obs, t: rng.uniform(0, 1, size=(4, 4)))
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        for k, line in enumerate(lines):
            rec = json.loads(line)
            assert set(rec) == {"t", "positions", "links", "ptg", "reward"}
            assert rec["t"] == k + 1
            assert len(rec["positions"]) == 5
            assert len(rec["ptg"]) == 5
            assert 0.0 <= rec["reward"] <= 1.0
            for a, b in rec["links"]:
                assert 0 <= a < b < 5
