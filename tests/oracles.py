"""Reference helpers that only tests need: the package runs none of them.

Each one is the plain, unoptimized form of something the package does in a
faster or more specialized way, so tests can compare the two.
"""

from __future__ import annotations

import numbers
from pathlib import Path
from typing import Callable

import numpy as np

from fanetq.env import ScenarioConfig, WorldState
from fanetq.errors import ContractViolation
from fanetq.experiments import CURVE_HEADER, RunRecord, csv_rows
from fanetq.nets import GaussianPolicyHead, views
from fanetq.qmetrics import DATA_ANGLE_HIGH, DATA_ANGLE_LOW, N_BATCHES, THETA_HIGH, THETA_LOW, _qubit_pairs
from fanetq.qsim import N_QUBITS, SCALING_FNS, SpsaState, VqcSpec, _kron2, spsa_gradient


def spsa_minimize(
    loss_fn: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    state: SpsaState,
    iterations: int,
) -> tuple[np.ndarray, float]:
    """Plain SPSA descent loop; returns (theta, last center loss)."""
    theta = np.array(theta0, dtype=float)
    loss = float(loss_fn(theta))
    for _ in range(iterations):
        ak = state.step_size()
        grad, loss = spsa_gradient(loss_fn, theta, state)
        theta = theta - ak * grad
    return theta, loss


def meyer_wallach(state: np.ndarray) -> float:
    """Global entanglement Q = 2 (1 - mean_k Tr rho_k^2) of one pure state, from explicit 2x2 partial traces.

    Each reduced density matrix is summed entry by entry over the amplitude index with qubit k's bit woven in
    (qubit 0 the most significant bit), then squared as a matrix.
    """
    state = np.asarray(state, dtype=complex)
    n = state.size.bit_length() - 1
    purities = []
    for k in range(n):
        rho = np.zeros((2, 2), dtype=complex)
        for a in (0, 1):
            for b in (0, 1):
                for rest in range(2 ** (n - 1)):
                    hi = rest >> (n - 1 - k)
                    lo = rest & ((1 << (n - 1 - k)) - 1)
                    ia = (hi << (n - k)) | (a << (n - 1 - k)) | lo
                    ib = (hi << (n - k)) | (b << (n - 1 - k)) | lo
                    rho[a, b] += state[ia] * np.conj(state[ib])
        purities.append(float(np.real(np.trace(rho @ rho))))
    return 2.0 * (1.0 - np.mean(purities))


def meyer_wallach_stacked(states: np.ndarray) -> np.ndarray:
    """The stacked form of ``fanetq.qmetrics.meyer_wallach_batch`` on a (batch, 2^n) stack: the four per-pair terms
    |psi_0|^2, |psi_1|^2, Re and Im of psi_0 conj(psi_1) go into one (2^(n-1), 4, n, batch) array, summed over the
    pairs in one call."""
    states = np.asarray(states, dtype=complex)
    pairs = _qubit_pairs(states.shape[1].bit_length() - 1)
    real, imag = (np.ascontiguousarray(part.T) for part in (states.real, states.imag))
    (re0, re1), (im0, im1) = np.take(real, pairs, axis=0), np.take(imag, pairs, axis=0)
    terms = np.stack((re0 * re0 + im0 * im0, re1 * re1 + im1 * im1, re0 * re1 + im0 * im1, im0 * re1 - re0 * im1), 1)
    p0, p1, c_re, c_im = terms.sum(axis=0)
    purities = p0 * p0 + p1 * p1 + 2.0 * (c_re * c_re + c_im * c_im)
    return 2.0 * (1.0 - purities.mean(axis=0))


def parameter_draws_per_batch(spec: VqcSpec, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-batch form of ``fanetq.qmetrics.sample_states``'s draw from default_rng(seed): for each of N_BATCHES
    batches, one rng.uniform call for the raw data inputs over [0, 2pi) and then one for the ansatz angles over
    [0, pi); the scaled input angles and the ansatz angles are concatenated over the batches."""
    rng, angles, thetas = np.random.default_rng(seed), [], []
    for _ in range(N_BATCHES):
        feats = rng.uniform(DATA_ANGLE_LOW, DATA_ANGLE_HIGH, size=(n_samples // N_BATCHES, spec.n_features))
        angles.append(SCALING_FNS[spec.scaling_fn][0](feats))
        thetas.append(rng.uniform(THETA_LOW, THETA_HIGH, size=(n_samples // N_BATCHES, spec.n_theta)))
    return np.concatenate(angles), np.concatenate(thetas)


def rotation_matrix_two_exponentials(theta_layer: np.ndarray) -> np.ndarray:
    """The two-exponential form of ``fanetq.qsim._rotation_matrix``: each RZ angle a's diagonal is exp(0.5j * -a)
    and exp(0.5j * a), two exponentials per angle.  ``theta_layer`` is (..., 12); returns (..., 16, 16)."""
    t = theta_layer.reshape(theta_layer.shape[:-1] + (N_QUBITS, 3))
    first, middle, last = t[..., 0], t[..., 1], t[..., 2]
    c, s = np.cos(middle / 2), np.sin(middle / 2)
    ry = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    rz_first = np.exp(0.5j * np.stack([-first, first], axis=-1))
    rz_last = np.exp(0.5j * np.stack([-last, last], axis=-1))
    blocks = rz_last[..., :, None] * ry * rz_first[..., None, :]
    return _kron2(_kron2(blocks[..., 0, :, :], blocks[..., 1, :, :]), _kron2(blocks[..., 2, :, :], blocks[..., 3, :, :]))


def haar_fidelity_pdf(fidelity: np.ndarray | float, dim: int = 2**N_QUBITS) -> np.ndarray | float:
    """Haar-ensemble fidelity density (dim - 1)(1 - F)^(dim - 2)."""
    return (dim - 1) * (1.0 - np.asarray(fidelity)) ** (dim - 2)


def kl_from_counts(counts: np.ndarray, haar: np.ndarray) -> float:
    """KL(p || haar) of one row of bin counts, empty bins at 1e-12 before p is renormalized."""
    total = counts.sum()
    p = counts / total
    p = np.where(p == 0.0, 1e-12, p)
    p = p / p.sum()
    return float(np.sum(p * np.log(p / haar)))


def sample_action(head: GaussianPolicyHead, obs: np.ndarray, rng: np.random.Generator):
    """(action, log density, mean) for action ~ Normal(mean(obs), exp(log_std)^2).

    One ``rng.standard_normal`` draw of the action's shape per call: the
    serial form of the per-block noise draw of a rollout.
    """
    mu = head.mean(obs)
    action = mu + np.exp(head.log_std) * rng.standard_normal(mu.shape)
    return action, head.log_prob_of(action - mu), mu


def grad_views(owner) -> list[np.ndarray]:
    """Views of ``owner.grad`` shaped as ``owner.params()``, one per array: the gradients a backward pass wrote."""
    return views(owner.grad, [p.shape for p in owner.params()])


def save_curve(record: RunRecord, path: str | Path) -> None:
    """Write a record's curve as the CSV a training run leaves."""
    with csv_rows(path, CURVE_HEADER) as write:
        for point in record.curve:
            write(point)


def lk_rows_per_step(world: WorldState, cfg: ScenarioConfig) -> np.ndarray:
    """(..., n_aircraft, N) lk features, every pair counted over every remaining step at this t.

    The per-step form of the carried lk table: counts steps tau in
    {t, ..., horizon-1} at which the offsets of the closed-form positions
    pos_a + (tau - t_a) * vel, (t_a, pos_a) the world's anchor, are within
    comm_range, normalized by the full horizon; -1 where the pair is not in
    range now.  x*x + y*y decides every pair farther than a relative 1e-12
    from the range, and hypot decides the rest, on the same offsets; every
    pair goes through hypot when r*r with that margin is not a normal float.
    The positions and offsets are taken here from ``world.anchor`` and
    ``world.vel``, pos[i] - pos[j] per pair and step.
    """
    n_a = cfg.n_aircraft
    t_a, pos_a = world.anchor
    taus = np.arange(world.t, max(cfg.horizon, world.t))
    pos = pos_a + (taus - t_a).astype(float).reshape((-1,) + (1,) * world.vel.ndim) * world.vel
    x = pos[..., :n_a, None, 0] - pos[..., None, :, 0]
    y = pos[..., :n_a, None, 1] - pos[..., None, :, 1]
    r = float(cfg.comm_range)
    lo, hi = r * r * (1.0 - 1e-12), r * r * (1.0 + 1e-12)
    if lo < np.finfo(float).tiny or hi > np.finfo(float).max:
        within = np.hypot(x, y) <= r
    else:
        with np.errstate(over="ignore"):
            sq = x * x + y * y
        within = sq <= lo
        near = (sq > lo) & (sq < hi)
        within[near] = np.hypot(x[near], y[near]) <= r
    dp = world.pos[..., :n_a, None, :] - world.pos[..., None, :, :]
    return np.where(np.hypot(dp[..., 0], dp[..., 1]) <= r, within.sum(axis=0) / cfg.horizon, -1.0)


def seeded_uniforms(seeds, k: int) -> np.ndarray:
    """The per-seed form of ``fanetq.env._seeded_uniforms``: row i is np.random.default_rng(seeds[i]).random(k)."""
    rows = np.empty((len(seeds), k))
    for row, s in zip(rows, seeds):
        np.random.default_rng(s).random(out=row)
    return rows


def init_world(cfg: ScenarioConfig, seed) -> WorldState:
    """The per-seed form of ``fanetq.env.init_world``: one default_rng(seed) per seed, drawing the (N, 2) positions
    with rng.uniform(0, world_side), then the aircraft velocities with rng.uniform(-v_max, v_max); a sequence of
    seeds stacks their worlds in order."""
    if not isinstance(seed, numbers.Integral):
        return stack_worlds([init_world(cfg, s) for s in seed])
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, cfg.world_side, size=(cfg.n_entities, 2))
    vel = np.zeros((cfg.n_entities, 2))
    vel[: cfg.n_aircraft] = rng.uniform(-cfg.v_max, cfg.v_max, size=(cfg.n_aircraft, 2))
    return WorldState(t=0, vel=vel, n_aircraft=cfg.n_aircraft, anchor=(0, pos))


def stack_worlds(worlds: list[WorldState]) -> WorldState:
    """One world whose leading axis holds ``worlds`` in order; they must share t and their anchor step.

    The list form of ``init_world`` over a sequence of seeds, which fills one
    stacked world directly; this one also stacks worlds stepped past t = 0.
    """
    if len(steps := {(w.t, w.anchor[0]) for w in worlds}) != 1:
        raise ContractViolation(f"stack_worlds needs worlds at one (t, anchor step), got {sorted(steps)}")
    return WorldState(
        t=worlds[0].t,
        vel=np.stack([w.vel for w in worlds]),
        n_aircraft=worlds[0].n_aircraft,
        links=np.stack([w.links for w in worlds]),
        anchor=(worlds[0].anchor[0], np.stack([w.anchor[1] for w in worlds])),
    )
