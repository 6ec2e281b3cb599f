"""Reference helpers that only tests need: the package runs none of them.

Each one is the plain, unoptimized form of something the package does in a
faster or more specialized way, so tests can compare the two.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

import numpy as np

from fanetq.experiments import CURVE_HEADER, RunRecord, csv_rows
from fanetq.nets import GaussianPolicyHead
from fanetq.qmetrics import meyer_wallach_batch
from fanetq.qsim import N_QUBITS, SpsaState, spsa_gradient


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
    """Global entanglement Q = 2 (1 - mean_k Tr rho_k^2) of one pure state."""
    return float(meyer_wallach_batch(np.asarray(state, dtype=complex)[None, :])[0])


def haar_fidelity_pdf(fidelity: np.ndarray | float, dim: int = 2**N_QUBITS) -> np.ndarray | float:
    """Haar-ensemble fidelity density (dim - 1)(1 - F)^(dim - 2)."""
    return (dim - 1) * (1.0 - np.asarray(fidelity)) ** (dim - 2)


def sample_action(head: GaussianPolicyHead, obs: np.ndarray, rng: np.random.Generator):
    """(action, log density, mean) for action ~ Normal(mean(obs), exp(log_std)^2).

    One ``rng.standard_normal`` draw of the action's shape per call: the
    serial form of the per-block noise draw of a rollout.
    """
    mu = head.mean(obs)
    action = mu + np.exp(head.log_std) * rng.standard_normal(mu.shape)
    return action, head._log_prob(mu, action), mu


def save_curve(record: RunRecord, path: str | Path) -> None:
    """Write a record's curve as the CSV a training run leaves."""
    with csv_rows(path, CURVE_HEADER) as write:
        for point in record.curve:
            write(point)
