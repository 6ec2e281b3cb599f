"""Entanglement capability and expressibility estimators for circuit specs.

Both metrics characterize a circuit over random parameter draws: raw data
inputs are sampled uniformly over a full angle period [0, 2pi), ansatz
angles over [0, pi), input scalings are held at one, and the scaling
function of the spec is applied to the sampled data inputs.  The estimates
are therefore a property of the architecture alone, independent of any
trained weights; the domains were calibrated so the identity- and
arctan-scaled single-layer circuits land on their reference values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation
from .qsim import N_QUBITS, VqcSpec, vqc_state

DATA_ANGLE_LOW, DATA_ANGLE_HIGH = 0.0, 2.0 * np.pi
THETA_LOW, THETA_HIGH = 0.0, np.pi
DEFAULT_BINS = 75
N_BATCHES = 10
EPS_EMPTY_BIN = 1e-12


@dataclass(frozen=True)
class MetricEstimate:
    mean: float
    std: float
    n_samples: int
    seed: int

    def __str__(self) -> str:
        return f"{self.mean:.4f} +/- {self.std:.4f} (n={self.n_samples}, seed={self.seed})"


StateSampler = Callable[[int, np.random.Generator], np.ndarray]


def circuit_state_sampler(spec: VqcSpec) -> StateSampler:
    """Sampler of output states for uniformly drawn data inputs and angles.

    Every sample gets its own full parameter vector: raw data inputs of
    shape (4L,) and ansatz angles of shape (12L,).
    """
    eval_spec = VqcSpec(n_layers=spec.n_layers, scaling_fn=spec.scaling_fn)

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        feats = rng.uniform(DATA_ANGLE_LOW, DATA_ANGLE_HIGH, size=(n, eval_spec.n_features))
        thetas = rng.uniform(THETA_LOW, THETA_HIGH, size=(n, eval_spec.theta.size))
        return vqc_state(eval_spec, feats, theta=thetas)

    return sample


def meyer_wallach(state: np.ndarray) -> float:
    """Global entanglement Q = 2 (1 - mean_k Tr rho_k^2) of a pure state."""
    state = np.asarray(state, dtype=complex)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-8:
        raise ContractViolation(f"state norm {norm} is not 1")
    return float(meyer_wallach_batch(state[None, :])[0])


def meyer_wallach_batch(states: np.ndarray) -> np.ndarray:
    """Vectorized Meyer-Wallach measure over a (batch, 2^n) stack."""
    states = np.asarray(states, dtype=complex)
    n = int(np.log2(states.shape[-1]))
    batch = states.shape[0]
    purities = np.empty((batch, n))
    for k in range(n):
        psi = states.reshape(batch, 2**k, 2, 2 ** (n - k - 1))
        rho = np.einsum("nial,nibl->nab", psi, psi.conj())
        purities[:, k] = np.einsum("nab,nba->n", rho, rho).real
    return 2.0 * (1.0 - purities.mean(axis=1))


def entanglement_capability(
    spec: VqcSpec,
    n_samples: int = 5000,
    seed: int = 0,
    sampler: StateSampler | None = None,
) -> MetricEstimate:
    """Mean Meyer-Wallach measure over sampled output states.

    The mean is taken over all samples; the reported spread is the standard
    deviation of the means of ``N_BATCHES`` equally sized batches.
    """
    if n_samples < 100:
        raise ContractViolation("need at least 100 samples")
    sampler = sampler or circuit_state_sampler(spec)
    rng = np.random.default_rng(seed)
    per_batch = n_samples // N_BATCHES
    batch_means = []
    values = []
    for _ in range(N_BATCHES):
        states = sampler(per_batch, rng)
        q = meyer_wallach_batch(states)
        values.append(q)
        batch_means.append(q.mean())
    all_values = np.concatenate(values)
    return MetricEstimate(
        mean=float(all_values.mean()),
        std=float(np.std(batch_means)),
        n_samples=all_values.size,
        seed=seed,
    )


def haar_fidelity_pdf(fidelity: np.ndarray | float, dim: int = 2**N_QUBITS) -> np.ndarray | float:
    """Haar-ensemble fidelity density (dim - 1)(1 - F)^(dim - 2)."""
    return (dim - 1) * (1.0 - np.asarray(fidelity)) ** (dim - 2)


def haar_bin_probabilities(n_bins: int, dim: int = 2**N_QUBITS) -> np.ndarray:
    """Haar fidelity mass per equal-width bin on [0, 1].

    Integrated analytically from the CDF 1 - (1 - F)^(dim - 1) of the density
    (dim - 1)(1 - F)^(dim - 2).
    """
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    tail = (1.0 - edges) ** (dim - 1)  # survival function, keeps precision near F=1
    return tail[:-1] - tail[1:]


def fidelity_histogram(states: np.ndarray, n_bins: int) -> np.ndarray:
    """Counts of all-pairs fidelities |<psi_i|psi_j>|^2, i < j."""
    counts = np.zeros(n_bins, dtype=np.int64)
    chunk = 512
    n = states.shape[0]
    conj_t = states.conj().T
    cols = np.arange(n)
    for start in range(0, n, chunk):
        block = states[start : start + chunk]
        gram = np.abs(block @ conj_t) ** 2
        upper = cols[None, :] > np.arange(start, start + block.shape[0])[:, None]
        idx = np.minimum((gram[upper] * n_bins).astype(int), n_bins - 1)
        counts += np.bincount(idx, minlength=n_bins)
    return counts


def _kl_from_counts(counts: np.ndarray, haar: np.ndarray) -> float:
    total = counts.sum()
    p = counts / total
    p = np.where(p == 0.0, EPS_EMPTY_BIN, p)
    p = p / p.sum()
    return float(np.sum(p * np.log(p / haar)))


def expressibility(
    spec: VqcSpec,
    n_samples: int = 5000,
    n_bins: int = DEFAULT_BINS,
    seed: int = 0,
    sampler: StateSampler | None = None,
) -> MetricEstimate:
    """KL divergence between the circuit fidelity distribution and Haar.

    Samples ``n_samples`` states and bins all unordered pair fidelities
    (n_samples * (n_samples - 1) / 2 of them).  The mean uses every pair;
    the spread is the standard deviation over per-batch estimates.
    """
    if n_samples < 50:
        raise ContractViolation("need at least 50 samples")
    if n_bins < 10:
        raise ContractViolation("need at least 10 bins")
    sampler = sampler or circuit_state_sampler(spec)
    rng = np.random.default_rng(seed)
    haar = haar_bin_probabilities(n_bins)
    per_batch = n_samples // N_BATCHES
    batches = [sampler(per_batch, rng) for _ in range(N_BATCHES)]
    batch_kls = [_kl_from_counts(fidelity_histogram(s, n_bins), haar) for s in batches]
    all_states = np.concatenate(batches, axis=0)
    total_counts = fidelity_histogram(all_states, n_bins)
    n_pairs = int(total_counts.sum())
    return MetricEstimate(
        mean=_kl_from_counts(total_counts, haar),
        std=float(np.std(batch_kls)),
        n_samples=n_pairs,
        seed=seed,
    )
