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

from .errors import ContractViolation, check_int
from .qsim import N_QUBITS, VqcSpec, vqc_state

DATA_ANGLE_LOW, DATA_ANGLE_HIGH = 0.0, 2.0 * np.pi
THETA_LOW, THETA_HIGH = 0.0, np.pi
DEFAULT_BINS = 75
N_BATCHES = 10
MIN_SAMPLES = 100
EPS_EMPTY_BIN = 1e-12
GRAM_ROWS = 128  # rows of the pair Gram per product in fidelity_histogram


@dataclass(frozen=True)
class MetricEstimate:
    mean: float
    std: float


def _parameter_draw(eval_spec: VqcSpec, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Raw data inputs (n, 4L), then ansatz angles (n, 12L), drawn in that order from ``rng``."""
    feats = rng.uniform(DATA_ANGLE_LOW, DATA_ANGLE_HIGH, size=(n, eval_spec.n_features))
    return feats, rng.uniform(THETA_LOW, THETA_HIGH, size=(n, eval_spec.theta.size))


def circuit_state_sampler(spec: VqcSpec) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Sampler of output states for uniformly drawn data inputs and angles.

    Every sample gets its own full parameter vector: raw data inputs of
    shape (4L,) and ansatz angles of shape (12L,).
    """
    eval_spec = VqcSpec(n_layers=spec.n_layers, scaling_fn=spec.scaling_fn)
    return lambda n, rng: vqc_state(eval_spec, *_parameter_draw(eval_spec, n, rng))


def sample_states(spec: VqcSpec, n_samples: int = 5000, seed: int = 0) -> list[np.ndarray]:
    """``N_BATCHES`` equal batches of output states drawn from one stream; both metrics score them.

    Each batch draws as one ``circuit_state_sampler`` call would, in turn from
    one generator; the draws are stacked and run as one circuit call, whose
    rows the batches are.  ``n_samples`` must be a multiple of ``N_BATCHES``
    and at least ``MIN_SAMPLES``, so every requested state is drawn and scored.
    """
    check_int(seed, "seed", 0)
    check_int(n_samples, "n_samples", None)
    if n_samples < MIN_SAMPLES or n_samples % N_BATCHES:
        raise ContractViolation(
            f"n_samples must be a multiple of {N_BATCHES} and at least {MIN_SAMPLES}, got {n_samples}"
        )
    eval_spec = VqcSpec(n_layers=spec.n_layers, scaling_fn=spec.scaling_fn)
    rng = np.random.default_rng(seed)
    draws = [_parameter_draw(eval_spec, n_samples // N_BATCHES, rng) for _ in range(N_BATCHES)]
    feats, thetas = (np.concatenate(parts) for parts in zip(*draws))
    return np.split(vqc_state(eval_spec, feats, thetas), N_BATCHES)


def meyer_wallach_batch(states: np.ndarray) -> np.ndarray:
    """Vectorized Meyer-Wallach measure over a (batch, 2^n) stack, n >= 1."""
    states = np.asarray(states, dtype=complex)
    batch, width = states.shape if states.ndim == 2 else (0, 0)
    if width < 2 or width & (width - 1):
        raise ContractViolation(f"states must be a (batch, 2^n) stack with n >= 1, got shape {states.shape}")
    n = width.bit_length() - 1
    purities = np.empty((batch, n))
    for k in range(n):
        psi = states.reshape(batch, 2**k, 2, 2 ** (n - k - 1))
        rho = np.einsum("nial,nibl->nab", psi, psi.conj())
        purities[:, k] = np.einsum("nab,nba->n", rho, rho).real
    return 2.0 * (1.0 - purities.mean(axis=1))


def entanglement_capability(batches: list[np.ndarray]) -> MetricEstimate:
    """Mean Meyer-Wallach measure over a sampled state ensemble.

    The pooled states are scored in one call.  The mean is taken over all
    states; the reported spread is the standard deviation of the per-batch
    means, each over its batch's slice of the pooled values.
    """
    values = meyer_wallach_batch(np.concatenate(batches))
    per_batch = np.split(values, np.cumsum([len(states) for states in batches[:-1]]))
    return MetricEstimate(mean=float(values.mean()), std=float(np.std([q.mean() for q in per_batch])))


def haar_bin_probabilities(n_bins: int, dim: int = 2**N_QUBITS) -> np.ndarray:
    """Haar fidelity mass per equal-width bin on [0, 1].

    Integrated analytically from the CDF 1 - (1 - F)^(dim - 1) of the density
    (dim - 1)(1 - F)^(dim - 2).
    """
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    tail = (1.0 - edges) ** (dim - 1)  # survival function, keeps precision near F=1
    return tail[:-1] - tail[1:]


def fidelity_histogram(states: np.ndarray, n_bins: int) -> np.ndarray:
    """Counts of all-pairs fidelities |<psi_i|psi_j>|^2, i < j.

    Rows go in chunks of ``GRAM_ROWS``; each chunk is multiplied only by the
    columns from its own first row on, and only its i < j entries are binned.
    """
    counts = np.zeros(n_bins, dtype=np.int64)
    n = states.shape[0]
    conj_t = states.conj().T
    upper = np.arange(n)[None, :] > np.arange(min(GRAM_ROWS, n))[:, None]  # local column > local row
    for start in range(0, n, GRAM_ROWS):
        block = states[start : start + GRAM_ROWS]
        fid = np.abs((block @ conj_t[:, start:])[upper[: len(block), : n - start]])
        fid *= fid
        fid *= n_bins
        idx = fid.astype(int)
        counts += np.bincount(np.minimum(idx, n_bins - 1, out=idx), minlength=n_bins)
    return counts


def _kl_from_counts(counts: np.ndarray, haar: np.ndarray) -> float:
    total = counts.sum()
    p = counts / total
    p = np.where(p == 0.0, EPS_EMPTY_BIN, p)
    p = p / p.sum()
    return float(np.sum(p * np.log(p / haar)))


def expressibility(batches: list[np.ndarray], n_bins: int = DEFAULT_BINS) -> MetricEstimate:
    """KL divergence between the fidelity distribution of an ensemble and Haar.

    Bins all unordered pair fidelities of the pooled states (n (n - 1) / 2
    of them for n states).  The mean uses every pair; the spread is the
    standard deviation over per-batch estimates.
    """
    if n_bins < 10:
        raise ContractViolation("need at least 10 bins")
    haar = haar_bin_probabilities(n_bins)
    batch_kls = [_kl_from_counts(fidelity_histogram(s, n_bins), haar) for s in batches]
    total_counts = fidelity_histogram(np.concatenate(batches, axis=0), n_bins)
    return MetricEstimate(mean=_kl_from_counts(total_counts, haar), std=float(np.std(batch_kls)))
