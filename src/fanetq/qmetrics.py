"""Entanglement capability and expressibility estimators for circuit specs.

Both metrics characterize a circuit over random parameter draws: raw data
inputs are sampled uniformly over a full angle period [0, 2pi), ansatz
angles over [0, pi), and the circuit's input angles are the spec's scaling
function of the sampled data inputs, with no input scalings xi.  The
estimates are therefore a property of the architecture alone, independent of
any trained weights; the domains were calibrated so the identity- and
arctan-scaled single-layer circuits land on their reference values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import ContractViolation, check_int
from .qsim import N_QUBITS, SCALING_FNS, VqcSpec, vqc_state

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


def _parameter_draw(spec: VqcSpec, n: int, rng: np.random.Generator, batches: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Input angles (batches n, 4L) and ansatz angles (batches n, 12L) of ``batches`` batches of n samples.

    One ``rng.random`` call draws each batch in turn, its raw data inputs and then its ansatz angles: the stream order
    of two ``rng.uniform`` calls per batch, scaled as uniform scales, low + (high - low) * u.  The spec's scaling
    function maps the data inputs to input angles."""
    u, k = rng.random((batches, n * (spec.n_features + spec.n_theta))), n * spec.n_features
    feats = DATA_ANGLE_LOW + (DATA_ANGLE_HIGH - DATA_ANGLE_LOW) * u[:, :k].reshape(-1, spec.n_features)
    return SCALING_FNS[spec.scaling_fn][0](feats), THETA_LOW + (THETA_HIGH - THETA_LOW) * u[:, k:].reshape(-1, spec.n_theta)


def circuit_state_sampler(spec: VqcSpec) -> Callable[[int, np.random.Generator], np.ndarray]:
    """Sampler of output states for uniformly drawn data inputs and angles.

    Every sample gets its own full parameter vector: input angles of shape
    (4L,), scaled from a raw data draw, and ansatz angles of shape (12L,).
    """
    return lambda n, rng: vqc_state(spec, *_parameter_draw(spec, n, rng))


def check_sampling(n_samples, seed) -> None:
    """ContractViolation unless ``seed`` is a non-negative integer and ``n_samples`` an integer multiple of
    ``N_BATCHES`` of at least ``MIN_SAMPLES``, so every requested state is drawn and scored."""
    check_int(seed, "seed", 0)
    check_int(n_samples, "n_samples", None)
    if n_samples < MIN_SAMPLES or n_samples % N_BATCHES:
        raise ContractViolation(
            f"n_samples must be a multiple of {N_BATCHES} and at least {MIN_SAMPLES}, got {n_samples}"
        )


def sample_states(spec: VqcSpec, n_samples: int = 5000, seed: int = 0) -> list[np.ndarray]:
    """``N_BATCHES`` equal batches of output states drawn from one stream; both metrics score them.

    One ``_parameter_draw`` call draws every batch, each as one ``circuit_state_sampler`` call would, in turn from
    one generator, and the draws run as one circuit call, whose rows the batches are.  ``n_samples`` and ``seed``
    must pass check_sampling.
    """
    check_sampling(n_samples, seed)
    draw = _parameter_draw(spec, n_samples // N_BATCHES, np.random.default_rng(seed), N_BATCHES)
    return np.split(vqc_state(spec, *draw), N_BATCHES)


@cache
def _qubit_pairs(n: int) -> np.ndarray:
    """(2, 2^(n-1), n) basis indices: [0, j, k] reads 0 on qubit k, [1, j, k] is the same index with qubit k at 1,
    and j runs over the other qubits' values in ascending order.  Qubit 0 is the most significant bit."""
    index, bits = np.arange(2**n), 1 << np.arange(n - 1, -1, -1)
    zero = np.stack([index[index & bit == 0] for bit in bits], axis=1)
    pairs = np.stack((zero, zero | bits))
    pairs.flags.writeable = False  # every call shares the cached table
    return pairs


def meyer_wallach_batch(states: np.ndarray) -> np.ndarray:
    """Vectorized Meyer-Wallach measure 2 (1 - mean_k Tr rho_k^2) over a (batch, 2^n) stack, n >= 1.

    Each qubit's purity is taken in closed form, Tr rho_k^2 = p0^2 + p1^2 + 2 |c|^2, with p0 and p1 the
    probabilities that qubit k reads 0 and 1 and c = sum psi_{..0..} conj(psi_{..1..}) over the amplitude pairs
    that differ in qubit k alone.  Products are real and every sum runs over a leading axis, which numpy adds one
    whole slice at a time, so a row's value does not depend on the rows that share the call.  Each of the four
    per-pair terms is summed on its own, with the bits of one sum over them stacked.
    """
    states = np.asarray(states, dtype=complex)
    width = states.shape[1] if states.ndim == 2 else 0
    if width < 2 or width & (width - 1):
        raise ContractViolation(f"states must be a (batch, 2^n) stack with n >= 1, got shape {states.shape}")
    n = width.bit_length() - 1
    pairs = _qubit_pairs(n)
    real, imag = (np.ascontiguousarray(part.T) for part in (states.real, states.imag))  # (2^n, batch)
    (re0, re1), (im0, im1) = np.take(real, pairs, axis=0), np.take(imag, pairs, axis=0)  # (2^(n-1), n, batch) each
    # per pair: |psi_0|^2, |psi_1|^2, Re and Im of psi_0 conj(psi_1), each summed over the pairs on its own
    terms = (re0 * re0 + im0 * im0, re1 * re1 + im1 * im1, re0 * re1 + im0 * im1, im0 * re1 - re0 * im1)
    p0, p1, c_re, c_im = (term.sum(axis=0) for term in terms)
    purities = p0 * p0 + p1 * p1 + 2.0 * (c_re * c_re + c_im * c_im)  # (n, batch)
    return 2.0 * (1.0 - purities.mean(axis=0))


def _check_batches(batches, min_rows: int) -> None:
    """ContractViolation unless ``batches`` holds at least one (rows, width) stack, all of one width and each of at
    least ``min_rows`` rows."""
    if len(batches) == 0:  # np.concatenate's own error names no metric
        raise ContractViolation("need at least one batch of states")
    shapes = [np.shape(states) for states in batches]
    if any(len(shape) != 2 or shape[0] < min_rows for shape in shapes) or len({shape[1] for shape in shapes}) > 1:
        raise ContractViolation(
            f"batches must be (rows, width) stacks of one width with rows >= {min_rows}, got shapes {shapes}"
        )


def entanglement_capability(batches: list[np.ndarray]) -> MetricEstimate:
    """Mean Meyer-Wallach measure over a sampled state ensemble.

    The pooled states are scored in one call.  The mean is taken over all
    states; the reported spread is the standard deviation of the per-batch
    means, each over its batch's slice of the pooled values.
    """
    _check_batches(batches, 1)
    values = meyer_wallach_batch(np.concatenate(batches))
    per_batch = np.split(values, np.cumsum([len(states) for states in batches[:-1]]))
    return MetricEstimate(mean=float(values.mean()), std=float(np.std([q.mean() for q in per_batch])))


def haar_bin_probabilities(n_bins: int, dim: int = 2**N_QUBITS) -> np.ndarray:
    """Haar fidelity mass per equal-width bin on [0, 1].

    Integrated analytically from the CDF 1 - (1 - F)^(dim - 1) of the density
    (dim - 1)(1 - F)^(dim - 2), a distribution only for dim >= 2.
    """
    if dim < 2:
        raise ContractViolation(f"a Haar fidelity distribution needs states of width >= 2, got {dim}")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    tail = (1.0 - edges) ** (dim - 1)  # survival function, keeps precision near F=1
    return tail[:-1] - tail[1:]


def _binned(fid: np.ndarray, n_bins: int) -> np.ndarray:
    """Counts of fidelities in [0, 1] over ``n_bins`` equal-width bins, with 1 itself in the top bin."""
    fid *= n_bins
    idx = fid.astype(int)
    return np.bincount(np.minimum(idx, n_bins - 1, out=idx).ravel(), minlength=n_bins)


def fidelity_histogram(batches: list[np.ndarray], n_bins: int) -> np.ndarray:
    """Counts of pair fidelities |<psi_i|psi_j>|^2, i < j, as a (len(batches) + 1, n_bins) int64 array.

    Row b counts the pairs within batch b, and the last row every pair of the pooled states.  One sweep makes
    them all: row chunks of at most ``GRAM_ROWS`` stay inside one batch, and each is multiplied only by the
    columns from its own first row on.  A chunk's columns inside its batch (local column > local row) count
    toward its batch's row, and those past its batch toward a cross-batch tally, which the pooled row adds
    to the per-batch rows.  With A = [Re psi, Im psi], Re<i|j> = A_i . A_j and Im<i|j> = [-Im psi_i, Re psi_i] . A_j,
    so each chunk takes two real products against one transposed copy of A and no square root.
    """
    check_int(n_bins, "n_bins", 1)
    for states in batches:
        if np.ndim(states) != 2:
            raise ContractViolation(f"states must be a (batch, dim) stack, got shape {np.shape(states)}")
    _check_batches(batches, 0)
    states = np.concatenate(batches)
    dim = states.shape[1]
    a_t = np.concatenate((states.real.T, states.imag.T))  # (2 dim, n)
    sizes = [len(s) for s in batches]
    counts = np.zeros((len(batches) + 1, n_bins), dtype=np.int64)
    upper = np.arange(max(sizes))[None, :] > np.arange(GRAM_ROWS)[:, None]  # local column > local row
    bounds = np.cumsum([0, *sizes])
    for b, (low, high) in enumerate(zip(bounds[:-1], bounds[1:])):
        for start in range(low, high, GRAM_ROWS):
            rows, cols = a_t[:, start : min(start + GRAM_ROWS, high)], a_t[:, start:]
            fid = rows.T @ cols  # Re<i|j>
            fid *= fid
            im = np.concatenate((-rows[dim:], rows[:dim])).T @ cols  # Im<i|j>
            im *= im
            fid += im
            within = high - start
            counts[b] += _binned(fid[:, :within][upper[: len(fid), :within]], n_bins)
            counts[-1] += _binned(fid[:, within:], n_bins)
    counts[-1] += counts[:-1].sum(axis=0)
    return counts


def _kl_from_counts(counts: np.ndarray, haar: np.ndarray) -> np.ndarray:
    """KL(p || haar) per row of ``counts``; every sum runs along the last axis, so a row gets its own call's bits."""
    p = counts / counts.sum(axis=-1, keepdims=True)
    p = np.where(p == 0.0, EPS_EMPTY_BIN, p)
    p = p / p.sum(axis=-1, keepdims=True)
    return np.sum(p * np.log(p / haar), axis=-1)


def expressibility(batches: list[np.ndarray], n_bins: int = DEFAULT_BINS) -> MetricEstimate:
    """KL divergence between the fidelity distribution of an ensemble and Haar.

    Bins all unordered pair fidelities of the pooled states (n (n - 1) / 2
    of them for n states) and of each batch, in one fidelity_histogram call,
    and scores every row of counts against the Haar distribution of the
    states' width in one pass.  The mean uses every pair; the spread is the
    standard deviation over per-batch estimates.
    """
    check_int(n_bins, "n_bins", None)
    if n_bins < 10:
        raise ContractViolation("need at least 10 bins")
    _check_batches(batches, 2)
    haar = haar_bin_probabilities(n_bins, np.shape(batches[0])[1])
    *batch_kls, total_kl = _kl_from_counts(fidelity_histogram(batches, n_bins), haar)
    return MetricEstimate(mean=float(total_kl), std=float(np.std(batch_kls)))
