"""Exact statevector simulation of the 4-qubit data-reuploading critic core.

The layered circuit is evaluated in closed form: per layer, one phase vector
for the (diagonal) encoding and one 16x16 matrix for the ansatz, with a batch
axis in front so a whole minibatch goes through at once.  ``VqcSpec`` is the
architecture; ``vqc_state`` takes the input angles and weights theta.  The gate
kernels (``apply_1q`` and friends) build small circuits one gate at a time.
Qubit 0 is the most significant bit of the amplitude index.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractViolation, TrainingError, check_int

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def rx_matrix(lam: float) -> np.ndarray:
    c, s = np.cos(lam / 2), np.sin(lam / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(lam: float) -> np.ndarray:
    c, s = np.cos(lam / 2), np.sin(lam / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(lam: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * lam), 0], [0, np.exp(0.5j * lam)]], dtype=complex)


def zero_state(n_qubits: int, batch: int | None = None) -> np.ndarray:
    """|0...0> as a (2^n,) vector, or a (batch, 2^n) stack of copies."""
    state = np.zeros((1 if batch is None else batch, 2**n_qubits), dtype=complex)
    state[:, 0] = 1.0
    return state[0] if batch is None else state


def _on_qubits(state: np.ndarray, qubits: tuple[int, ...], op: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply ``op`` to a (2^n,) or (batch, 2^n) state viewed with the named qubits as one last axis.

    That axis has 2^k entries, the first-named qubit most significant; the
    batch (1 for a single state) and the other qubits sit in front.  ``op``
    returns a new array of the view's shape.  ContractViolation unless the
    amplitude axis is a power of two >= 2 and the qubits are distinct and in range.
    """
    dim, k = state.shape[-1], len(qubits)
    n = dim.bit_length() - 1
    if dim < 2 or dim != 2**n:
        raise ContractViolation(f"amplitude axis of length {dim} is not a power of two >= 2")
    if len(set(qubits)) < k or not all(isinstance(q, numbers.Integral) and 0 <= q < n for q in qubits):
        raise ContractViolation(f"qubits {qubits} must be distinct and in range for {n} qubits")
    axes, last = [1 + q for q in qubits], range(n + 1 - k, n + 1)
    s = np.moveaxis(state.reshape((-1,) + (2,) * n), axes, last)
    s = op(s.reshape(s.shape[:-k] + (2**k,)))
    return np.moveaxis(s.reshape(s.shape[:-1] + (2,) * k), last, axes).reshape(state.shape)


def apply_1q(state: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 unitary to one qubit of a (batch, 2^n) or (2^n,) state."""
    if np.shape(matrix) != (2, 2):
        raise ContractViolation(f"a one-qubit gate needs a 2x2 matrix, got shape {np.shape(matrix)}")
    return _on_qubits(state, (qubit,), lambda s: s @ matrix.T)


def apply_diag_1q(state: np.ndarray, phases: np.ndarray, qubit: int) -> np.ndarray:
    """Apply diag(phases[..., 0], phases[..., 1]) on one qubit.

    ``phases`` has shape (2,) for a shared gate or (batch, 2) for per-sample
    angles; the diagonal structure is what makes batched encoding cheap.
    """
    if np.shape(phases) not in ((2,), state.shape[:-1] + (2,)):
        raise ContractViolation(f"phases of shape {np.shape(phases)} do not fit a state of shape {state.shape}")
    return _on_qubits(state, (qubit,), lambda s: s * phases.reshape((-1,) + (1,) * (s.ndim - 2) + (2,)))


def apply_cnot(state: np.ndarray, control: int, target: int) -> np.ndarray:
    return _on_qubits(state, (control, target), lambda s: s[..., [0, 1, 3, 2]])


def apply_cphase(state: np.ndarray, lam: float, control: int, target: int) -> np.ndarray:
    def phase(s: np.ndarray) -> np.ndarray:
        s = s.copy()
        s[..., 3] = s[..., 3] * np.exp(1j * lam)  # out of place: an in-place product rounds differently
        return s

    return _on_qubits(state, (control, target), phase)


# ---------------------------------------------------------------------------
# Data-reuploading circuit
# ---------------------------------------------------------------------------

# each input scaling x = f(s), paired with its derivative dx/ds
SCALING_FNS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]] = {
    "identity": (lambda s: s, np.ones_like),
    "arctan": (np.arctan, lambda s: 1.0 / (1.0 + s * s)),
}

N_QUBITS = 4
PARAMS_PER_ROTATION_LAYER = 3 * N_QUBITS  # RZ-RY-RZ per qubit
QUBIT_PAIRS = [(i, j) for i in range(N_QUBITS) for j in range(i + 1, N_QUBITS)]


@dataclass(frozen=True)
class VqcSpec:
    """Layered data-reuploading circuit architecture: L layers of 4 input angles and 12 weights theta each, and the
    scaling f of its input angles.  It holds no weights; a critic's ``CircuitCore`` holds theta and the scalings xi."""

    n_layers: int
    scaling_fn: str = "identity"

    def __post_init__(self):
        check_int(self.n_layers, "n_layers", 1)
        object.__setattr__(self, "n_layers", int(self.n_layers))  # a numpy integer would not export to JSON
        if not isinstance(self.scaling_fn, str) or self.scaling_fn not in SCALING_FNS:
            raise ContractViolation(f"unknown scaling_fn {self.scaling_fn!r}")

    @property
    def n_features(self) -> int:
        return N_QUBITS * self.n_layers

    @property
    def n_theta(self) -> int:
        return PARAMS_PER_ROTATION_LAYER * self.n_layers


def _basis_signs() -> np.ndarray:
    """s_q(b) = +1/-1, the Z eigenvalue of qubit q in basis state b; shape (4, 16)."""
    bits = (np.arange(2**N_QUBITS)[None, :] >> (N_QUBITS - 1 - np.arange(N_QUBITS))[:, None]) & 1
    return 1.0 - 2.0 * bits


def _ring_source() -> np.ndarray:
    """Index map of the CNOT ring: after CNOT(0,1), CNOT(1,2), CNOT(2,3), CNOT(3,0),
    the amplitude at basis state c is the one that stood at ``_ring_source()[c]``."""
    dest = np.empty(2**N_QUBITS, dtype=int)
    for b in range(2**N_QUBITS):
        bits = [(b >> (N_QUBITS - 1 - q)) & 1 for q in range(N_QUBITS)]
        for q in range(N_QUBITS):
            bits[(q + 1) % N_QUBITS] ^= bits[q]
        dest[b] = sum(bit << (N_QUBITS - 1 - q) for q, bit in enumerate(bits))
    return np.argsort(dest)


# Closed-form layer constants.  After the Hadamards every encoding gate is
# diagonal: RZ_q(2x_q) is exp(-i x_q Z_q), and CNOT.RZ_j(2y).CNOT is
# exp(-i y Z_i Z_j), the ZZ feature map.  So one layer's encoding is a phase
# per basis state, and its ansatz is a permutation then one 16x16 matrix.
SIGNS_1 = _basis_signs()  # (4, 16)
SIGNS_2 = np.stack([SIGNS_1[i] * SIGNS_1[j] for i, j in QUBIT_PAIRS])  # (6, 16)
_PAIR_I, _PAIR_J = np.array(QUBIT_PAIRS).T
H4_MATRIX = np.kron(np.kron(H_MATRIX, H_MATRIX), np.kron(H_MATRIX, H_MATRIX))
RING_SOURCE = _ring_source()


def z_expectations(state: np.ndarray) -> np.ndarray:
    """<Z_q> = sum_b |psi_b|^2 s_q(b) for every qubit; (4,) for a single state, (batch, 4) otherwise."""
    if state.shape[-1] != 2**N_QUBITS:
        raise ContractViolation(f"expected {2**N_QUBITS} amplitudes, got {state.shape[-1]}")
    return (state.real**2 + state.imag**2) @ SIGNS_1.T


def _encoding_phases(x: np.ndarray) -> np.ndarray:
    """exp(-i (sum_q x_q s_q + sum_{i<j} (pi - x_i)(pi - x_j) s_i s_j)) per basis state.

    ``x`` holds one layer's input angles, shape (..., 4); returns (..., 16).
    """
    px = np.pi - x
    # np.take returns C-contiguous rows, so a (b, 1, 4) batch takes the same matmul loop as (1, 4)
    y = np.take(px, _PAIR_I, axis=-1) * np.take(px, _PAIR_J, axis=-1)
    return np.exp(-1j * (x @ SIGNS_1 + y @ SIGNS_2))


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _rotation_matrix(theta_layer: np.ndarray) -> np.ndarray:
    """K(theta): the Kronecker product of the four per-qubit Euler rotations.

    Qubit q gets RZ(theta[3q+2]) RY(theta[3q+1]) RZ(theta[3q]).  ``theta_layer``
    has shape (..., 12); returns (..., 16, 16).  Each RZ angle takes one
    exponential, its diagonal (exp(-ia/2), exp(ia/2)) formed from exp(ia/2)
    and its conjugate, with the bits of two exponentials.
    """
    t = theta_layer.reshape(theta_layer.shape[:-1] + (N_QUBITS, 3))
    c, s = np.cos(t[..., 1] / 2), np.sin(t[..., 1] / 2)
    ry = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    e = np.exp(0.5j * t[..., ::2])  # exp(ia/2) of the first and last RZ angles a, (..., 4, 2)
    rz = np.stack([e.conj(), e], axis=-1)  # conj(exp(ia/2)) is exp(-ia/2) bit for bit (libm's cos even, sin odd)
    rz[..., 0].imag += 0.0  # but where sin gives 0: exp(-0.5j * 0) reads +0 there, conj -0, and -0 + 0 is +0
    blocks = rz[..., 1, :, None] * ry * rz[..., 0, None, :]  # (..., 4, 2, 2)
    return _kron2(
        _kron2(blocks[..., 0, :, :], blocks[..., 1, :, :]),
        _kron2(blocks[..., 2, :, :], blocks[..., 3, :, :]),
    )


def vqc_state(spec: VqcSpec, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Output statevector for input angles x of shape (4L,) or (batch, 4L), which enter the circuit as they are.

    ``theta`` is (12L,), shared across the batch, or (batch, 12L), one vector per sample.  Layer l maps
    state <- ((state @ H4) * phases(x_l)) @ (K(theta_l) . RING)^T.
    The CNOT ring comes before the rotations, so the rotations sit between
    a layer's entangler and the next layer's encoding; that order is what
    reproduces the reference entanglement-capability values for L = 1..3.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != spec.n_features:
        raise ContractViolation(f"expected {spec.n_features} input angles for L={spec.n_layers}, got {x.shape[-1]}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape not in ((spec.n_theta,), x.shape[:-1] + (spec.n_theta,)):
        raise ContractViolation(f"theta of shape {theta.shape} does not fit angles of shape {x.shape}")
    state = None
    for layer in range(spec.n_layers):
        phases = _encoding_phases(x[..., N_QUBITS * layer : N_QUBITS * (layer + 1)])
        if state is None:  # H4|0> is the uniform superposition, amplitude 1/4
            state = 0.25 * phases
        else:
            state = (state @ H4_MATRIX) * phases
        k = _rotation_matrix(theta[..., PARAMS_PER_ROTATION_LAYER * layer : PARAMS_PER_ROTATION_LAYER * (layer + 1)])
        state = np.take(state, RING_SOURCE, axis=-1)  # C-contiguous, as in _encoding_phases
        state = state @ k.T if k.ndim == 2 else np.matmul(k, state[..., None])[..., 0]
    return state


def vqc_forward(spec: VqcSpec, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """<Z_q> outputs, each in [-1, 1], for input angles x; batched when ``x`` is 2-D."""
    return z_expectations(vqc_state(spec, x, theta))


# ---------------------------------------------------------------------------
# SPSA
# ---------------------------------------------------------------------------


# gain-schedule constants of every SPSA estimate
SPSA_A = 50.0
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101


@dataclass
class SpsaState:
    """Gain schedule and RNG stream for simultaneous-perturbation estimates.

    Step sizes a_k = a / (k + 1 + SPSA_A)^SPSA_ALPHA and perturbation
    magnitudes c_k = c / (k + 1)^SPSA_GAMMA, both positive and decreasing.
    """

    a: float
    c: float = 0.1
    k: int = 0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    @classmethod
    def matched_to_lr(cls, lr: float, seed: int = 0) -> "SpsaState":
        """Pick ``a`` so the first step size equals the Adam learning rate."""
        return cls(a=lr * (1.0 + SPSA_A) ** SPSA_ALPHA, rng=np.random.default_rng(seed))

    def step_size(self) -> float:
        return self.a / (self.k + 1 + SPSA_A) ** SPSA_ALPHA

    def perturbation_size(self) -> float:
        return self.c / (self.k + 1) ** SPSA_GAMMA


def spsa_gradient(
    loss_fn: Callable[[np.ndarray], float],
    theta: np.ndarray,
    state: SpsaState,
    loss_center: float | None = None,
) -> tuple[np.ndarray, float]:
    """Three-evaluation gradient estimate at ``theta``.

    Draws one Rademacher perturbation, evaluates the loss at the center and
    at theta +/- c_k * delta, and returns (gradient estimate, center loss).
    A caller that has already evaluated the loss at ``theta`` passes it as
    ``loss_center`` and the center is not evaluated again.  Advances the
    iteration counter; the caller applies the update as
    theta <- theta - step_size * grad.
    """
    theta = np.asarray(theta, dtype=float)
    ck = state.perturbation_size()
    delta = state.rng.integers(0, 2, size=theta.shape).astype(float) * 2.0 - 1.0
    loss_center = float(loss_fn(theta) if loss_center is None else loss_center)
    loss_plus = float(loss_fn(theta + ck * delta))
    loss_minus = float(loss_fn(theta - ck * delta))
    if not (np.isfinite(loss_center) and np.isfinite(loss_plus) and np.isfinite(loss_minus)):
        raise TrainingError("non-finite loss in SPSA evaluation")
    grad = (loss_plus - loss_minus) / (2.0 * ck * delta)
    state.k += 1
    return grad, loss_center
