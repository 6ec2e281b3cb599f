"""Statevector simulator: gates vs dense-unitary oracle, circuit, SPSA.

The closed-form circuit in ``fanetq.qsim`` is checked against two independent
constructions kept here: full 16x16 unitaries built from Kronecker products
(``dense_vqc_state``) and the circuit applied gate by gate (``gate_vqc_state``).
"""

import itertools
import json

import numpy as np
import pytest

from fanetq.errors import ContractViolation, TrainingError
from fanetq.qsim import (
    H_MATRIX,
    N_QUBITS,
    QUBIT_PAIRS,
    SpsaState,
    VqcSpec,
    apply_1q,
    apply_cnot,
    apply_cphase,
    apply_diag_1q,
    apply_gate,
    ry_matrix,
    rx_matrix,
    rz_matrix,
    spsa_gradient,
    vqc_forward,
    vqc_state,
    z_expectations,
    zero_state,
)

from tests.oracles import spsa_minimize

# ---------------------------------------------------------------------------
# dense-matrix oracle: build the full 2^n x 2^n unitary with kron products
# ---------------------------------------------------------------------------


def dense_1q(mat, qubit, n):
    ops = [np.eye(2)] * n
    ops[qubit] = mat
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def dense_cnot(control, target, n):
    dim = 2**n
    u = np.zeros((dim, dim))
    for b in range(dim):
        bits = [(b >> (n - 1 - k)) & 1 for k in range(n)]
        if bits[control] == 1:
            bits[target] ^= 1
        b2 = 0
        for bit in bits:
            b2 = (b2 << 1) | bit
        u[b2, b] = 1.0
    return u


def dense_cphase(lam, control, target, n):
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    for b in range(dim):
        bits = [(b >> (n - 1 - k)) & 1 for k in range(n)]
        if bits[control] == 1 and bits[target] == 1:
            diag[b] = np.exp(1j * lam)
    return np.diag(diag)


def dense_encode_layer(x):
    u = np.eye(16, dtype=complex)
    for q in range(4):
        u = dense_1q(H_MATRIX, q, 4) @ u
    for q in range(4):
        u = dense_1q(rz_matrix(2 * x[q]), q, 4) @ u
    for qi, qj in QUBIT_PAIRS:
        xx = 2.0 * (np.pi - x[qi]) * (np.pi - x[qj])
        u = dense_cnot(qi, qj, 4) @ u
        u = dense_1q(rz_matrix(xx), qj, 4) @ u
        u = dense_cnot(qi, qj, 4) @ u
    return u


def dense_ansatz_layer(theta):
    u = np.eye(16, dtype=complex)
    for q in range(4):
        u = dense_cnot(q, (q + 1) % 4, 4) @ u
    for q in range(4):
        u = dense_1q(rz_matrix(theta[3 * q]), q, 4) @ u
        u = dense_1q(ry_matrix(theta[3 * q + 1]), q, 4) @ u
        u = dense_1q(rz_matrix(theta[3 * q + 2]), q, 4) @ u
    return u


def dense_vqc_state(spec, x):
    """The layered circuit as a product of dense layer unitaries, for input angles x of shape (4L,)."""
    x = np.asarray(x, dtype=float)
    state = np.zeros(16, dtype=complex)
    state[0] = 1.0
    for layer in range(spec.n_layers):
        state = dense_encode_layer(x[4 * layer : 4 * layer + 4]) @ state
        state = dense_ansatz_layer(spec.theta[12 * layer : 12 * layer + 12]) @ state
    return state


# ---------------------------------------------------------------------------
# gate-level oracle: the circuit applied one gate at a time
# ---------------------------------------------------------------------------


def _rz_phases(angles):
    """diag entries of RZ for per-sample angles of shape (batch,) or scalar."""
    angles = np.asarray(angles)
    return np.stack([np.exp(-0.5j * angles), np.exp(0.5j * angles)], axis=-1)


def encode_layer(state, x):
    """Second-order Pauli-Z evolution encoding for one layer.

    H on every qubit, RZ(2 x_q) per qubit, then for each pair q_i < q_j a
    CNOT-conjugated RZ on q_j with angle 2(pi - x_i)(pi - x_j).  ``x`` holds
    the already-scaled angles, shape (4,) or (batch, 4).
    """
    x = np.asarray(x, dtype=float)
    for q in range(N_QUBITS):
        state = apply_1q(state, H_MATRIX, q)
    for q in range(N_QUBITS):
        state = apply_diag_1q(state, _rz_phases(2.0 * x[..., q]), q)
    for qi, qj in QUBIT_PAIRS:
        xx = 2.0 * (np.pi - x[..., qi]) * (np.pi - x[..., qj])
        state = apply_cnot(state, qi, qj)
        state = apply_diag_1q(state, _rz_phases(xx), qj)
        state = apply_cnot(state, qi, qj)
    return state


def ansatz_layer(state, theta_layer):
    """Trainable block: a CNOT ring, then RZ-RY-RZ Euler rotations per qubit.

    The ring comes first so the rotations sit between this layer's entangler
    and the next layer's encoding.
    """
    for q in range(N_QUBITS):
        state = apply_cnot(state, q, (q + 1) % N_QUBITS)
    for q in range(N_QUBITS):
        state = apply_1q(state, rz_matrix(theta_layer[3 * q]), q)
        state = apply_1q(state, ry_matrix(theta_layer[3 * q + 1]), q)
        state = apply_1q(state, rz_matrix(theta_layer[3 * q + 2]), q)
    return state


def gate_vqc_state(spec, x):
    """The layered circuit gate by gate, for input angles x of shape (4L,) or (batch, 4L)."""
    x = np.asarray(x, dtype=float)
    state = zero_state(N_QUBITS, None if x.ndim == 1 else x.shape[0])
    for layer in range(spec.n_layers):
        state = encode_layer(state, x[..., 4 * layer : 4 * layer + 4])
        state = ansatz_layer(state, spec.theta[12 * layer : 12 * layer + 12])
    return state


# ---------------------------------------------------------------------------
# parameter-shift oracle for theta gradients
# ---------------------------------------------------------------------------


def parameter_shift_gradient(loss, theta):
    """Exact gradient of a loss linear in <Z> outputs.

    Every theta enters through one RZ or RY gate, exp(-i theta P / 2) with
    P a Pauli, so d<Z>/dtheta_k = (<Z>(theta_k + pi/2) - <Z>(theta_k - pi/2)) / 2.
    """
    grad = np.empty_like(theta)
    for k in range(theta.size):
        shift = np.zeros_like(theta)
        shift[k] = np.pi / 2
        grad[k] = (loss(theta + shift) - loss(theta - shift)) / 2
    return grad


class SignEnumerator:
    """Stands in for an SPSA generator and hands out every 0/1 pattern once."""

    def __init__(self, n):
        self._patterns = itertools.product((0, 1), repeat=n)

    def integers(self, low, high, size):
        return np.array(next(self._patterns))


class TestGates:
    def test_h_on_zero(self):
        s = apply_gate(zero_state(1), "H", (0,))
        assert np.abs(s - np.array([1, 1]) / np.sqrt(2)).max() < 1e-12

    def test_bell_state(self):
        s = zero_state(2)
        s = apply_gate(s, "H", (0,))
        s = apply_gate(s, "CNOT", (0, 1))
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert np.abs(s - bell).max() < 1e-12

    def test_random_sequence_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = 4
            state = zero_state(n)
            u = np.eye(16, dtype=complex)
            for _ in range(6):
                kind = rng.choice(["H", "RX", "RY", "RZ", "CNOT", "CPHASE"])
                if kind in ("CNOT", "CPHASE"):
                    q = list(rng.choice(n, size=2, replace=False))
                    lam = float(rng.uniform(-np.pi, np.pi))
                    state = apply_gate(state, kind, tuple(q), lam)
                    if kind == "CNOT":
                        u = dense_cnot(q[0], q[1], n) @ u
                    else:
                        u = dense_cphase(lam, q[0], q[1], n) @ u
                else:
                    q = int(rng.integers(0, n))
                    lam = float(rng.uniform(-np.pi, np.pi))
                    state = apply_gate(state, kind, (q,), lam)
                    mats = {"H": H_MATRIX, "RX": rx_matrix(lam), "RY": ry_matrix(lam), "RZ": rz_matrix(lam)}
                    u = dense_1q(mats[kind], q, n) @ u
            expected = u @ zero_state(n)
            assert np.abs(state - expected).max() < 1e-10

    def test_duplicate_control_target_rejected(self):
        with pytest.raises(ContractViolation):
            apply_cnot(zero_state(2), 1, 1)
        with pytest.raises(ContractViolation):
            apply_cphase(zero_state(2), 0.3, 0, 0)

    GATE_CALLS = {
        "1q": lambda state, qubits: apply_1q(state, H_MATRIX, *qubits),
        "diag_1q": lambda state, qubits: apply_diag_1q(state, np.array([1.0, -1.0], dtype=complex), *qubits),
        "cnot": lambda state, qubits: apply_cnot(state, *qubits),
        "cphase": lambda state, qubits: apply_cphase(state, 0.3, *qubits),
    }

    @pytest.mark.parametrize("batch", [None, 2], ids=["single", "batch"])
    @pytest.mark.parametrize(
        "gate, qubits",
        [
            ("1q", (3,)),
            ("1q", (-1,)),
            ("diag_1q", (3,)),
            ("diag_1q", (-1,)),
            ("cnot", (0, 5)),
            ("cnot", (-1, 0)),
            ("cnot", (2, 2)),
            ("cphase", (0, 3)),
            ("cphase", (1, -2)),
            ("cphase", (1, 1)),
        ],
    )
    def test_a_qubit_out_of_range_negative_or_repeated_is_refused(self, gate, qubits, batch):
        state = zero_state(3, batch)
        with pytest.raises(ContractViolation, match="must be distinct and in range for 3 qubits"):
            self.GATE_CALLS[gate](state, qubits)

    @pytest.mark.parametrize(
        "gate, targets, param, message",
        [
            ("RX", (0,), None, "RX needs a finite real param, got None"),  # was a bare TypeError
            ("RY", (1,), float("nan"), "RY needs a finite real param, got nan"),
            ("RZ", (0,), float("inf"), "RZ needs a finite real param, got inf"),
            ("CPHASE", (0, 1), 1j, r"CPHASE needs a finite real param, got 1j"),
            ("CPHASE", (0, 1), True, "CPHASE needs a finite real param, got True"),
            ("CNOT", (0,), None, r"CNOT takes 2 target qubit\(s\), got \(0,\)"),  # was an IndexError
            ("CPHASE", (0, 1, 2), 0.3, r"CPHASE takes 2 target qubit\(s\)"),
            ("H", (0, 1), None, r"H takes 1 target qubit\(s\)"),
            ("RX", (), 0.3, r"RX takes 1 target qubit\(s\)"),
            ("RY", 0, 0.3, r"RY takes 1 target qubit\(s\), got 0"),
            ("SWAP", (0, 1), None, "unknown gate 'SWAP'"),
            (None, (0,), None, "unknown gate None"),
        ],
        ids=["rx-none", "ry-nan", "rz-inf", "cphase-complex", "cphase-bool", "cnot-one-target", "cphase-three-targets",
             "h-two-targets", "rx-no-target", "ry-int-target", "unknown-name", "no-name"],
    )
    def test_apply_gate_refuses_a_bad_param_or_target_count(self, gate, targets, param, message):
        with pytest.raises(ContractViolation, match=f"^{message}"):
            apply_gate(zero_state(2), gate, targets, param)

    @pytest.mark.parametrize(
        "apply, operand, batch",
        [
            (apply_1q, np.eye(4), None),  # each was a bare ValueError from a matmul, a broadcast or a reshape
            (apply_1q, np.ones(2), 2),
            (apply_diag_1q, np.ones((3, 2)), 2),
            (apply_diag_1q, np.ones((2, 2)), None),
            (apply_diag_1q, np.ones(4), 2),
        ],
        ids=["1q-4x4", "1q-vector", "diag-batch-mismatch", "diag-batch-on-single", "diag-four-phases"],
    )
    def test_a_gate_operand_of_the_wrong_shape_is_refused(self, apply, operand, batch):
        with pytest.raises(ContractViolation, match="2x2 matrix, got shape|do not fit a state of shape"):
            apply(zero_state(2, batch), operand, 0)

    @pytest.mark.parametrize("gate", sorted(GATE_CALLS))
    @pytest.mark.parametrize("dim", [1, 6])
    def test_an_amplitude_axis_that_is_no_power_of_two_of_at_least_two_is_refused(self, gate, dim):
        qubits = (0,) if gate in ("1q", "diag_1q") else (0, 1)
        for state in (np.ones(dim, dtype=complex), np.ones((2, dim), dtype=complex)):
            with pytest.raises(ContractViolation, match=f"length {dim} is not a power of two >= 2"):
                self.GATE_CALLS[gate](state, qubits)

    def test_norm_preserved_long_circuit(self):
        rng = np.random.default_rng(1)
        state = zero_state(4)
        for _ in range(200):
            q = int(rng.integers(0, 4))
            state = apply_gate(state, "RY", (q,), float(rng.uniform(-np.pi, np.pi)))
            state = apply_cnot(state, q, (q + 1) % 4)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10

    def test_batched_matches_single(self):
        rng = np.random.default_rng(2)
        batch = np.tile(zero_state(4), (3, 1)).astype(complex)
        single = [zero_state(4) for _ in range(3)]
        for _ in range(10):
            q = int(rng.integers(0, 4))
            lam = float(rng.uniform(-np.pi, np.pi))
            batch = apply_gate(batch, "RY", (q,), lam)
            batch = apply_cnot(batch, q, (q + 1) % 4)
            single = [apply_cnot(apply_gate(s, "RY", (q,), lam), q, (q + 1) % 4) for s in single]
        for k in range(3):
            assert np.abs(batch[k] - single[k]).max() < 1e-12


class TestEncodeLayer:
    def test_all_pi_inputs_zero_pairwise_angles(self):
        # xx = 2(pi - x_i)(pi - x_j) vanishes at x = pi: layer equals H+RZ only
        x = np.full(4, np.pi)
        got = encode_layer(zero_state(4), x)
        expected = zero_state(4)
        for q in range(4):
            expected = apply_gate(expected, "H", (q,))
        for q in range(4):
            expected = apply_gate(expected, "RZ", (q,), 2 * np.pi)
        assert np.abs(got - expected).max() < 1e-12

    def test_zero_inputs_pairwise_angle_value(self):
        # direct substitution: xx = 2 pi^2 for every pair
        x = np.zeros(4)
        got = encode_layer(zero_state(4), x)
        expected = zero_state(4)
        for q in range(4):
            expected = apply_gate(expected, "H", (q,))
        for q in range(4):
            expected = apply_gate(expected, "RZ", (q,), 0.0)
        for qi, qj in QUBIT_PAIRS:
            expected = apply_cnot(expected, qi, qj)
            expected = apply_gate(expected, "RZ", (qi, qj)[1:], 2 * np.pi**2)
            expected = apply_cnot(expected, qi, qj)
        assert np.abs(got - expected).max() < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-np.pi, np.pi, size=4)
            got = encode_layer(zero_state(4), x)
            expected = dense_encode_layer(x) @ zero_state(4)
            assert np.abs(got - expected).max() < 1e-10


class TestAnsatzLayer:
    def test_zero_angles_only_ring_acts(self):
        theta = np.zeros(12)
        got = ansatz_layer(zero_state(4), theta)
        expected = zero_state(4)
        for q in range(4):
            expected = apply_cnot(expected, q, (q + 1) % 4)
        assert np.abs(got - expected).max() < 1e-12

    def test_parameter_count_per_layer(self):
        assert VqcSpec(n_layers=3).theta.size == 36
        assert VqcSpec(n_layers=1).theta.size == 12
        assert VqcSpec(n_layers=2).theta.size == 24

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, size=12)
            got = ansatz_layer(zero_state(4), theta)
            expected = dense_ansatz_layer(theta) @ zero_state(4)
            assert np.abs(got - expected).max() < 1e-10


class TestVqcForward:
    def test_initial_state_expectations(self):
        assert np.array_equal(z_expectations(zero_state(4)), np.ones(4))

    def test_outputs_bounded(self):
        rng = np.random.default_rng(5)
        spec = VqcSpec(n_layers=2, scaling_fn="arctan", theta=rng.uniform(-3, 3, 24), xi=rng.uniform(-2, 2, 8))
        feats = rng.uniform(-5, 5, size=(1000, 8))
        z = vqc_forward(spec, feats)
        assert np.all(z >= -1.0 - 1e-12) and np.all(z <= 1.0 + 1e-12)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_matches_dense_oracle(self, n_layers):
        rng = np.random.default_rng(10 + n_layers)
        for _ in range(34):
            spec = VqcSpec(
                n_layers=n_layers,
                scaling_fn=str(rng.choice(["identity", "arctan"])),
                theta=rng.uniform(-np.pi, np.pi, 12 * n_layers),
                xi=rng.uniform(-2, 2, 4 * n_layers),
            )
            x = spec.scaled_angles(rng.uniform(-np.pi, np.pi, size=4 * n_layers))
            got_state = vqc_state(spec, x)
            expected_state = dense_vqc_state(spec, x)
            assert np.abs(got_state - expected_state).max() < 1e-10
            assert np.abs(vqc_forward(spec, x) - z_expectations(expected_state)).max() < 1e-10

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_batch_matches_gate_level_and_dense_oracles(self, n_layers):
        rng = np.random.default_rng(20 + n_layers)
        for scaling in ("identity", "arctan"):
            spec = VqcSpec(
                n_layers=n_layers,
                scaling_fn=scaling,
                theta=rng.uniform(-np.pi, np.pi, 12 * n_layers),
                xi=rng.uniform(-2, 2, 4 * n_layers),
            )
            x = spec.scaled_angles(rng.uniform(-np.pi, np.pi, size=(64, 4 * n_layers)))
            got = vqc_state(spec, x)
            assert np.abs(got - gate_vqc_state(spec, x)).max() < 1e-10
            for i in range(0, 64, 8):
                assert np.abs(got[i] - dense_vqc_state(spec, x[i])).max() < 1e-10

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_per_sample_theta_matches_loop(self, n_layers):
        rng = np.random.default_rng(30 + n_layers)
        spec = VqcSpec(n_layers=n_layers, scaling_fn="arctan", xi=rng.uniform(-2, 2, 4 * n_layers))
        feats = rng.uniform(-np.pi, np.pi, size=(9, 4 * n_layers))
        thetas = rng.uniform(-np.pi, np.pi, size=(9, 12 * n_layers))
        batched = vqc_state(spec, feats, theta=thetas)
        for i in range(9):
            assert np.abs(batched[i] - vqc_state(spec, feats[i], theta=thetas[i])).max() < 1e-13

    def test_theta_shape_must_fit_features(self):
        spec = VqcSpec(n_layers=1)
        with pytest.raises(ContractViolation):
            vqc_state(spec, np.zeros((3, 4)), theta=np.zeros((2, 12)))
        with pytest.raises(ContractViolation):
            vqc_state(spec, np.zeros(4), theta=np.zeros((1, 12)))
        with pytest.raises(ContractViolation):
            vqc_state(spec, np.zeros((3, 4)), theta=np.zeros(13))

    def test_feature_length_mismatch(self):
        spec = VqcSpec(n_layers=2)
        with pytest.raises(ContractViolation):
            vqc_forward(spec, np.zeros(4))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        spec = VqcSpec(n_layers=2, scaling_fn="arctan", theta=rng.uniform(-1, 1, 24), xi=rng.uniform(-1, 1, 8))
        feats = rng.uniform(-1, 1, 8)
        assert np.array_equal(vqc_forward(spec, feats), vqc_forward(spec, feats))

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(7)
        spec = VqcSpec(n_layers=1, theta=rng.uniform(-1, 1, 12))
        feats = rng.uniform(-np.pi, np.pi, size=(17, 4))
        batched = vqc_forward(spec, feats)
        for i in range(17):
            assert np.abs(batched[i] - vqc_forward(spec, feats[i])).max() < 1e-12

    def test_one_layer_is_a_linear_readout_over_241_trigonometric_features(self):
        # after the Hadamards each basis state b carries the phase
        # phi_b = -(sum_q x_q s_q(b) + sum_{i<j} (pi - x_i)(pi - x_j) s_i(b) s_j(b)), so every <Z_q> of L = 1 is linear
        # in 1, cos(phi_b - phi_c) and sin(phi_b - phi_c) over the 120 pairs b < c (Schuld, Sweke and Meyer 2021)
        rng = np.random.default_rng(41)
        spec = VqcSpec(n_layers=1, theta=rng.uniform(0, np.pi, 12))
        signs = np.array([[1.0 - 2.0 * ((b >> (3 - q)) & 1) for q in range(4)] for b in range(16)])  # (16, 4)
        b, c = np.triu_indices(16, k=1)

        def features(x):
            px = np.pi - x
            pairs = sum(np.outer(px[:, i] * px[:, j], signs[:, i] * signs[:, j]) for i, j in QUBIT_PAIRS)
            phi = -(x @ signs.T + pairs)
            diff = phi[:, b] - phi[:, c]
            return np.hstack([np.ones((len(x), 1)), np.cos(diff), np.sin(diff)])

        fit_x, held_x = rng.uniform(0, 2 * np.pi, (4000, 4)), rng.uniform(0, 2 * np.pi, (2000, 4))
        assert features(fit_x).shape == (4000, 241)
        readout = np.linalg.lstsq(features(fit_x), vqc_forward(spec, fit_x), rcond=None)[0]
        assert np.abs(features(held_x) @ readout - vqc_forward(spec, held_x)).max() < 1e-12
        # a half-frequency function lies outside the class, so the same fit misses it by far
        readout = np.linalg.lstsq(features(fit_x), np.sin(fit_x[:, 0] / 2), rcond=None)[0]
        assert np.abs(features(held_x) @ readout - np.sin(held_x[:, 0] / 2)).max() > 0.1

    def test_export_roundtrip(self):
        rng = np.random.default_rng(8)
        spec = VqcSpec(n_layers=3, scaling_fn="arctan", theta=rng.uniform(-1, 1, 36), xi=rng.uniform(-1, 1, 12))
        clone = VqcSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.n_layers == 3 and clone.scaling_fn == "arctan"
        feats = rng.uniform(-1, 1, 12)
        x = spec.scaled_angles(feats)
        assert np.array_equal(clone.scaled_angles(feats), x)
        assert np.array_equal(vqc_forward(spec, x), vqc_forward(clone, x))

    def test_a_numpy_integer_layer_count_exports_as_json(self):
        spec = VqcSpec(n_layers=np.int64(2))
        assert type(spec.n_layers) is int
        clone = VqcSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.n_layers == 2 and np.array_equal(clone.theta, spec.theta) and np.array_equal(clone.xi, spec.xi)

    def test_export_names_four_qubits_and_rejects_any_other_count(self):
        d = VqcSpec(n_layers=1).to_dict()
        assert d["n_qubits"] == 4
        with pytest.raises(ContractViolation, match="4 qubits"):
            VqcSpec.from_dict({**d, "n_qubits": 5})
        del d["n_qubits"]
        assert VqcSpec.from_dict(d).n_layers == 1  # a description without the count reads as 4 qubits

    def test_spec_validation(self):
        with pytest.raises(ContractViolation):
            VqcSpec(n_layers=0)
        for n_layers in (1.5, True):  # a TypeError, and a spec whose exported "L": true its own from_dict rejects
            with pytest.raises(ContractViolation, match="^n_layers must be an integer"):
                VqcSpec(n_layers=n_layers)
        with pytest.raises(ContractViolation):
            VqcSpec(n_layers=1, scaling_fn="sigmoid")
        with pytest.raises(ContractViolation):
            VqcSpec(n_layers=1, theta=np.zeros(13))

    @pytest.mark.parametrize(
        "scaling_fn", [["identity"], {"arctan": 1}, np.array(["identity"])], ids=["list", "dict", "array"]
    )
    def test_a_scaling_fn_that_is_no_string_is_refused(self, scaling_fn):
        with pytest.raises(ContractViolation, match="^unknown scaling_fn"):
            VqcSpec(n_layers=1, scaling_fn=scaling_fn)


class TestSpsa:
    def test_three_evaluations_per_estimate(self):
        calls = []

        def loss(theta):
            calls.append(theta.copy())
            return float(np.sum(theta**2))

        state = SpsaState.matched_to_lr(1e-4, seed=0)
        spsa_gradient(loss, np.ones(5), state)
        assert len(calls) == 3

    def test_given_center_loss_is_not_evaluated_again(self):
        calls = []

        def loss(theta):
            calls.append(theta.copy())
            return float(np.sum(theta**2))

        state = SpsaState.matched_to_lr(1e-4, seed=0)
        _, center = spsa_gradient(loss, np.ones(5), state, loss_center=5.0)
        assert len(calls) == 2 and center == 5.0

    def test_mean_estimate_matches_parameter_shift_to_second_order(self):
        # averaging over all 2^12 sign patterns cancels the cross terms
        # exactly, leaving the O(c^2) bias of the central difference
        rng = np.random.default_rng(30)
        spec = VqcSpec(n_layers=1, scaling_fn="arctan", xi=rng.uniform(0.5, 2.0, 4))
        feats = rng.uniform(-np.pi, np.pi, size=(8, 4))
        w = rng.uniform(-1, 1, size=4)

        def loss(theta):
            return float(np.mean(vqc_forward(spec, feats, theta) @ w))

        theta0 = rng.uniform(0, np.pi, 12)
        exact = parameter_shift_gradient(loss, theta0)
        h = 1e-6
        central = np.array([(loss(theta0 + h * e) - loss(theta0 - h * e)) / (2 * h) for e in np.eye(12)])
        assert np.abs(exact - central).max() < 1e-8
        center = loss(theta0)
        errors = {}
        for c in (0.2, 0.1):
            state = SpsaState(a=1.0, c=c, rng=SignEnumerator(12))
            total = np.zeros(12)
            for _ in range(2**12):
                state.k = 0
                grad, _ = spsa_gradient(loss, theta0, state, loss_center=center)
                total += grad
            errors[c] = np.abs(total / 2**12 - exact).max()
        assert errors[0.1] < 0.1**2
        assert 3.0 < errors[0.2] / errors[0.1] < 5.0

    def test_linear_loss_unbiased(self):
        # estimator expectation equals the true gradient of g . theta
        rng_seed = 123
        g = np.array([0.7, -1.3, 2.1, 0.4])
        state = SpsaState.matched_to_lr(1e-4, seed=rng_seed)
        state.c = 0.05
        estimates = []
        for _ in range(10_000):
            grad, _ = spsa_gradient(lambda th: float(g @ th), np.zeros(4), state)
            state.k = 0  # hold the perturbation size fixed
            estimates.append(grad)
        est = np.stack(estimates)
        se = est.std(axis=0) / np.sqrt(len(est))
        assert np.all(np.abs(est.mean(axis=0) - g) < 3 * se + 1e-9)

    def test_schedule_strictly_decreasing(self):
        state = SpsaState.matched_to_lr(1e-4, seed=0)
        cks, aks = [], []
        for k in range(50):
            state.k = k
            cks.append(state.perturbation_size())
            aks.append(state.step_size())
        assert all(b < a for a, b in zip(cks, cks[1:]))
        assert all(b < a for a, b in zip(aks, aks[1:]))
        assert all(c > 0 for c in cks) and all(a > 0 for a in aks)

    def test_first_step_matches_learning_rate(self):
        state = SpsaState.matched_to_lr(3e-4, seed=0)
        assert state.step_size() == pytest.approx(3e-4)

    def test_quadratic_bowl_minimized(self):
        rng = np.random.default_rng(9)
        target = rng.uniform(-1, 1, size=12)

        def loss(th):
            return float(np.sum((th - target) ** 2))

        state = SpsaState(a=0.6, c=0.1, rng=np.random.default_rng(1))
        theta, final_loss = spsa_minimize(loss, np.zeros(12), state, iterations=2000)
        assert loss(theta) < 1e-2

    def test_non_finite_loss_raises(self):
        state = SpsaState.matched_to_lr(1e-4, seed=0)
        with pytest.raises(TrainingError):
            spsa_gradient(lambda th: float("nan"), np.zeros(3), state)
