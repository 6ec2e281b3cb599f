"""Entanglement capability and expressibility estimators."""

import numpy as np
import pytest

from fanetq.errors import ContractViolation
from fanetq.qmetrics import (
    DEFAULT_BINS,
    MetricEstimate,
    circuit_state_sampler,
    entanglement_capability,
    expressibility,
    fidelity_histogram,
    haar_bin_probabilities,
    haar_fidelity_pdf,
    meyer_wallach,
    meyer_wallach_batch,
)
from fanetq.qsim import VqcSpec, apply_1q, apply_cnot, ry_matrix, rz_matrix, zero_state


def brute_force_meyer_wallach(state):
    """Explicit 2x2 partial traces via amplitude index grouping."""
    n = int(np.log2(state.size))
    purities = []
    for k in range(n):
        rho = np.zeros((2, 2), dtype=complex)
        for a in (0, 1):
            for b in (0, 1):
                acc = 0.0 + 0.0j
                for rest in range(2 ** (n - 1)):
                    # weave bit value into position k of the index
                    hi = rest >> (n - 1 - k)
                    lo = rest & ((1 << (n - 1 - k)) - 1)
                    ia = (hi << (n - k)) | (a << (n - 1 - k)) | lo
                    ib = (hi << (n - k)) | (b << (n - 1 - k)) | lo
                    acc += state[ia] * np.conj(state[ib])
                rho[a, b] = acc
        purities.append(float(np.real(np.trace(rho @ rho))))
    return 2.0 * (1.0 - np.mean(purities))


def per_row_fidelity_histogram(states, n_bins):
    """Reference binning: one upper-triangle row of the Gram matrix at a time."""
    counts = np.zeros(n_bins, dtype=np.int64)
    chunk = 512
    n = states.shape[0]
    for start in range(0, n, chunk):
        block = states[start : start + chunk]
        gram = np.abs(block @ states.conj().T) ** 2
        for row_off in range(block.shape[0]):
            i = start + row_off
            row = gram[row_off, i + 1 :]
            idx = np.minimum((row * n_bins).astype(int), n_bins - 1)
            counts += np.bincount(idx, minlength=n_bins)
    return counts


class TestMeyerWallach:
    def test_product_state_zero(self):
        state = np.zeros(16, dtype=complex)
        state[0b0101] = 1.0
        assert meyer_wallach(state) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_one(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert meyer_wallach(bell) == pytest.approx(1.0, abs=1e-10)

    def test_ghz4_one(self):
        ghz = np.zeros(16, dtype=complex)
        ghz[0] = ghz[15] = 1 / np.sqrt(2)
        assert meyer_wallach(ghz) == pytest.approx(1.0, abs=1e-10)

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractViolation):
            meyer_wallach(np.ones(4, dtype=complex))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            state /= np.linalg.norm(state)
            assert meyer_wallach(state) == pytest.approx(brute_force_meyer_wallach(state), abs=1e-10)

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            state /= np.linalg.norm(state)
            rotated = state
            for q in range(4):
                rotated = apply_1q(rotated, rz_matrix(rng.uniform(-np.pi, np.pi)), q)
                rotated = apply_1q(rotated, ry_matrix(rng.uniform(-np.pi, np.pi)), q)
            assert meyer_wallach(rotated) == pytest.approx(meyer_wallach(state), abs=1e-8)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        states = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        batch = meyer_wallach_batch(states)
        for i in range(8):
            assert batch[i] == pytest.approx(meyer_wallach(states[i]), abs=1e-12)


def product_state_sampler(n, rng):
    """Random single-qubit rotations only: zero entanglement by construction."""
    states = np.empty((n, 16), dtype=complex)
    for i in range(n):
        s = zero_state(4)
        for q in range(4):
            s = apply_1q(s, ry_matrix(rng.uniform(0, np.pi)), q)
            s = apply_1q(s, rz_matrix(rng.uniform(0, 2 * np.pi)), q)
        states[i] = s
    return states


def idle_sampler(n, rng):
    states = np.zeros((n, 16), dtype=complex)
    states[:, 0] = 1.0
    return states


class TestEntanglementCapability:
    def test_no_entangling_gates_zero(self):
        est = entanglement_capability(VqcSpec(n_layers=1), n_samples=300, seed=0, sampler=product_state_sampler)
        assert est.mean == pytest.approx(0.0, abs=1e-10)
        assert est.std == pytest.approx(0.0, abs=1e-10)

    def test_vqc_1n_reference_value(self):
        est = entanglement_capability(VqcSpec(n_layers=1, scaling_fn="identity"), n_samples=2000, seed=0)
        assert abs(est.mean - 0.8476) < 0.04

    def test_stable_across_seeds(self):
        spec = VqcSpec(n_layers=1, scaling_fn="identity")
        a = entanglement_capability(spec, n_samples=5000, seed=1)
        b = entanglement_capability(spec, n_samples=5000, seed=2)
        assert abs(a.mean - b.mean) < 0.01

    def test_bounds(self):
        for scaling in ("identity", "arctan"):
            est = entanglement_capability(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=500, seed=3)
            assert 0.0 <= est.mean <= 1.0
            assert est.std >= 0.0

    def test_depth_regression_guard(self):
        # deeper circuits stay within 0.05 of the single-layer value
        for scaling in ("identity", "arctan"):
            e1 = entanglement_capability(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=2000, seed=4)
            e3 = entanglement_capability(VqcSpec(n_layers=3, scaling_fn=scaling), n_samples=2000, seed=4)
            assert e3.mean >= e1.mean - 0.05

    def test_requires_min_samples(self):
        with pytest.raises(ContractViolation):
            entanglement_capability(VqcSpec(n_layers=1), n_samples=10, seed=0)

    def test_deterministic_given_seed(self):
        spec = VqcSpec(n_layers=1, scaling_fn="arctan")
        a = entanglement_capability(spec, n_samples=500, seed=9)
        b = entanglement_capability(spec, n_samples=500, seed=9)
        assert a == b


class TestExpressibility:
    def test_haar_density_at_zero(self):
        # P_Haar(F=0) = (N-1)(1-F)^(N-2) = 15 for N = 16
        assert haar_fidelity_pdf(0.0) == pytest.approx(15.0, abs=1e-12)
        assert haar_fidelity_pdf(1.0) == pytest.approx(0.0, abs=1e-12)
        # binned masses integrate the density exactly and sum to one
        probs = haar_bin_probabilities(DEFAULT_BINS)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        edges = np.linspace(0, 1, DEFAULT_BINS + 1)
        quad = [
            np.trapezoid(haar_fidelity_pdf(np.linspace(a, b, 3000)), np.linspace(a, b, 3000))
            for a, b in zip(edges[:-1], edges[1:])
        ]
        assert np.abs(probs[:10] - np.array(quad[:10])).max() < 1e-6

    def test_idle_circuit_large_kl(self):
        est = expressibility(VqcSpec(n_layers=1), n_samples=200, seed=0, sampler=idle_sampler)
        assert est.mean > 5.0

    def test_kl_nonnegative(self):
        for scaling in ("identity", "arctan"):
            est = expressibility(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=500, seed=1)
            assert est.mean >= 0.0

    def test_kl_zero_iff_matching_bins(self):
        # draw "fidelities" straight from the Haar bin distribution
        probs = haar_bin_probabilities(20)
        counts = np.round(probs * 1e7).astype(np.int64)
        from fanetq.qmetrics import _kl_from_counts

        assert _kl_from_counts(counts, probs) == pytest.approx(0.0, abs=1e-6)
        shifted = np.roll(counts, 1)
        assert _kl_from_counts(shifted, probs) > 0.01

    def test_ordering_arctan_above_identity(self):
        vals = {}
        for scaling in ("identity", "arctan"):
            est = expressibility(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=1500, seed=2)
            vals[scaling] = est.mean
        assert vals["arctan"] > vals["identity"]

    def test_fidelity_histogram_counts_all_pairs(self):
        rng = np.random.default_rng(3)
        states = rng.standard_normal((40, 16)) + 1j * rng.standard_normal((40, 16))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        counts = fidelity_histogram(states, 10)
        assert counts.sum() == 40 * 39 // 2

    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1300])
    def test_fidelity_histogram_matches_per_row_binning(self, n):
        rng = np.random.default_rng(n)
        states = circuit_state_sampler(VqcSpec(n_layers=1, scaling_fn="arctan"))(n, rng)
        for n_bins in (10, DEFAULT_BINS):
            assert np.array_equal(fidelity_histogram(states, n_bins), per_row_fidelity_histogram(states, n_bins))

    def test_requires_minimums(self):
        with pytest.raises(ContractViolation):
            expressibility(VqcSpec(n_layers=1), n_samples=10, seed=0)
        with pytest.raises(ContractViolation):
            expressibility(VqcSpec(n_layers=1), n_samples=500, n_bins=5, seed=0)


class TestSamplerProperties:
    def test_sampled_states_normalized(self):
        spec = VqcSpec(n_layers=2, scaling_fn="arctan")
        states = circuit_state_sampler(spec)(50, np.random.default_rng(0))
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_metrics_ignore_trained_weights(self):
        # characterization depends on the architecture only
        rng = np.random.default_rng(4)
        a = VqcSpec(n_layers=1, scaling_fn="identity")
        b = VqcSpec(n_layers=1, scaling_fn="identity", theta=rng.uniform(-2, 2, 12), xi=rng.uniform(0.5, 2, 4))
        ea = entanglement_capability(a, n_samples=400, seed=5)
        eb = entanglement_capability(b, n_samples=400, seed=5)
        assert ea == eb
