"""Entanglement capability and expressibility estimators."""

import numpy as np
import pytest

from fanetq.errors import ContractViolation
from fanetq.experiments import qmetrics_report
from fanetq.qmetrics import (
    DEFAULT_BINS,
    N_BATCHES,
    _kl_from_counts,
    circuit_state_sampler,
    entanglement_capability,
    expressibility,
    fidelity_histogram,
    haar_bin_probabilities,
    meyer_wallach_batch,
    sample_states,
)
from fanetq.qsim import VqcSpec, apply_1q, ry_matrix, rz_matrix, zero_state

from tests.oracles import haar_fidelity_pdf, meyer_wallach


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


def two_pass_reference(spec, n_samples, seed, n_bins=DEFAULT_BINS):
    """The estimator that drew the ensemble once per metric: (Ent mean, std), (Expr mean, std)."""
    sampler = circuit_state_sampler(spec)
    per_batch = n_samples // N_BATCHES
    rng = np.random.default_rng(seed)
    batch_means, values = [], []
    for _ in range(N_BATCHES):
        q = meyer_wallach_batch(sampler(per_batch, rng))
        values.append(q)
        batch_means.append(q.mean())
    ent = (float(np.concatenate(values).mean()), float(np.std(batch_means)))

    rng = np.random.default_rng(seed)
    haar = haar_bin_probabilities(n_bins)
    batches = [sampler(per_batch, rng) for _ in range(N_BATCHES)]
    batch_kls = [_kl_from_counts(fidelity_histogram(s, n_bins), haar) for s in batches]
    total_counts = fidelity_histogram(np.concatenate(batches, axis=0), n_bins)
    expr = (_kl_from_counts(total_counts, haar), float(np.std(batch_kls)))
    return ent, expr


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

    @pytest.mark.parametrize("shape", [(16,), (3, 12), (3, 1), (2, 4, 4), ()])
    def test_batch_rejects_anything_but_a_stack_of_qubit_states(self, shape):
        with pytest.raises(ContractViolation, match=r"\(batch, 2\^n\)"):
            meyer_wallach_batch(np.ones(shape))


def product_state_batches(n, seed=0):
    """Random single-qubit rotations only: zero entanglement by construction."""
    rng = np.random.default_rng(seed)
    states = np.empty((n, 16), dtype=complex)
    for i in range(n):
        s = zero_state(4)
        for q in range(4):
            s = apply_1q(s, ry_matrix(rng.uniform(0, np.pi)), q)
            s = apply_1q(s, rz_matrix(rng.uniform(0, 2 * np.pi)), q)
        states[i] = s
    return np.split(states, N_BATCHES)


def idle_batches(n):
    states = np.zeros((n, 16), dtype=complex)
    states[:, 0] = 1.0
    return np.split(states, N_BATCHES)


def ent_of(spec, n_samples, seed):
    return entanglement_capability(sample_states(spec, n_samples, seed))


def expr_of(spec, n_samples, seed):
    return expressibility(sample_states(spec, n_samples, seed))


class TestEntanglementCapability:
    def test_no_entangling_gates_zero(self):
        est = entanglement_capability(product_state_batches(300))
        assert est.mean == pytest.approx(0.0, abs=1e-10)
        assert est.std == pytest.approx(0.0, abs=1e-10)

    def test_vqc_1n_reference_value(self):
        est = ent_of(VqcSpec(n_layers=1, scaling_fn="identity"), n_samples=2000, seed=0)
        assert abs(est.mean - 0.8476) < 0.04

    def test_stable_across_seeds(self):
        spec = VqcSpec(n_layers=1, scaling_fn="identity")
        a = ent_of(spec, n_samples=5000, seed=1)
        b = ent_of(spec, n_samples=5000, seed=2)
        assert abs(a.mean - b.mean) < 0.01

    def test_bounds(self):
        for scaling in ("identity", "arctan"):
            est = ent_of(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=500, seed=3)
            assert 0.0 <= est.mean <= 1.0
            assert est.std >= 0.0

    def test_depth_regression_guard(self):
        # deeper circuits stay within 0.05 of the single-layer value
        for scaling in ("identity", "arctan"):
            e1 = ent_of(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=2000, seed=4)
            e3 = ent_of(VqcSpec(n_layers=3, scaling_fn=scaling), n_samples=2000, seed=4)
            assert e3.mean >= e1.mean - 0.05

    def test_requires_min_samples(self):
        # below MIN_SAMPLES, or a count the N_BATCHES equal batches cannot hold exactly
        for n_samples in (10, 90, 99, 101, 1234):
            with pytest.raises(ContractViolation):
                sample_states(VqcSpec(n_layers=1), n_samples=n_samples, seed=0)

    def test_deterministic_given_seed(self):
        spec = VqcSpec(n_layers=1, scaling_fn="arctan")
        a = ent_of(spec, n_samples=500, seed=9)
        b = ent_of(spec, n_samples=500, seed=9)
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
        est = expressibility(idle_batches(200))
        assert est.mean > 5.0

    def test_kl_nonnegative(self):
        for scaling in ("identity", "arctan"):
            est = expr_of(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=500, seed=1)
            assert est.mean >= 0.0

    def test_kl_zero_iff_matching_bins(self):
        # draw "fidelities" straight from the Haar bin distribution
        probs = haar_bin_probabilities(20)
        counts = np.round(probs * 1e7).astype(np.int64)
        assert _kl_from_counts(counts, probs) == pytest.approx(0.0, abs=1e-6)
        shifted = np.roll(counts, 1)
        assert _kl_from_counts(shifted, probs) > 0.01

    def test_ordering_arctan_above_identity(self):
        vals = {}
        for scaling in ("identity", "arctan"):
            est = expr_of(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=1500, seed=2)
            vals[scaling] = est.mean
        assert vals["arctan"] > vals["identity"]

    def test_fidelity_histogram_counts_all_pairs(self):
        rng = np.random.default_rng(3)
        states = rng.standard_normal((40, 16)) + 1j * rng.standard_normal((40, 16))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        counts = fidelity_histogram(states, 10)
        assert counts.sum() == 40 * 39 // 2

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 511, 512, 513, 1300])
    def test_fidelity_histogram_matches_per_row_binning(self, n):
        rng = np.random.default_rng(n)
        states = circuit_state_sampler(VqcSpec(n_layers=1, scaling_fn="arctan"))(n, rng)
        for n_bins in (10, DEFAULT_BINS):
            assert np.array_equal(fidelity_histogram(states, n_bins), per_row_fidelity_histogram(states, n_bins))

    def test_requires_minimums(self):
        with pytest.raises(ContractViolation):
            sample_states(VqcSpec(n_layers=1), n_samples=10, seed=0)
        with pytest.raises(ContractViolation):
            expressibility(sample_states(VqcSpec(n_layers=1), n_samples=500, seed=0), n_bins=5)
        # each was a bare numpy ValueError: an empty concatenate, a bincount of negative length
        for metric in (entanglement_capability, expressibility):
            with pytest.raises(ContractViolation, match="^need at least one batch of states$"):
                metric([])
        with pytest.raises(ContractViolation, match="^n_bins must be positive$"):
            fidelity_histogram(idle_batches(20)[0], 0)


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
        for sa, sb in zip(sample_states(a, 400, 5), sample_states(b, 400, 5)):
            assert np.array_equal(sa, sb)


class TestOneEnsemble:
    def test_sample_states_makes_one_circuit_call_per_ensemble(self, monkeypatch):
        import fanetq.qmetrics as qmetrics

        rows, vqc_state = [], qmetrics.vqc_state
        monkeypatch.setattr(qmetrics, "vqc_state", lambda *args: rows.append(len(args[1])) or vqc_state(*args))
        sample_states(VqcSpec(n_layers=2, scaling_fn="arctan"), 500, 3)
        assert rows == [500]

    def test_entanglement_capability_makes_one_meyer_wallach_call_per_ensemble(self, monkeypatch):
        import fanetq.qmetrics as qmetrics

        batches = sample_states(VqcSpec(n_layers=2, scaling_fn="arctan"), 500, 3)
        rows, meyer_wallach_batch = [], qmetrics.meyer_wallach_batch
        monkeypatch.setattr(qmetrics, "meyer_wallach_batch", lambda s: rows.append(len(s)) or meyer_wallach_batch(s))
        entanglement_capability(batches)
        assert rows == [500]

    def test_sample_states_draws_equal_batches_from_one_stream(self):
        spec = VqcSpec(n_layers=2, scaling_fn="arctan")
        batches = sample_states(spec, 300, 7)
        assert [b.shape for b in batches] == [(30, 16)] * N_BATCHES
        rng = np.random.default_rng(7)
        sampler = circuit_state_sampler(spec)
        for b in batches:
            assert np.array_equal(b, sampler(30, rng))

    @pytest.mark.parametrize("n_samples", [100, 500, 1000])
    def test_report_rows_equal_the_two_pass_reference(self, n_samples):
        names = [f"VQC-{L}{s}" for L in (1, 2, 3) for s in "NA"]
        for seed in (0, 1, 2):
            rows = qmetrics_report(names, n_samples, seed)
            for row in rows:
                spec = VqcSpec(n_layers=row["L"], scaling_fn=row["scaling_fn"])
                (ent, ent_sd), (expr, expr_sd) = two_pass_reference(spec, n_samples, seed)
                batches = sample_states(spec, n_samples, seed)
                e, x = entanglement_capability(batches), expressibility(batches)
                assert (e.mean, e.std, x.mean, x.std) == (ent, ent_sd, expr, expr_sd)
                assert (row["ent_mean"], row["ent_std"]) == (round(ent, 6), round(ent_sd, 6))
                assert (row["expr_mean"], row["expr_std"]) == (round(expr, 8), round(expr_sd, 8))
                assert (row["n_samples"], row["seed"]) == (n_samples, seed)
