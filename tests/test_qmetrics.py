"""Entanglement capability and expressibility estimators."""

import numpy as np
import pytest

from fanetq.critics import QuantumCritic
from fanetq.errors import ContractViolation
from fanetq.experiments import qmetrics_report
from fanetq.qmetrics import (
    DEFAULT_BINS,
    N_BATCHES,
    _kl_from_counts,
    _parameter_draw,
    circuit_state_sampler,
    entanglement_capability,
    expressibility,
    fidelity_histogram,
    haar_bin_probabilities,
    meyer_wallach_batch,
    sample_states,
)
from fanetq.qsim import VqcSpec, apply_1q, ry_matrix, rz_matrix, vqc_state, zero_state

from tests.oracles import (
    haar_fidelity_pdf,
    kl_from_counts,
    meyer_wallach,
    meyer_wallach_stacked,
    parameter_draws_per_batch,
)


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
    batch_kls = [kl_from_counts(fidelity_histogram([s], n_bins)[0], haar) for s in batches]
    total_counts = fidelity_histogram([np.concatenate(batches, axis=0)], n_bins)[0]
    expr = (kl_from_counts(total_counts, haar), float(np.std(batch_kls)))
    return ent, expr


def random_states(rng, rows, width):
    """``rows`` normalized complex states of ``width`` amplitudes with Gaussian entries."""
    states = rng.standard_normal((rows, width)) + 1j * rng.standard_normal((rows, width))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


class TestMeyerWallach:
    def test_product_state_zero(self):
        state = np.zeros(16, dtype=complex)
        state[0b0101] = 1.0
        assert meyer_wallach_batch(state[None])[0] == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_one(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert meyer_wallach_batch(bell[None])[0] == pytest.approx(1.0, abs=1e-10)

    def test_ghz4_one(self):
        ghz = np.zeros(16, dtype=complex)
        ghz[0] = ghz[15] = 1 / np.sqrt(2)
        assert meyer_wallach_batch(ghz[None])[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
    def test_matches_brute_force_oracle(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        states = random_states(rng, 25, 2**n_qubits)
        batch = meyer_wallach_batch(states)
        for i in range(len(states)):
            assert batch[i] == pytest.approx(meyer_wallach(states[i]), abs=1e-12)

    def test_invariant_under_local_rotations(self):
        rng = np.random.default_rng(1)
        states = random_states(rng, 100, 16)
        rotated = states.copy()
        for i in range(len(rotated)):
            for q in range(4):
                rotated[i] = apply_1q(rotated[i], rz_matrix(rng.uniform(-np.pi, np.pi)), q)
                rotated[i] = apply_1q(rotated[i], ry_matrix(rng.uniform(-np.pi, np.pi)), q)
        assert np.allclose(meyer_wallach_batch(rotated), meyer_wallach_batch(states), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("size", [1, 3, 7, 50])
    def test_each_row_of_a_pooled_call_equals_the_call_on_its_own_slice(self, size):
        rng = np.random.default_rng(size)
        for n_qubits in (1, 4, 5):
            states = random_states(rng, 121, 2**n_qubits)
            pooled = meyer_wallach_batch(states)
            for offset in (0, 1, 3, 9, 17, 71):
                rows = slice(offset, offset + size)
                assert np.array_equal(meyer_wallach_batch(states[rows]), pooled[rows])

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
        quad = []
        for a, b in zip(edges[:-1], edges[1:]):
            grid = np.linspace(a, b, 3000)
            pdf = haar_fidelity_pdf(grid)
            quad.append(np.sum((pdf[1:] + pdf[:-1]) * np.diff(grid)) / 2.0)  # trapezoid rule
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

    @pytest.mark.parametrize("n_bins", [10, 75])
    def test_kl_rows_equal_one_call_per_row(self, n_bins):
        rng = np.random.default_rng(n_bins)
        counts = rng.integers(0, 50, size=(N_BATCHES + 1, n_bins))
        counts[:, rng.integers(0, n_bins, size=3)] = 0  # empty bins take the 1e-12 floor
        haar = haar_bin_probabilities(n_bins)
        expected = [kl_from_counts(row, haar) for row in counts]
        assert _kl_from_counts(counts, haar).tolist() == expected

    def test_ordering_arctan_above_identity(self):
        vals = {}
        for scaling in ("identity", "arctan"):
            est = expr_of(VqcSpec(n_layers=1, scaling_fn=scaling), n_samples=1500, seed=2)
            vals[scaling] = est.mean
        assert vals["arctan"] > vals["identity"]

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_haar_random_states_score_near_zero_at_their_own_width(self, width):
        rng = np.random.default_rng(width)
        est = expressibility(np.split(random_states(rng, 2000, width), N_BATCHES))
        assert est.mean < 1e-3

    def test_fidelity_histogram_counts_all_pairs(self):
        counts = fidelity_histogram([random_states(np.random.default_rng(3), 40, 16)], 10)
        assert counts.shape == (2, 10)
        assert counts[0].sum() == counts[1].sum() == 40 * 39 // 2

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 257, 511, 512, 513, 1300])
    def test_fidelity_histogram_matches_per_row_binning(self, n):
        rng = np.random.default_rng(n)
        states = circuit_state_sampler(VqcSpec(n_layers=1, scaling_fn="arctan"))(n, rng)
        for n_bins in (10, DEFAULT_BINS):
            reference = per_row_fidelity_histogram(states, n_bins)
            assert np.array_equal(fidelity_histogram([states], n_bins), [reference, reference])

    @pytest.mark.parametrize("sizes", [[50] * 10, [130, 7, 300], [2, 1, 129]], ids=["10x50", "130-7-300", "2-1-129"])
    @pytest.mark.parametrize("n_bins", [10, DEFAULT_BINS])
    def test_fidelity_histogram_rows_match_per_row_binning_of_each_batch_and_the_pool(self, sizes, n_bins):
        rng = np.random.default_rng(len(sizes))
        states = circuit_state_sampler(VqcSpec(n_layers=1, scaling_fn="arctan"))(sum(sizes), rng)
        batches = np.split(states, np.cumsum(sizes[:-1]))
        counts = fidelity_histogram(batches, n_bins)
        assert counts.shape == (len(sizes) + 1, n_bins) and counts.dtype == np.int64
        for row, batch in zip(counts, batches):
            assert np.array_equal(row, per_row_fidelity_histogram(batch, n_bins))
            assert row.sum() == len(batch) * (len(batch) - 1) // 2
        assert np.array_equal(counts[-1], per_row_fidelity_histogram(states, n_bins))
        assert counts[-1].sum() == len(states) * (len(states) - 1) // 2


class TestRefusedInput:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: entanglement_capability([]), "^need at least one batch of states$"),
            (lambda: expressibility([]), "^need at least one batch of states$"),
            (lambda: expressibility(idle_batches(20), n_bins=5), "^need at least 10 bins$"),
            (lambda: fidelity_histogram(idle_batches(20), 0), "^n_bins must be positive$"),
            (lambda: fidelity_histogram([np.ones(16)], 10), r"\(batch, dim\) stack, got shape \(16,\)"),
            (lambda: fidelity_histogram([np.ones((2, 4, 4))], 10), r"\(batch, dim\) stack, got shape \(2, 4, 4\)"),
            (lambda: fidelity_histogram([], 10), "^need at least one batch of states$"),
            (lambda: fidelity_histogram([np.ones((2, 16)), np.ones((2, 8))], 10), "of one width"),
            (lambda: expressibility(idle_batches(20), n_bins=None), "^n_bins must be an integer, got None$"),
            (lambda: expressibility(idle_batches(20), n_bins=12.0), "^n_bins must be an integer, got 12.0$"),
            (lambda: expressibility(idle_batches(10)), "rows >= 2"),
            (lambda: expressibility([*idle_batches(20), np.ones((1, 16))]), "rows >= 2"),
            (lambda: expressibility([np.ones((2, 16)), np.ones((2, 8))]), "of one width"),
            (lambda: entanglement_capability([np.ones((0, 16))]), "rows >= 1"),
            (lambda: entanglement_capability([np.ones((2, 16)), np.ones((0, 16))]), "rows >= 1"),
            (lambda: entanglement_capability([np.ones((2, 16)), np.ones((2, 8))]), "of one width"),
            (lambda: entanglement_capability([np.ones(16)]), r"\(rows, width\) stacks"),
            (lambda: expressibility([np.ones((10, 1), complex)] * 2), "^a Haar fidelity .* width >= 2, got 1$"),
        ],
        ids=[
            "ent-no-batches",
            "expr-no-batches",
            "too-few-bins",
            "histogram-no-bins",
            "histogram-1d",
            "histogram-3d",
            "histogram-no-batches",
            "histogram-mixed-widths",
            "n_bins-None",
            "n_bins-float",
            "one-state-batches",
            "one-one-state-batch",
            "expr-mixed-widths",
            "ent-empty-batch",
            "ent-one-empty-batch",
            "ent-mixed-widths",
            "ent-1d-batch",
            "expr-width-1",
        ],
    )
    def test_is_refused(self, call, message):
        # a one-line refusal, never a bare numpy IndexError, ValueError or TypeError, or a NaN spread
        with pytest.raises(ContractViolation, match=message):
            call()


class TestSamplerProperties:
    def test_sampled_states_normalized(self):
        spec = VqcSpec(n_layers=2, scaling_fn="arctan")
        states = circuit_state_sampler(spec)(50, np.random.default_rng(0))
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-10

    def test_metrics_ignore_trained_weights(self):
        # characterization depends on the architecture only, not on a critic's trained theta and xi
        rng = np.random.default_rng(4)
        critic = QuantumCritic.create(12, 1, "identity", rng, lr=0.05)
        O, targets = rng.standard_normal((16, 12)), rng.uniform(-1, 1, 16)

        def loss_fn(values):
            return float(np.mean((values - targets) ** 2))

        for _ in range(3):
            v, cache = critic.value_cached(O)
            critic.backward(cache, 2 * (v - targets) / 16, loss_fn, loss_fn(v))
            critic.flat -= 0.1 * critic.grad
        assert critic.spsa.k == 3 and not np.array_equal(critic.core.xi, np.ones(4))
        fresh = VqcSpec(n_layers=1, scaling_fn="identity")
        for sa, sb in zip(sample_states(fresh, 400, 5), sample_states(critic.core.spec, 400, 5)):
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

    def test_expressibility_makes_one_fidelity_histogram_call_per_ensemble(self, monkeypatch):
        import fanetq.qmetrics as qmetrics

        batches = sample_states(VqcSpec(n_layers=2, scaling_fn="arctan"), 500, 3)
        calls, histogram = [], qmetrics.fidelity_histogram
        monkeypatch.setattr(qmetrics, "fidelity_histogram", lambda b, n: calls.append(len(b)) or histogram(b, n))
        expressibility(batches)
        assert calls == [N_BATCHES]

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


def words(a):
    """The 64-bit words of a real or complex float array, so equality also tells +0 from -0."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestFormerForms:
    """The one-call draw and the per-term Meyer-Wallach sums give their former forms' bits."""

    @pytest.mark.parametrize("n_samples", [100, 500, 5000])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scaling_fn", ["identity", "arctan"])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_one_draw_per_ensemble_keeps_the_per_batch_draws(self, n_layers, scaling_fn, seed, n_samples):
        spec = VqcSpec(n_layers=n_layers, scaling_fn=scaling_fn)
        old = parameter_draws_per_batch(spec, n_samples, seed)
        new = _parameter_draw(spec, n_samples // N_BATCHES, np.random.default_rng(seed), N_BATCHES)
        assert [a.shape for a in new] == [(n_samples, spec.n_features), (n_samples, spec.n_theta)]
        assert all(np.array_equal(words(a), words(b)) for a, b in zip(new, old))
        assert np.array_equal(words(np.concatenate(sample_states(spec, n_samples, seed))), words(vqc_state(spec, *old)))

    @pytest.mark.parametrize("rows", [1, 7, 333, 500])
    @pytest.mark.parametrize("n_qubits", [1, 2, 4, 5])
    def test_meyer_wallach_keeps_the_stacked_terms_bits(self, n_qubits, rows):
        states = random_states(np.random.default_rng(100 * n_qubits + rows), rows, 2**n_qubits)
        assert np.array_equal(words(meyer_wallach_batch(states)), words(meyer_wallach_stacked(states)))

    def test_meyer_wallach_keeps_the_stacked_terms_bits_on_sampled_states(self):
        states = np.concatenate(sample_states(VqcSpec(n_layers=1, scaling_fn="arctan"), 500, 0))
        assert np.array_equal(words(meyer_wallach_batch(states)), words(meyer_wallach_stacked(states)))


REPORT_SEED0 = {  # n_samples -> (circuit_id, L, scaling_fn, ent_mean, ent_std, expr_mean, expr_std)
    500: [
        ("VQC-1N", 1, "identity", 0.855661, 0.014573, 0.0001711, 0.00316069),
        ("VQC-1A", 1, "arctan", 0.806709, 0.017072, 0.00144251, 0.00531108),
        ("VQC-2N", 2, "identity", 0.817953, 0.010552, 0.00020513, 0.00382478),
        ("VQC-2A", 2, "arctan", 0.817088, 0.009865, 0.00017206, 0.00315331),
        ("VQC-3N", 3, "identity", 0.820137, 0.011018, 0.00023682, 0.00223125),
        ("VQC-3A", 3, "arctan", 0.826706, 0.01448, 0.00016388, 0.003645),
    ],
    5000: [  # 12.5M pairs per circuit: where a pair changing bins would most likely show
        ("VQC-1N", 1, "identity", 0.859435, 0.002675, 1.346e-05, 3.199e-05),
        ("VQC-1A", 1, "arctan", 0.804546, 0.00777, 0.00122041, 0.00050841),
    ],
}


@pytest.mark.parametrize("n_samples", sorted(REPORT_SEED0))
def test_report_keeps_its_rows(n_samples):
    expected = REPORT_SEED0[n_samples]
    rows = qmetrics_report([row[0] for row in expected], n_samples, 0)
    keys = ("circuit_id", "L", "scaling_fn", "ent_mean", "ent_std", "expr_mean", "expr_std", "n_samples", "seed")
    assert [tuple(row[k] for k in keys) for row in rows] == [(*row, n_samples, 0) for row in expected]
