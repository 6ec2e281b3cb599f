"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 (the learning smoke test) trains six full agents and takes
about 80 s with one BLAS thread on a 2-core Xeon VM; it runs only when
FANETQ_FULL_ACCEPT=1 is set.
Everything else runs in the default suite.
"""

import math
import os

import numpy as np
import pytest

from fanetq.critics import PAIRINGS, QUANTUM_SOLUTIONS, build_critic, parity_report
from fanetq.env import ScenarioConfig
from fanetq.experiments import (
    aggregate_curves,
    load_scenario,
    random_baseline_cr,
    run_training,
)
from fanetq.mappo import TrainerConfig, gae
from fanetq.nets import DenseNet, GaussianPolicyHead
from fanetq.qmetrics import entanglement_capability, expressibility, meyer_wallach_batch, sample_states
from fanetq.qsim import SCALING_FNS, SpsaState, VqcSpec, spsa_gradient, vqc_forward, vqc_state

from tests.oracles import grad_views, spsa_minimize
from tests.test_nets import finite_difference_check
from tests.test_qsim import dense_vqc_state

FULL = os.environ.get("FANETQ_FULL_ACCEPT", "0") == "1"


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion} ({name}): {status} {detail}")


def test_criterion_1_random_baseline_reproduction():
    results = {}
    for scenario, target, tol in [("4a1s", 60.20, 2.0), ("5a2s", 84.88, 3.0)]:
        cfg = load_scenario(scenario)
        mean, _ = random_baseline_cr(cfg, episodes=2000, seed=202)
        results[scenario] = (mean, target, tol)
    ok = all(abs(m - t) <= tol for m, t, tol in results.values())
    detail = "  ".join(f"{k}: CR={m:.2f} (target {t}+/-{tol})" for k, (m, t, tol) in results.items())
    report(1, "random baseline", ok, detail)
    for scenario, (mean, target, tol) in results.items():
        assert abs(mean - target) <= tol, f"{scenario}: {mean:.2f} vs {target}+/-{tol}"


def test_criterion_2_quantum_metric_reproduction():
    bands = {"identity": (0.8476, 0.04), "arctan": (0.8043, 0.04)}
    ok = True
    details = []
    for seed in (0, 1, 2):
        ents, exprs = {}, {}
        for scaling in ("identity", "arctan"):
            spec = VqcSpec(n_layers=1, scaling_fn=scaling)
            batches = sample_states(spec, n_samples=5000, seed=seed)
            ents[scaling] = entanglement_capability(batches).mean
            exprs[scaling] = expressibility(batches).mean
        for scaling, (target, tol) in bands.items():
            if abs(ents[scaling] - target) > tol:
                ok = False
        if not (ents["identity"] > ents["arctan"] and exprs["arctan"] > exprs["identity"]):
            ok = False
        details.append(
            f"seed{seed}: Ent(1N)={ents['identity']:.4f} Ent(1A)={ents['arctan']:.4f} "
            f"Expr(1N)={exprs['identity']:.6f} Expr(1A)={exprs['arctan']:.6f}"
        )
        assert abs(ents["identity"] - 0.8476) <= 0.04, details[-1]
        assert abs(ents["arctan"] - 0.8043) <= 0.04, details[-1]
        assert ents["identity"] > ents["arctan"], details[-1]
        assert exprs["arctan"] > exprs["identity"], details[-1]
    report(2, "quantum metrics", ok, " | ".join(details))


def test_criterion_3_analytic_entanglement_oracles():
    product = np.zeros(16, dtype=complex)
    product[0b0101] = 1.0
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[15] = 1 / np.sqrt(2)
    vals = tuple(meyer_wallach_batch(state[None])[0] for state in (product, bell, ghz))
    ok = abs(vals[0]) < 1e-10 and abs(vals[1] - 1) < 1e-10 and abs(vals[2] - 1) < 1e-10
    report(3, "Meyer-Wallach oracles", ok, f"product={vals[0]:.2e} bell={vals[1]:.12f} ghz4={vals[2]:.12f}")
    assert abs(vals[0]) < 1e-10
    assert abs(vals[1] - 1.0) < 1e-10
    assert abs(vals[2] - 1.0) < 1e-10


def test_criterion_4_statevector_vs_dense_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for case in range(100):
        n_layers = int(rng.integers(1, 4))
        spec = VqcSpec(n_layers=n_layers, scaling_fn=str(rng.choice(["identity", "arctan"])))
        theta, xi = rng.uniform(-np.pi, np.pi, 12 * n_layers), rng.uniform(-2, 2, 4 * n_layers)
        x = SCALING_FNS[spec.scaling_fn][0](rng.uniform(-np.pi, np.pi, 4 * n_layers) * xi)
        got = vqc_state(spec, x, theta)
        expected = dense_vqc_state(spec, x, theta)
        worst = max(worst, float(np.abs(got - expected).max()))
    ok = worst < 1e-10
    report(4, "statevector vs dense oracle", ok, f"worst amplitude error {worst:.2e} over 100 cases")
    assert worst < 1e-10


def test_criterion_5_gradient_suite():
    from fanetq.critics import ClassicalCritic
    from fanetq.mappo import _actor_loss_and_grads, _critic_loss_and_grads
    from tests.test_mappo import actor_loss, critic_loss

    rng = np.random.default_rng(505)
    cfg = TrainerConfig()
    cases = 0

    for _ in range(40):  # dense nets
        sizes = [int(rng.integers(2, 8)) for _ in range(3)]
        net = DenseNet.create(sizes, ["tanh", "identity"], rng)
        x = rng.standard_normal((5, sizes[0]))
        w = rng.standard_normal((5, sizes[-1]))
        _, cache = net.forward_cached(x)
        net.backward(cache, w)
        finite_difference_check(lambda: float(np.sum(w * net.forward(x))), net.params(), grad_views(net), rng, n_coords=3)
        cases += 1

    for _ in range(30):  # policy heads
        head = GaussianPolicyHead.create(5, 3, (6,), rng)
        obs = rng.standard_normal((6, 5))
        acts = rng.standard_normal((6, 3))
        w = rng.standard_normal(6)
        _, _, cache = head.log_prob_cached(obs, acts)
        head.backward_log_prob(cache, w)
        finite_difference_check(
            lambda: float(np.sum(w * head.log_prob_cached(obs, acts)[0])),
            head.params(),
            grad_views(head),
            rng,
            n_coords=3,
        )
        cases += 1

    for _ in range(15):  # actor losses
        head = GaussianPolicyHead.create(4, 2, (6,), rng)
        obs = rng.standard_normal((8, 4))
        acts = rng.standard_normal((8, 2))
        adv = rng.standard_normal(8)
        lp_old = head.log_prob_cached(obs, acts)[0] + 0.05 * rng.standard_normal(8)
        mu_old = head.mean_net.forward(obs) + 0.05 * rng.standard_normal((8, 2))
        ls_old = head.log_std + 0.02
        _actor_loss_and_grads(head, obs, acts, lp_old, adv, mu_old, ls_old, cfg)
        finite_difference_check(
            lambda: actor_loss(head, obs, acts, lp_old, adv, mu_old, ls_old, cfg),
            head.params(),
            grad_views(head),
            rng,
            n_coords=3,
        )
        cases += 1

    for _ in range(15):  # critic losses
        critic = ClassicalCritic.create(9, 4, rng, post_hidden=int(rng.choice([0, 2])))
        O = rng.standard_normal((8, 9))
        rets = rng.standard_normal(8)
        v_old = critic.value(O) + 0.05 * rng.standard_normal(8)
        _critic_loss_and_grads(critic, O, rets, v_old, cfg)
        finite_difference_check(
            lambda: critic_loss(critic, O, rets, v_old, cfg), critic.params(), grad_views(critic), rng, n_coords=3
        )
        cases += 1

    # GAE against brute-force discounted returns
    r = rng.standard_normal(60)
    adv, _ = gae(r, np.zeros(60), 0.0, 0.99, 1.0)
    brute = np.array([sum(0.99**l * r[t + l] for l in range(60 - t)) for t in range(60)])
    gae_err = float(np.abs(adv - brute).max())

    ok = cases == 100 and gae_err < 1e-10
    report(5, "gradient suite", ok, f"{cases} finite-difference cases < 1e-4; GAE err {gae_err:.2e}")
    assert cases == 100
    assert gae_err < 1e-10


@pytest.mark.skipif(not FULL, reason="learning smoke test trains 6 agents (~80 s); set FANETQ_FULL_ACCEPT=1")
def test_criterion_6_learning_smoke(tmp_path):
    threshold = 75.25
    results = {}
    for solution in ("NN-4", "VQC-1A"):
        records = run_training(solution, "4a1s", [0, 1, 2], 200_000, tmp_path)
        steps, mean, _ = aggregate_curves(records)
        best = float(mean.max())
        crossed = bool((mean >= threshold).any())
        if not crossed:
            # spec-sanctioned fallback: extend the runs to 400k before failing
            records = run_training(solution, "4a1s", [10, 11, 12], 400_000, tmp_path / "fallback")
            steps, mean, _ = aggregate_curves(records)
            best = float(mean.max())
            crossed = bool((mean >= threshold).any())
        results[solution] = (crossed, best)
    ok = all(c for c, _ in results.values())
    detail = "  ".join(f"{s}: max aggregated CR {b:.2f} (>= {threshold}: {c})" for s, (c, b) in results.items())
    report(6, "learning smoke test", ok, detail)
    for solution, (crossed, best) in results.items():
        assert crossed, f"{solution} never reached CR {threshold}: best {best:.2f}"


def test_criterion_7_spsa_contract():
    calls = []

    def counted_loss(theta):
        calls.append(1)
        return float(np.sum(theta**2))

    state = SpsaState.matched_to_lr(1e-4, seed=7)
    spsa_gradient(counted_loss, np.ones(12), state)
    evals_ok = len(calls) == 3

    rng = np.random.default_rng(7)
    target = rng.uniform(-1, 1, 12)
    bowl_state = SpsaState(a=0.6, c=0.1, rng=np.random.default_rng(77))
    theta, _ = spsa_minimize(lambda th: float(np.sum((th - target) ** 2)), np.zeros(12), bowl_state, 2000)
    gap = float(np.sum((theta - target) ** 2))
    ok = evals_ok and gap < 1e-2
    report(7, "SPSA contract", ok, f"evals={len(calls)} quadratic gap {gap:.2e}")
    assert evals_ok
    assert gap < 1e-2


def test_criterion_8_weight_parity_audit():
    ok = True
    details = []
    for scenario, obs_dim in [("4a1s", 52), ("5a2s", 95)]:
        for row in parity_report(scenario, obs_dim):
            if row["rel_gap"] > 0.05:
                ok = False
            details.append(f"{scenario} {row['classical']}/{row['quantum']}: {row['rel_gap']*100:.2f}%")
        for name in QUANTUM_SOLUTIONS:
            critic = build_critic(name, scenario, obs_dim, np.random.default_rng(0))
            if critic.quantum_weights != 12 * int(name[4]):
                ok = False
    report(8, "weight parity", ok, "; ".join(details))
    for scenario, obs_dim in [("4a1s", 52), ("5a2s", 95)]:
        for row in parity_report(scenario, obs_dim):
            assert row["rel_gap"] <= 0.05, row
        for name in QUANTUM_SOLUTIONS:
            critic = build_critic(name, scenario, obs_dim, np.random.default_rng(0))
            assert critic.quantum_weights == 12 * int(name[4])
