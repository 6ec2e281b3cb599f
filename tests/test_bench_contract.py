"""The benchmark's probes still fit the program: under ``worker.install_probes`` every workload runs one
operation that passes its own check, the probes count the layers it uses, and ``uninstall`` puts back every
attribute it wrapped.  A renamed or re-signed function that perfbench wraps fails here, not in a bench run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

from fanetq import critics, env, experiments, mappo, nets, qmetrics, qsim  # noqa: E402

# every owner install_probes wraps attributes of
OWNERS = [
    env,
    env.FanetEnv,
    nets.DenseNet,
    nets.Adam,
    nets.GaussianPolicyHead,
    qsim,
    critics,
    critics.ClassicalCritic,
    critics.QuantumCritic,
    mappo,
    mappo.Trainer,
    qmetrics,
    experiments,
]

# (owner, attribute) pairs that must be wrapped while the probes are installed
WRAPPED = [
    (env, "env_step"),
    (env, "resolve_links"),
    (env, "observe_all"),
    (env, "path_to_ground"),
    (nets.DenseNet, "forward_cached"),
    (critics, "vqc_forward"),
    (qmetrics, "vqc_state"),
    (critics.QuantumCritic, "backward"),
    (mappo, "collect_rollout"),
    (mappo.Trainer, "update"),
    (experiments, "random_baseline_cr"),
]

ENV_WORKLOADS = {"train-nn4", "train-vqc1a", "baseline-5a2s"}
# the random baseline resolves whole episodes open-loop: it links and connects, but neither steps nor observes
STEPPING_WORKLOADS = {"train-nn4", "train-vqc1a"}
CIRCUIT_WORKLOADS = {"train-vqc1a", "characterize"}


@pytest.mark.parametrize("name", ["train-nn4", "train-vqc1a", "characterize", "baseline-5a2s"])
def test_one_probed_operation_checks_clean_and_uninstall_restores_every_attribute(tmp_path, name):
    before = [dict(vars(owner)) for owner in OWNERS]
    workload = worker.make_workload(name, 0, tmp_path)
    tracer = Tracer(f"contract-{name}")
    built = worker.install_probes(tracer)
    try:
        assert all(vars(owner)[attr] is not before[OWNERS.index(owner)][attr] for owner, attr in WRAPPED)
        units, result = workload.run(0)
        assert units > 0
        assert workload.check(0, result) == []
    finally:
        tracer.uninstall()
    for owner, attrs in zip(OWNERS, before):
        now = dict(vars(owner))
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner
    layers = worker.layer_metrics(tracer, built)
    assert (layers["env.step.calls"] > 0) == (name in STEPPING_WORKLOADS)
    assert (layers["env.observe_all.busy_s"] > 0) == (name in STEPPING_WORKLOADS)
    assert (layers["env.resolve_links.busy_s"] > 0) == (name in ENV_WORKLOADS)
    assert (layers["env.path_to_ground.busy_s"] > 0) == (name in ENV_WORKLOADS)
    assert (layers["qsim.circuit.calls"] > 0) == (name in CIRCUIT_WORKLOADS)
    # perfbench reads both with a getattr default of 0, so a critic that lost them would read 0 here
    assert (layers["critics.circuit_evaluations"] > 0) == (name == "train-vqc1a")
    assert (layers["critics.spsa_k"] > 0) == (name == "train-vqc1a")
