"""Centralized critics: classical pre/core/post stacks and the quantum-core variant.

Both kinds expose ``value`` over global observations, an Adam-trainable
parameter list, and weight bookkeeping split into classical/quantum counts.
The quantum critic routes gradients per the hybrid scheme: exact backprop
through the post block, a three-evaluation simultaneous-perturbation
estimate for the circuit weights, and the same two perturbed evaluations
reused (via a joint perturbation of the circuit's input angles) to push an
estimated gradient into the input scalings and the pre block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractViolation, read_json
from .nets import CHECKPOINT_VERSION, DenseNet, check_checkpoint_version
from .qsim import N_QUBITS, SpsaState, VqcSpec, spsa_gradient, vqc_forward


def _post_sizes(in_dim: int, hidden: int) -> tuple[list[int], list[str]]:
    if hidden == 0:
        return [in_dim, 1], ["identity"]
    return [in_dim, hidden, 1], ["tanh", "identity"]


class ClassicalCritic:
    """pre (|O| -> X, tanh), core (X -> X, tanh), post (X -> 1)."""

    kind = "classical"

    def __init__(self, pre: DenseNet, core: DenseNet, post: DenseNet):
        self.pre = pre
        self.core = core
        self.post = post

    @classmethod
    def create(cls, global_obs_dim: int, width: int, rng: np.random.Generator, post_hidden: int = 0) -> "ClassicalCritic":
        pre = DenseNet.create([global_obs_dim, width], ["tanh"], rng)
        core = DenseNet.create([width, width], ["tanh"], rng)
        post = DenseNet.create(*_post_sizes(width, post_hidden), rng)
        return cls(pre, core, post)

    @property
    def classical_weights(self) -> int:
        return self.pre.parameter_count + self.core.parameter_count + self.post.parameter_count

    @property
    def quantum_weights(self) -> int:
        return 0

    @property
    def total_weights(self) -> int:
        return self.classical_weights

    def adam_params(self) -> list[np.ndarray]:
        return self.pre.params() + self.core.params() + self.post.params()

    def value(self, global_obs: np.ndarray) -> np.ndarray:
        v, _ = self.value_cached(global_obs)
        return v

    def value_cached(self, global_obs: np.ndarray):
        h1, c1 = self.pre.forward_cached(global_obs)
        h2, c2 = self.core.forward_cached(h1)
        v, c3 = self.post.forward_cached(h2)
        return v[..., 0], (c1, c2, c3)

    def backward(self, cache, d_value: np.ndarray, _loss_fn=None, _loss_center=None) -> list[np.ndarray]:
        """Gradients in adam_params() order for upstream dLoss/dV."""
        c1, c2, c3 = cache
        g3, d_h2 = self.post.backward(c3, np.asarray(d_value)[..., None])
        g2, d_h1 = self.core.backward(c2, d_h2)
        g1, _ = self.pre.backward(c1, d_h1)
        return g1 + g2 + g3

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "pre": self.pre.to_dict(),
            "core": self.core.to_dict(),
            "post": self.post.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassicalCritic":
        check_checkpoint_version(d)
        return cls(DenseNet.from_dict(d["pre"]), DenseNet.from_dict(d["core"]), DenseNet.from_dict(d["post"]))


class QuantumCritic:
    """pre (|O| -> 4L, tanh), data-reuploading circuit core, post (4 -> 1).

    ``spec.theta`` are the quantum weights (SPSA-updated); ``spec.xi`` and
    the pre/post blocks train through Adam.  ``circuit_evaluations`` counts
    batched circuit passes; one critic-loss gradient estimate issues exactly
    three.
    """

    kind = "quantum"

    def __init__(self, pre: DenseNet, spec: VqcSpec, post: DenseNet, spsa: SpsaState):
        if pre.out_dim != spec.n_features:
            raise ContractViolation("pre block output must match the circuit feature count")
        self.pre = pre
        self.spec = spec
        self.post = post
        self.spsa = spsa
        self.circuit_evaluations = 0

    @classmethod
    def create(
        cls,
        global_obs_dim: int,
        n_layers: int,
        scaling_fn: str,
        rng: np.random.Generator,
        post_hidden: int = 0,
        lr: float = 1e-4,
        spsa_seed: int = 0,
    ) -> "QuantumCritic":
        pre = DenseNet.create([global_obs_dim, N_QUBITS * n_layers], ["tanh"], rng)
        theta0 = rng.uniform(0.0, np.pi, size=12 * n_layers)
        spec = VqcSpec(n_layers=n_layers, scaling_fn=scaling_fn, theta=theta0)
        post = DenseNet.create(*_post_sizes(N_QUBITS, post_hidden), rng)
        return cls(pre, spec, post, SpsaState.matched_to_lr(lr, seed=spsa_seed))

    @property
    def classical_weights(self) -> int:
        return self.pre.parameter_count + self.post.parameter_count + self.spec.xi.size

    @property
    def quantum_weights(self) -> int:
        return self.spec.theta.size

    @property
    def total_weights(self) -> int:
        return self.classical_weights + self.quantum_weights

    def adam_params(self) -> list[np.ndarray]:
        return self.pre.params() + [self.spec.xi] + self.post.params()

    def _run_circuit(self, angles: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """One batched evaluation of the circuit on explicit angles."""
        self.circuit_evaluations += 1
        eval_spec = VqcSpec(n_layers=self.spec.n_layers, scaling_fn="identity", theta=theta)
        return vqc_forward(eval_spec, angles)

    def value(self, global_obs: np.ndarray) -> np.ndarray:
        v, _ = self.value_cached(global_obs)
        return v

    def value_cached(self, global_obs: np.ndarray):
        features, pre_cache = self.pre.forward_cached(global_obs)
        angles = self.spec.scaled_angles(features)
        z = self._run_circuit(angles, self.spec.theta)
        v, post_cache = self.post.forward_cached(z)
        v = v[..., 0]
        return v, (pre_cache, features, angles, post_cache, v)

    def backward(
        self,
        cache,
        d_value: np.ndarray,
        loss_fn: Callable[[np.ndarray], float] = None,
        loss_center: float | None = None,
    ) -> list[np.ndarray]:
        """Hybrid gradients in adam_params() order; updates theta via SPSA.

        ``loss_fn(values)`` must return the scalar minibatch loss that the
        caller is descending.  SPSA perturbs the joint vector (theta, a
        common shift of the circuit's input angles); its center loss is
        ``loss_center`` when the caller already has ``loss_fn`` of the cached
        values, else it is computed from them, so each estimate costs two
        more circuit evaluations, three in total.
        """
        if loss_fn is None:
            raise ContractViolation("quantum critic backward needs the minibatch loss_fn")
        pre_cache, features, angles, post_cache, v = cache
        d_value = np.asarray(d_value)
        batch = angles.shape[0] if angles.ndim == 2 else 1
        n_theta = self.spec.theta.size

        post_grads, _ = self.post.backward(post_cache, d_value[..., None])

        def joint_loss(params: np.ndarray) -> float:
            z_p = self._run_circuit(angles + params[n_theta:], params[:n_theta])
            return float(loss_fn(self.post.forward(z_p)[..., 0]))

        ak = self.spsa.step_size()
        center = np.concatenate([self.spec.theta, np.zeros(self.spec.n_features)])
        if loss_center is None:
            loss_center = loss_fn(v)
        grad, _ = spsa_gradient(joint_loss, center, self.spsa, loss_center=loss_center)
        grad_theta, grad_angles = grad[:n_theta], grad[n_theta:]
        self.spec.theta = self.spec.theta - ak * grad_theta

        # chain the common-shift angle gradient into xi and the pre block;
        # x = f(u * xi) with u the pre output
        u = features if features.ndim == 2 else features[None, :]
        s = u * self.spec.xi
        if self.spec.scaling_fn == "arctan":
            dx_ds = 1.0 / (1.0 + s * s)
        else:
            dx_ds = np.ones_like(s)
        upstream_x = np.broadcast_to(grad_angles / batch, u.shape)
        grad_xi = (upstream_x * dx_ds * u).sum(axis=0)
        d_features = upstream_x * dx_ds * self.spec.xi
        if features.ndim == 1:
            d_features = d_features[0]
        pre_grads, _ = self.pre.backward(pre_cache, d_features)

        return pre_grads + [grad_xi] + post_grads

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "pre": self.pre.to_dict(),
            "circuit": self.spec.to_dict(),
            "post": self.post.to_dict(),
            "spsa_k": self.spsa.k,
        }

    @classmethod
    def from_dict(cls, d: dict, lr: float = 1e-4, spsa_seed: int = 0) -> "QuantumCritic":
        check_checkpoint_version(d)
        spsa = SpsaState.matched_to_lr(lr, seed=spsa_seed)
        spsa.k = d.get("spsa_k", 0)
        return cls(
            DenseNet.from_dict(d["pre"]),
            VqcSpec.from_dict(d["circuit"]),
            DenseNet.from_dict(d["post"]),
            spsa,
        )


def save_critic(critic, path: str | Path) -> None:
    Path(path).write_text(json.dumps(critic.to_dict()))


def load_critic(path: str | Path, lr: float = 1e-4, spsa_seed: int = 0):
    d = read_json(path)
    kind = d.get("kind")
    if kind == ClassicalCritic.kind:
        return ClassicalCritic.from_dict(d)
    if kind == QuantumCritic.kind:
        return QuantumCritic.from_dict(d, lr=lr, spsa_seed=spsa_seed)
    raise ConfigError(f"unknown critic kind {kind!r} in {path}")


# ---------------------------------------------------------------------------
# Solution registry
# ---------------------------------------------------------------------------

CLASSICAL_SOLUTIONS = ("NN-4", "NN-7", "NN-8", "NN-10", "NN-11")
QUANTUM_SOLUTIONS = ("VQC-1N", "VQC-1A", "VQC-2N", "VQC-2A", "VQC-3N", "VQC-3A")
ALL_SOLUTIONS = CLASSICAL_SOLUTIONS + QUANTUM_SOLUTIONS

# which classical width is compared against which circuit depth, per scenario
PAIRINGS: dict[str, list[tuple[str, int]]] = {
    "4a1s": [("NN-4", 1), ("NN-7", 2), ("NN-10", 3)],
    "5a2s": [("NN-4", 1), ("NN-8", 2), ("NN-11", 3)],
}

PARITY_TOLERANCE = 0.05
_POST_HIDDEN_CHOICES = (0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16)


@dataclass(frozen=True)
class SolutionId:
    """Parsed solution name: NN-<width> or VQC-<layers><N|A>."""

    name: str
    kind: str
    width: int | None = None
    n_layers: int | None = None
    scaling_fn: str | None = None

    @classmethod
    def parse(cls, name: str) -> "SolutionId":
        if name not in ALL_SOLUTIONS:
            raise ConfigError(f"unknown solution {name!r}; choose from {ALL_SOLUTIONS}")
        if name.startswith("NN-"):
            return cls(name=name, kind="classical", width=int(name[3:]))
        n_layers = int(name[4])
        scaling = "identity" if name.endswith("N") else "arctan"
        return cls(name=name, kind="quantum", n_layers=n_layers, scaling_fn=scaling)


def _classical_total(obs_dim: int, width: int, post_hidden: int) -> int:
    pre = (obs_dim + 1) * width
    core = width * (width + 1)
    post = (width + 1) if post_hidden == 0 else post_hidden * (width + 2) + 1
    return pre + core + post


def _quantum_total(obs_dim: int, n_layers: int, post_hidden: int) -> int:
    feats = N_QUBITS * n_layers
    pre = (obs_dim + 1) * feats
    xi = feats
    theta = 12 * n_layers
    post = (N_QUBITS + 1) if post_hidden == 0 else post_hidden * (N_QUBITS + 2) + 1
    return pre + xi + theta + post


def tuned_post_hidden(scenario: str, obs_dim: int) -> dict[str, tuple[int, int]]:
    """Per-pair post-block hidden widths that minimize the weight gap.

    Mirrors the reference bookkeeping where neuron counts were chosen so the
    compared solutions' totals are as similar as possible.  Returns
    {nn_name: (classical_post_hidden, quantum_post_hidden)} keyed by pair.
    """
    if scenario not in PAIRINGS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    out = {}
    for nn_name, n_layers in PAIRINGS[scenario]:
        width = SolutionId.parse(nn_name).width
        best = None
        for hc in _POST_HIDDEN_CHOICES:
            twc = _classical_total(obs_dim, width, hc)
            for hq in _POST_HIDDEN_CHOICES:
                twq = _quantum_total(obs_dim, n_layers, hq)
                key = (abs(twc - twq), hc + hq, max(hc, hq))
                if best is None or key < best[0]:
                    best = (key, hc, hq)
        out[nn_name] = (best[1], best[2])
    return out


def _pair_of(scenario: str, sol: SolutionId) -> tuple[str, int]:
    for nn_name, n_layers in PAIRINGS[scenario]:
        if sol.kind == "classical" and sol.name == nn_name:
            return nn_name, n_layers
        if sol.kind == "quantum" and sol.n_layers == n_layers:
            return nn_name, n_layers
    raise ConfigError(f"solution {sol.name} is not defined for scenario {scenario!r}")


def build_critic(
    solution: str,
    scenario: str,
    global_obs_dim: int,
    rng: np.random.Generator,
    lr: float = 1e-4,
    spsa_seed: int = 0,
):
    """Construct the critic a solution name resolves to on a scenario."""
    sol = SolutionId.parse(solution)
    nn_name, n_layers = _pair_of(scenario, sol)
    hc, hq = tuned_post_hidden(scenario, global_obs_dim)[nn_name]
    if sol.kind == "classical":
        return ClassicalCritic.create(global_obs_dim, sol.width, rng, post_hidden=hc)
    return QuantumCritic.create(
        global_obs_dim,
        sol.n_layers,
        sol.scaling_fn,
        rng,
        post_hidden=hq,
        lr=lr,
        spsa_seed=spsa_seed,
    )


def weight_table(scenario: str, global_obs_dim: int) -> list[dict]:
    """CW/QW/TW bookkeeping rows for every solution of a scenario."""
    rng = np.random.default_rng(0)
    rows = []
    for nn_name, n_layers in PAIRINGS[scenario]:
        group = [nn_name] + [s for s in QUANTUM_SOLUTIONS if int(s[4]) == n_layers]
        for name in group:
            critic = build_critic(name, scenario, global_obs_dim, rng)
            rows.append(
                {
                    "solution": name,
                    "scenario": scenario,
                    "cw": critic.classical_weights,
                    "qw": critic.quantum_weights,
                    "tw": critic.total_weights,
                }
            )
    return rows


def parity_report(scenario: str, global_obs_dim: int) -> list[dict]:
    """Relative weight gap for each compared (NN, VQC) pair."""
    rows = weight_table(scenario, global_obs_dim)
    by_name = {r["solution"]: r for r in rows}
    out = []
    for nn_name, n_layers in PAIRINGS[scenario]:
        for vqc in QUANTUM_SOLUTIONS:
            if int(vqc[4]) != n_layers:
                continue
            twc = by_name[nn_name]["tw"]
            twq = by_name[vqc]["tw"]
            out.append(
                {
                    "scenario": scenario,
                    "classical": nn_name,
                    "quantum": vqc,
                    "tw_classical": twc,
                    "tw_quantum": twq,
                    "rel_gap": abs(twc - twq) / min(twc, twq),
                }
            )
    return out
