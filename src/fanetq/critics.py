"""Centralized critics: pre (|O| -> X, tanh) -> core -> post (-> 1), with a dense or a circuit core.

``_Critic`` holds what both kinds share: the chain check, one flat vector
``flat`` of the Adam-trained parameters (``params()`` returns views of it)
and its gradients ``grad`` (see ``fanetq.nets``), ``value_cached``, the exact
reverse pass and the checkpoint layout.  The quantum critic's core is a
``CircuitCore``, the data-reuploading circuit that owns its weights theta and
input scalings ``xi``; it routes gradients per the hybrid scheme: exact
backprop through the post block, a three-evaluation simultaneous-perturbation
estimate for theta, and the same two perturbed evaluations reused (via a joint
perturbation of the circuit's input angles) to push an estimated gradient into
xi and the pre block.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractViolation, config_errors, json_fields, json_floats, read_json
from .nets import CHECKPOINT_VERSION, DenseNet, check_checkpoint_version, check_unowned, pack
from .qsim import N_QUBITS, SCALING_FNS, SpsaState, VqcSpec, spsa_gradient, vqc_forward


def _post_sizes(in_dim: int, hidden: int) -> tuple[list[int], list[str]]:
    if hidden == 0:
        return [in_dim, 1], ["identity"]
    return [in_dim, hidden, 1], ["tanh", "identity"]


class CircuitCore:
    """The circuit as a critic core: angles x = f(u * xi) for the 4L pre features u, then the 4 <Z> readouts.

    It owns the weights: ``theta`` (12L), which the critic steps by SPSA, and the input scalings ``xi`` (4L, ones by
    default), its ``flat``, which train with the classical weights.  ``evaluations`` counts batched circuit passes.
    """

    out_dim = N_QUBITS

    def __init__(self, spec: VqcSpec, theta: np.ndarray, xi: np.ndarray | None = None):
        self.spec, self.in_dim, self.evaluations = spec, spec.n_features, 0
        self.theta = np.array(theta, dtype=float)
        self.xi = np.ones(spec.n_features) if xi is None else np.array(xi, dtype=float)
        if self.theta.shape != (spec.n_theta,):
            raise ContractViolation(f"theta must have {spec.n_theta} entries")
        if self.xi.shape != (spec.n_features,):
            raise ContractViolation(f"xi must have {spec.n_features} entries")

    @property
    def flat(self) -> np.ndarray:
        return self.xi

    def bind(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self.xi, self.grad = flat, grad

    def params(self) -> list[np.ndarray]:
        return [self.xi]

    def run(self, angles: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """One batched evaluation of the circuit on explicit angles."""
        self.evaluations += 1
        return vqc_forward(self.spec, angles, theta)

    def forward_cached(self, u: np.ndarray):
        angles = SCALING_FNS[self.spec.scaling_fn][0](u * self.xi)
        return self.run(angles, self.theta), (u, angles)

    def to_dict(self) -> dict:
        return {
            "n_qubits": N_QUBITS,
            "L": self.spec.n_layers,
            "scaling_fn": self.spec.scaling_fn,
            "theta": self.theta.tolist(),
            "xi": self.xi.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CircuitCore":
        n_layers, scaling_fn, theta, xi = json_fields(d, "L", "scaling_fn", "theta", "xi", what="circuit")
        if d.get("n_qubits", N_QUBITS) != N_QUBITS:
            raise ContractViolation("the critic core circuit is fixed at 4 qubits")
        if not isinstance(n_layers, int) or isinstance(n_layers, bool):
            raise ConfigError(f"circuit L must be an integer, got {n_layers!r}")
        theta, xi = json_floats(theta, "circuit theta"), json_floats(xi, "circuit xi")
        return cls(VqcSpec(n_layers, scaling_fn), theta, xi)


class _Critic:
    """pre -> core -> post; ``core_key`` names the core in checkpoints."""

    quantum_weights = 0

    def __init__(self, pre: DenseNet, core: DenseNet | CircuitCore, post: DenseNet):
        if (pre.out_dim, core.out_dim, post.out_dim) != (core.in_dim, post.in_dim, 1):
            raise ContractViolation(
                f"blocks do not chain: pre ends in {pre.out_dim}, core maps {core.in_dim} -> {core.out_dim}, "
                f"post maps {post.in_dim} -> {post.out_dim} where it must end in 1"
            )
        check_unowned(pre=pre, core=core, post=post)
        self.pre, self.core, self.post = pre, core, post
        self.flat, self.grad, parts = pack([pre.flat, core.flat, post.flat])
        for block, part in zip((pre, core, post), parts):
            block.bind(*part)

    def params(self) -> list[np.ndarray]:
        return self.pre.params() + self.core.params() + self.post.params()

    def value(self, global_obs: np.ndarray) -> np.ndarray:
        return self.value_cached(global_obs)[0]

    def value_cached(self, global_obs: np.ndarray):
        h_pre, c_pre = self.pre.forward_cached(global_obs)
        h_core, c_core = self.core.forward_cached(h_pre)
        v, c_post = self.post.forward_cached(h_core)
        return v[..., 0], (c_pre, c_core, c_post)

    def backward(self, cache, d_value: np.ndarray, _loss_fn=None, _loss_center=None) -> None:
        """Writes the exact gradients for upstream dLoss/dV into ``grad``."""
        c_pre, c_core, c_post = cache
        d_core = self.post.backward(c_post, np.asarray(d_value)[..., None])
        d_pre = self.core.backward(c_core, d_core)
        self.pre.backward(c_pre, d_pre, input_grad=False)

    @property
    def classical_weights(self) -> int:
        return self.flat.size

    @property
    def total_weights(self) -> int:
        return self.classical_weights + self.quantum_weights

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "kind": self.kind,
            "pre": self.pre.to_dict(),
            self.core_key: self.core.to_dict(),
            "post": self.post.to_dict(),
        }


class ClassicalCritic(_Critic):
    """pre (|O| -> X, tanh), core (X -> X, tanh), post (X -> 1)."""

    kind = "classical"
    core_key = "core"

    @classmethod
    def create(cls, global_obs_dim: int, width: int, rng: np.random.Generator, post_hidden: int = 0) -> "ClassicalCritic":
        pre = DenseNet.create([global_obs_dim, width], ["tanh"], rng)
        core = DenseNet.create([width, width], ["tanh"], rng)
        post = DenseNet.create(*_post_sizes(width, post_hidden), rng)
        return cls(pre, core, post)

    @classmethod
    def from_dict(cls, d: dict) -> "ClassicalCritic":
        check_checkpoint_version(d)
        with config_errors("critic checkpoint"):
            return cls(*(DenseNet.from_dict(net) for net in json_fields(d, "pre", "core", "post")))


class QuantumCritic(_Critic):
    """pre (|O| -> 4L, tanh), data-reuploading circuit core, post (4 -> 1).

    ``core.theta`` are the quantum weights (SPSA-updated); ``core.xi`` and the pre/post blocks train through Adam.
    ``circuit_evaluations`` counts batched circuit passes; one critic-loss gradient estimate issues exactly three.
    """

    kind = "quantum"
    core_key = "circuit"

    def __init__(self, pre: DenseNet, core: CircuitCore, post: DenseNet, spsa: SpsaState):
        super().__init__(pre, core, post)
        self.spsa = spsa

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
        core = CircuitCore(VqcSpec(n_layers, scaling_fn), rng.uniform(0.0, np.pi, size=12 * n_layers))
        post = DenseNet.create(*_post_sizes(N_QUBITS, post_hidden), rng)
        return cls(pre, core, post, SpsaState.matched_to_lr(lr, seed=spsa_seed))

    @property
    def quantum_weights(self) -> int:
        return self.core.theta.size

    @property
    def circuit_evaluations(self) -> int:
        return self.core.evaluations

    def backward(self, cache, d_value: np.ndarray, loss_fn: Callable[[np.ndarray], float], loss_center: float) -> None:
        """Writes the hybrid gradients into ``grad``; updates theta via SPSA.

        ``loss_fn(values)`` must return the scalar minibatch loss that the
        caller is descending, and ``loss_center`` its value at the cached
        values.  SPSA perturbs the joint vector (theta, a common shift of the
        circuit's input angles) and reuses ``loss_center`` as its center, so
        each estimate costs two more circuit evaluations, three in total.
        """
        pre_cache, (features, angles), post_cache = cache
        n_theta = self.core.theta.size
        self.post.backward(post_cache, np.asarray(d_value)[..., None], input_grad=False)

        def joint_loss(params: np.ndarray) -> float:
            z_p = self.core.run(angles + params[n_theta:], params[:n_theta])
            return float(loss_fn(self.post.forward(z_p)[..., 0]))

        ak = self.spsa.step_size()
        center = np.concatenate([self.core.theta, np.zeros(self.core.in_dim)])
        grad, _ = spsa_gradient(joint_loss, center, self.spsa, loss_center=loss_center)
        self.core.theta = self.core.theta - ak * grad[:n_theta]

        # chain the common-shift angle gradient into xi and the pre block; x = f(u * xi) with u the pre output
        u = np.atleast_2d(features)
        dx_ds = SCALING_FNS[self.core.spec.scaling_fn][1](u * self.core.xi)
        upstream_x = np.broadcast_to(grad[n_theta:] / len(u), u.shape)
        (upstream_x * dx_ds * u).sum(axis=0, out=self.core.grad)
        d_features = upstream_x * dx_ds * self.core.xi
        self.pre.backward(pre_cache, d_features.reshape(features.shape), input_grad=False)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "spsa_k": self.spsa.k}

    @classmethod
    def from_dict(cls, d: dict, lr: float = 1e-4, spsa_seed: int = 0) -> "QuantumCritic":
        check_checkpoint_version(d)
        pre, circuit, post, spsa_k = json_fields(d, "pre", "circuit", "post", "spsa_k")
        if not isinstance(spsa_k, int) or isinstance(spsa_k, bool) or spsa_k < 0:
            raise ConfigError(f"checkpoint spsa_k must be a non-negative integer, got {spsa_k!r}")
        spsa = SpsaState.matched_to_lr(lr, seed=spsa_seed)
        spsa.k = spsa_k
        with config_errors("checkpoint circuit"):
            core = CircuitCore.from_dict(circuit)
        with config_errors("critic checkpoint"):
            return cls(DenseNet.from_dict(pre), core, DenseNet.from_dict(post), spsa)


def save_critic(critic, path: str | Path) -> None:
    Path(path).write_text(json.dumps(critic.to_dict()))


def load_critic(path: str | Path, lr: float = 1e-4, spsa_seed: int = 0):
    d = read_json(path)
    kind = d.get("kind") if isinstance(d, dict) else None
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


@functools.cache
def tuned_post_hidden(scenario: str, obs_dim: int) -> dict[str, tuple[int, int]]:
    """Per-pair post-block hidden widths that minimize the weight gap.

    Mirrors the reference bookkeeping where neuron counts were chosen so the
    compared solutions' totals are as similar as possible.  Returns
    {nn_name: (classical_post_hidden, quantum_post_hidden)} keyed by pair.
    Counts come from critics and post blocks built as ``create`` builds them,
    once per scenario and observation size; every caller shares the cached
    mapping, so none may change it.
    """
    if scenario not in PAIRINGS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    rng = np.random.default_rng(0)  # only the weight counts are kept

    def totals(critic) -> list[int]:
        """The critic's weight total for each post hidden width."""
        rest = critic.total_weights - critic.post.flat.size
        posts = (DenseNet.create(*_post_sizes(critic.post.in_dim, h), rng) for h in _POST_HIDDEN_CHOICES)
        return [rest + post.flat.size for post in posts]

    out = {}
    for nn_name, n_layers in PAIRINGS[scenario]:
        twc = totals(ClassicalCritic.create(obs_dim, SolutionId.parse(nn_name).width, rng))
        twq = totals(QuantumCritic.create(obs_dim, n_layers, "identity", rng))
        _, hc, hq = min(
            ((abs(c - q), hc + hq, max(hc, hq)), hc, hq)
            for hc, c in zip(_POST_HIDDEN_CHOICES, twc)
            for hq, q in zip(_POST_HIDDEN_CHOICES, twq)
        )
        out[nn_name] = (hc, hq)
    return out


def _pair_of(scenario: str, sol: SolutionId) -> str:
    """The NN name of the compared pair that ``sol`` belongs to on ``scenario``."""
    for nn_name, n_layers in PAIRINGS.get(scenario, ()):
        if sol.name == nn_name or sol.n_layers == n_layers:
            return nn_name
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
    nn_name = _pair_of(scenario, sol)  # first, so a scenario without pairs names the solution
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


def parity_report(scenario: str, global_obs_dim: int) -> list[dict]:
    """Weight totals and their relative gap for each compared (NN, VQC) pair."""
    rng = np.random.default_rng(0)  # only the weight counts are kept
    out = []
    for name in QUANTUM_SOLUTIONS:
        nn_name = _pair_of(scenario, SolutionId.parse(name))
        twc = build_critic(nn_name, scenario, global_obs_dim, rng).total_weights
        twq = build_critic(name, scenario, global_obs_dim, rng).total_weights
        out.append(
            {
                "scenario": scenario,
                "classical": nn_name,
                "quantum": name,
                "tw_classical": twc,
                "tw_quantum": twq,
                "rel_gap": abs(twc - twq) / min(twc, twq),
            }
        )
    return out
