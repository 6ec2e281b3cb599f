"""Centralized critics: classical pre/core/post stacks and the quantum-core variant.

Both kinds share ``value`` over global observations and the weight counts
split into classical/quantum (``_Critic``); each keeps its Adam-trained
parameters in one flat vector ``flat`` (``params()`` returns views of it),
its own ``value_cached``, and a ``backward`` that writes its gradients into
``grad`` (see ``fanetq.nets``).
The quantum critic routes gradients per the hybrid scheme: exact backprop
through the post block, a three-evaluation simultaneous-perturbation
estimate for the circuit weights, and the same two perturbed evaluations
reused (via a joint perturbation of the circuit's input angles) to push an
estimated gradient into the input scalings and the pre block.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractViolation, config_errors, json_fields, read_json
from .nets import CHECKPOINT_VERSION, DenseNet, check_checkpoint_version, pack
from .qsim import N_QUBITS, SCALING_FNS, SpsaState, VqcSpec, spsa_gradient, vqc_forward


def _post_sizes(in_dim: int, hidden: int) -> tuple[list[int], list[str]]:
    if hidden == 0:
        return [in_dim, 1], ["identity"]
    return [in_dim, hidden, 1], ["tanh", "identity"]


class _Critic:
    """What both kinds share: ``value`` by way of the kind's ``value_cached``, and the weight counts."""

    quantum_weights = 0

    @staticmethod
    def _check_blocks(pre: DenseNet, core_in: int, core_out: int, post: DenseNet) -> None:
        """ContractViolation unless pre -> core -> post chain and post ends in one output."""
        if (pre.out_dim, core_out, post.out_dim) != (core_in, post.in_dim, 1):
            raise ContractViolation(
                f"blocks do not chain: pre ends in {pre.out_dim}, core maps {core_in} -> {core_out}, "
                f"post maps {post.in_dim} -> {post.out_dim} where it must end in 1"
            )

    def value(self, global_obs: np.ndarray) -> np.ndarray:
        return self.value_cached(global_obs)[0]

    @property
    def classical_weights(self) -> int:
        return self.flat.size

    @property
    def total_weights(self) -> int:
        return self.classical_weights + self.quantum_weights


class ClassicalCritic(_Critic):
    """pre (|O| -> X, tanh), core (X -> X, tanh), post (X -> 1)."""

    kind = "classical"

    def __init__(self, pre: DenseNet, core: DenseNet, post: DenseNet):
        self._check_blocks(pre, core.in_dim, core.out_dim, post)
        self.pre = pre
        self.core = core
        self.post = post
        self.flat, self.grad, parts = pack([pre.flat, core.flat, post.flat])
        for net, part in zip((pre, core, post), parts):
            net.bind(*part)

    @classmethod
    def create(cls, global_obs_dim: int, width: int, rng: np.random.Generator, post_hidden: int = 0) -> "ClassicalCritic":
        pre = DenseNet.create([global_obs_dim, width], ["tanh"], rng)
        core = DenseNet.create([width, width], ["tanh"], rng)
        post = DenseNet.create(*_post_sizes(width, post_hidden), rng)
        return cls(pre, core, post)

    def params(self) -> list[np.ndarray]:
        return self.pre.params() + self.core.params() + self.post.params()

    def value_cached(self, global_obs: np.ndarray):
        h1, c1 = self.pre.forward_cached(global_obs)
        h2, c2 = self.core.forward_cached(h1)
        v, c3 = self.post.forward_cached(h2)
        return v[..., 0], (c1, c2, c3)

    def backward(self, cache, d_value: np.ndarray, _loss_fn=None, _loss_center=None) -> None:
        """Writes the gradients for upstream dLoss/dV into ``grad``."""
        c1, c2, c3 = cache
        d_h2 = self.post.backward(c3, np.asarray(d_value)[..., None])
        d_h1 = self.core.backward(c2, d_h2)
        self.pre.backward(c1, d_h1, input_grad=False)

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
        with config_errors("critic checkpoint"):
            return cls(*(DenseNet.from_dict(net) for net in json_fields(d, "pre", "core", "post")))


class QuantumCritic(_Critic):
    """pre (|O| -> 4L, tanh), data-reuploading circuit core, post (4 -> 1).

    ``spec.theta`` are the quantum weights (SPSA-updated); ``spec.xi`` and
    the pre/post blocks train through Adam.  ``circuit_evaluations`` counts
    batched circuit passes; one critic-loss gradient estimate issues exactly
    three.
    """

    kind = "quantum"

    def __init__(self, pre: DenseNet, spec: VqcSpec, post: DenseNet, spsa: SpsaState):
        self._check_blocks(pre, spec.n_features, N_QUBITS, post)
        self.pre = pre
        self.spec = spec
        self.post = post
        self.spsa = spsa
        self.circuit_evaluations = 0
        self.flat, self.grad, (pre_part, (spec.xi, self._xi_grad), post_part) = pack([pre.flat, spec.xi, post.flat])
        pre.bind(*pre_part)
        post.bind(*post_part)

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
    def quantum_weights(self) -> int:
        return self.spec.theta.size

    def params(self) -> list[np.ndarray]:
        return self.pre.params() + [self.spec.xi] + self.post.params()

    def _run_circuit(self, angles: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """One batched evaluation of the circuit on explicit angles."""
        self.circuit_evaluations += 1
        eval_spec = VqcSpec(n_layers=self.spec.n_layers, scaling_fn="identity", theta=theta)
        return vqc_forward(eval_spec, angles)

    def value_cached(self, global_obs: np.ndarray):
        features, pre_cache = self.pre.forward_cached(global_obs)
        angles = self.spec.scaled_angles(features)
        z = self._run_circuit(angles, self.spec.theta)
        v, post_cache = self.post.forward_cached(z)
        return v[..., 0], (pre_cache, features, angles, post_cache)

    def backward(
        self,
        cache,
        d_value: np.ndarray,
        loss_fn: Callable[[np.ndarray], float],
        loss_center: float,
    ) -> None:
        """Writes the hybrid gradients into ``grad``; updates theta via SPSA.

        ``loss_fn(values)`` must return the scalar minibatch loss that the
        caller is descending, and ``loss_center`` its value at the cached
        values.  SPSA perturbs the joint vector (theta, a common shift of the
        circuit's input angles) and reuses ``loss_center`` as its center, so
        each estimate costs two more circuit evaluations, three in total.
        """
        pre_cache, features, angles, post_cache = cache
        d_value = np.asarray(d_value)
        batch = angles.shape[0] if angles.ndim == 2 else 1
        n_theta = self.spec.theta.size

        self.post.backward(post_cache, d_value[..., None], input_grad=False)

        def joint_loss(params: np.ndarray) -> float:
            z_p = self._run_circuit(angles + params[n_theta:], params[:n_theta])
            return float(loss_fn(self.post.forward(z_p)[..., 0]))

        ak = self.spsa.step_size()
        center = np.concatenate([self.spec.theta, np.zeros(self.spec.n_features)])
        grad, _ = spsa_gradient(joint_loss, center, self.spsa, loss_center=loss_center)
        grad_theta, grad_angles = grad[:n_theta], grad[n_theta:]
        self.spec.theta = self.spec.theta - ak * grad_theta

        # chain the common-shift angle gradient into xi and the pre block;
        # x = f(u * xi) with u the pre output
        u = features if features.ndim == 2 else features[None, :]
        dx_ds = SCALING_FNS[self.spec.scaling_fn][1](u * self.spec.xi)
        upstream_x = np.broadcast_to(grad_angles / batch, u.shape)
        (upstream_x * dx_ds * u).sum(axis=0, out=self._xi_grad)
        d_features = upstream_x * dx_ds * self.spec.xi
        if features.ndim == 1:
            d_features = d_features[0]
        self.pre.backward(pre_cache, d_features, input_grad=False)

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
        pre, circuit, post, spsa_k = json_fields(d, "pre", "circuit", "post", "spsa_k")
        if not isinstance(spsa_k, int) or isinstance(spsa_k, bool) or spsa_k < 0:
            raise ConfigError(f"checkpoint spsa_k must be a non-negative integer, got {spsa_k!r}")
        spsa = SpsaState.matched_to_lr(lr, seed=spsa_seed)
        spsa.k = spsa_k
        with config_errors("checkpoint circuit"):
            spec = VqcSpec.from_dict(circuit)
        with config_errors("critic checkpoint"):
            return cls(DenseNet.from_dict(pre), spec, DenseNet.from_dict(post), spsa)


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
