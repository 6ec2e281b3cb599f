"""Minimal dense-network stack with exact reverse-mode gradients.

Sized for the hundreds-of-weights networks this project trains: plain numpy
forward/backward over affine+tanh chains, a diagonal-Gaussian policy head
with state-independent log-std, and bias-corrected Adam.  Batched inputs use
the leading axis; a forward pass also takes further leading axes, as in the
(episodes, n_aircraft, obs_dim) observations of a block of episodes.  Backward
computes gradients of the *sum* of per-sample contributions, so callers pass
upstream values already scaled for means.

Each owner (a policy head, a critic or a lone net) keeps its parameters in
one flat vector, ``flat``, and its gradients in another, ``grad``; params()
returns views of ``flat``, and a backward pass writes ``grad`` and returns at
most the input gradient, so one Adam pass steps an owner.  A backward pass
overwrites the gradients of the one before it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, TrainingError, config_errors, json_fields, json_floats, read_json

CHECKPOINT_VERSION = 1

LOG_2PI = np.log(2.0 * np.pi)
INIT_LOG_STD = -0.5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ACTIVATIONS = ("tanh", "identity")


def check_checkpoint_version(d: dict) -> None:
    """Raise ConfigError unless a checkpoint dict carries CHECKPOINT_VERSION, an int (not a bool or a float)."""
    (version,) = json_fields(d, "version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint version {version!r}, this build reads {CHECKPOINT_VERSION}")


def views(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of ``flat`` with the given shapes, laid out one after another."""
    out, lo = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(flat[lo : lo + n].reshape(shape))
        lo += n
    return out


def pack(parts: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """(flat, grad, segments): the 1-D ``parts`` copied into one new vector, a
    gradient vector of its size, and one (parameter, gradient) pair of segments per part."""
    flat = np.concatenate(parts)
    grad = np.empty_like(flat)
    shapes = [part.shape for part in parts]
    return flat, grad, list(zip(views(flat, shapes), views(grad, shapes)))


def check_unowned(**blocks) -> None:
    """ContractViolation naming a block given twice or already owned (a bound block's ``flat`` views its owner's)."""
    for k, (name, block) in enumerate(blocks.items()):
        if block.flat.base is not None or any(block is other for other in list(blocks.values())[:k]):
            raise ContractViolation(f"the {name} block is given twice or already has an owner")


def _act(x: np.ndarray, kind: str) -> None:
    """Apply the activation, one of ACTIVATIONS, to ``x`` in place."""
    if kind == "tanh":
        np.tanh(x, out=x)


class DenseNet:
    """Chain of affine layers, each followed by tanh or identity."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], activations: list[str]):
        if not (len(weights) == len(biases) == len(activations)):
            raise ContractViolation("layer lists must have equal length")
        for k in range(1, len(weights)):
            if weights[k].shape[1] != weights[k - 1].shape[0]:
                raise ContractViolation(f"layer {k} input dim does not chain")
        for w, b in zip(weights, biases):
            if b.shape != (w.shape[0],):
                raise ContractViolation("bias shape must match layer output")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ContractViolation(f"unknown activation {act!r}, expected one of {ACTIVATIONS}")
        self.weights = weights
        self.biases = biases
        self.activations = activations
        self._shapes = [p.shape for p in self.params()]
        flat, grad, _ = pack([p.ravel() for p in self.params()])
        self.bind(flat, grad)

    def bind(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Hold the parameters as views of ``flat`` and the gradients as views of ``grad``, in params() order."""
        params = views(flat, self._shapes)
        self.flat, self.grad, self.weights, self.biases = flat, grad, params[0::2], params[1::2]
        self._grads = views(grad, self._shapes)

    @classmethod
    def create(cls, sizes: Sequence[int], activations: Sequence[str], rng: np.random.Generator) -> "DenseNet":
        """Xavier-uniform initialized net with the given layer sizes."""
        if len(sizes) < 2 or len(activations) != len(sizes) - 1:
            raise ContractViolation("need sizes [in, h1, ..., out] and one activation per layer")
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, list(activations))

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward_cached(x)
        return y

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (output, cache); cache holds each layer's input and output."""
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[-1] != self.in_dim:
            raise ContractViolation(f"expected input dim {self.in_dim}, got {h.shape[-1]}")
        cache = [h]
        for w, b, act in zip(self.weights, self.biases, self.activations):
            h = h @ w.T  # a fresh array, so the bias add and activation run in place on it
            h += b
            _act(h, act)
            cache.append(h)
        return (h[0] if squeeze else h), cache

    def backward(self, cache: list[np.ndarray], upstream: np.ndarray, *, input_grad: bool = True) -> np.ndarray | None:
        """Exact gradients for the cached forward pass, written into ``grad``.

        ``upstream`` is dLoss/d(output) per sample, shape (batch, out_dim) or
        (out_dim,).  Returns dLoss/d(input), or None when ``input_grad`` is false.
        """
        upstream = np.asarray(upstream, dtype=float)
        squeeze = upstream.ndim == 1
        d = upstream[None, :] if squeeze else upstream
        grads = self._grads
        for k in range(len(self.weights) - 1, -1, -1):
            if self.activations[k] == "tanh":
                out_k = cache[k + 1]
                dt = out_k * out_k  # d * (1 - out^2), built on one temporary
                np.subtract(1.0, dt, out=dt)
                dt *= d
                d = dt
            d.sum(axis=0, out=grads[2 * k + 1])
            np.matmul(d.T, cache[k], out=grads[2 * k])
            if k > 0 or input_grad:
                d = d @ self.weights[k]
        if not input_grad:
            return None
        return d[0] if squeeze else d

    def to_dict(self) -> dict:
        return {
            "shapes": [list(w.shape) for w in self.weights],
            "activations": list(self.activations),
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DenseNet":
        shapes, activations, weights, biases = json_fields(d, "shapes", "activations", "weights", "biases", what="dense net")
        try:
            weights = [json_floats(w, "dense net weights").reshape(shape) for w, shape in zip(weights, shapes, strict=True)]
            biases = [json_floats(b, "dense net biases") for b in biases]
            activations = list(activations)
            if any(w.ndim != 2 for w in weights):
                raise ValueError("every layer shape must be [out, in]")
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dense net weights do not fit their shapes {shapes}: {exc}") from exc
        with config_errors("dense net"):
            return cls(weights, biases, activations)


class GaussianPolicyHead:
    """Diagonal Gaussian policy: mean from a DenseNet, trainable log-std."""

    def __init__(self, mean_net: DenseNet, log_std: np.ndarray):
        if log_std.shape != (mean_net.out_dim,):
            raise ContractViolation("log_std must match the action dimension")
        check_unowned(mean_net=mean_net)
        self.mean_net = mean_net
        self.flat, self.grad, (net_part, (self.log_std, self.log_std_grad)) = pack([mean_net.flat, log_std])
        mean_net.bind(*net_part)

    @classmethod
    def create(cls, obs_dim: int, action_dim: int, hidden: Sequence[int], rng: np.random.Generator) -> "GaussianPolicyHead":
        sizes = [obs_dim, *hidden, action_dim]
        acts = ["tanh"] * len(hidden) + ["identity"]
        return cls(DenseNet.create(sizes, acts, rng), np.full(action_dim, INIT_LOG_STD))

    def params(self) -> list[np.ndarray]:
        return self.mean_net.params() + [self.log_std]

    def mean(self, obs: np.ndarray) -> np.ndarray:
        return self.mean_net.forward(obs)

    def log_prob_of(self, diff: np.ndarray) -> np.ndarray:
        """Log-density of the deviations ``diff`` = action - mu."""
        z = diff / np.exp(self.log_std)
        z *= z  # z * z + 2 log_std + log 2 pi, built in place in that order
        z += 2.0 * self.log_std
        z += LOG_2PI
        return -0.5 * np.add.reduce(z, axis=-1)

    def log_prob_cached(self, obs: np.ndarray, action: np.ndarray):
        """(log_prob, mu, cache) for a later backward pass; the cache holds action - mu and the variance."""
        mu, net_cache = self.mean_net.forward_cached(obs)
        diff = action - mu
        return self.log_prob_of(diff), mu, (net_cache, diff, np.exp(2.0 * self.log_std))

    def backward_log_prob(self, cache: tuple, upstream: np.ndarray, d_mu_other: np.ndarray | float = 0.0) -> None:
        """Writes the gradients of sum_i upstream_i * log_prob_i into ``grad``.

        ``d_mu_other`` is the gradient reaching the mean from other loss
        terms; it joins the log-prob term before the one mean-net backward.
        Callers add further log-std terms into ``log_std_grad``.
        """
        net_cache, diff, var = cache
        d_mu = upstream[..., None] * diff / var + d_mu_other
        self.mean_net.backward(net_cache, d_mu, input_grad=False)
        z2 = diff * diff / var
        (upstream[..., None] * (z2 - 1.0)).reshape(-1, self.log_std.size).sum(axis=0, out=self.log_std_grad)

    def entropy(self) -> float:
        """Closed form: sum(log_std + 0.5 log(2 pi e)); obs-independent."""
        return float(np.add.reduce(self.log_std + 0.5 * (LOG_2PI + 1.0)))

    def kl_divergence(
        self, mu_old: np.ndarray, log_std_old: np.ndarray, mu_new: np.ndarray, var_new: np.ndarray, scale: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """KL(old || new) per sample for diagonal Gaussians (new std = current), and its gradients.

        ``var_new`` is the current variance, as a log_prob_cached cache holds
        it.  Returns (kl, d_mu, d_log_std): the gradients of scale * sum_i KL_i
        with respect to ``mu_new`` and the current log-std.
        """
        var_old = np.exp(2.0 * log_std_old)
        spread = var_old + (mu_old - mu_new) ** 2
        kl = np.add.reduce(self.log_std - log_std_old + spread / (2.0 * var_new) - 0.5, axis=-1)
        d_mu = scale * (mu_new - mu_old) / var_new
        d_log_std = scale * (1.0 - spread / var_new).reshape(-1, self.log_std.size).sum(axis=0)
        return kl, d_mu, d_log_std

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "mean_net": self.mean_net.to_dict(),
            "log_std": self.log_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianPolicyHead":
        check_checkpoint_version(d)
        mean_net, log_std = json_fields(d, "mean_net", "log_std")
        with config_errors("checkpoint log_std"):
            return cls(DenseNet.from_dict(mean_net), json_floats(log_std, "checkpoint log_std"))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "GaussianPolicyHead":
        return cls.from_dict(read_json(path))


class Adam:
    """Standard bias-corrected Adam over one flat parameter vector.

    Both moments are flat vectors of the same length; the decay rates and
    epsilon are ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.
    """

    def __init__(self, params: np.ndarray, lr: float = 1e-4):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(params.size)
        self.v = np.zeros_like(self.m)

    def step(self, params: np.ndarray, grads: np.ndarray) -> float:
        """In-place update of the flat ``params`` from the flat ``grads``; returns the gradient's L2 norm.

        Raises TrainingError on a non-finite gradient, before any state changes.
        """
        if params.shape != self.m.shape or grads.shape != self.m.shape:
            raise ContractViolation("params/grads do not match optimizer state")
        sq = grads @ grads  # a sum of squares is finite only if every entry is
        if not np.isfinite(sq) and not np.isfinite(grads).all():
            raise TrainingError("non-finite gradient in Adam step")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        # the per-element arithmetic, in the same order, of
        #   m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g
        #   p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        tmp = (1.0 - ADAM_BETA1) * grads
        self.m *= ADAM_BETA1
        self.m += tmp
        np.multiply(1.0 - ADAM_BETA2, grads, out=tmp)
        tmp *= grads
        self.v *= ADAM_BETA2
        self.v += tmp
        step = self.m / bc1
        step *= self.lr
        np.divide(self.v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        params -= step
        return float(np.sqrt(sq))
