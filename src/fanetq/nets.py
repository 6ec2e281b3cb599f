"""Minimal dense-network stack with exact reverse-mode gradients.

Sized for the hundreds-of-weights networks this project trains: plain numpy
forward/backward over affine+tanh chains, a diagonal-Gaussian policy head
with state-independent log-std, and bias-corrected Adam.  Batched inputs use
the leading axis; a forward pass also takes further leading axes, as in the
(episodes, n_aircraft, obs_dim) observations of a block of episodes.  Backward
computes gradients of the *sum* of per-sample contributions, so callers pass
upstream values already scaled for means.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, TrainingError, read_json

CHECKPOINT_VERSION = 1

LOG_2PI = np.log(2.0 * np.pi)


def check_checkpoint_version(d: dict) -> None:
    """Raise ConfigError unless a checkpoint dict carries CHECKPOINT_VERSION."""
    if "version" not in d:
        raise ConfigError("checkpoint has no version")
    if d["version"] != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint version {d['version']!r}, this build reads {CHECKPOINT_VERSION}")


def _act(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(x)
    if kind == "identity":
        return x
    raise ContractViolation(f"unknown activation {kind!r}")


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
        self.weights = weights
        self.biases = biases
        self.activations = activations

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

    @property
    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

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
            h = _act(h @ w.T + b, act)
            cache.append(h)
        return (h[0] if squeeze else h), cache

    def backward(self, cache: list[np.ndarray], upstream: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Exact gradients for the cached forward pass.

        ``upstream`` is dLoss/d(output) per sample, shape (batch, out_dim) or
        (out_dim,).  Returns (param grads in params() order, dLoss/d(input)).
        """
        upstream = np.asarray(upstream, dtype=float)
        squeeze = upstream.ndim == 1
        d = upstream[None, :] if squeeze else upstream
        grads: list[np.ndarray] = []
        for k in range(len(self.weights) - 1, -1, -1):
            out_k = cache[k + 1]
            if self.activations[k] == "tanh":
                d = d * (1.0 - out_k * out_k)
            dw = d.T @ cache[k]
            db = d.sum(axis=0)
            grads.append(db)
            grads.append(dw)
            d = d @ self.weights[k]
        grads.reverse()
        return grads, (d[0] if squeeze else d)

    def to_dict(self) -> dict:
        return {
            "shapes": [list(w.shape) for w in self.weights],
            "activations": list(self.activations),
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DenseNet":
        weights = [np.asarray(w).reshape(shape) for w, shape in zip(d["weights"], d["shapes"])]
        biases = [np.asarray(b) for b in d["biases"]]
        return cls(weights, biases, list(d["activations"]))


class GaussianPolicyHead:
    """Diagonal Gaussian policy: mean from a DenseNet, trainable log-std."""

    def __init__(self, mean_net: DenseNet, log_std: np.ndarray):
        if log_std.shape != (mean_net.out_dim,):
            raise ContractViolation("log_std must match the action dimension")
        self.mean_net = mean_net
        self.log_std = log_std

    @classmethod
    def create(
        cls,
        obs_dim: int,
        action_dim: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
        init_log_std: float = -0.5,
    ) -> "GaussianPolicyHead":
        sizes = [obs_dim, *hidden, action_dim]
        acts = ["tanh"] * len(hidden) + ["identity"]
        return cls(DenseNet.create(sizes, acts, rng), np.full(action_dim, init_log_std))

    @property
    def parameter_count(self) -> int:
        return self.mean_net.parameter_count + self.log_std.size

    def params(self) -> list[np.ndarray]:
        return self.mean_net.params() + [self.log_std]

    def mean(self, obs: np.ndarray) -> np.ndarray:
        return self.mean_net.forward(obs)

    def sample(self, obs: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(action, log density, mean) for action ~ Normal(mean(obs), exp(log_std)^2).

        One ``rng.standard_normal`` draw of the action's shape per call.
        """
        mu = self.mean_net.forward(obs)
        action = mu + np.exp(self.log_std) * rng.standard_normal(mu.shape)
        return action, self._log_prob(mu, action), mu

    def _log_prob(self, mu: np.ndarray, action: np.ndarray) -> np.ndarray:
        z = (action - mu) / np.exp(self.log_std)
        return -0.5 * np.sum(z * z + 2.0 * self.log_std + LOG_2PI, axis=-1)

    def log_prob(self, obs: np.ndarray, action: np.ndarray) -> np.ndarray:
        return self._log_prob(self.mean_net.forward(obs), action)

    def log_prob_cached(self, obs: np.ndarray, action: np.ndarray):
        """(log_prob, mu, forward cache) for a later backward pass."""
        mu, cache = self.mean_net.forward_cached(obs)
        return self._log_prob(mu, action), mu, cache

    def backward_log_prob(
        self,
        cache: list[np.ndarray],
        mu: np.ndarray,
        action: np.ndarray,
        upstream: np.ndarray,
        d_mu_other: np.ndarray | float = 0.0,
    ) -> list[np.ndarray]:
        """Gradients of sum_i upstream_i * log_prob_i in params() order.

        ``d_mu_other`` is the gradient reaching the mean from other loss
        terms; it joins the log-prob term before the one mean-net backward.
        """
        var = np.exp(2.0 * self.log_std)
        diff = action - mu
        d_mu = upstream[..., None] * diff / var + d_mu_other
        net_grads, _ = self.mean_net.backward(cache, d_mu)
        z2 = diff * diff / var
        d_log_std = (upstream[..., None] * (z2 - 1.0)).reshape(-1, self.log_std.size).sum(axis=0)
        return net_grads + [d_log_std]

    def entropy(self) -> float:
        """Closed form: sum(log_std + 0.5 log(2 pi e)); obs-independent."""
        return float(np.sum(self.log_std + 0.5 * (LOG_2PI + 1.0)))

    def kl_divergence(self, mu_old: np.ndarray, log_std_old: np.ndarray, mu_new: np.ndarray) -> np.ndarray:
        """KL(old || new) per sample for diagonal Gaussians (new std = current)."""
        var_new = np.exp(2.0 * self.log_std)
        var_old = np.exp(2.0 * log_std_old)
        return np.sum(
            self.log_std - log_std_old + (var_old + (mu_old - mu_new) ** 2) / (2.0 * var_new) - 0.5,
            axis=-1,
        )

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "mean_net": self.mean_net.to_dict(),
            "log_std": self.log_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianPolicyHead":
        check_checkpoint_version(d)
        return cls(DenseNet.from_dict(d["mean_net"]), np.asarray(d["log_std"]))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "GaussianPolicyHead":
        return cls.from_dict(read_json(path))


class Adam:
    """Standard bias-corrected Adam over a list of parameter arrays."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """In-place update; raises TrainingError on non-finite gradients."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ContractViolation("params/grads do not match optimizer state")
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise TrainingError("non-finite gradient in Adam step")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
