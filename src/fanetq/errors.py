"""Shared exception types, and the JSON readers that map unreadable or ill-shaped input to them."""

import json
import numbers
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """A scenario or trainer configuration violates its constraints."""


class ContractViolation(ValueError):
    """A caller broke an operation precondition (wrong shape, bad index, ...)."""


class TrainingError(RuntimeError):
    """Non-finite losses or gradients surfaced during optimization."""


class CalibrationError(RuntimeError):
    """No candidate configuration reached the calibration target."""

    def __init__(self, message: str, sweep: list | None = None):
        super().__init__(message)
        self.sweep = sweep or []


def check_int(value, name: str, low: int | None) -> None:
    """ContractViolation unless ``value`` is an integer, not a bool, of at least ``low``: 1, 0, or None for any."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractViolation(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ContractViolation(f"{name} must be {'positive' if low else 'non-negative'}")


def check_seeds(seed) -> tuple[list, bool]:
    """The seeds of ``seed``, one seed or a non-empty sequence of them, each checked by check_int(s, "seed", 0), and
    whether ``seed`` was one seed."""
    try:
        single = np.ndim(seed) == 0
    except ValueError:  # a ragged nesting, which numpy gives no shape: a sequence whose entries are checked below
        single = False
    seeds = [seed] if single else list(seed)
    for s in seeds or [seed]:  # an empty sequence is checked as a seed itself, and is no integer
        check_int(s, "seed", 0)
    return seeds, single


def read_json(path) -> object:
    """The parsed JSON of a file; a missing, unreadable or malformed file raises ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def json_fields(d: dict, *keys: str, what: str = "checkpoint") -> list:
    """The values of ``keys`` in a parsed JSON object; ConfigError when ``d`` is no object or lacks a key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} is not a JSON object")
    for key in keys:
        if key not in d:
            raise ConfigError(f"{what} has no {key!r}")
    return [d[key] for key in keys]


def json_floats(value, name: str) -> np.ndarray:
    """A parsed JSON list of numbers as a float array; ConfigError naming ``name`` when an entry is a null, a
    bool, a string or any other non-number, when the nesting is ragged, or when a number is NaN or infinite."""
    entries = np.array(value, dtype=object)  # a ragged nesting keeps its inner lists as entries
    if not all(type(v) in (int, float) for v in entries.flat):  # not isinstance, which counts True as an int
        raise ConfigError(f"{name} is not a list of numbers")
    try:
        array = entries.astype(float)
    except OverflowError as exc:
        raise ConfigError(f"{name} holds an integer beyond the float range") from exc
    if not np.isfinite(array).all():
        raise ConfigError(f"{name} holds a NaN or infinite number")
    return array
