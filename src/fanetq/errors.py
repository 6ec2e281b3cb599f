"""Shared exception types, and the JSON file reader that maps unreadable input to them."""

import json
from pathlib import Path


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


def read_json(path) -> object:
    """The parsed JSON of a file; a missing, unreadable or malformed file raises ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
