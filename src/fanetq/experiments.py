"""Experiment runner: scenario registry, calibration, campaigns, metrics, export.

Scenario geometry carries no physical units; the communication range is
calibrated so uniform-random agents reproduce the published baseline episode
rewards (60.20 on 4A1S, 84.88 on 5A2S).  The packaged scenario files freeze
the ranges an earlier search found (0.6406, 0.637); `calibrate` bisects the
range on one fixed bank of episodes and, at its defaults, lands near them
(0.6417, 0.6453) but not on them.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .critics import SolutionId, build_critic, save_critic
from .env import ScenarioConfig, open_loop_rewards, run_episodes
from .errors import CalibrationError, ConfigError, ContractViolation, check_int
from .mappo import Trainer, TrainerConfig
from .qmetrics import entanglement_capability, expressibility, sample_states
from .qsim import VqcSpec

CURVE_HEADER = ["env_steps", "cr_mean", "cr_std", "actor_loss", "critic_loss"]
QMETRICS_HEADER = [
    "circuit_id",
    "L",
    "scaling_fn",
    "ent_mean",
    "ent_std",
    "expr_mean",
    "expr_std",
    "n_samples",
    "seed",
]

SCENARIO_BASELINES = {
    "4a1s": {"target_cr_rand": 60.20, "tolerance": 2.0},
    "5a2s": {"target_cr_rand": 84.88, "tolerance": 3.0},
}

SEED_CSV = re.compile(r"seed(0|[1-9][0-9]*)\.csv")
CCR_WINDOW_START = 1_000_000
CS_FACTOR = 1.25
CALIBRATION_WIDTH = 1e-3  # bisection stops below this bracket width, in units of world_side


@contextmanager
def csv_rows(path: str | Path, header: list[str]):
    """Write a UTF-8, LF-terminated CSV: the header now, then one row per ``write(row)``.

    ``write`` takes a dict with every header key and flushes the row to disk,
    so a run that dies leaves every row written so far readable.  Missing
    parent directories are created.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        fh.flush()

        def write(row: dict) -> None:
            writer.writerow({k: row[k] for k in header})
            fh.flush()

        yield write


def load_scenario(name_or_path: str) -> ScenarioConfig:
    """Resolve a packaged scenario name (4a1s, 5a2s) or a config file path."""
    if name_or_path in SCENARIO_BASELINES:
        ref = resources.files("fanetq") / "scenarios" / f"{name_or_path}.json"
        return ScenarioConfig.from_dict(json.loads(ref.read_text()))
    path = Path(name_or_path)
    if path.exists():
        return ScenarioConfig.load(path)
    raise ConfigError(f"unknown scenario {name_or_path!r}: not a registry name or file")


def random_baseline_cr(cfg: ScenarioConfig, episodes: int, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo mean/std of episode CR under uniform-random actions, each run_episodes block one open-loop pass."""
    check_int(episodes, "episodes", 1)
    check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed + 10_000_019)

    def rewards_of(world):
        # one draw per block, episode-major: the stream reads as one (n_aircraft, action_dim) draw per step
        actions = rng.uniform(0.0, 1.0, size=(len(world.vel), cfg.horizon, cfg.n_aircraft, cfg.action_dim))
        return open_loop_rewards(world, actions, cfg)  # the policy reads no observation, so none is built

    crs = run_episodes(cfg, range(seed, seed + episodes), rewards_of)
    return float(crs.mean()), float(crs.std())


def calibrate(
    base_cfg: ScenarioConfig, target_cr: float, tolerance: float, episodes: int = 2000, seed: int = 0
) -> tuple[ScenarioConfig, list[dict]]:
    """Find the comm_range at which random agents hit the target CR, by bisection on one bank of episodes.

    Every probe is ``random_baseline_cr`` at the same (episodes, seed), so every probe scores the same
    episodes and the CR should not fall as the range grows; CalibrationError, with the sweep attached, is
    raised where the probes, ordered by range, show it falling.  The bracket runs from 0, where no link forms,
    to a distance no two entities ever exceed, past which no range scores more; it is halved until it is
    narrower than CALIBRATION_WIDTH * world_side.  Each probe adds a sweep row: its range, CR, the CR's
    standard error and the bracket after it.  Returns the probed end of the final bracket whose CR is
    closer to the target; raises CalibrationError with the sweep attached when that CR is outside the
    tolerance, which is also where an unreachable target ends, and ConfigError when the high end overflows.
    """
    if not (target_cr > 0 and math.isfinite(target_cr)):
        raise ContractViolation(f"target CR must be positive and finite, got {target_cr}")
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise ContractViolation(f"tolerance must be positive and finite, got {tolerance}")
    # each coordinate gap starts within world_side and grows by at most 2 v_max a step
    low, high = 0.0, math.sqrt(2) * (base_cfg.world_side + 2 * base_cfg.v_max * base_cfg.horizon)
    if not math.isfinite(high):
        raise ConfigError(f"calibration bracket sqrt(2) * (world_side + 2 * v_max * horizon) overflows at "
                          f"world_side={base_cfg.world_side!r}, v_max={base_cfg.v_max!r}, horizon={base_cfg.horizon}")
    sweep, ends = [], {}  # ends[True] is the probed low end, below the target; ends[False] the high end
    while high - low >= CALIBRATION_WIDTH * base_cfg.world_side:
        rc = 0.5 * (low + high)
        mean, std = random_baseline_cr(replace(base_cfg, comm_range=rc), episodes, seed)
        below = mean < target_cr
        low, high = (rc, high) if below else (low, rc)
        ends[below] = {
            "comm_range": rc,
            "episodes": episodes,
            "cr_mean": mean,
            "cr_se": std / math.sqrt(episodes),
            "bracket": (low, high),
        }
        sweep.append(ends[below])
    by_range = sorted(sweep, key=lambda row: row["comm_range"])
    for a, b in zip(by_range, by_range[1:]):
        if b["cr_mean"] < a["cr_mean"]:
            raise CalibrationError(
                f"the bank is not monotone: CR falls from {a['cr_mean']:.4f} at comm_range={a['comm_range']:.6f} "
                f"to {b['cr_mean']:.4f} at comm_range={b['comm_range']:.6f}",
                sweep,
            )
    best = min(ends.values(), key=lambda row: abs(row["cr_mean"] - target_cr))
    if abs(best["cr_mean"] - target_cr) > tolerance:
        raise CalibrationError(
            f"closest comm_range={best['comm_range']:.6f} in the final bracket [{low:.6f}, {high:.6f}] "
            f"measured CR {best['cr_mean']:.2f}, outside {target_cr} +/- {tolerance}",
            sweep,
        )
    return replace(base_cfg, comm_range=best["comm_range"]), sweep


# ---------------------------------------------------------------------------
# Training campaigns
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Evaluation curve plus identity for one (solution, scenario, seed) run."""

    solution: str
    scenario: str
    seed: int
    curve: list[dict] = field(default_factory=list)

    @classmethod
    def load_csv(cls, path: str | Path, solution: str, scenario: str, seed: int) -> "RunRecord":
        curve = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CURVE_HEADER:
                raise ContractViolation(f"bad curve header in {path}: {reader.fieldnames}")
            for row in reader:
                try:
                    if len(row) != len(CURVE_HEADER) or None in row.values():
                        raise ValueError(f"expected {len(CURVE_HEADER)} cells")
                    curve.append({key: (int if key == "env_steps" else float)(row[key]) for key in CURVE_HEADER})
                except ValueError as exc:
                    raise ConfigError(f"malformed curve row in {path} line {reader.line_num}: {exc}") from exc
        return cls(solution=solution, scenario=scenario, seed=seed, curve=curve)


def run_path(out_dir: str | Path, scenario: str, solution: str, seed: int) -> Path:
    return Path(out_dir) / scenario / solution / f"seed{seed}.csv"


def run_training(
    solution: str,
    scenario: str,
    seeds: list[int],
    total_steps: int,
    out_dir: str | Path,
    trainer_cfg: TrainerConfig | None = None,
) -> list[RunRecord]:
    """One RunRecord per seed; curves appended to disk as they grow, then the actor and critic checkpoints.

    The critic is built before anything is written, so a solution the
    scenario does not define, like a bad seed or step count, leaves no files behind.
    """
    SolutionId.parse(solution)
    for seed in seeds:
        check_int(seed, "seed", 0)
    check_int(total_steps, "total_steps", None)
    if total_steps < 1:
        raise ContractViolation(f"total_steps must be positive, got {total_steps}")
    tcfg = trainer_cfg or TrainerConfig()
    if total_steps < tcfg.eval_interval:  # a run that records no evaluation point leaves a header-only curve
        raise ContractViolation(f"total_steps must be at least eval_interval {tcfg.eval_interval}, got {total_steps}")
    cfg = load_scenario(scenario)
    records = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 2])
        critic = build_critic(solution, scenario, cfg.global_obs_dim, rng, lr=tcfg.lr, spsa_seed=seed)
        csv_path = run_path(out_dir, scenario, solution, seed)
        with csv_rows(csv_path, CURVE_HEADER) as write:
            trainer = Trainer(cfg, critic, tcfg, seed=seed)
            curve = trainer.train(total_steps, on_eval=write)  # a run that dies leaves its rows so far on disk
        trainer.actor.save(csv_path.with_name(f"seed{seed}_actor.json"))
        save_critic(critic, csv_path.with_name(f"seed{seed}_critic.json"))
        records.append(RunRecord(solution=solution, scenario=scenario, seed=seed, curve=curve))
    return records


def load_records(out_dir: str | Path, scenario: str, solutions: list[str]) -> dict[str, list[RunRecord]]:
    """The persisted curves of each solution that has any; ConfigError when none of them has."""
    base = Path(out_dir) / scenario
    found = {}
    for solution in solutions:
        # only the seed<k>.csv names run_path writes; a stray seed0_old.csv is not a curve
        paths = [path for path in sorted((base / solution).glob("seed*.csv")) if SEED_CSV.fullmatch(path.name)]
        if paths:
            found[solution] = [RunRecord.load_csv(path, solution, scenario, int(path.stem[4:])) for path in paths]
    if not found:
        raise ConfigError(f"no curves for {', '.join(solutions)} under {base}")
    return found


# ---------------------------------------------------------------------------
# Derived metrics and export
# ---------------------------------------------------------------------------


def aggregate_curves(records: list[RunRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean curve across seeds (per step index) with standard-error band.

    Curves are truncated to the shortest record.
    """
    if not records:
        raise ContractViolation("no records to aggregate")
    n_points = min(len(r.curve) for r in records)
    if n_points == 0:
        raise ContractViolation("empty curve in records")
    steps = np.array([p["env_steps"] for p in records[0].curve[:n_points]], dtype=float)
    for r in records:
        other = np.array([p["env_steps"] for p in r.curve[:n_points]], dtype=float)
        if not np.array_equal(steps, other):
            raise ContractViolation("records sample different env_steps grids")
    crs = np.array([[p["cr_mean"] for p in r.curve[:n_points]] for r in records])
    mean = crs.mean(axis=0)
    se = crs.std(axis=0, ddof=0) / math.sqrt(len(records))
    return steps, mean, se


def derive_metrics(records: list[RunRecord], cr_rand: float) -> dict:
    """MCR / CCR / CS from the seed-aggregated curve.

    MCR: max of the aggregated curve.  CCR: mean over points past 10^6 env
    steps (NaN when the run is shorter).  CS: first env_steps, in thousands,
    where the aggregated curve reaches 1.25 * cr_rand; None if never.
    """
    steps, mean, _ = aggregate_curves(records)
    threshold = CS_FACTOR * cr_rand
    mcr = float(mean.max())
    tail = mean[steps > CCR_WINDOW_START]
    ccr = float(tail.mean()) if tail.size else float("nan")
    crossed = np.nonzero(mean >= threshold)[0]
    cs = float(steps[crossed[0]] / 1000.0) if crossed.size else None
    return {"mcr": mcr, "ccr": ccr, "cs": cs, "threshold": threshold}


def ema_smooth(series: np.ndarray, factor: float) -> np.ndarray:
    """Exponential moving average; factor 0 returns the raw series."""
    if not 0.0 <= factor < 1.0:
        raise ContractViolation("EMA factor must be in [0, 1)")
    out = np.empty_like(np.asarray(series, dtype=float))
    acc = None
    for i, x in enumerate(series):
        acc = x if acc is None else factor * acc + (1.0 - factor) * x
        out[i] = acc
    return out


def export_records(
    records: list[RunRecord],
    out_dir: str | Path,
    fmt: str = "csv",
    smoothing: float = 0.0,
) -> list[Path]:
    """Write per-solution aggregated curves with SE bands and an EMA series.

    Derived metrics always use unsmoothed curves; the EMA column is
    presentation-only.  Returns the written paths.
    """
    if fmt not in ("csv", "json"):
        raise ContractViolation("format must be csv or json")
    by_key: dict[tuple[str, str], list[RunRecord]] = {}
    for r in records:
        by_key.setdefault((r.scenario, r.solution), []).append(r)
    out_dir = Path(out_dir)
    written = []
    for (scenario, solution), group in sorted(by_key.items()):
        steps, mean, se = aggregate_curves(group)
        smoothed = ema_smooth(mean, smoothing)
        rows = [
            {
                "env_steps": int(s),
                "cr_mean": float(m),
                "cr_se": float(e),
                "cr_ema": float(sm),
            }
            for s, m, e, sm in zip(steps, mean, se, smoothed)
        ]
        # made only once a table is built, so a bad smoothing factor or curve set writes nothing
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{scenario}_{solution}.{fmt}"
        if fmt == "csv":
            with csv_rows(path, ["env_steps", "cr_mean", "cr_se", "cr_ema"]) as write:
                for row in rows:
                    write(row)
        else:
            payload = {
                "scenario": scenario,
                "solution": solution,
                "n_seeds": len(group),
                "ema_factor": smoothing,
                "curve": rows,
            }
            path.write_text(json.dumps(payload, indent=2) + "\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# Quantum-metric reports
# ---------------------------------------------------------------------------


def qmetrics_report(solutions: list[str], n_samples: int = 5000, seed: int = 0) -> list[dict]:
    """Ent/Expr rows per solution; classical names get a not-applicable row.

    Each circuit's states are sampled once, and both metrics score that ensemble.
    """
    rows, parsed = [], [SolutionId.parse(name) for name in solutions]  # an unknown name stops the report unsampled
    for name, sol in zip(solutions, parsed):
        if sol.kind == "classical":
            rows.append({**dict.fromkeys(QMETRICS_HEADER, ""), "circuit_id": name, "ent_mean": "not applicable"})
            continue
        spec = VqcSpec(n_layers=sol.n_layers, scaling_fn=sol.scaling_fn)
        batches = sample_states(spec, n_samples, seed)
        ent = entanglement_capability(batches)
        expr = expressibility(batches)
        rows.append(
            {
                "circuit_id": name,
                "L": sol.n_layers,
                "scaling_fn": sol.scaling_fn,
                "ent_mean": round(ent.mean, 6),
                "ent_std": round(ent.std, 6),
                "expr_mean": round(expr.mean, 8),
                "expr_std": round(expr.std, 8),
                "n_samples": n_samples,
                "seed": seed,
            }
        )
    return rows


def write_qmetrics_csv(rows: list[dict], path: str | Path) -> None:
    with csv_rows(path, QMETRICS_HEADER) as write:
        for row in rows:
            write(row)
