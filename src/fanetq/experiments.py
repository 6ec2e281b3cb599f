"""Experiment runner: scenario registry, calibration, campaigns, metrics, export.

Scenario geometry carries no physical units; the communication range is
calibrated so uniform-random agents reproduce the published baseline episode
rewards (60.20 on 4A1S, 84.88 on 5A2S).  Calibrated configs are frozen as
packaged scenario files; `calibrate` re-derives them from scratch.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .critics import ALL_SOLUTIONS, SolutionId, build_critic, save_critic
from .env import ScenarioConfig, run_episodes
from .errors import CalibrationError, ConfigError, ContractViolation
from .mappo import Trainer, TrainerConfig
from .qmetrics import entanglement_capability, expressibility
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

CCR_WINDOW_START = 1_000_000
CS_FACTOR = 1.25


@contextmanager
def csv_rows(path: str | Path, header: list[str]):
    """Write a UTF-8, LF-terminated CSV: the header now, then one row per ``write(row)``.

    ``write`` takes a dict with every header key and flushes the row to disk,
    so a run that dies leaves every row written so far readable.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        fh.flush()

        def write(row: dict) -> None:
            writer.writerow({k: row[k] for k in header})
            fh.flush()

        yield write


def scenario_names() -> list[str]:
    return sorted(SCENARIO_BASELINES)


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
    """Monte-Carlo mean/std of episode CR under uniform-random actions."""
    if episodes < 1:
        raise ContractViolation("episodes must be positive")
    rng = np.random.default_rng(seed + 10_000_019)
    actions = np.empty(0)

    def policy(obs: np.ndarray, t: int) -> np.ndarray:
        # one draw per block, episode-major: the stream reads as one (n_aircraft, action_dim) draw per step
        nonlocal actions
        if t == 0:
            actions = rng.uniform(0.0, 1.0, size=(len(obs), cfg.horizon, cfg.n_aircraft, cfg.action_dim))
        return actions[:, t]

    crs = run_episodes(cfg, range(seed, seed + episodes), policy)
    return float(crs.mean()), float(crs.std())


def calibrate(
    base_cfg: ScenarioConfig,
    target_cr: float,
    tolerance: float,
    grid: tuple[float, float] = (0.1, 1.2),
    coarse_step: float = 0.05,
    episodes_coarse: int = 300,
    episodes_refine: int = 3000,
    seed: int = 0,
) -> tuple[ScenarioConfig, list[dict]]:
    """Find the comm_range at which random agents hit the target CR.

    Grid-searches the (monotone) CR-vs-range curve for a bracket, bisects it,
    then secant-refines at higher episode counts.  Raises CalibrationError
    with the sweep table attached when no candidate lands within tolerance.
    """
    if target_cr <= 0:
        raise ContractViolation("target CR must be positive")
    sweep: list[dict] = []

    def measure(rc: float, episodes: int, salt: int) -> float:
        cfg = _with_range(base_cfg, rc)
        mean, _ = random_baseline_cr(cfg, episodes, seed + salt)
        sweep.append({"comm_range": round(rc, 6), "episodes": episodes, "cr_mean": mean})
        return mean

    lo, hi = grid
    levels = np.arange(lo, hi + 1e-9, coarse_step)
    prev_rc, prev_cr = None, None
    bracket = None
    for k, rc in enumerate(levels):
        cr = measure(float(rc), episodes_coarse, k)
        if cr >= target_cr:
            if prev_rc is None:
                bracket = (float(rc), float(rc))
            else:
                bracket = (prev_rc, float(rc))
            break
        prev_rc, prev_cr = float(rc), cr
    if bracket is None:
        raise CalibrationError(
            f"target CR {target_cr} not reached anywhere on the grid {grid}", sweep
        )

    rc_lo, rc_hi = bracket
    for k in range(10):
        if rc_hi - rc_lo < 1e-4:
            break
        mid = 0.5 * (rc_lo + rc_hi)
        cr = measure(mid, episodes_coarse * 2, 100 + k)
        if cr < target_cr:
            rc_lo = mid
        else:
            rc_hi = mid

    rc_a, rc_b = max(rc_lo - 0.005, lo), min(rc_hi + 0.005, hi)
    cr_a = measure(rc_a, episodes_refine, 200)
    cr_b = measure(rc_b, episodes_refine, 201)
    rc, cr = rc_b, cr_b
    for k in range(3):
        slope = (cr_b - cr_a) / (rc_b - rc_a)
        if slope <= 0:
            break
        rc = float(np.clip(rc_b + (target_cr - cr_b) / slope, lo, hi))
        cr = measure(rc, episodes_refine, 210 + k)
        rc_a, cr_a, rc_b, cr_b = rc_b, cr_b, rc, cr

    refined = [row for row in sweep if row["episodes"] >= episodes_refine]
    pool = refined or sweep
    best = min(pool, key=lambda row: abs(row["cr_mean"] - target_cr))
    final_cfg = _with_range(base_cfg, best["comm_range"])
    final_cr, _ = random_baseline_cr(final_cfg, episodes_refine, seed + 999)
    sweep.append({"comm_range": best["comm_range"], "episodes": episodes_refine, "cr_mean": final_cr})
    if abs(final_cr - target_cr) > tolerance:
        raise CalibrationError(
            f"best candidate comm_range={best['comm_range']} measured CR {final_cr:.2f}, "
            f"outside {target_cr} +/- {tolerance}",
            sweep,
        )
    return final_cfg, sweep


def _with_range(cfg: ScenarioConfig, comm_range: float) -> ScenarioConfig:
    d = cfg.to_dict()
    d["comm_range"] = float(comm_range)
    return ScenarioConfig.from_dict(d)


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

    def save_csv(self, path: str | Path) -> None:
        with csv_rows(path, CURVE_HEADER) as write:
            for p in self.curve:
                write(p)

    @classmethod
    def load_csv(cls, path: str | Path, solution: str, scenario: str, seed: int) -> "RunRecord":
        curve = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CURVE_HEADER:
                raise ContractViolation(f"bad curve header in {path}: {reader.fieldnames}")
            for row in reader:
                curve.append(
                    {
                        "env_steps": int(row["env_steps"]),
                        "cr_mean": float(row["cr_mean"]),
                        "cr_std": float(row["cr_std"]),
                        "actor_loss": float(row["actor_loss"]),
                        "critic_loss": float(row["critic_loss"]),
                    }
                )
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
    scenario_cfg: ScenarioConfig | None = None,
    save_checkpoints: bool = True,
) -> list[RunRecord]:
    """One RunRecord per seed; curves appended to disk as they grow."""
    SolutionId.parse(solution)
    cfg = scenario_cfg or load_scenario(scenario)
    tcfg = trainer_cfg or TrainerConfig()
    records = []
    for seed in seeds:
        csv_path = run_path(out_dir, scenario, solution, seed)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        record = RunRecord(solution=solution, scenario=scenario, seed=seed)
        with csv_rows(csv_path, CURVE_HEADER) as write:
            critic = build_critic(
                solution,
                scenario,
                cfg.global_obs_dim,
                np.random.default_rng([seed, 2]),
                lr=tcfg.lr,
                spsa_seed=seed,
            )
            trainer = Trainer(cfg, critic, tcfg, seed=seed)

            def on_eval(point: dict) -> None:
                record.curve.append(point)
                write(point)

            try:
                trainer.train(total_steps, on_eval=on_eval)
            except Exception:
                records.append(record)  # partial curve stays on disk
                raise
        if save_checkpoints:
            trainer.actor.save(csv_path.with_name(f"seed{seed}_actor.json"))
            save_critic(critic, csv_path.with_name(f"seed{seed}_critic.json"))
        records.append(record)
    return records


def load_records(out_dir: str | Path, scenario: str, solution: str) -> list[RunRecord]:
    base = Path(out_dir) / scenario / solution
    records = []
    for path in sorted(base.glob("seed*.csv")):
        seed = int(path.stem.replace("seed", ""))
        records.append(RunRecord.load_csv(path, solution, scenario, seed))
    if not records:
        raise ConfigError(f"no curves under {base}")
    return records


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
    out_dir.mkdir(parents=True, exist_ok=True)
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
    """Ent/Expr rows per solution; classical names get a not-applicable row."""
    rows = []
    for name in solutions:
        sol = SolutionId.parse(name)
        if sol.kind == "classical":
            rows.append(
                {
                    "circuit_id": name,
                    "L": "",
                    "scaling_fn": "",
                    "ent_mean": "not applicable",
                    "ent_std": "",
                    "expr_mean": "",
                    "expr_std": "",
                    "n_samples": "",
                    "seed": "",
                }
            )
            continue
        spec = VqcSpec(n_layers=sol.n_layers, scaling_fn=sol.scaling_fn)
        ent = entanglement_capability(spec, n_samples=n_samples, seed=seed)
        expr = expressibility(spec, n_samples=n_samples, seed=seed)
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
