"""Command-line front end: calibrate / train / eval / metrics / qmetrics / export."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .critics import ALL_SOLUTIONS, SolutionId, parity_report
from .errors import CalibrationError, ConfigError, ContractViolation
from .experiments import (
    CS_FACTOR,
    SCENARIO_BASELINES,
    calibrate,
    derive_metrics,
    export_records,
    load_records,
    load_scenario,
    qmetrics_report,
    random_baseline_cr,
    run_path,
    run_training,
    write_qmetrics_csv,
)
from .mappo import evaluate
from .nets import GaussianPolicyHead


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s != ""]
    except ValueError:
        seeds = []
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"--seeds must list non-negative integers, got {text!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds lists a seed more than once: {text!r}")
    return seeds


def _check_seed(seed: int) -> None:
    """``--seed`` follows the rule of ``--seeds``: a non-negative integer."""
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")


def _parse_solutions(text: str | None) -> list[str]:
    """Comma-separated solution names, each checked; every solution when none is given."""
    return [SolutionId.parse(name).name for name in text.split(",")] if text else ALL_SOLUTIONS


def cmd_calibrate(args) -> int:
    _check_seed(args.seed)
    base = load_scenario(args.scenario)
    info = SCENARIO_BASELINES.get(args.scenario, {})
    target = args.target if args.target is not None else info.get("target_cr_rand")
    tolerance = args.tolerance if args.tolerance is not None else info.get("tolerance", 2.0)
    if target is None:
        raise ConfigError("--target required for non-registry scenarios")
    try:
        cfg, sweep = calibrate(base, target, tolerance, episodes=args.episodes, seed=args.seed)
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        for row in exc.sweep:
            print(f"  comm_range={row['comm_range']:.6f} episodes={row['episodes']} cr={row['cr_mean']:.2f}", file=sys.stderr)
        return 1
    row = next(row for row in sweep if row["comm_range"] == cfg.comm_range)
    print(f"calibrated comm_range = {cfg.comm_range}")
    print(f"measured random CR    = {row['cr_mean']:.2f} +/- {row['cr_se']:.2f} SE (target {target} +/- {tolerance})")
    print("final bracket         = [{:.6f}, {:.6f}]".format(*sweep[-1]["bracket"]))
    if args.write:
        out = Path(args.out or f"{args.scenario}_calibrated.json")
        cfg.save(out)
        print(f"wrote {out}")
    return 0


def cmd_train(args) -> int:
    seeds = _parse_seeds(args.seeds)
    for path in (run_path(args.out_dir, args.scenario, args.solution, seed) for seed in seeds):
        if path.exists():  # never write over a curve, the committed reference runs included
            raise ConfigError(f"{path} exists; train writes new curves only, so choose another --out-dir")
    records = run_training(args.solution, args.scenario, seeds, args.steps, args.out_dir)
    for rec in records:
        final = rec.curve[-1]["cr_mean"]
        print(f"{rec.solution} {rec.scenario} seed={rec.seed}: {len(rec.curve)} eval points, final CR {final:.2f}")
    return 0


def cmd_eval(args) -> int:
    _check_seed(args.seed)
    cfg = load_scenario(args.scenario)
    if args.checkpoint:
        actor = GaussianPolicyHead.load(args.checkpoint)
        mean, std = evaluate(actor, cfg, args.episodes, args.seed)
        print(f"deterministic policy CR: {mean:.2f} +/- {std:.2f} over {args.episodes} episodes")
    else:
        mean, std = random_baseline_cr(cfg, args.episodes, args.seed)
        print(f"uniform-random CR: {mean:.2f} +/- {std:.2f} over {args.episodes} episodes")
    return 0


def cmd_metrics(args) -> int:
    cr_rand = SCENARIO_BASELINES[args.scenario]["target_cr_rand"]
    found = load_records(args.run_dir, args.scenario, _parse_solutions(args.solution))
    print(f"scenario {args.scenario}: CS threshold = {CS_FACTOR * cr_rand:.2f}")
    for sol, records in found.items():
        m = derive_metrics(records, cr_rand)
        cs = "not reached" if m["cs"] is None else f"{m['cs']:.0f}k"
        print(
            f"  {sol:7s} seeds={len(records)} MCR={m['mcr']:.2f} "
            f"CCR={m['ccr']:.2f} CS={cs}"
        )
    return 0


def cmd_qmetrics(args) -> int:
    _check_seed(args.seed)
    solutions = args.solutions.split(",")
    if len(set(solutions)) < len(solutions):
        raise ConfigError(f"--solutions lists a solution more than once: {args.solutions!r}")
    rows = qmetrics_report(solutions, n_samples=args.samples, seed=args.seed)
    for row in rows:
        if row["ent_mean"] == "not applicable":
            print(f"  {row['circuit_id']:7s} not applicable")
        else:
            print(
                f"  {row['circuit_id']:7s} Ent={row['ent_mean']:.4f}+/-{row['ent_std']:.4f} "
                f"Expr={row['expr_mean']:.6f}+/-{row['expr_std']:.6f}"
            )
    if args.out:
        write_qmetrics_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_export(args) -> int:
    found = load_records(args.run_dir, args.scenario, _parse_solutions(args.solution))
    records = [r for group in found.values() for r in group]
    paths = export_records(records, args.out_dir, fmt=args.format, smoothing=args.ema)
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_parity(args) -> int:
    cfg = load_scenario(args.scenario)
    for row in parity_report(args.scenario, cfg.global_obs_dim):
        print(
            f"  {row['classical']:6s} vs {row['quantum']:7s}: "
            f"{row['tw_classical']} / {row['tw_quantum']} weights, gap {row['rel_gap']*100:.2f}%"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fanetq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("calibrate", help="calibrate comm_range against the random baseline")
    c.add_argument("--scenario", required=True)
    c.add_argument("--target", type=float, default=None)
    c.add_argument("--tolerance", type=float, default=None)
    c.add_argument("--episodes", type=int, default=2000, help="episodes in the bank every probe measures")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--write", action="store_true", help="write the calibrated scenario file")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_calibrate)

    t = sub.add_parser("train", help="run a seeded training campaign")
    t.add_argument("--solution", required=True, choices=ALL_SOLUTIONS)
    t.add_argument("--scenario", required=True)
    t.add_argument("--seeds", default="0,1,2")
    t.add_argument("--steps", type=int, default=200_000)
    t.add_argument("--out-dir", default="my_runs")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpointed actor (or the random baseline)")
    e.add_argument("--scenario", required=True)
    e.add_argument("--checkpoint", default=None)
    e.add_argument("--episodes", type=int, default=300)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=cmd_eval)

    m = sub.add_parser("metrics", help="derive MCR/CCR/CS from persisted curves")
    m.add_argument("--run-dir", default="runs")
    m.add_argument("--scenario", required=True, choices=sorted(SCENARIO_BASELINES))
    m.add_argument("--solution", default=None)
    m.set_defaults(fn=cmd_metrics)

    q = sub.add_parser("qmetrics", help="entanglement/expressibility report")
    q.add_argument("--solutions", default="VQC-1N,VQC-1A,VQC-2N,VQC-2A,VQC-3N,VQC-3A")
    q.add_argument("--samples", type=int, default=5000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_qmetrics)

    x = sub.add_parser("export", help="aggregated curves with SE bands and EMA smoothing")
    x.add_argument("--run-dir", default="runs")
    x.add_argument("--scenario", required=True, choices=sorted(SCENARIO_BASELINES))
    x.add_argument("--solution", default=None)
    x.add_argument("--ema", type=float, default=0.0)
    x.add_argument("--format", choices=("csv", "json"), default="csv")
    x.add_argument("--out-dir", default="export")
    x.set_defaults(fn=cmd_export)

    w = sub.add_parser("parity", help="weight bookkeeping for compared solution pairs")
    w.add_argument("--scenario", required=True, choices=sorted(SCENARIO_BASELINES))
    w.set_defaults(fn=cmd_parity)

    return p


def main(argv: list[str] | None = None) -> int:
    """Run one command; bad input ends it with a one-line error and exit code 2, as argparse does."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractViolation) as exc:
        print(f"fanetq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
