"""Output checks against reference data committed in the repository.

Each check returns a list of failure messages; an empty list means the output
passed.  Stdlib only.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# Eval-curve columns that must match the committed reference exactly, and the
# relative tolerance for the loss columns.  The losses pass through BLAS
# reductions whose summation order may differ between machines, so they can
# move in the last digits (a few 1e-15 relative has been seen) while the
# evaluation returns stay bit-equal.
EXACT_COLUMNS = ("env_steps", "cr_mean", "cr_std")
LOSS_COLUMNS = ("actor_loss", "critic_loss")
LOSS_RTOL = 1e-9
LOSS_ATOL = 1e-12

# criterion 2 of the acceptance suite (tests/test_acceptance.py): Ent band per circuit
ENT_BANDS = {"VQC-1N": (0.8476, 0.04), "VQC-1A": (0.8043, 0.04)}


def read_curve(path: str | Path) -> tuple[list[str], list[dict[str, str]]]:
    """(header, rows) of a curve CSV, values kept as the text written."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def curve_prefix_failures(
    produced: tuple[list[str], list[dict[str, str]]],
    reference: tuple[list[str], list[dict[str, str]]],
) -> list[str]:
    """The produced curve must equal the first rows of the reference curve.

    ``env_steps``, ``cr_mean`` and ``cr_std`` must be equal as numbers; the
    losses within LOSS_RTOL (relative) or LOSS_ATOL (absolute).
    """
    (p_header, p_rows), (r_header, r_rows) = produced, reference
    if p_header != r_header:
        return [f"header {p_header} differs from reference {r_header}"]
    if not p_rows:
        return ["produced curve is empty"]
    if len(p_rows) > len(r_rows):
        return [f"{len(p_rows)} rows but the reference has only {len(r_rows)}"]
    failures = []
    for i, (got, ref) in enumerate(zip(p_rows, r_rows)):
        for col in EXACT_COLUMNS:
            if float(got[col]) != float(ref[col]):
                failures.append(f"row {i} {col}: {got[col]} != reference {ref[col]}")
        for col in LOSS_COLUMNS:
            if not math.isclose(float(got[col]), float(ref[col]), rel_tol=LOSS_RTOL, abs_tol=LOSS_ATOL):
                failures.append(f"row {i} {col}: {got[col]} vs reference {ref[col]} beyond rtol {LOSS_RTOL}")
    return failures


def curve_sanity_failures(
    produced: tuple[list[str], list[dict[str, str]]],
    total_steps: int,
    eval_interval: int,
    cr_max: float,
) -> list[str]:
    """Checks for seeds without a reference: grid, finite losses, CR in [0, cr_max]."""
    _, rows = produced
    expected_steps = list(range(eval_interval, total_steps + 1, eval_interval))
    got_steps = [int(r["env_steps"]) for r in rows]
    if got_steps != expected_steps:
        return [f"eval grid {got_steps} != {expected_steps}"]
    failures = []
    for i, r in enumerate(rows):
        for col in LOSS_COLUMNS:
            if not math.isfinite(float(r[col])):
                failures.append(f"row {i} {col} is not finite: {r[col]}")
        cr, sd = float(r["cr_mean"]), float(r["cr_std"])
        if not 0.0 <= cr <= cr_max:
            failures.append(f"row {i} cr_mean {cr} outside [0, {cr_max}]")
        if not (math.isfinite(sd) and sd >= 0.0):
            failures.append(f"row {i} cr_std {sd} is not a finite non-negative number")
    return failures


def qmetrics_failures(rows: list[dict]) -> list[str]:
    """Criterion-2 bands on Ent, and the Ent/Expr ordering between VQC-1N and VQC-1A."""
    by_id = {r["circuit_id"]: r for r in rows}
    failures = []
    for cid, (target, tol) in ENT_BANDS.items():
        ent = float(by_id[cid]["ent_mean"])
        if abs(ent - target) > tol:
            failures.append(f"Ent({cid}) = {ent} outside {target} +/- {tol}")
    n, a = by_id["VQC-1N"], by_id["VQC-1A"]
    if not float(n["ent_mean"]) > float(a["ent_mean"]):
        failures.append(f"Ent(VQC-1N) {n['ent_mean']} is not above Ent(VQC-1A) {a['ent_mean']}")
    if not float(a["expr_mean"]) > float(n["expr_mean"]):
        failures.append(f"Expr(VQC-1A) {a['expr_mean']} is not above Expr(VQC-1N) {n['expr_mean']}")
    return failures

