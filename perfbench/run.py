"""fanetq benchmark: one workload, one seed, one worker process.

    python3 perfbench/run.py --workload train-nn4 --seed 0 --seconds 20 --trace 0

Workloads: train-nn4, train-vqc1a, characterize, baseline-5a2s (see
perfbench/README.md).  With ``--trace 0`` it prints every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` every per-layer metric.  Human-readable
lines come first, then a ``manifest`` line, and the last line of standard
output is the JSON result.  A copy of everything, with the per-operation
timings and check messages, goes to .perfbench_out/.

The worker runs with one BLAS thread, fixed in its environment before numpy is
imported, so that results do not depend on how many cores happen to be free.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("train-nn4", "train-vqc1a", "characterize", "baseline-5a2s")
# setup-only workers started before the measuring worker; setup_s is the
# median over all of them, the measuring worker included
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Start worker.py, wait for it, and return the JSON object it printed last."""
    env = {**os.environ, **BLAS_ENV}
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_manifest() -> dict:
    """Non-blank line count and content hash of src/, the code being measured."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        if path.suffix == ".py":
            lines += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    return {"src_nonblank_lines": lines, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description="fanetq benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        print("seed must be >= 0 and seconds > 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fanetq" / "__init__.py").is_file():
        print(f"no fanetq sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_setting": "one thread: " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()),
        "git_commit": git_commit(),
        **source_manifest(),
        "loadavg_before": list(os.getloadavg()),
    }
    try:
        setups = [] if args.trace else [run_worker(args, deadline, True)["setup_s"] for _ in range(SETUP_PROBES)]
        res = run_worker(args, deadline, False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    manifest["loadavg_after"] = list(os.getloadavg())
    manifest.update(res["manifest"])

    ops = res["ops"]
    failed = sum(1 for op in ops if op["failures"])
    if args.trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "calibrated_throughput_per_s": res["calibrated_throughput_per_s"],
            "cpu_util": res["cpu_util"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"worker did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: {len(ops)} operations")
    if not args.trace:
        print(f"  {res['throughput_name']:<28} {res['throughput_per_s']:.6g} {res['throughput_unit']}"
              f"  (as measured; median over {len(ops)} operations)")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':<28} {failed / len(ops):.6g}  ({failed} of {len(ops)} operations failed a check)")
    for op in ops:
        for message in op["failures"]:
            print(f"  check failed in operation {op['index']}: {message}")
    print("manifest " + json.dumps(manifest))

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {**result, "manifest": manifest, "setup_runs_s": setups, "ops": ops}
    if args.trace:
        record["spans_file"] = res["spans_file"]
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
