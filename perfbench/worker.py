"""Benchmark worker: sets up one workload, runs it for a time budget and checks every output.

run.py starts this script with the BLAS thread count already fixed in its
environment, so numpy picks it up at import.  The script prints one JSON
object as its last line of standard output.  In a traced run it first runs the
workload untraced, then wraps the program's module boundaries (see
``install_probes``), runs a fixed number of operations traced and reports
per-layer metrics.  Nothing under ``src/`` is changed: every wrapper is
installed from here, on the attribute a caller looks up at call time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fanetq import critics, env, experiments, mappo, nets, qmetrics, qsim  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, self_times, tail_percentile  # noqa: E402

TRAIN_SCENARIO = "4a1s"
TRAIN_STEPS = 2000  # one rollout/update cycle and two evaluations per operation
QM_SOLUTIONS = ["VQC-1N", "VQC-1A"]
QM_SAMPLES = 500
BASELINE_SCENARIO = "5a2s"
BASELINE_EPISODES = 50
# Operations per criterion-1 check: 40 x 50 = 2000 episodes, as in the
# acceptance test; fewer leave the +/- 3.0 band too close to sampling noise.
BASELINE_CYCLE = 40

# operations run traced in a --trace 1 run; a fixed count makes the count metrics repeat exactly
TRACE_OPS = 4

# Machine-speed calibration: about the wall time of calibration_kernel() on an
# unloaded 2.1 GHz Xeon core.  It only scales the calibrated rates.
CALIBRATION_REF_S = 0.02
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

AMPLITUDES = 2**qsim.N_QUBITS
COMPLEX_BYTES = np.dtype(complex).itemsize
GATE_FUNCTIONS = ("apply_1q", "apply_diag_1q", "apply_cnot", "apply_cphase")


class TrainWorkload:
    """``experiments.run_training`` on one seed into a scratch directory."""

    throughput_name, throughput_unit = "train_env_steps_per_s", "steps/s"
    min_ops = 1

    def __init__(self, solution: str, seed: int, work_dir: Path):
        self.solution, self.seed, self.work_dir = solution, seed, work_dir
        self.scenario = experiments.load_scenario(TRAIN_SCENARIO)
        self.tcfg = mappo.TrainerConfig()
        # what a training run builds before its first step
        critic = critics.build_critic(
            solution,
            TRAIN_SCENARIO,
            self.scenario.global_obs_dim,
            np.random.default_rng([seed, 2]),
            lr=self.tcfg.lr,
            spsa_seed=seed,
        )
        mappo.Trainer(self.scenario, critic, self.tcfg, seed=seed)
        ref = experiments.run_path(ROOT / "runs", TRAIN_SCENARIO, solution, seed)
        self.reference = checks.read_curve(ref) if ref.is_file() else None
        self.first_text: str | None = None

    def run(self, i: int):
        out = tempfile.mkdtemp(dir=self.work_dir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            experiments.run_training(self.solution, TRAIN_SCENARIO, [self.seed], TRAIN_STEPS, out)
        return TRAIN_STEPS, (out, [str(w.message) for w in caught])

    def check(self, i: int, result) -> list[str]:
        out, messages = result
        path = experiments.run_path(out, TRAIN_SCENARIO, self.solution, self.seed)
        text = path.read_text(encoding="utf-8")
        curve = checks.read_curve(path)
        shutil.rmtree(out)
        failures = [m for m in messages if m.startswith("update aborted")]
        if self.reference is not None:
            failures += checks.curve_prefix_failures(curve, self.reference)
        else:
            cr_max = self.scenario.horizon * self.scenario.n_aircraft
            failures += checks.curve_sanity_failures(curve, TRAIN_STEPS, self.tcfg.eval_interval, cr_max)
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            failures.append("curve differs from the first run of this seed")
        return failures


class CharacterizeWorkload:
    """``experiments.qmetrics_report`` (Ent and Expr) for VQC-1N and VQC-1A."""

    throughput_name, throughput_unit = "characterize_samples_per_s", "samples/s"
    min_ops = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        # the specs qmetrics_report builds
        for name in QM_SOLUTIONS:
            sol = critics.SolutionId.parse(name)
            qsim.VqcSpec(n_layers=sol.n_layers, scaling_fn=sol.scaling_fn)
        self.first_rows: list[dict] | None = None

    def run(self, i: int):
        rows = experiments.qmetrics_report(QM_SOLUTIONS, QM_SAMPLES, self.seed)
        # every circuit draws QM_SAMPLES parameter vectors for Ent and again for Expr
        return 2 * len(QM_SOLUTIONS) * QM_SAMPLES, rows

    def check(self, i: int, rows) -> list[str]:
        failures = checks.qmetrics_failures(rows)
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            failures.append("report differs from the first run of this seed")
        return failures


class BaselineWorkload:
    """``experiments.random_baseline_cr`` on 5a2s, 50 episodes per operation.

    Operation i covers episode block i mod 40 of this seed's 2000 episodes.
    When all 40 blocks are done their pooled mean is checked against the
    criterion-1 band; a repeated block must reproduce its first result.
    """

    throughput_name, throughput_unit = "baseline_episodes_per_s", "episodes/s"
    min_ops = BASELINE_CYCLE

    def __init__(self, seed: int, work_dir: Path):
        self.scenario = experiments.load_scenario(BASELINE_SCENARIO)
        baseline = experiments.SCENARIO_BASELINES[BASELINE_SCENARIO]
        self.target, self.tol = baseline["target_cr_rand"], baseline["tolerance"]
        self.first_seed = seed * BASELINE_CYCLE * BASELINE_EPISODES
        self.blocks: dict[int, tuple[float, float]] = {}

    def run(self, i: int):
        block = i % BASELINE_CYCLE
        seed = self.first_seed + block * BASELINE_EPISODES
        return BASELINE_EPISODES, experiments.random_baseline_cr(self.scenario, BASELINE_EPISODES, seed)

    def check(self, i: int, result) -> list[str]:
        mean, std = result
        block = i % BASELINE_CYCLE
        cr_max = self.scenario.horizon * self.scenario.n_aircraft
        failures = []
        if not (0.0 <= mean <= cr_max and math.isfinite(std) and std >= 0.0):
            failures.append(f"block {block}: CR {mean} +/- {std} outside [0, {cr_max}]")
        if block in self.blocks:
            if self.blocks[block] != result:
                failures.append(f"block {block}: {result} differs from its first run {self.blocks[block]}")
            return failures
        self.blocks[block] = result
        if len(self.blocks) == BASELINE_CYCLE:
            pooled = statistics.fmean(m for m, _ in self.blocks.values())
            if abs(pooled - self.target) > self.tol:
                failures.append(f"random-baseline CR {pooled:.3f} outside {self.target} +/- {self.tol}")
        return failures


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "train-nn4":
        return TrainWorkload("NN-4", seed, work_dir)
    if name == "train-vqc1a":
        return TrainWorkload("VQC-1A", seed, work_dir)
    if name == "characterize":
        return CharacterizeWorkload(seed, work_dir)
    if name == "baseline-5a2s":
        return BaselineWorkload(seed, work_dir)
    raise SystemExit(f"unknown workload {name!r}")


def calibration_kernel() -> float:
    """A fixed mix of the kinds of work fanetq does, written here so no change to fanetq can alter it.

    Per-step Python over tiny arrays (pairwise distances, a sort with a key,
    a gate on a few 16-amplitude states, now and then a 256 x 64 dense
    layer), then one-qubit gates on a batch of 256 states.
    """
    rng = np.random.default_rng(12345)
    pos = rng.random((7, 2))
    weights, rows = rng.random((64, 64)), rng.random((256, 64))
    states = rng.random((8, 16)) + 1j * rng.random((8, 16))
    batch = rng.random((256, 16)) + 1j * rng.random((256, 16))
    acc = 0.0
    for i in range(150):
        dist = np.hypot(pos[:, None, 0] - pos[None, :, 0], pos[:, None, 1] - pos[None, :, 1])
        order = sorted(range(7), key=lambda k: (-dist[i % 7, k], k))
        gated = np.moveaxis(states.reshape(8, 2, 2, 2, 2), 1 + i % 4, -1) @ _HADAMARD.T
        acc += float(dist[order[0], order[1]]) + float(np.abs(gated).sum())
        if i % 10 == 0:
            acc += float(np.tanh(rows @ weights.T).sum())
    for i in range(30):
        gated = np.moveaxis(batch.reshape(256, 2, 2, 2, 2), 1 + i % 4, -1) @ _HADAMARD.T
        batch = np.moveaxis(gated, -1, 1 + i % 4).reshape(256, 16)
        acc += float(batch[0, 0].real)
    return acc


def calibration_s() -> float:
    """Fastest of three kernel runs, which drops the first run's cold caches and brief interruptions."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def run_ops(workload, first_index: int, seconds: float, min_ops: int) -> list[dict]:
    """Run operations until ``seconds`` have passed and at least ``min_ops`` are done.

    Only ``workload.run`` is timed; output checks run between operations.  The
    calibration kernel runs before the first operation and after each one;
    ``calib_s`` of an operation is the mean of the two runs around it.
    """
    ops = []
    deadline = time.monotonic() + seconds
    calib_before = calibration_s()
    while len(ops) < min_ops or time.monotonic() < deadline:
        i = first_index + len(ops)
        start = time.perf_counter()
        units, result = workload.run(i)
        elapsed = time.perf_counter() - start
        failures = workload.check(i, result)
        calib_after = calibration_s()
        ops.append(
            {
                "index": i,
                "seconds": elapsed,
                "units": units,
                "calib_s": (calib_before + calib_after) / 2,
                "failures": failures,
            }
        )
        calib_before = calib_after
    return ops


def median_rate(ops: list[dict]) -> float:
    """Median over operations of units per second, as measured."""
    return statistics.median(op["units"] / op["seconds"] for op in ops)


def median_calibrated_rate(ops: list[dict]) -> float:
    """Median over operations of units per second, rescaled to the reference machine speed.

    An operation's rate is multiplied by calib_s / CALIBRATION_REF_S, which
    cancels the slow and fast phases a shared machine goes through when they
    last longer than an operation.
    """
    return statistics.median(op["units"] / op["seconds"] * op["calib_s"] / CALIBRATION_REF_S for op in ops)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _batch_of(x) -> int:
    x = np.asarray(x)
    return x.shape[0] if x.ndim == 2 else 1


def install_probes(tracer: Tracer) -> list:
    """Wrap every layer boundary; returns the list that collects built critics."""
    count = tracer.counters
    built: list = []

    def count_gate(args, kwargs):
        count["qsim.gates"] += 1
        count["qsim.gate_states"] += _batch_of(args[0])

    def count_states(args, kwargs):
        count["qsim.circuit.states"] += _batch_of(args[1])

    def count_rows(args, kwargs):
        count["nets.forward.rows"] += _batch_of(args[1])

    def count_update(args, kwargs):
        trainer, batch = args
        rows = batch.n_steps * batch.n_agents
        count["mappo.actor_minibatches"] += trainer.cfg.epochs * -(-rows // trainer.cfg.minibatch_size)

    def update_outcome(args, kwargs, stats):
        count["mappo.skipped_minibatches"] += stats.skipped_minibatches
        count["mappo.aborted_updates"] += int(stats.aborted)

    def time_curve_rows(args, kwargs):
        if kwargs.get("on_eval") is not None:
            return {**kwargs, "on_eval": tracer.timed("experiments.io", kwargs["on_eval"])}
        return kwargs

    def count_pairs(args, kwargs, counts):
        count["qmetrics.fidelity_pairs"] += int(counts.sum())

    wrap = tracer.wrap
    # env
    wrap(env, "env_step", "env.step")
    wrap(env, "resolve_links", "env.resolve_links")
    wrap(env, "observe_all", "env.observe_all")
    wrap(env, "path_to_ground", "env.path_to_ground")
    wrap(env.FanetEnv, "reset", "env.reset")
    # nets
    wrap(nets.DenseNet, "forward_cached", "nets.forward", before=count_rows)
    wrap(nets.DenseNet, "backward", "nets.backward")
    wrap(nets.Adam, "step", "nets.adam")
    # qsim: circuits from the critic and from the metric sampler, and every gate
    wrap(critics, "vqc_forward", "qsim.circuit", before=count_states)
    wrap(qmetrics, "vqc_state", "qsim.circuit", before=count_states)
    for name in GATE_FUNCTIONS:
        wrap(qsim, name, before=count_gate)
    # critics
    for cls in (critics.ClassicalCritic, critics.QuantumCritic):
        wrap(cls, "value_cached", "critics.value")
        wrap(cls, "backward", "critics.backward")
    wrap(experiments, "build_critic", after=lambda a, k, critic: built.append(critic))
    # mappo
    wrap(mappo, "collect_rollout", "mappo.rollout")
    wrap(mappo, "evaluate", "mappo.evaluate")
    wrap(mappo.Trainer, "update", "mappo.update", before=count_update, after=update_outcome)
    wrap(mappo.Trainer, "train", "mappo.train", before=time_curve_rows)
    # qmetrics
    wrap(qmetrics, "circuit_state_sampler", after=lambda a, k, sampler: tracer.timed("qmetrics.sample", sampler))
    wrap(qmetrics, "meyer_wallach_batch", "qmetrics.meyer_wallach")
    wrap(qmetrics, "fidelity_histogram", "qmetrics.fidelity_histogram", after=count_pairs)
    # experiments: the entry points the workloads call, and checkpoint writes
    wrap(experiments, "run_training", "experiments.run_training")
    wrap(experiments, "qmetrics_report", "experiments.qmetrics_report")
    wrap(experiments, "random_baseline_cr", "experiments.random_baseline")
    wrap(experiments, "save_critic", "experiments.io")
    wrap(nets.GaussianPolicyHead, "save", "experiments.io")
    return built


def layer_metrics(tracer: Tracer, built: list) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of a traced phase."""
    spans = tracer.spans
    busy: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    durations: dict[str, list[int]] = defaultdict(list)
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        busy[name] += end - start
        own[name] += self_ns
        calls[name] += 1
        if name in ("env.step", "mappo.update"):
            durations[name].append(end - start)
    c = tracer.counters

    def s(ns: int) -> float:
        return ns / 1e9

    step_us = [d / 1e3 for d in durations["env.step"]]
    tail = tail_percentile(step_us)
    updates = durations["mappo.update"]
    return {
        "env.step.calls": calls["env.step"],
        "env.step.busy_s": s(busy["env.step"]),
        "env.step.self_s": s(own["env.step"]),
        "env.step.us_p50": statistics.median(step_us) if step_us else 0.0,
        "env.step.us_tail": tail[1] if tail else 0.0,
        "env.step.tail_pct": tail[0] if tail else 0.0,
        "env.resolve_links.busy_s": s(busy["env.resolve_links"]),
        "env.observe_all.busy_s": s(busy["env.observe_all"]),
        "env.path_to_ground.busy_s": s(busy["env.path_to_ground"]),
        "env.reset.calls": calls["env.reset"],
        "nets.forward.calls": calls["nets.forward"],
        "nets.forward.rows": c["nets.forward.rows"],
        "nets.forward.busy_s": s(busy["nets.forward"]),
        "nets.backward.busy_s": s(busy["nets.backward"]),
        "nets.adam.busy_s": s(busy["nets.adam"]),
        "qsim.circuit.calls": calls["qsim.circuit"],
        "qsim.circuit.states": c["qsim.circuit.states"],
        "qsim.circuit.busy_s": s(busy["qsim.circuit"]),
        "qsim.gates": c["qsim.gates"],
        # computed, not measured: each gate reads and writes every amplitude of its batch
        "qsim.amp_bytes": 2 * c["qsim.gate_states"] * AMPLITUDES * COMPLEX_BYTES,
        "critics.value.busy_s": s(busy["critics.value"]),
        "critics.value.self_s": s(own["critics.value"]),
        "critics.backward.busy_s": s(busy["critics.backward"]),
        "critics.backward.self_s": s(own["critics.backward"]),
        "critics.circuit_evaluations": sum(getattr(cr, "circuit_evaluations", 0) for cr in built),
        "critics.spsa_k": sum(cr.spsa.k for cr in built if hasattr(cr, "spsa")),
        "mappo.rollout.busy_s": s(busy["mappo.rollout"]),
        "mappo.rollout.self_s": s(own["mappo.rollout"]),
        "mappo.update.busy_s": s(busy["mappo.update"]),
        "mappo.update.self_s": s(own["mappo.update"]),
        "mappo.update.s_p50": s(statistics.median(updates)) if updates else 0.0,
        "mappo.evaluate.busy_s": s(busy["mappo.evaluate"]),
        "mappo.evaluate.self_s": s(own["mappo.evaluate"]),
        "mappo.actor_minibatches": c["mappo.actor_minibatches"],
        "mappo.skipped_minibatches": c["mappo.skipped_minibatches"],
        "mappo.aborted_updates": c["mappo.aborted_updates"],
        "qmetrics.sample.busy_s": s(busy["qmetrics.sample"]),
        "qmetrics.sample.self_s": s(own["qmetrics.sample"]),
        "qmetrics.meyer_wallach.busy_s": s(busy["qmetrics.meyer_wallach"]),
        "qmetrics.fidelity_histogram.busy_s": s(busy["qmetrics.fidelity_histogram"]),
        "qmetrics.fidelity_pairs": c["qmetrics.fidelity_pairs"],
        "experiments.io_s": s(busy["experiments.io"]),
        "experiments.random_baseline.busy_s": s(busy["experiments.random_baseline"]),
        "experiments.random_baseline.self_s": s(own["experiments.random_baseline"]),
        "trace.spans": len(spans),
    }


# ---------------------------------------------------------------------------
# Run manifest (the parts only a process that imported numpy can see)
# ---------------------------------------------------------------------------

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def blas_threads() -> int | None:
    """Thread count reported by the BLAS library numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() or "mkl" in line.lower()}
    except OSError:
        return None
    for lib in sorted(p for p in libs if p.startswith("/")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def numpy_manifest() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})  # numpy >= 1.26
    return {
        "numpy": np.__version__,
        "blas_library": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() when it started this worker")
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work_dir = args.out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed, work_dir)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return

    result["manifest"] = numpy_manifest()
    result["throughput_name"] = workload.throughput_name
    result["throughput_unit"] = workload.throughput_unit
    if args.trace == 0:
        ru0, wall0 = resource.getrusage(resource.RUSAGE_SELF), time.monotonic()
        ops = run_ops(workload, 0, args.seconds, workload.min_ops)
        ru1, wall1 = resource.getrusage(resource.RUSAGE_SELF), time.monotonic()
        cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        result["cpu_util"] = cpu / (wall1 - wall0)
        result["peak_rss_mb"] = ru1.ru_maxrss / 1024.0  # Linux reports KiB
        result["throughput_per_s"] = median_rate(ops)
        result["calibrated_throughput_per_s"] = median_calibrated_rate(ops)
    else:
        untraced = run_ops(workload, 0, args.seconds / 2, max(1, workload.min_ops - TRACE_OPS))
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}-{time.time_ns()}")
        built = install_probes(tracer)
        try:
            traced = run_ops(workload, len(untraced), 0.0, TRACE_OPS)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer, built)
        untraced_rate, traced_rate = median_calibrated_rate(untraced), median_calibrated_rate(traced)
        layers["trace.ops"] = len(traced)
        layers["trace.untraced_per_s"] = untraced_rate
        layers["trace.traced_per_s"] = traced_rate
        layers["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
        result["layers"] = layers
        spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        ops = untraced + traced
    result["ops"] = ops
    print(json.dumps(result))


if __name__ == "__main__":
    main()
