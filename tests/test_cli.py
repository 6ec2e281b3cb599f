"""Command-line interface, exercised in-process (and once through ``python -m fanetq``)."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fanetq import experiments
from fanetq.cli import main
from fanetq.nets import GaussianPolicyHead


def test_parity_command(capsys):
    assert main(["parity", "--scenario", "4a1s"]) == 0
    out = capsys.readouterr().out
    assert "NN-4" in out and "VQC-1N" in out
    assert out.count("gap") == 6


PARITY_LINES = {
    "4a1s": [
        "  NN-4   vs VQC-1N : 245 / 247 weights, gap 0.82%",
        "  NN-4   vs VQC-1A : 245 / 247 weights, gap 0.82%",
        "  NN-7   vs VQC-2N : 482 / 481 weights, gap 0.21%",
        "  NN-7   vs VQC-2A : 482 / 481 weights, gap 0.21%",
        "  NN-10  vs VQC-3N : 689 / 689 weights, gap 0.00%",
        "  NN-10  vs VQC-3A : 689 / 689 weights, gap 0.00%",
    ],
    "5a2s": [
        "  NN-4   vs VQC-1N : 417 / 419 weights, gap 0.48%",
        "  NN-4   vs VQC-1A : 417 / 419 weights, gap 0.48%",
        "  NN-8   vs VQC-2N : 849 / 849 weights, gap 0.00%",
        "  NN-8   vs VQC-2A : 849 / 849 weights, gap 0.00%",
        "  NN-11  vs VQC-3N : 1254 / 1255 weights, gap 0.08%",
        "  NN-11  vs VQC-3A : 1254 / 1255 weights, gap 0.08%",
    ],
}


@pytest.mark.parametrize("scenario", sorted(PARITY_LINES))
def test_parity_prints_the_readme_pairs_exactly(capsys, scenario):
    # the totals and gaps of the README's weight-parity table, one line per compared pair
    assert main(["parity", "--scenario", scenario]) == 0
    assert capsys.readouterr().out.splitlines() == PARITY_LINES[scenario]


def test_eval_random_baseline(capsys):
    assert main(["eval", "--scenario", "4a1s", "--episodes", "40", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "uniform-random CR" in out


def test_bad_input_is_a_one_line_error_with_exit_code_2(capsys):
    assert main(["eval", "--scenario", "4a1s", "--episodes", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fanetq: error: episodes must be positive\n"
    assert main(["eval", "--scenario", "no-such-scenario"]) == 2
    assert capsys.readouterr().err.startswith("fanetq: error: unknown scenario 'no-such-scenario'")


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"], ids=["missing", "malformed", "not-utf8"])
def test_unreadable_checkpoint_is_a_one_line_error_with_exit_code_2(tmp_path, capsys, content):
    ckpt = tmp_path / "actor.json"
    if isinstance(content, bytes):
        ckpt.write_bytes(content)
    elif content is not None:
        ckpt.write_text(content)
    assert main(["eval", "--scenario", "4a1s", "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fanetq: error: ") and str(ckpt) in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def actor_checkpoint(**changes) -> dict:
    d = GaussianPolicyHead.create(13, 4, (4,), np.random.default_rng(0)).to_dict()
    d.update(changes)
    return d


def weights_off_their_shape() -> dict:
    d = actor_checkpoint()
    d["mean_net"]["weights"][0] = d["mean_net"]["weights"][0][:-1]
    return d


def activation_unknown() -> dict:
    d = actor_checkpoint()
    d["mean_net"]["activations"][0] = "relu"
    return d


def actor_with_entry(key: str, value) -> dict:
    """An actor checkpoint whose log_std, or first layer's weights or biases, starts with ``value``."""
    d = actor_checkpoint()
    (d["log_std"] if key == "log_std" else d["mean_net"][key][0])[0] = value
    return d


# a JSON null, NaN or Infinity entry, and the message that names it
NON_FINITE = {
    "null": (None, "is not a list of numbers"),
    "NaN": (math.nan, "holds a NaN or infinite number"),
    "Infinity": (math.inf, "holds a NaN or infinite number"),
}


@pytest.mark.parametrize(
    "checkpoint, message",
    [
        ({"version": 1}, "checkpoint has no 'mean_net'"),
        ({"version": 1, "mean_net": {}}, "checkpoint has no 'log_std'"),
        (actor_checkpoint(mean_net={"shapes": [[4, 13]]}), "dense net has no 'activations'"),
        (weights_off_their_shape(), "dense net weights do not fit their shapes [[4, 13], [4, 4]]"),
        (activation_unknown(), "dense net: unknown activation 'relu'"),
        (actor_checkpoint(log_std=["wide"] * 4), "checkpoint log_std is not a list of numbers"),
        ([1, 2], "checkpoint is not a JSON object"),
    ]
    + [
        (actor_with_entry(key, value), f"{name} {message}")
        for key, name in (("weights", "dense net weights"), ("biases", "dense net biases"), ("log_std", "checkpoint log_std"))
        for value, message in NON_FINITE.values()
    ],
    ids=["no-mean-net", "no-log-std", "no-activations", "bad-shape", "unknown-activation", "bad-log-std", "not-an-object"]
    + [f"{key}-{entry}" for key in ("weights", "biases", "log_std") for entry in NON_FINITE],
)
def test_checkpoint_missing_a_key_or_off_its_shape_is_a_one_line_error(tmp_path, capsys, checkpoint, message):
    ckpt = tmp_path / "actor.json"
    ckpt.write_text(json.dumps(checkpoint))
    assert main(["eval", "--scenario", "4a1s", "--checkpoint", str(ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"fanetq: error: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_train_rejects_fewer_than_one_step_and_writes_nothing(tmp_path, capsys, steps):
    out_dir = tmp_path / "runs"
    argv = ["train", "--solution", "NN-4", "--scenario", "4a1s", "--seeds", "0", "--steps", steps, "--out-dir", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanetq: error: total_steps must be positive, got {steps}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("steps", ["1", "999"])
def test_train_rejects_fewer_steps_than_one_evaluation_and_writes_nothing(tmp_path, capsys, steps):
    # such a run would record no curve point, and metrics and export could not read what it left
    out_dir = tmp_path / "runs"
    argv = ["train", "--solution", "NN-4", "--scenario", "4a1s", "--seeds", "0", "--steps", steps, "--out-dir", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanetq: error: total_steps must be at least eval_interval 1000, got {steps}\n"
    assert not out_dir.exists()


def run_module(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "fanetq", *args], capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_fanetq_runs_the_cli():
    done = run_module("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: fanetq") and "calibrate" in done.stdout
    done = run_module("eval", "--scenario", "4a1s", "--episodes", "0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "fanetq: error: episodes must be positive\n"


def test_malformed_scenario_file_is_a_one_line_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"n_aircraft": 4,')
    assert main(["eval", "--scenario", str(scenario), "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fanetq: error: {scenario} is not valid JSON") and err.count("\n") == 1


@pytest.mark.parametrize("content", ["5", '"abc"', "[4, 1]"], ids=["number", "string", "list"])
def test_scenario_file_that_is_not_a_json_object_is_a_one_line_error(tmp_path, capsys, content):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(content)
    assert main(["eval", "--scenario", str(scenario), "--episodes", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fanetq: error: scenario is not a JSON object\n"


def test_calibrating_a_scenario_file_needs_a_target(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    experiments.load_scenario("4a1s").save(scenario)
    assert main(["calibrate", "--scenario", str(scenario), "--episodes", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fanetq: error: --target required for non-registry scenarios\n"


@pytest.mark.parametrize("option, name", [("--tolerance", "tolerance"), ("--target", "target CR")])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_calibrate_rejects_a_target_or_tolerance_before_it_sweeps(monkeypatch, capsys, option, name, value):
    def no_measurement(*args, **kwargs):
        raise AssertionError("calibrate measured a comm_range before checking its input")

    monkeypatch.setattr(experiments, "random_baseline_cr", no_measurement)
    assert main(["calibrate", "--scenario", "4a1s", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanetq: error: {name} must be positive and finite, got {float(value)}\n"


def test_train_metrics_export_pipeline(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    rc = main(
        [
            "train",
            "--solution",
            "NN-4",
            "--scenario",
            "4a1s",
            "--seeds",
            "0,1",
            "--steps",
            "2000",
            "--out-dir",
            out_dir,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed=0" in out and "seed=1" in out

    assert main(["metrics", "--run-dir", out_dir, "--scenario", "4a1s", "--solution", "NN-4"]) == 0
    out = capsys.readouterr().out
    assert "threshold = 75.25" in out
    assert "MCR=" in out

    export_dir = str(tmp_path / "export")
    rc = main(
        [
            "export",
            "--run-dir",
            out_dir,
            "--scenario",
            "4a1s",
            "--solution",
            "NN-4",
            "--ema",
            "0.5",
            "--format",
            "csv",
            "--out-dir",
            export_dir,
        ]
    )
    assert rc == 0
    files = list((tmp_path / "export").iterdir())
    assert len(files) == 1
    with open(files[0]) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["env_steps", "cr_mean", "cr_se", "cr_ema"]
    assert len(rows) == 2


@pytest.mark.parametrize("command", [["metrics"], ["export", "--out-dir", "export"]])
def test_bad_curve_header_surfaces_instead_of_being_skipped(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    seed_csv = tmp_path / "runs" / "4a1s" / "NN-4" / "seed0.csv"
    seed_csv.parent.mkdir(parents=True)
    seed_csv.write_text("steps,cr\n2000,60.0\n")
    rc = main(command + ["--run-dir", str(tmp_path / "runs"), "--scenario", "4a1s", "--solution", "NN-4,NN-7"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("fanetq: error: ") and "bad curve header" in err and err.count("\n") == 1


CURVE_TEXT = "env_steps,cr_mean,cr_std,actor_loss,critic_loss\n1000,60.0,1.0,-0.01,2.0\n2000,61.5,1.0,-0.01,2.0\n"


@pytest.mark.parametrize("command", [["metrics"], ["export", "--out-dir", "export"]])
@pytest.mark.parametrize(
    "bad_row, detail",
    [
        ("3000,sixty,1.0,-0.01,2.0", "could not convert"),
        ("3000,60.0,1.0", "expected 5 cells"),
        ("3000,60.0,1.0,-0.01,2.0,7", "expected 5 cells"),
    ],
    ids=["non-numeric-cell", "short-row", "long-row"],
)
def test_malformed_curve_row_is_a_one_line_error_naming_file_and_line(
    tmp_path, monkeypatch, capsys, command, bad_row, detail
):
    monkeypatch.chdir(tmp_path)
    seed_csv = tmp_path / "runs" / "4a1s" / "NN-4" / "seed0.csv"
    seed_csv.parent.mkdir(parents=True)
    seed_csv.write_text(CURVE_TEXT + bad_row + "\n")
    rc = main(command + ["--run-dir", str(tmp_path / "runs"), "--scenario", "4a1s", "--solution", "NN-4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"fanetq: error: malformed curve row in {seed_csv} line 4: ")
    assert detail in captured.err
    assert not (tmp_path / "export").exists()


@pytest.mark.parametrize("command", [["metrics"], ["export", "--out-dir", "export"]])
def test_a_stray_file_beside_the_curves_is_not_read(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    run_dir = tmp_path / "runs" / "4a1s" / "NN-4"
    run_dir.mkdir(parents=True)
    (run_dir / "seed0.csv").write_text(CURVE_TEXT)
    (run_dir / "seed0_old.csv").write_text("not a curve\n")
    (run_dir / "seed01.csv").write_text("not a curve either\n")
    assert main(command + ["--run-dir", str(tmp_path / "runs"), "--scenario", "4a1s", "--solution", "NN-4"]) == 0
    assert capsys.readouterr().err == ""
    records = experiments.load_records(tmp_path / "runs", "4a1s", ["NN-4"])["NN-4"]
    assert [(r.seed, len(r.curve)) for r in records] == [(0, 2)]


def test_eval_with_checkpoint(tmp_path, capsys):
    out_dir = str(tmp_path / "runs")
    main(
        [
            "train",
            "--solution",
            "NN-4",
            "--scenario",
            "4a1s",
            "--seeds",
            "0",
            "--steps",
            "1000",
            "--out-dir",
            out_dir,
        ]
    )
    capsys.readouterr()
    ckpt = tmp_path / "runs" / "4a1s" / "NN-4" / "seed0_actor.json"
    assert ckpt.exists()
    assert main(["eval", "--scenario", "4a1s", "--checkpoint", str(ckpt), "--episodes", "10"]) == 0
    assert "deterministic policy CR" in capsys.readouterr().out


def test_eval_with_checkpoint_rejects_zero_episodes(tmp_path, capsys):
    ckpt = tmp_path / "actor.json"
    GaussianPolicyHead.create(13, 4, (4,), np.random.default_rng(0)).save(ckpt)
    assert main(["eval", "--scenario", "4a1s", "--checkpoint", str(ckpt), "--episodes", "0"]) == 2
    assert capsys.readouterr().err == "fanetq: error: n_episodes must be positive\n"


def test_eval_refuses_an_actor_checkpoint_of_another_scenario(capsys):
    ckpt = Path(__file__).resolve().parent.parent / "runs" / "4a1s" / "NN-4" / "seed0_actor.json"
    assert main(["eval", "--scenario", "5a2s", "--checkpoint", str(ckpt)]) == 2
    assert capsys.readouterr().err == (
        "fanetq: error: the actor maps 13 observations to 4 actions, the scenario has 19 and 6\n"
    )


def test_qmetrics_command(tmp_path, capsys):
    out_csv = str(tmp_path / "q.csv")
    rc = main(
        ["qmetrics", "--solutions", "VQC-1N,NN-4", "--samples", "300", "--seed", "0", "--out", out_csv]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "VQC-1N" in out and "not applicable" in out
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2


def test_calibrate_failure_reports_sweep(capsys):
    rc = main(
        [
            "calibrate",
            "--scenario",
            "4a1s",
            "--target",
            "1000",
            "--tolerance",
            "1.0",
            "--episodes",
            "10",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "calibration failed" in err
    assert "comm_range=" in err


def test_train_rejects_unknown_solution(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--solution", "NN-5", "--scenario", "4a1s"])


@pytest.mark.parametrize("seeds", ["a", "0,1.5", "", ",", "0,-1"], ids=["letter", "float", "empty", "only-a-comma", "negative"])
def test_train_rejects_a_bad_seed_list_and_writes_nothing(tmp_path, capsys, seeds):
    out_dir = tmp_path / "runs"
    argv = ["train", "--solution", "NN-4", "--scenario", "4a1s", "--seeds", seeds, "--steps", "1000", "--out-dir", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanetq: error: --seeds must list non-negative integers, got {seeds!r}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [["metrics"], ["export", "--out-dir", "export"]])
def test_no_curves_is_the_same_one_line_error_for_metrics_and_export(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    runs = tmp_path / "runs"
    (runs / "4a1s" / "NN-7").mkdir(parents=True)  # a solution directory without a seed curve
    rc = main(command + ["--run-dir", str(runs), "--scenario", "4a1s", "--solution", "NN-4,NN-7"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanetq: error: no curves for NN-4, NN-7 under {runs / '4a1s'}\n"
    assert not (tmp_path / "export").exists()


@pytest.mark.parametrize("command", [["metrics"], ["export", "--out-dir", "export"]])
def test_unknown_solution_name_is_a_one_line_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    rc = main(command + ["--run-dir", str(tmp_path / "runs"), "--scenario", "4a1s", "--solution", "NN-4,NN-5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fanetq: error: unknown solution 'NN-5'") and captured.err.count("\n") == 1


@pytest.mark.parametrize("samples", ["1234", "90"])
def test_qmetrics_rejects_a_sample_count_it_would_not_draw_exactly(tmp_path, capsys, samples):
    out_csv = tmp_path / "q.csv"
    assert main(["qmetrics", "--solutions", "VQC-1N", "--samples", samples, "--out", str(out_csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanetq: error: n_samples must be a multiple of 10 and at least 100, got {samples}\n"
    assert not out_csv.exists()


def test_qmetrics_rejects_a_repeated_solution_before_sampling(tmp_path, monkeypatch, capsys):
    sampled = []
    monkeypatch.setattr(experiments, "sample_states", lambda *a: sampled.append(a))
    out_csv = tmp_path / "q.csv"
    argv = ["qmetrics", "--solutions", "VQC-1N,VQC-1A,VQC-1N", "--samples", "100", "--out", str(out_csv)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fanetq: error: --solutions lists a solution more than once: 'VQC-1N,VQC-1A,VQC-1N'\n"
    assert sampled == [] and not out_csv.exists()


def test_train_never_writes_over_a_committed_curve(tmp_path, capsys):
    runs = tmp_path / "runs"
    shutil.copytree(Path(__file__).resolve().parent.parent / "runs", runs)
    before = {p: p.read_bytes() for p in runs.rglob("*") if p.is_file()}
    argv = ["train", "--solution", "NN-4", "--scenario", "4a1s", "--seeds", "5,1", "--steps", "100", "--out-dir", str(runs)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"fanetq: error: {runs / '4a1s' / 'NN-4' / 'seed1.csv'} exists; "
        "train writes new curves only, so choose another --out-dir\n"
    )
    assert {p: p.read_bytes() for p in runs.rglob("*") if p.is_file()} == before


def test_train_writes_under_my_runs_by_default_and_never_into_runs(tmp_path, monkeypatch):
    # runs/ holds the committed reference curves, which metrics and export read by default
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--solution", "NN-4", "--scenario", "4a1s", "--seeds", "0", "--steps", "1000"]) == 0
    assert (tmp_path / "my_runs" / "4a1s" / "NN-4" / "seed0.csv").is_file()
    assert not (tmp_path / "runs").exists()


def test_train_on_a_scenario_file_is_a_one_line_error_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    experiments.load_scenario("4a1s").save("my.json")
    argv = ["train", "--solution", "NN-4", "--scenario", "my.json", "--seeds", "0", "--steps", "1000", "--out-dir", "runs"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fanetq: error: solution NN-4 is not defined for scenario 'my.json'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["my.json"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--scenario", "4a1s", "--episodes", "1", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (
            ["qmetrics", "--solutions", "VQC-1N", "--samples", "100", "--seed", "-2", "--out", "q.csv"],
            "--seed must be a non-negative integer, got -2",
        ),
        (
            ["calibrate", "--scenario", "4a1s", "--episodes", "10", "--seed", "-1", "--write", "--out", "c.json"],
            "--seed must be a non-negative integer, got -1",
        ),
        (
            ["train", "--solution", "NN-4", "--scenario", "4a1s", "--seeds", "0,1,0", "--steps", "100", "--out-dir", "runs"],
            "--seeds lists a seed more than once: '0,1,0'",
        ),
    ],
    ids=["eval", "qmetrics", "calibrate", "train-repeated"],
)
def test_a_negative_or_repeated_seed_is_a_one_line_error_before_any_work(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fanetq: error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_writers_create_missing_parent_directories(tmp_path, capsys):
    out_csv = tmp_path / "new_dir" / "q.csv"
    assert main(["qmetrics", "--solutions", "NN-4", "--samples", "100", "--out", str(out_csv)]) == 0
    assert out_csv.read_text(encoding="utf-8").startswith("circuit_id,L,scaling_fn,")
    scenario = tmp_path / "calibrated" / "4a1s.json"
    experiments.load_scenario("4a1s").save(scenario)
    assert experiments.load_scenario(str(scenario)).to_dict() == experiments.load_scenario("4a1s").to_dict()


def test_export_rejects_a_bad_ema_factor_before_it_creates_the_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "export"
    runs = Path(__file__).resolve().parent.parent / "runs"
    argv = ["export", "--run-dir", str(runs), "--scenario", "4a1s", "--ema", "1.5", "--out-dir", str(out_dir)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fanetq: error: EMA factor must be in [0, 1)\n"
    assert not out_dir.exists()
