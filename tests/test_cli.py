"""Command-line interface, exercised in-process."""

import csv
import json

import numpy as np
import pytest

from fanetq.cli import main
from fanetq.errors import ContractViolation
from fanetq.nets import GaussianPolicyHead


def test_parity_command(capsys):
    assert main(["parity", "--scenario", "4a1s"]) == 0
    out = capsys.readouterr().out
    assert "NN-4" in out and "VQC-1N" in out
    assert out.count("gap") == 6


def test_eval_random_baseline(capsys):
    assert main(["eval", "--scenario", "4a1s", "--episodes", "40", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "uniform-random CR" in out


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
def test_bad_curve_header_surfaces_instead_of_being_skipped(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    seed_csv = tmp_path / "runs" / "4a1s" / "NN-4" / "seed0.csv"
    seed_csv.parent.mkdir(parents=True)
    seed_csv.write_text("steps,cr\n2000,60.0\n")
    with pytest.raises(ContractViolation, match="bad curve header"):
        main(command + ["--run-dir", str(tmp_path / "runs"), "--scenario", "4a1s", "--solution", "NN-4,NN-7"])


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


def test_eval_with_checkpoint_rejects_zero_episodes(tmp_path):
    ckpt = tmp_path / "actor.json"
    GaussianPolicyHead.create(13, 4, (4,), np.random.default_rng(0)).save(ckpt)
    with pytest.raises(ContractViolation, match="n_episodes"):
        main(["eval", "--scenario", "4a1s", "--checkpoint", str(ckpt), "--episodes", "0"])


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
