import json
import math
from pathlib import Path

import numpy as np
import pytest

from msgibbs import cli

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(argv):
    return cli.main(argv)


def test_solve_tabular_golden(tmp_path):
    out = tmp_path / "out.json"
    code = run(
        [
            "solve-tabular",
            "--config",
            str(CONFIGS / "solve_tabular_binary3.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "solve_tabular_binary3.json").read_bytes()
    report = json.loads(out.read_text())
    assert report["verified"] is True
    assert report["tv_to_oracle"] <= 1e-4
    assert report["version"] == "0.1.0"


def test_solve_tabular_single_scale_equals_gibbs(tmp_path):
    cfg = {
        "axis_sizes": [2, 2],
        "energy": [0.1, 0.9, 0.4, 0.2],
        "reference": [0.25, 0.25, 0.3, 0.2],
        "lambda": 1.0,
        "sigma": [1.0, 0.0],
        "algorithm": "min-rel-entropy",
        "chain": "decimation",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert run(["solve-tabular", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tv_to_oracle"] <= 1e-4
    probs = np.asarray(report["solution"]["probs"])
    w = np.asarray(cfg["reference"]) * np.exp(-np.asarray(cfg["energy"]))
    assert np.abs(probs - w / w.sum()).max() < 1e-12


def test_solve_tabular_malformed_probs(tmp_path, capsys):
    cfg = {
        "axis_sizes": [2],
        "energy": [0.0, 1.0],
        "reference": [0.5, 0.4],
        "sigma": [1.0],
        "algorithm": "mt",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["solve-tabular", "--config", str(path)]) == cli.EXIT_ERROR
    assert "config error" in capsys.readouterr().err


def test_solve_tabular_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"axis_sizes": [2,,]}')
    assert run(["solve-tabular", "--config", str(path)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "line" in err  # parse errors carry line context


def test_solve_tabular_no_verify(tmp_path):
    out = tmp_path / "out.json"
    code = run(
        [
            "solve-tabular",
            "--config",
            str(CONFIGS / "solve_tabular_binary3.json"),
            "--out",
            str(out),
            "--no-verify",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert "oracle" not in report and "tv_to_oracle" not in report


def above_cap_config(tmp_path):
    rng = np.random.default_rng(3)
    size = 2**13
    cfg = {
        "axis_sizes": [2] * 13,
        "energy": rng.uniform(0.0, 1.0, size).tolist(),
        "reference": np.full(size, 1.0 / size).tolist(),
        "sigma": [1.0] + [0.5] * 12,
        "algorithm": "min-rel-entropy",
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    return path


def test_solve_tabular_verify_above_oracle_cap(tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = ["solve-tabular", "--config", str(above_cap_config(tmp_path)), "--out", str(out)]
    assert run(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert "4096" in err and "--no-verify" in err and "Traceback" not in err
    assert not out.exists()

    assert run(argv + ["--no-verify"]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    probs = np.asarray(report["solution"]["probs"])
    assert probs.size == 2**13 and probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert "tv_to_oracle" not in report


def test_solve_gaussian(tmp_path):
    out = tmp_path / "out.json"
    code = run(
        [
            "solve-gaussian",
            "--config",
            str(CONFIGS / "solve_gaussian_demo.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verified"] is True
    assert report["refinement_consistency"] <= 1e-8
    mean = np.asarray(report["solution"]["mean"])
    cov = np.asarray(report["solution"]["cov"]).reshape(3, 3)
    assert mean.shape == (3,)
    assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_experiment_smoke_and_workers(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg = str(CONFIGS / "experiment_smoke.json")
    assert run(["experiment", "--config", cfg, "--out", str(out1)]) == 0
    assert (
        run(["experiment", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    )
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a_summary.csv").read_bytes() == (
        tmp_path / "b_summary.csv"
    ).read_bytes()
    body = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "alpha,sigma1,risk,risk_stderr"
    assert len(body) == 1 + 3 * 4  # alpha grid x sigma1 grid
    # provenance embedded
    assert out1.read_text().splitlines()[0].startswith("# msgibbs")
    # seed override changes the result
    out3 = tmp_path / "c.csv"
    assert run(
        ["experiment", "--config", cfg, "--out", str(out3), "--seed", "123"]
    ) == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_experiment_alpha_zero_reduces_to_single_scale(tmp_path):
    # an alpha grid of {0} reproduces the plain Gibbs sweep
    cfg = json.loads((CONFIGS / "experiment_smoke.json").read_text())
    cfg["alpha_grid"] = [0.0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert run(["experiment", "--config", str(path), "--out", str(out)]) == 0
    ref = json.loads((CONFIGS / "experiment_smoke.json").read_text())
    full = tmp_path / "full.csv"
    assert run(
        ["experiment", "--config", str(CONFIGS / "experiment_smoke.json"), "--out", str(full)]
    ) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    full_rows = [
        l
        for l in full.read_text().splitlines()
        if not l.startswith("#") and l.startswith("0,")
    ]
    assert rows == full_rows
    assert ref["alpha_grid"][0] == 0.0


def test_bounds_dirac_report(tmp_path):
    out = tmp_path / "bounds.json"
    code = run(
        [
            "bounds",
            "--config",
            str(CONFIGS / "bounds_teacher_student.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    ts = rep["teacher_student_dpg_sum"]
    assert ts["exact"] == pytest.approx(4 * math.sqrt(2) - (1 + math.sqrt(2)))
    assert ts["approx"] == pytest.approx(4**1.5 * (2 - 2 / 3) / 2**1.5)
    assert rep["per_scale"][2]["gamma_star"] == "inf"
    assert rep["difference"] == pytest.approx(rep["scaled_dpg_sum"])


def test_bounds_gaussian_report(tmp_path):
    out = tmp_path / "bounds.json"
    code = run(
        [
            "bounds",
            "--config",
            str(CONFIGS / "bounds_gaussian_demo.json"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["excess_risk_multiscale"] <= rep["excess_risk_single"]
    assert rep["per_scale"][0]["dpg"] == 0.0


def test_bounds_d1_single_equals_multiscale(tmp_path):
    cfg = {
        "kind": "gaussian",
        "R": 1.0,
        "n": 30,
        "d": 1,
        "block_sizes": [2],
        "qhat": {"mean": [0.4, -0.2], "cov": [0.05, 0.0, 0.0, 0.08]},
        "prior": {"mean": [0.0, 0.0], "cov": [0.5, 0.0, 0.0, 0.5]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert run(["bounds", "--config", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["excess_risk_single"] == pytest.approx(rep["excess_risk_multiscale"])
    assert rep["difference"] == pytest.approx(0.0, abs=1e-15)


def test_missing_config_file(capsys):
    assert run(["bounds", "--config", "/nonexistent/x.json"]) == cli.EXIT_ERROR
    assert "cannot read config" in capsys.readouterr().err
