import json
import math
from pathlib import Path

import numpy as np
import pytest

from msgibbs import cli
from msgibbs import multiscale as ms
from msgibbs import nn as mn

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


def test_solve_tabular_partial_schedule_golden(tmp_path):
    # max-entropy scales instead of tilting, and sigma_3 = 0 leaves a pass-through tail
    out = tmp_path / "out.json"
    config = GOLDEN / "solve_tabular_binary3_partial.config.json"
    assert run(["solve-tabular", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "solve_tabular_binary3_partial.json").read_bytes()
    assert json.loads(out.read_text())["verified"] is True


def test_solve_tabular_depth4_mt_golden(tmp_path):
    # a seeded 4^4 mt problem of depth 4: multi-level refinement and the oracle's
    # coarse scales, which binary3 (depth 2) never reaches
    out = tmp_path / "out.json"
    config = GOLDEN / "solve_tabular_mt_4x4x4x4.config.json"
    assert run(["solve-tabular", "--verify", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "solve_tabular_mt_4x4x4x4.json").read_bytes()
    assert json.loads(out.read_text())["verified"] is True


def test_solve_tabular_uneven_axes_min_rel_golden(tmp_path):
    # decimation fibers of widths 5 and 2 (axes 3, 2, 5), and sigma_2 = 0: a
    # pass-through step below a tilted one
    out = tmp_path / "out.json"
    config = GOLDEN / "solve_tabular_min_rel_3x2x5.config.json"
    assert json.loads(config.read_text())["sigma"][1] == 0.0
    assert run(["solve-tabular", "--verify", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "solve_tabular_min_rel_3x2x5.json").read_bytes()
    assert json.loads(out.read_text())["verified"] is True


def test_solve_tabular_wide_fiber_min_rel_golden(tmp_path):
    # a decimation fiber 12 wide, wider than its 4-state target (pushforward sums it by
    # bincount), and a reference with no mass on one fiber
    out = tmp_path / "out.json"
    config = GOLDEN / "solve_tabular_min_rel_4x12.config.json"
    cfg = json.loads(config.read_text())
    assert cfg["axis_sizes"] == [4, 12] and not any(cfg["reference"][24:36])
    assert run(["solve-tabular", "--verify", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "solve_tabular_min_rel_4x12.json").read_bytes()
    assert json.loads(out.read_text())["verified"] is True


def _assert_report_matches(got, want, path="$"):
    """Keys and strings equal; floats equal within a relative 1e-10.

    pytest.approx's absolute 1e-12 also holds, so a rounding-level residual such
    as a 1e-16 refinement gap may differ between BLAS builds.
    """
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _assert_report_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_report_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-10), path
    else:
        assert got == want, path


@pytest.mark.parametrize(
    "command, name",
    [
        ("solve-gaussian", "solve_gaussian_demo.json"),
        ("solve-gaussian", "solve_gaussian_max_entropy.json"),
        ("solve-gaussian", "solve_gaussian_min_rel_entropy.json"),
        ("bounds", "bounds_gaussian_demo.json"),
        ("bounds", "bounds_teacher_student.json"),
    ],
)
def test_shipped_reports_match_golden(tmp_path, command, name):
    # a report whose config is not shipped has it next to its golden, as NAME.config.json
    config = CONFIGS / name
    if not config.exists():
        config = GOLDEN / name.replace(".json", ".config.json")
    out = tmp_path / name
    assert run([command, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    want = json.loads((GOLDEN / name).read_text())
    _assert_report_matches(json.loads(out.read_text()), want)


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


def above_cap_config(tmp_path, n_axes):
    rng = np.random.default_rng(3)
    size = 2**n_axes
    cfg = {
        "axis_sizes": [2] * n_axes,
        "energy": rng.uniform(0.0, 1.0, size).tolist(),
        "reference": np.full(size, 1.0 / size).tolist(),
        "sigma": [1.0] + [0.5] * (n_axes - 1),
        "algorithm": "min-rel-entropy",
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("n_axes", [13, 16])
def test_solve_tabular_verify_above_oracle_cap(tmp_path, n_axes):
    # the exact oracle verifies past the mirror-descent oracle's 4096 states
    out = tmp_path / "out.json"
    argv = ["solve-tabular", "--config", str(above_cap_config(tmp_path, n_axes)), "--out", str(out)]
    assert run(argv) == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["verified"] is True and report["tv_to_oracle"] <= 1e-12
    assert len(report["oracle"]["probs"]) == 2**n_axes

    assert run(argv + ["--no-verify"]) == cli.EXIT_OK
    report = json.loads(out.read_text())
    probs = np.asarray(report["solution"]["probs"])
    assert probs.size == 2**n_axes and probs.min() >= 0.0
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert "tv_to_oracle" not in report and "oracle" not in report


@pytest.mark.parametrize("algorithm", ["max-entropy", "min-rel-entropy", "mt"])
def test_solve_tabular_verifies_at_the_sweeps_largest_alpha(tmp_path, algorithm):
    # alpha = 0.999 weights the coarsest scale 1e6 times the finest: mirror descent does
    # not converge there, the value recursion is exact
    cfg = json.loads((CONFIGS / "solve_tabular_binary3.json").read_text())
    del cfg["sigma"]
    cfg.update(alpha=0.999, sigma1=1, d=3, algorithm=algorithm)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert run(["solve-tabular", "--verify", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verified"] is True and report["tv_to_oracle"] <= 1e-12


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


def test_experiment_matches_golden(tmp_path):
    # pins the seeding contract: every point of the sorted grid draws from spawn_key (1,)
    out = tmp_path / "smoke.csv"
    assert run(["experiment", "--config", str(CONFIGS / "experiment_smoke.json"),
                "--out", str(out)]) == cli.EXIT_OK
    for produced, golden in ((out, "experiment_smoke.csv"),
                             (tmp_path / "smoke_summary.csv", "experiment_smoke_summary.csv")):
        got = produced.read_text().splitlines()
        want = (GOLDEN / golden).read_text().splitlines()
        # two provenance lines and the column names, exactly
        assert got[:3] == want[:3] and len(got) == len(want)
        values = [[float(x) for x in line.split(",")] for line in got[3:]]
        expected = [[float(x) for x in line.split(",")] for line in want[3:]]
        np.testing.assert_allclose(values, expected, rtol=1e-8, atol=0.0)


def test_solve_tabular_without_out_writes_the_report_to_stdout(capsys):
    assert run(["solve-tabular", "--config", str(CONFIGS / "solve_tabular_binary3.json")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / "solve_tabular_binary3.json").read_text()


def test_experiment_without_out_writes_rows_then_summary_to_stdout(tmp_path, capsys):
    cfg = str(CONFIGS / "experiment_smoke.json")
    out = tmp_path / "smoke.csv"
    assert run(["experiment", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert run(["experiment", "--config", cfg]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == out.read_text() + (tmp_path / "smoke_summary.csv").read_text()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_experiment_workers_below_one_is_a_config_error(capsys, workers):
    cfg = str(CONFIGS / "experiment_smoke.json")
    assert run(["experiment", "--config", cfg, "--workers", workers]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_config_error_line(captured.err)


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


#: a ``change`` value that removes the key from the config
DROP = object()


def assert_one_config_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert lines[0].count("config error") == 1


# the binary3 reference with its first state's mass moved onto the second
ZERO_REFERENCE = [0.0, 0.30, 0.15, 0.05, 0.125, 0.075, 0.18, 0.12]


def binary3_chain(source=(2, 2, 2), target=(2, 2), map_entry=None):
    """Config changes for a 3-entry schedule on an explicit 2-map decimation chain of
    the binary3 space; the arguments replace parts of its first map."""
    first = [0, 0, 1, 1, 2, 2, 3, 3]
    if map_entry is not None:
        first[map_entry[0]] = map_entry[1]
    return {"sigma": [1.0, 0.75, 0.5], "chain": [
        {"source_axis_sizes": list(source), "target_axis_sizes": list(target), "map": first},
        {"source_axis_sizes": [2, 2], "target_axis_sizes": [2], "map": [0, 0, 1, 1]},
    ]}


@pytest.mark.parametrize(
    "command, config_name, change, key_path",
    [(*case, None) for case in [
        ("solve-tabular", "solve_tabular_binary3.json", {"algorithm": "bogus"}),
        (
            "bounds",
            "bounds_teacher_student.json",
            {"d": 4, "teacher_student": {"M": 3.0, "log_inv_q2": 1.0}},
        ),
        ("experiment", "experiment_smoke.json", {"teacher_depth": 9}),
        # configs the solvers cannot run: a schedule deeper than the chain or the
        # partition, prior blocks short of the prior
        (
            "solve-tabular",
            "solve_tabular_binary3.json",
            {"sigma": [1.0, 0.5, 0.25], "chain": [{"source_axis_sizes": [2, 2, 2],
                                                    "target_axis_sizes": [2, 2],
                                                    "map": [0, 0, 1, 1, 2, 2, 3, 3]}]},
        ),
        ("solve-gaussian", "solve_gaussian_demo.json", {"sigma": [1.0, 0.5, 0.4, 0.3, 0.2, 0.1]}),
        (
            "solve-gaussian",
            "solve_gaussian_demo.json",
            {"prior": {"mean": [0.0, 0.0, 0.0], "cov": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0,
                                                        0.0, 0.0, 1.0], "block_sizes": [1, 1]}},
        ),
        # a dirac reference given twice: per-scale divergences and the DPG sum would disagree
        ("bounds", "bounds_teacher_student.json", {"log_inv_q": [0.5, 0.5, 0.5, 0.5]}),
        # integer fields with non-integral values, empty test or weight samples, a negative seed
        ("experiment", "experiment_smoke.json", {"m": 4.7}),
        ("experiment", "experiment_smoke.json", {"seed": 7.5}),
        ("experiment", "experiment_smoke.json", {"n_train": "12"}),
        ("experiment", "experiment_smoke.json",
         {"sigma1_grid": {"log10_min": -6.0, "log10_max": -3.0, "points": 2.9}}),
        ("experiment", "experiment_smoke.json", {"n_test": 0}),
        ("experiment", "experiment_smoke.json", {"n_weights": 0}),
        ("experiment", "experiment_smoke.json", {"seed": -1}),
        # non-finite sigma1 grid values (JSON allows NaN and Infinity)
        ("experiment", "experiment_smoke.json", {"sigma1_grid": [1e-4, math.nan]}),
        ("experiment", "experiment_smoke.json", {"sigma1_grid": [1e-4, math.inf]}),
        ("experiment", "experiment_smoke.json",
         {"sigma1_grid": {"log10_min": math.nan, "log10_max": -3.0, "points": 2}}),
        # experiment numbers: strings and booleans are not JSON numbers
        ("experiment", "experiment_smoke.json", {"sigma1_grid": ["1e-4", "1e-3"]}),
        ("experiment", "experiment_smoke.json", {"sigma1_grid": [True, 1e-3]}),
        ("experiment", "experiment_smoke.json",
         {"sigma1_grid": {"log10_min": "-6", "log10_max": -3.0, "points": 4}}),
        ("experiment", "experiment_smoke.json", {"alpha_grid": [False, 0.5]}),
        ("experiment", "experiment_smoke.json", {"prior_variance": "5e-4"}),
        ("experiment", "experiment_smoke.json", {"teacher_weight_variance": True}),
        # bounds: a non-integral sample count and a boolean one
        ("bounds", "bounds_gaussian_demo.json", {"n": 30.7}),
        ("bounds", "bounds_gaussian_demo.json", {"n": True}),
        # schedules: a non-integral or string depth, strings and booleans for numbers
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"sigma": DROP, "alpha": 0.5, "sigma1": 0.5, "d": 2.7}),
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"sigma": DROP, "alpha": 0.5, "sigma1": 0.5, "d": "2"}),
        ("solve-gaussian", "solve_gaussian_demo.json", {"sigma": ["1", "0.5"]}),
        ("solve-gaussian", "solve_gaussian_demo.json", {"sigma": [1, True]}),
        ("solve-tabular", "solve_tabular_binary3.json", {"lambda": "1"}),
        ("solve-tabular", "solve_tabular_binary3.json",
         {"sigma": DROP, "alpha": False, "sigma1": 0.5, "d": 2}),
        ("solve-tabular", "solve_tabular_binary3.json",
         {"sigma": DROP, "alpha": 0.5, "sigma1": "0.5", "d": 2}),
        # sizes: non-integral and boolean entries are not sizes
        ("solve-tabular", "solve_tabular_binary3.json", {"axis_sizes": [2, 2, 2.9]}),
        ("solve-tabular", "solve_tabular_binary3.json", {"axis_sizes": [2, 2, 2, True]}),
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"prior": {"mean": [0.0, 0.0, 0.0], "cov": [0.5, 0.1, 0.0, 0.1, 0.4, 0.05,
                                                     0.0, 0.05, 0.6], "block_sizes": [1.9, 2]}}),
        ("bounds", "bounds_gaussian_demo.json", {"block_sizes": [1.5, 1]}),
        # explicit chains: non-integral, boolean and string sizes and map entries
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(source=[2, 2, 2.9])),
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(target=[2, 2.5])),
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(source=[2, 2, "2"])),
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(map_entry=(1, 0.9))),
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(map_entry=(7, 3.7))),
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(map_entry=(2, True))),
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(map_entry=(0, "0"))),
        # scalars: strings and booleans are not numbers
        ("bounds", "bounds_gaussian_demo.json", {"R": True}),
        ("bounds", "bounds_teacher_student.json", {"R": "2"}),
        ("bounds", "bounds_teacher_student.json",
         {"teacher_student": {"M": "2", "log_inv_q2": 1.0, "log_inv_q1": 0.0}}),
        ("bounds", "bounds_teacher_student.json",
         {"teacher_student": {"M": 2.0, "log_inv_q2": True, "log_inv_q1": 0.0}}),
        ("bounds", "bounds_teacher_student.json",
         {"teacher_student": {"M": 2.0, "log_inv_q2": 1.0, "log_inv_q1": "0"}}),
        ("bounds", "bounds_teacher_student.json",
         {"teacher_student": DROP, "log_inv_q": ["0.5", 1, 1, 1]}),
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"energy": {"K": [2.0, 0.3, 0.1, 0.3, 1.5, 0.0, 0.1, 0.0, 1.0],
                     "g": [0.2, -0.1, 0.4], "c": "3"}}),
        # an infinite lambda (JSON reads 1e400 as inf), and non-finite Gaussian inputs
        ("solve-tabular", "solve_tabular_binary3.json",
         {"lambda": math.inf, "algorithm": "min-rel-entropy"}),
        ("solve-tabular", "solve_tabular_binary3.json",
         {"lambda": math.inf, "algorithm": "max-entropy"}),
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"prior": {"mean": [0.0, 0.0, 0.0], "cov": [math.inf, 0.1, 0.0, 0.1, 0.4, 0.05,
                                                     0.0, 0.05, 0.6], "block_sizes": [1, 2]}}),
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"prior": {"mean": [math.nan, 0.0, 0.0], "cov": [0.5, 0.1, 0.0, 0.1, 0.4, 0.05,
                                                          0.0, 0.05, 0.6], "block_sizes": [1, 2]}}),
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"energy": {"K": [2.0, 0.3, 0.1, 0.3, 1.5, 0.0, 0.1, 0.0, 1.0],
                     "g": [0.2, -math.inf, 0.4]}}),
    ]] + [
        # a scalar or an object where a list belongs, and missing Gaussian keys: the line
        # names the key
        ("solve-tabular", "solve_tabular_binary3.json", {"sigma": 1.0}, "$.sigma"),
        ("solve-tabular", "solve_tabular_binary3.json", {"axis_sizes": 8}, "$.axis_sizes"),
        ("experiment", "experiment_smoke.json", {"alpha_grid": 0.5}, "$.alpha_grid"),
        ("experiment", "experiment_smoke.json", {"sigma1_grid": 3}, "$.sigma1_grid"),
        ("bounds", "bounds_teacher_student.json",
         {"teacher_student": DROP, "log_inv_q": 0.5}, "$.log_inv_q"),
        ("solve-tabular", "solve_tabular_binary3.json", {"chain": "foo"}, "$.chain"),
        ("solve-tabular", "solve_tabular_binary3.json", {"chain": {"a": 1}}, "$.chain"),
        ("bounds", "bounds_gaussian_demo.json", {"qhat": {"cov": [0.05, 0.0, 0.0, 0.08]}},
         "$.qhat"),
        ("bounds", "bounds_gaussian_demo.json", {"prior": {"cov": [0.5, 0.0, 0.0, 0.5]}},
         "$.prior"),
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"prior": {"mean": [0.0, 0.0, 0.0], "block_sizes": [1, 2]}}, "$.prior"),
        # a value that is not an object where an object belongs
        ("solve-gaussian", "solve_gaussian_demo.json", {"prior": 5}, "$.prior"),
        ("solve-gaussian", "solve_gaussian_demo.json", {"energy": 5}, "$.energy"),
        ("bounds", "bounds_teacher_student.json", {"teacher_student": 3}, "$.teacher_student"),
        ("solve-tabular", "solve_tabular_binary3.json", {"chain": [1]}, "$.chain[0]"),
        # an explicit chain's maps name their place in it; maps that do not chain, the chain
        ("solve-tabular", "solve_tabular_binary3.json",
         {"sigma": [1.0, 0.75, 0.5], "chain": [
             {"source_axis_sizes": [2, 2, 2], "target_axis_sizes": [2, 2],
              "map": [0, 0, 1, 1, 2, 2, 3]}, binary3_chain()["chain"][1]]}, "$.chain[0]"),
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(map_entry=(7, 4)),
         "$.chain[0]"),
        ("solve-tabular", "solve_tabular_binary3.json", binary3_chain(target=[2, 3]), "$.chain"),
        # tables and energies of the wrong size name their key
        ("solve-tabular", "solve_tabular_binary3.json", {"energy": [1.0]}, "$.energy"),
        ("solve-tabular", "solve_tabular_binary3.json", {"reference": [1.0]}, "$.reference"),
        ("solve-tabular", "solve_tabular_binary3.json",
         {"energy": [0.1, 0.55, math.nan, 0.85, 0.2, 0.45, 0.9, 0.05]}, "$.energy"),
        ("solve-gaussian", "solve_gaussian_demo.json", {"energy": {"K": [2.0, 0.3]}}, "$.energy"),
        ("solve-gaussian", "solve_gaussian_demo.json",
         {"energy": {"K": [2.0, 0.3, 0.1, 0.3, 1.5, 0.0, 0.1, 0.0, 1.0], "g": [0.2]}}, "$.energy"),
        # a missing space or schedule, unknown kinds and algorithms, a depth that is not the
        # partition's, and grids that are empty, out of range or have no points
        ("solve-tabular", "solve_tabular_binary3.json", {"axis_sizes": DROP}, "$"),
        ("solve-tabular", "solve_tabular_binary3.json", {"sigma": DROP}, "$"),
        ("solve-tabular", "solve_tabular_binary3.json", {"sigma": [1.0, 0.75, 0.5, 0.25]}, "$"),
        # a schedule given twice, as sigma and as alpha: one of them would be ignored
        ("solve-tabular", "solve_tabular_binary3.json", {"alpha": 0.5, "sigma1": 1.0, "d": 2},
         "$"),
        ("solve-gaussian", "solve_gaussian_demo.json", {"alpha": 0.5, "sigma1": 1.0, "d": 2},
         "$"),
        ("bounds", "bounds_teacher_student.json", {"kind": "foo"}, "$.kind"),
        ("bounds", "bounds_gaussian_demo.json", {"d": 3}, "$"),
        ("solve-gaussian", "solve_gaussian_demo.json", {"algorithm": "foo"}, "$.algorithm"),
        ("experiment", "experiment_smoke.json", {"alpha_grid": []}, "$.alpha_grid"),
        ("experiment", "experiment_smoke.json", {"alpha_grid": [1.0]}, "$.alpha_grid"),
        ("experiment", "experiment_smoke.json",
         {"sigma1_grid": {"log10_min": -6.0, "log10_max": -3.0, "points": 0}},
         "$.sigma1_grid.points"),
    ],
)
def test_config_errors_print_one_prefixed_line(tmp_path, capsys, command, config_name, change,
                                               key_path):
    cfg = json.loads((CONFIGS / config_name).read_text())
    cfg.update(change)
    cfg = {key: value for key, value in cfg.items() if value is not DROP}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_config_error_line(captured.err)
    assert key_path is None or f"config error: {key_path}:" in captured.err


@pytest.mark.parametrize("algorithm", ["max-entropy", "min-rel-entropy", "mt"])
def test_zero_in_the_reference_verifies(tmp_path, algorithm):
    # the exact oracle takes zeros: a state without reference mass gets none in either
    cfg = json.loads((CONFIGS / "solve_tabular_binary3.json").read_text())
    cfg.update(reference=ZERO_REFERENCE, algorithm=algorithm)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert run(["solve-tabular", "--verify", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verified"] is True and report["tv_to_oracle"] <= 1e-12
    if algorithm != "max-entropy":  # max-entropy reads no reference
        assert report["solution"]["probs"][0] == 0.0 == report["oracle"]["probs"][0]


def test_mt_on_a_chain_that_is_not_a_decimation(tmp_path):
    # an 8 -> 3 map with uneven fibers: 'mt' is the min-rel-entropy solve on any chain
    cfg = json.loads((CONFIGS / "solve_tabular_binary3.json").read_text())
    cfg.update(sigma=[1.0, 0.5], chain=[{"source_axis_sizes": [2, 2, 2],
                                         "target_axis_sizes": [3],
                                         "map": [0, 0, 1, 1, 1, 2, 2, 2]}])
    reports = []
    for algorithm in ("mt", "min-rel-entropy"):
        cfg["algorithm"] = algorithm
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        assert run(["solve-tabular", "--verify", "--config", str(path), "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["verified"] is True and reports[0]["tv_to_oracle"] <= 1e-12
    for key in ("solution", "objective", "oracle"):
        assert reports[0][key] == reports[1][key]


@pytest.mark.parametrize(
    "command, config_name", [("solve-tabular", "solve_tabular_binary3.json"),
                             ("solve-gaussian", "solve_gaussian_demo.json")],
)
def test_lambda_applies_to_an_alpha_schedule(tmp_path, command, config_name):
    # alpha, sigma1 and d give sigma; lambda weighs it in either form
    sigma = list(ms.alpha_schedule(0.5, 1.0, 2).sigma)
    reports = []
    for lam, change in ((1.0, {"sigma": sigma}), (2.0, {"sigma": sigma}),
                        (2.0, {"sigma": DROP, "alpha": 0.5, "sigma1": 1.0, "d": 2})):
        cfg = json.loads((CONFIGS / config_name).read_text())
        cfg.update(change, **{"lambda": lam})
        cfg = {key: value for key, value in cfg.items() if value is not DROP}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        assert run([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        reports.append(json.loads(out.read_text()))
    assert reports[1]["objective"] != reports[0]["objective"]
    assert reports[2]["solution"] == reports[1]["solution"]
    assert reports[2]["objective"] == reports[1]["objective"]
    assert reports[2]["config"]["lambda"] == 2.0


@pytest.mark.parametrize(
    "command, config_name, change, key_path",
    [
        ("solve-tabular", "solve_tabular_binary3.json", {"lamda": 2.0}, "$.lamda"),
        ("solve-gaussian", "solve_gaussian_demo.json", {"sigma_1": 1.0}, "$.sigma_1"),
        ("experiment", "experiment_smoke.json", {"n_weight": 3}, "$.n_weight"),
        ("experiment", "experiment_smoke.json",
         {"sigma1_grid": {"log10_min": -6.0, "log10_max": -3.0, "point": 3}},
         "$.sigma1_grid.point"),
        ("bounds", "bounds_teacher_student.json", {"log_inv_q1": 0.0}, "$.log_inv_q1"),
    ],
)
def test_a_key_no_command_reads_is_a_config_error(tmp_path, capsys, monkeypatch, command,
                                                  config_name, change, key_path):
    # a misspelt key would otherwise leave its default in place; nothing runs
    sweeps = []
    monkeypatch.setattr(mn, "teacher_student_sweep", lambda *args: sweeps.append(args) or [])
    cfg = {**json.loads((CONFIGS / config_name).read_text()), **change}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {key_path}: unknown key\n"
    assert sweeps == [] and not out.exists()


@pytest.mark.parametrize("name", ["solve_gaussian_max_entropy", "solve_gaussian_min_rel_entropy"])
def test_solve_gaussian_without_verify_solves_untraced(tmp_path, monkeypatch, name):
    # the trace holds every dense intermediate, and only the verification reads it
    with_trace = []
    for solver in ("solve_max_entropy", "solve_min_relative_entropy"):
        def spy(*args, solve=getattr(ms, solver), **kwargs):
            with_trace.append(kwargs["with_trace"])
            return solve(*args, **kwargs)
        monkeypatch.setattr(ms, solver, spy)
    reports = []
    for flag in ("--no-verify", "--verify"):
        out = tmp_path / "out.json"
        argv = ["solve-gaussian", flag, "--config", str(GOLDEN / f"{name}.config.json")]
        assert run(argv + ["--out", str(out)]) == cli.EXIT_OK
        reports.append(json.loads(out.read_text()))
    assert with_trace == [False, True]
    for key in ("solution", "objective"):
        assert reports[0][key] == reports[1][key]
    assert "verified" not in reports[0]


@pytest.mark.parametrize(
    "command, config_name",
    [("solve-tabular", "solve_tabular_binary3.json"), ("experiment", "experiment_smoke.json")],
)
def test_unwritable_out_prints_one_error_line(tmp_path, capsys, monkeypatch, command,
                                             config_name):
    # the path is checked before the work: the sweep never starts
    sweeps = []
    monkeypatch.setattr(mn, "teacher_student_sweep", lambda *args: sweeps.append(args) or [])
    out = tmp_path / "missing" / "report"
    argv = [command, "--config", str(CONFIGS / config_name), "--out", str(out)]
    assert run(argv) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0]
    assert sweeps == []


def test_unwritable_experiment_summary_ends_the_sweep_before_it_starts(tmp_path, capsys,
                                                                        monkeypatch):
    # a directory where the summary CSV belongs: nothing runs and no rows file is left
    sweeps = []
    monkeypatch.setattr(mn, "teacher_student_sweep", lambda *args: sweeps.append(args) or [])
    summary = tmp_path / "e_summary.csv"
    summary.mkdir()
    argv = ["experiment", "--config", str(CONFIGS / "experiment_smoke.json"),
            "--out", str(tmp_path / "e.csv")]
    assert run(argv) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(summary) in lines[0]
    assert sweeps == [] and sorted(tmp_path.iterdir()) == [summary]


def test_singular_energy_under_max_entropy_prints_one_error_line(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "solve_gaussian_demo.json").read_text())
    cfg["algorithm"] = "max-entropy"
    cfg["energy"]["K"] = [1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["solve-gaussian", "--config", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: entropy maximization needs a strictly PD quadratic energy: Singular matrix\n"
    )


def test_failed_guard_during_a_solve_prints_one_error_line(tmp_path, capsys):
    # sigma_1 = 1e-28 drives the coarse covariance below the Cholesky pivot floor
    cfg = json.loads((CONFIGS / "solve_gaussian_demo.json").read_text())
    cfg["sigma"] = [1e-28, 0.5]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["solve-gaussian", "--config", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "pivot" in lines[0]


@pytest.mark.parametrize("algorithm", ["max-entropy", "min-rel-entropy", "mt"])
@pytest.mark.parametrize(
    "command, config_name",
    [("solve-tabular", "solve_tabular_binary3.json"),
     ("solve-gaussian", "solve_gaussian_demo.json")],
)
def test_overflowing_inverse_temperature_prints_one_error_line(
    tmp_path, capsys, command, config_name, algorithm
):
    # a subnormal sigma_1 overflows lambda / sigma_1 (and 1 / (lambda sigma_1)) to inf
    cfg = json.loads((CONFIGS / config_name).read_text())
    cfg.update(sigma=[1e-320, 0.5], algorithm=algorithm)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: inverse temperature must be finite, got beta = inf"]


def test_alpha_schedule_config_takes_an_integral_depth(tmp_path):
    reports = []
    for depth in (2, 2.0):
        cfg = json.loads((CONFIGS / "solve_gaussian_demo.json").read_text())
        del cfg["sigma"]
        cfg.update(alpha=0.5, sigma1=0.5, d=depth)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        assert run(["solve-gaussian", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        reports.append(json.loads(out.read_text()))
    assert reports[0]["solution"] == reports[1]["solution"]
    assert reports[0]["verified"] is True


def test_solve_tabular_mt_with_explicit_decimation_chain(tmp_path):
    cfg = json.loads((CONFIGS / "solve_tabular_binary3.json").read_text())
    cfg["algorithm"] = "mt"
    reports = []
    for chain in ("decimation", [{"source_axis_sizes": [2, 2, 2], "target_axis_sizes": [2, 2],
                                  "map": [0, 0, 1, 1, 2, 2, 3, 3]}]):
        cfg["chain"] = chain
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        assert run(["solve-tabular", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        reports.append(json.loads(out.read_text()))
    assert reports[0]["solution"] == reports[1]["solution"]
    assert reports[0]["objective"] == reports[1]["objective"]
    assert reports[1]["verified"] is True


def test_explicit_two_map_chain_matches_decimation(tmp_path):
    # the valid base of the chain cases of test_config_errors_print_one_prefixed_line
    cfg = json.loads((CONFIGS / "solve_tabular_binary3.json").read_text())
    explicit = binary3_chain()
    reports = []
    for change in ({"sigma": explicit["sigma"], "chain": "decimation"}, explicit):
        cfg.update(change)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        assert run(["solve-tabular", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        reports.append(json.loads(out.read_text()))
    assert reports[0]["solution"] == reports[1]["solution"]
    assert reports[1]["verified"] is True
