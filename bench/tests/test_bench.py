"""Tests of the benchmark itself: span arithmetic, wrapper installation and
the output checks on tiny seeded instances.

    python3 -m pytest -q bench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from msgibbs import cli, gaussian as mg, multiscale as ms, nn, tabular as mt  # noqa: E402
from tracing import Span  # noqa: E402


# --- self time ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "cli.run", 0.0, 10.0, None),
        Span(1, "nn.a", 1.0, 4.0, 0),
        Span(2, "gaussian.b", 2.0, 3.0, 1),
        Span(3, "nn.c", 5.0, 9.0, 0),
        Span(4, "nn.d", 8.0, 11.0, 0),  # overlaps nn.c and outlives its parent
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (3.0 + 5.0))  # [1,4] and [5,10] covered
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(3.0)


def test_summary_counts_a_recursive_name_once_and_sums_layers():
    spans = [
        Span(0, "gaussian.concat", 0.0, 6.0, None),
        Span(1, "gaussian.concat", 1.0, 3.0, 0),
        Span(2, "gaussian.from_precision", 3.0, 5.0, 0),
        Span(3, "nn.forward_batch", 7.0, 8.0, None),
    ]
    summary = tracing.summarize(spans)
    assert summary["calls"]["gaussian.concat"] == 2
    assert summary["s"]["gaussian.concat"] == pytest.approx(6.0)
    assert summary["self_s"]["gaussian.concat"] == pytest.approx(2.0 + 2.0)
    assert summary["layer_self_s"]["gaussian"] == pytest.approx(6.0)
    assert summary["layer_self_s"]["nn"] == pytest.approx(1.0)


# --- wrapper installation ---------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f():
        return "f"

    class Dist:
        @classmethod
        def build(cls):
            return cls

    a.f, a.Dist = f, Dist
    b.f = f  # bound by name, as nn binds gaussian.sample
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b, f, Dist


def test_replace_everywhere_rebinds_every_importer_and_restores(fake_package):
    a, b, f, Dist = fake_package
    raw = vars(Dist)["build"]
    undo = tracing.replace_everywhere(a, "f", lambda fn: lambda: "wrapped " + fn(), "fakepkg")
    undo += tracing.replace_everywhere(
        Dist, "build", lambda fn: lambda cls: ("wrapped", fn(cls)), "fakepkg"
    )
    assert a.f() == b.f() == "wrapped f"
    assert Dist.build() == ("wrapped", Dist)
    tracing.restore(undo)
    assert a.f is f and b.f is f
    assert vars(Dist)["build"] is raw


def test_tracer_install_covers_names_bound_in_nn_and_uninstall_restores():
    import numpy.linalg

    originals = {
        "sample": mg.sample,
        "gibbs_gaussian": mg.gibbs_gaussian,
        "solve_mt": ms.solve_mt,
        "cholesky": numpy.linalg.cholesky,
    }
    from_precision = vars(mg.GaussianDist)["from_precision"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nn.sample is mg.sample is not originals["sample"]
        assert nn.gibbs_gaussian is mg.gibbs_gaussian is not originals["gibbs_gaussian"]
        assert nn.solve_mt is ms.solve_mt is not originals["solve_mt"]
        assert vars(mg.GaussianDist)["from_precision"] is not from_precision
        assert numpy.linalg.cholesky is not originals["cholesky"]
    finally:
        tracer.uninstall()
    assert nn.sample is mg.sample is originals["sample"]
    assert nn.gibbs_gaussian is mg.gibbs_gaussian is originals["gibbs_gaussian"]
    assert nn.solve_mt is ms.solve_mt is originals["solve_mt"]
    assert vars(mg.GaussianDist)["from_precision"] is from_precision
    assert numpy.linalg.cholesky is originals["cholesky"]


TINY = {
    "m": 3,
    "d": 3,
    "teacher_depth": 1,
    "n_train": 12,
    "teacher_weight_variance": 0.1,
    "prior_variance": 5e-4,
    "n_test": 200,
    "n_weights": 30,
    "alpha_grid": [0.0, 0.5, 0.999],
    "sigma1_grid": {"log10_min": -6.0, "log10_max": -3.0, "points": 3},
    "seed": 5,
}


def test_traced_posterior_nests_spans_and_counts_repeat_exactly():
    _, _, energy, prior, partition = workloads.teacher_student(TINY)
    nn.multiscale_posterior(energy, prior, 0.5, 1e-4, partition)  # fills lazy caches
    tracer = tracing.Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            before = dict(tracer.counters)
            nn.multiscale_posterior(energy, prior, 0.5, 1e-4, partition)
            counts.append({k: v - before.get(k, 0) for k, v in tracer.counters.items()})
    finally:
        tracer.uninstall()
    assert counts[0] == counts[1]
    assert counts[0]["gaussian.linalg.cholesky.calls"] > 0
    by_id = {s.id: s for s in tracer.spans}
    solve = next(s for s in tracer.spans if s.name == "multiscale.solve")
    assert by_id[solve.parent].name == "nn.multiscale_posterior"
    assert any(by_id.get(s.parent) is solve for s in tracer.spans if s.name.startswith("gaussian."))


# --- output checks ------------------------------------------------------------------


def test_sweep_check_accepts_the_cli_and_rejects_a_wrong_posterior(tmp_path):
    config_path, out = tmp_path / "tiny.json", tmp_path / "tiny.csv"
    config_path.write_text(json.dumps(TINY))
    assert cli.main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
    text = out.read_text()
    assert workloads.check_sweep_csv(text, workloads.sweep_reference(TINY, repeats=6)) == []
    wrong = workloads.sweep_reference(dict(TINY, prior_variance=5e-2), repeats=6)
    assert workloads.check_sweep_csv(text, wrong)
    assert workloads.check_sweep_csv(text.replace("risk_stderr", "se"), wrong)
    short = "\n".join(text.splitlines()[:-1])
    assert "rows for" in workloads.check_sweep_csv(short, wrong)[0]


def test_gaussian_checks_on_a_tiny_posterior():
    _, _, energy, prior, partition = workloads.teacher_student(TINY)
    multi = nn.multiscale_posterior(energy, prior, 0.5, 1e-6, partition)
    single = nn.multiscale_posterior(energy, prior, 0.0, 1e-6, partition)
    assert workloads.check_refinement(multi, energy, prior, 0.5, 1e-6, partition) == []
    assert workloads.check_refinement(single, energy, prior, 0.5, 1e-6, partition)
    assert workloads.check_single_scale(single, energy, prior, 1e-6) == []
    assert workloads.check_single_scale(multi, energy, prior, 1e-6)
    assert workloads.check_risk((1.5, 0.01)) == []
    assert workloads.check_risk((float("nan"), 0.01))


def test_tabular_check_on_a_tiny_instance():
    rng = np.random.default_rng(11)
    space = mt.ProductSpace((2, 3, 2, 2))
    f, q, sched = workloads._random_problem(rng, space, 4)
    inst = workloads.TabularInstance(
        "mt", f, q, sched, ms.TabularBackend.decimation(space, 4))
    solution = inst.solve()
    objective = inst.objective(solution)
    assert workloads.check_tabular(inst, solution, objective) == []
    assert workloads.check_tabular(inst, solution, objective * (1 + 1e-6))
    assert workloads.check_tabular(inst, mt.TabularDist.uniform(space), objective)


def test_uneven_chain_has_nonempty_fibers_and_solves():
    rng = np.random.default_rng(3)
    chain = workloads._uneven_chain(rng, (200, 40, 6))
    for t in chain:
        assert np.bincount(t.map, minlength=t.target.size).min() >= 1
    f, q, sched = workloads._random_problem(rng, chain[0].source, 3)
    inst = workloads.TabularInstance("min-rel-entropy", f, q, sched, ms.TabularBackend(chain))
    solution = inst.solve()
    assert workloads.check_tabular(inst, solution, inst.objective(solution)) == []


def test_verify_report_check(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"verified": True, "tv_to_oracle": 1e-7}))
    bad.write_text(json.dumps({"verified": False, "tv_to_oracle": 0.3}))
    assert workloads.check_verify_report(good) == []
    assert workloads.check_verify_report(bad)


def test_ops_counts_exceptions_exit_codes_and_failed_checks():
    ops = workloads.Ops()
    assert ops.call("ok", lambda: 3) == (True, 3)
    assert ops.call("raises", lambda: 1 / 0) == (False, None)
    assert not ops.cli("bad args", ["no-such-command"])
    assert not ops.check("problem", lambda: ["wrong"])
    assert ops.check("fine", lambda: [])
    assert (ops.attempted, ops.failed) == (5, 3)


def test_reported_metric_names_match_benchmark_json():
    import run

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(run.END_TO_END) == {m["name"] for m in declared["end_to_end"]}
    empty_round = {"spans": [], "counters": {}, "wall": 1.0, "ref": 0.5}
    traced = run.layer_metrics([empty_round], [empty_round, empty_round])
    reported = set(traced) | set(run.POOL_METRICS) | {"cli.above_cap_verify.failed"}
    assert reported == {m["name"] for m in declared["per_layer"]}
    for m in declared["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]
