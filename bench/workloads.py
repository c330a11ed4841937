"""Workloads of the msgibbs benchmark.

Each workload builds its inputs from a seed (its set-up), runs one round of
operations through msgibbs' public entry points, and checks the outputs
after the timed phase.  Every operation and every check is counted in
:class:`Ops`; a failure is recorded and never skipped or re-raised.
"""

import json
import math
import sys
from resource import RUSAGE_CHILDREN, getrusage
import time
import traceback
from pathlib import Path

import numpy as np

from msgibbs import cli
from msgibbs import gaussian as mg
from msgibbs import multiscale as ms
from msgibbs import nn
from msgibbs import tabular as mt

REFERENCES_PATH = Path(__file__).with_name("references.json")

#: inputs with stored references exist for this many seed slots; seed n uses slot n % N_SLOTS
N_SLOTS = 8

#: sweep risks must agree with the stored reference within this many combined stderrs
RISK_SIGMAS = 6.0
#: independent estimates behind each stored sweep reference
REFERENCE_REPEATS = 12
#: stream id (first spawn-key entry) of reference draws, unused by the CLI
REFERENCE_STREAM = 7
#: stored tabular objectives must be reproduced to this relative error
OBJECTIVE_RTOL = 1e-9
#: pushforwards of a solution must reproduce its trace within this total variation
MARGINAL_TV = 1e-10
#: the alpha = 0 posterior must equal the single-scale Gibbs posterior to this relative error
SINGLE_SCALE_RTOL = 1e-10

# fig1 net shape on a reduced grid that keeps the sigma1 extremes and alpha = 0
SWEEP_CONFIG = {
    "m": 10,
    "d": 4,
    "teacher_depth": 2,
    "n_train": 30,
    "teacher_weight_variance": 0.1,
    "prior_variance": 5e-5,
    "n_test": 2000,
    "n_weights": 200,
    "alpha_grid": [0.0, 0.5, 0.999],
    "sigma1_grid": {"log10_min": -9.5, "log10_max": -2.5, "points": 4},
}

WIDE_SHAPE = {"m": 12, "d": 8, "teacher_depth": 2, "n_train": 30, "prior_variance": 5e-5}
# (alpha, sigma1): the single-scale reduction, the sigma1 grid edge, the other extreme
WIDE_POINTS = ((0.0, 1e-6), (0.5, 10**-9.5), (0.999, 10**-2.5))
WIDE_EDGE = 1
WIDE_N_TEST, WIDE_N_WEIGHTS = 2000, 50


def slot(seed):
    return seed % N_SLOTS


def load_references():
    return json.loads(REFERENCES_PATH.read_text())


class Ops:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def _fail(self, name, detail):
        self.failures.append(f"{name}: {detail}")
        print(f"FAILED {name}: {detail}", file=sys.stderr)

    def call(self, name, fn, *args):
        """Run one operation; return (succeeded, result)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:
            self._fail(name, traceback.format_exc(limit=3).strip())
        except SystemExit as exc:
            self._fail(name, f"SystemExit({exc.code})")
        return False, None

    def cli(self, name, argv):
        """Run ``msgibbs <argv>`` in-process; a non-zero exit is a failure."""
        ok, code = self.call(name, cli.main, argv)
        if ok and code != cli.EXIT_OK:
            self._fail(name, f"exit code {code}")
            return False
        return ok

    def check(self, name, fn, *args):
        """Run one output check; ``fn`` returns a list of problems, empty when correct."""
        ok, problems = self.call(name, fn, *args)
        if ok and problems:
            self._fail(name, "; ".join(problems[:5]))
            return False
        return ok


# --- teacher-student sweep -------------------------------------------------


def sweep_grid(config):
    sg = config["sigma1_grid"]
    sigma1s = np.logspace(sg["log10_min"], sg["log10_max"], sg["points"])
    return [(a, float(s)) for a in sorted(config["alpha_grid"]) for s in np.sort(sigma1s)]


def teacher_student(config):
    """Teacher, Gauss-Newton energy, prior and partition as the CLI derives them."""
    cfg = nn.TeacherStudentConfig(
        m=config["m"],
        d=config["d"],
        teacher_depth=config["teacher_depth"],
        n_train=config["n_train"],
        teacher_weight_variance=config.get("teacher_weight_variance", 0.1),
        prior_variance=config["prior_variance"],
        seed=config["seed"],
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    teacher, train, _ = nn.teacher_student_data(cfg, rng)
    energy = nn.gauss_newton_energy(nn.ResNetParams.zeros(cfg.m, cfg.d), train)
    return cfg, teacher, energy, nn.iid_gaussian_prior(cfg), nn.layer_partition(cfg.m, cfg.d)


def sweep_reference(config, repeats=REFERENCE_REPEATS):
    """Rows [alpha, sigma1, risk, stderr, spread] from independent risk estimates.

    ``risk`` is the mean of ``repeats`` estimates of the CLI's size drawn on a
    stream the CLI does not use, ``stderr`` its standard error and ``spread``
    the standard deviation of one estimate.  The spread covers the test-set
    noise that the CLI's own stderr (over weight draws only) leaves out.
    """
    cfg, teacher, energy, prior, partition = teacher_student(config)
    rows = []
    for index, (alpha, sigma1) in enumerate(sweep_grid(config)):
        posterior = nn.multiscale_posterior(energy, prior, alpha, sigma1, partition)
        risks = np.array([
            nn.population_risk_mc(
                posterior, teacher, cfg, config["n_test"], config["n_weights"],
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(REFERENCE_STREAM, index, r)),
            )[0]
            for r in range(repeats)
        ])
        spread = float(risks.std(ddof=1))
        rows.append([alpha, sigma1, float(risks.mean()), spread / math.sqrt(repeats), spread])
    return rows


def check_sweep_csv(text, reference, sigmas=RISK_SIGMAS):
    """Problems with an experiment CSV against reference rows (empty when correct)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "alpha,sigma1,risk,risk_stderr":
        return ["missing CSV header"]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if len(rows) != len(reference):
        return [f"{len(rows)} rows for {len(reference)} grid points"]
    problems = []
    for (alpha, sigma1, risk, stderr), (r_alpha, r_sigma1, r_risk, r_se, r_spread) in zip(
        rows, reference
    ):
        at = f"alpha={alpha:g} sigma1={sigma1:.3g}"
        if abs(alpha - r_alpha) > 1e-8 or abs(sigma1 - r_sigma1) > 1e-8 * r_sigma1:
            problems.append(f"{at}: row is not grid point ({r_alpha:g}, {r_sigma1:.3g})")
            continue
        if not (math.isfinite(risk) and risk > 0.0 and math.isfinite(stderr) and stderr > 0.0):
            problems.append(f"{at}: risk {risk!r} or stderr {stderr!r} not finite and positive")
            continue
        combined = math.sqrt(stderr**2 + r_se**2 + r_spread**2)
        if abs(risk - r_risk) > sigmas * combined:
            problems.append(
                f"{at}: risk {risk:.6g} vs reference {r_risk:.6g} "
                f"(> {sigmas:g} x combined stderr {combined:.3g})"
            )
    return problems


class SweepSerial:
    """``msgibbs experiment --workers 1`` over the reduced fig1 grid."""

    name = "sweep-serial"

    def __init__(self, seed, workdir):
        self.slot = slot(seed)
        self.config = dict(SWEEP_CONFIG, seed=self.slot)
        self.config_path = workdir / "sweep.json"
        self.config_path.write_text(json.dumps(self.config))
        self.out_path = workdir / "sweep-serial.csv"
        self.points = len(sweep_grid(self.config))
        # every CLI run builds these; building them here too warms the BLAS
        # thread pool, which the first CLI call would otherwise pay in timing
        teacher_student(self.config)

    def run_round(self, ops):
        argv = ["experiment", "--config", str(self.config_path), "--out", str(self.out_path)]
        ok = ops.cli("cli experiment --workers 1", argv + ["--workers", "1"])
        return {"points": self.points if ok else 0}

    def check(self, ops):
        ops.check("sweep CSV vs reference", lambda: check_sweep_csv(
            self.out_path.read_text(), load_references()["sweep"][str(self.slot)]))

    def pool_probe(self, ops, workers=2):
        """One pooled sweep, its process-level numbers, and byte identity with serial."""
        pool_out = self.out_path.with_name("sweep-pool.csv")
        argv = ["experiment", "--config", str(self.config_path), "--out", str(pool_out),
                "--workers", str(workers)]
        before = getrusage(RUSAGE_CHILDREN)
        start = time.perf_counter()
        ok = ops.cli(f"cli experiment --workers {workers}", argv)
        wall = time.perf_counter() - start
        after = getrusage(RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if ok:
            ops.check("pooled CSV byte-identical to serial", lambda: [] if (
                pool_out.read_bytes() == self.out_path.read_bytes()
            ) else ["pooled and serial CSVs differ"])
        return {
            "cli.pool.wall_s": wall,
            "cli.pool.cpu_util": cpu / (wall * workers),
            "cli.pool.nivcsw": after.ru_nivcsw - before.ru_nivcsw,
        }


# --- wide Gaussian posteriors ----------------------------------------------


def _rel_gap(a, b):
    return float(np.abs(a - b).max() / max(1.0, float(np.abs(b).max())))


def check_refinement(posterior, energy, prior, alpha, sigma1, partition):
    """The posterior's marginals must reproduce the refined intermediates of a
    traced solve, by the measure ``msgibbs solve-gaussian --verify`` gates."""
    gibbs = mg.gibbs_gaussian(energy, prior, 1.0 / sigma1)
    sched = ms.alpha_schedule(alpha, sigma1, partition.n_blocks)
    _, trace = ms.solve_mt(gibbs, prior, sched, ms.GaussianBackend(partition), with_trace=True)
    depth = partition.n_blocks
    gap = max(
        _rel_gap(mg.marginalize(posterior, partition, depth - i + 1).precision,
                 trace.refined[i - 1].precision)
        for i in range(2, depth + 1)
    )
    if not gap <= cli.GAUSSIAN_CONSISTENCY:
        return [f"refinement gap {gap:.3g} above {cli.GAUSSIAN_CONSISTENCY:g}"]
    return []


def check_single_scale(posterior, energy, prior, sigma1):
    gibbs = mg.gibbs_gaussian(energy, prior, 1.0 / sigma1)
    gap = max(_rel_gap(posterior.mean, gibbs.mean), _rel_gap(posterior.cov, gibbs.cov))
    if not gap <= SINGLE_SCALE_RTOL:
        return [f"alpha = 0 posterior differs from gibbs_gaussian by {gap:.3g}"]
    return []


def check_risk(risk):
    value, stderr = risk
    if not (math.isfinite(value) and value > 0.0 and math.isfinite(stderr) and stderr > 0.0):
        return [f"risk {value!r} or stderr {stderr!r} not finite and positive"]
    return []


class PosteriorWide:
    """Library posteriors at m=12, d=8 (dim 1152) plus a short MC risk."""

    name = "posterior-wide"

    def __init__(self, seed, workdir):
        self.seed = seed
        config = dict(WIDE_SHAPE, seed=seed)
        self.cfg, self.teacher, self.energy, self.prior, self.partition = teacher_student(config)
        self.points = len(WIDE_POINTS)
        self.results = {}

    def _point(self, index, alpha, sigma1):
        posterior = nn.multiscale_posterior(self.energy, self.prior, alpha, sigma1, self.partition)
        risk = nn.population_risk_mc(
            posterior, self.teacher, self.cfg, WIDE_N_TEST, WIDE_N_WEIGHTS,
            np.random.SeedSequence(entropy=self.seed, spawn_key=(1, index)),
        )
        return posterior, risk

    def run_round(self, ops):
        done = 0
        for index, (alpha, sigma1) in enumerate(WIDE_POINTS):
            ok, result = ops.call(f"posterior alpha={alpha} sigma1={sigma1:.3g}",
                                  self._point, index, alpha, sigma1)
            if ok:
                self.results[index] = result
                done += 1
        return {"points": done}

    def check(self, ops):
        for index, (alpha, sigma1) in enumerate(WIDE_POINTS):
            if index not in self.results:
                continue
            posterior, risk = self.results[index]
            ops.check(f"risk at alpha={alpha}", check_risk, risk)
            if alpha == 0.0:
                ops.check("alpha = 0 posterior equals gibbs_gaussian", check_single_scale,
                          posterior, self.energy, self.prior, sigma1)
            if index == WIDE_EDGE:
                ops.check("refinement consistency at the sigma1 grid edge", check_refinement,
                          posterior, self.energy, self.prior, alpha, sigma1, self.partition)


# --- tabular renormalization ------------------------------------------------


class TabularInstance:
    """One seeded tabular problem and the library solver that answers it."""

    def __init__(self, kind, f, q, sched, backend):
        self.kind, self.f, self.q, self.sched, self.backend = kind, f, q, sched, backend

    @property
    def states(self):
        return self.f.space.size

    def solve(self, with_trace=False):
        if self.kind == "max-entropy":
            return ms.solve_max_entropy(self.f, self.sched, self.backend, with_trace)
        if self.kind == "min-rel-entropy":
            return ms.solve_min_relative_entropy(
                self.f, self.q, self.sched, self.backend, with_trace)
        gibbs = mt.gibbs(self.f, self.q, 1.0 / (self.sched.lam * self.sched.sigma[0]))
        return ms.solve_mt(gibbs, self.q, self.sched, self.backend, with_trace)

    def objective(self, solution):
        chain = self.backend.chain
        if self.kind == "max-entropy":
            return ms.max_entropy_objective(solution, self.f, self.sched, chain)
        return ms.min_relative_entropy_objective(solution, self.f, self.q, self.sched, chain)


def _random_problem(rng, space, depth):
    f = mt.EnergyTable(space, rng.standard_normal(space.size))
    q = mt.TabularDist.from_weights(space, rng.random(space.size) + 0.05)
    sched = ms.TemperatureSchedule(1.0, (1.0, *rng.uniform(0.1, 1.0, depth - 1)))
    return f, q, sched


def _uneven_chain(rng, sizes):
    """Scale maps through single-axis spaces of the given sizes; every fiber is
    nonempty and fiber sizes follow squared-exponential weights."""
    spaces = [mt.ProductSpace((n,)) for n in sizes]
    chain = []
    for source, target in zip(spaces, spaces[1:]):
        weights = rng.exponential(size=target.size) ** 2
        extra = rng.choice(target.size, source.size - target.size, p=weights / weights.sum())
        mapping = rng.permutation(np.concatenate([np.arange(target.size), extra]))
        chain.append(mt.ScaleMap(source, target, mapping))
    return chain


def tabular_instances(seed):
    """Library instances: decimation chains of 2^16 and 2^18 states and one
    non-decimation chain with uneven fibers."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=slot(seed), spawn_key=(2,)))
    out = {}
    for name, kind, axes, depth in (
        ("min-rel-entropy 4^8", "min-rel-entropy", (4,) * 8, 8),
        ("max-entropy 2^16", "max-entropy", (2,) * 16, 16),
        ("mt 2^18", "mt", (2,) * 18, 10),
    ):
        space = mt.ProductSpace(axes)
        f, q, sched = _random_problem(rng, space, depth)
        out[name] = TabularInstance(kind, f, q, sched, ms.TabularBackend.decimation(space, depth))
    chain = _uneven_chain(rng, (2**15, 4096, 256, 16))
    f, q, sched = _random_problem(rng, chain[0].source, len(chain) + 1)
    out["min-rel-entropy uneven 2^15"] = TabularInstance(
        "min-rel-entropy", f, q, sched, ms.TabularBackend(chain))
    return out


def tabular_cli_config(rng, axes, algorithm):
    space = mt.ProductSpace(axes)
    f, q, sched = _random_problem(rng, space, len(axes))
    return {
        "axis_sizes": list(axes),
        "energy": f.values.tolist(),
        "reference": q.probs.tolist(),
        "lambda": sched.lam,
        "sigma": list(sched.sigma),
        "algorithm": algorithm,
        "chain": "decimation",
    }


def check_tabular(instance, solution, reference_objective):
    """Problems with a solution: its pushforwards must reproduce the trace's
    coarse marginals and its objective the stored reference."""
    traced, trace = instance.solve(with_trace=True)
    problems = []
    if mt.total_variation(traced, solution) > MARGINAL_TV:
        problems.append("solution differs from the traced solve")
    current = solution
    for i, t in enumerate(instance.backend.chain, start=1):
        current = mt.pushforward(current, t)
        tv = mt.total_variation(current, trace.refined[i])
        if tv > MARGINAL_TV:
            problems.append(f"scale {i + 1} marginal off the trace by TV {tv:.3g}")
    value = instance.objective(solution)
    if abs(value - reference_objective) > OBJECTIVE_RTOL * max(1.0, abs(reference_objective)):
        problems.append(f"objective {value!r} vs stored {reference_objective!r}")
    return problems


def check_verify_report(path):
    report = json.loads(Path(path).read_text())
    tv = report.get("tv_to_oracle")
    if not (report.get("verified") is True and tv is not None and tv <= cli.VERIFY_TV):
        return [f"oracle TV {tv!r} above {cli.VERIFY_TV:g}"]
    return []


class Tabular:
    """Tabular solves through the library, and ``msgibbs solve-tabular --verify``."""

    name = "tabular"

    def __init__(self, seed, workdir):
        self.slot = slot(seed)
        self.instances = tabular_instances(seed)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=self.slot, spawn_key=(3,)))
        self.verify_config = workdir / "verify-4096.json"
        self.verify_config.write_text(json.dumps(tabular_cli_config(rng, (4,) * 6, "mt")))
        self.verify_out = workdir / "verify-4096-out.json"
        self.above_cap_config = workdir / "verify-8192.json"
        self.above_cap_config.write_text(
            json.dumps(tabular_cli_config(rng, (2,) * 13, "min-rel-entropy")))
        self.solutions = {}

    def run_round(self, ops):
        states, solve_s = 0, 0.0
        for name, instance in self.instances.items():
            start = time.perf_counter()
            ok, solution = ops.call(f"solve {name}", instance.solve)
            if ok:
                solve_s += time.perf_counter() - start
                states += instance.states
                self.solutions[name] = solution
        ops.cli("cli solve-tabular --verify 4096",
                ["solve-tabular", "--config", str(self.verify_config),
                 "--out", str(self.verify_out)])
        return {"states": states, "solve_s": solve_s}

    def check(self, ops):
        for name, instance in self.instances.items():
            if name in self.solutions:
                ops.check(f"tabular {name}", lambda: check_tabular(
                    instance, self.solutions[name],
                    load_references()["tabular"][str(self.slot)][name]))
        if self.verify_out.exists():
            ops.check("oracle TV at 4096 states", check_verify_report, self.verify_out)

    def above_cap_probe(self):
        """Outcome of ``solve-tabular`` with its default --verify above the oracle cap.

        Returns (crashed, description); a crash is an exception escaping the CLI.
        """
        out = self.above_cap_config.with_name("verify-8192-out.json")
        try:
            code = cli.main(["solve-tabular", "--config", str(self.above_cap_config),
                             "--out", str(out)])
        except Exception as exc:
            return True, f"uncaught {type(exc).__name__}: {exc}"
        return False, f"exit code {code}"


WORKLOADS = {w.name: w for w in (SweepSerial, PosteriorWide, Tabular)}
