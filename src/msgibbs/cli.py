"""Command-line front end.

Subcommands:
  solve-tabular   solve a tabular instance and verify against the simplex oracle
  solve-gaussian  solve a Gaussian decimation instance with consistency checks
  experiment      teacher-student alpha/sigma1 sweep, CSV output
  bounds          excess-risk bound report, JSON output

Configs are JSON files; every output embeds the resolved config and the
library version.  Outputs are byte-identical for a fixed seed regardless
of the worker count.
"""

import argparse
import concurrent.futures
import json
import math
import sys

import numpy as np

from . import __version__
from . import bounds as mb
from . import gaussian as mg
from . import multiscale as ms
from . import nn as mn
from . import oracle as mo
from . import tabular as mt
from .errors import ConfigError, MsgibbsError

VERIFY_TV = 1e-4
GAUSSIAN_CONSISTENCY = 1e-8

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAILED = 2


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc


def _require(cfg, key, path="$"):
    if key not in cfg:
        raise ConfigError(f"config error at {path}: missing key {key!r}")
    return cfg[key]


def _sanitize(obj):
    """Make report values JSON-safe (inf sentinels become the string 'inf')."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _write_json(path, obj):
    text = json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(x):
    return f"{x:.9g}"


def _schedule_from(cfg, path="$"):
    if "sigma" in cfg:
        lam = float(cfg.get("lambda", 1.0))
        return ms.TemperatureSchedule(lam, tuple(cfg["sigma"]))
    if "alpha" in cfg:
        return ms.alpha_schedule(
            float(cfg["alpha"]), float(_require(cfg, "sigma1", path)), int(_require(cfg, "d", path))
        )
    raise ConfigError(f"config error at {path}: need 'sigma' or 'alpha'")


def cmd_solve_tabular(args):
    cfg = _load_config(args.config)
    try:
        space = mt.ProductSpace(tuple(_require(cfg, "axis_sizes")))
        energy = mt.EnergyTable(space, np.asarray(_require(cfg, "energy"), dtype=float))
        algorithm = _require(cfg, "algorithm")
        if algorithm not in ("max-entropy", "min-rel-entropy", "mt"):
            raise ConfigError(f"config error at $.algorithm: unknown {algorithm!r}")
        if args.verify and space.size > mo.MAX_ORACLE_STATES:
            raise ConfigError(
                f"--verify supports at most {mo.MAX_ORACLE_STATES} states (the oracle "
                f"cap), got {space.size}; use --no-verify"
            )
        sched = _schedule_from(cfg)
        chain_cfg = cfg.get("chain", "decimation")
        if chain_cfg == "decimation":
            backend = ms.TabularBackend.decimation(space, sched.depth)
        else:
            backend = ms.TabularBackend([mt.ScaleMap.from_json(c) for c in chain_cfg])
        reference = None
        if algorithm in ("min-rel-entropy", "mt"):
            reference = mt.TabularDist(
                space, np.asarray(_require(cfg, "reference"), dtype=float)
            )
    except (MsgibbsError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if algorithm == "max-entropy":
        solution = ms.solve_max_entropy(energy, sched, backend)
        objective = ms.max_entropy_objective(solution, energy, sched, backend.chain)
        oracle_kind = "max-entropy"
    elif algorithm == "min-rel-entropy":
        solution = ms.solve_min_relative_entropy(energy, reference, sched, backend)
        objective = ms.min_relative_entropy_objective(
            solution, energy, reference, sched, backend.chain
        )
        oracle_kind = "min-relative-entropy"
    else:
        gibbs = mt.gibbs(energy, reference, 1.0 / (sched.lam * sched.sigma[0]))
        solution = ms.solve_mt(gibbs, reference, sched, backend)
        objective = ms.min_relative_entropy_objective(
            solution, energy, reference, sched, backend.chain
        )
        oracle_kind = "min-relative-entropy"

    report = {
        "config": cfg,
        "version": __version__,
        "solution": solution.to_json(),
        "objective": objective,
    }
    exit_code = EXIT_OK
    if args.verify:
        oracle_dist = mo.minimize_tabular(
            oracle_kind, energy, reference, sched, backend.chain
        )
        tv = mt.total_variation(solution, oracle_dist)
        report["oracle"] = oracle_dist.to_json()
        report["tv_to_oracle"] = tv
        report["verified"] = bool(tv <= VERIFY_TV)
        if tv > VERIFY_TV:
            exit_code = EXIT_VERIFY_FAILED
    _write_json(args.out, report)
    return exit_code


def cmd_solve_gaussian(args):
    cfg = _load_config(args.config)
    try:
        prior_cfg = _require(cfg, "prior")
        partition = mg.BlockPartition(tuple(_require(prior_cfg, "block_sizes", "$.prior")))
        prior = mg.GaussianDist.from_json(prior_cfg)
        energy_cfg = _require(cfg, "energy")
        dim = prior.dim
        k_mat = np.asarray(_require(energy_cfg, "K", "$.energy"), dtype=float)
        if k_mat.ndim == 1:
            k_mat = k_mat.reshape(dim, dim)
        energy = mg.QuadraticEnergy(
            k_mat,
            np.asarray(energy_cfg.get("g", np.zeros(dim)), dtype=float),
            float(energy_cfg.get("c", 0.0)),
        )
        algorithm = cfg.get("algorithm", "mt")
        if algorithm not in ("max-entropy", "min-rel-entropy", "mt"):
            raise ConfigError(f"config error at $.algorithm: unknown {algorithm!r}")
        sched = _schedule_from(cfg)
        backend = ms.GaussianBackend(partition)
    except (MsgibbsError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if algorithm == "max-entropy":
        solution, trace = ms.solve_max_entropy(energy, sched, backend, with_trace=True)
        objective = (
            sched.sigma[0] * mg.differential_entropy(solution)
            - sched.lam * mg.expected_quadratic(solution, energy)
        )
        for i in range(2, sched.depth + 1):
            if sched.sigma[i - 1] > 0.0:
                marg = mg.marginalize(solution, partition, sched.depth - i + 1)
                objective += sched.sigma[i - 1] * mg.differential_entropy(marg)
    else:
        solution, trace = ms.solve_min_relative_entropy(
            energy, prior, sched, backend, with_trace=True
        )
        objective = mg.expected_quadratic(solution, energy)
        refs = backend.reference_marginals(prior)
        for i in range(1, sched.depth + 1):
            if sched.sigma[i - 1] > 0.0:
                marg = mg.marginalize(solution, partition, sched.depth - i + 1)
                objective += sched.lam * sched.sigma[i - 1] * mg.kl_gaussian(
                    marg, refs[i - 1]
                )

    report = {
        "config": cfg,
        "version": __version__,
        "solution": solution.to_json(partition),
        "objective": objective,
    }
    exit_code = EXIT_OK
    if args.verify:
        # refinement consistency: marginals reproduce the refinement intermediates
        worst = 0.0
        for i in range(2, sched.depth + 1):
            marg = mg.marginalize(solution, partition, sched.depth - i + 1)
            ref = trace.refined[i - 1]
            gap = np.abs(marg.precision - ref.precision).max() / max(
                1.0, np.abs(ref.precision).max()
            )
            worst = max(worst, float(gap))
        report["refinement_consistency"] = worst
        report["verified"] = bool(worst <= GAUSSIAN_CONSISTENCY)
        if worst > GAUSSIAN_CONSISTENCY:
            exit_code = EXIT_VERIFY_FAILED
    _write_json(args.out, report)
    return exit_code


def _resolve_experiment(cfg, seed_override):
    resolved = dict(cfg)
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    resolved.setdefault("seed", 0)
    resolved.setdefault("m", 10)
    resolved.setdefault("d", 4)
    resolved.setdefault("teacher_depth", 2)
    resolved.setdefault("n_train", 30)
    resolved.setdefault("teacher_weight_variance", 0.1)
    resolved.setdefault("prior_variance", 5e-5)
    resolved.setdefault("n_test", 2000)
    resolved.setdefault("n_weights", 200)
    if "alpha_grid" not in resolved:
        grid = [round(0.05 * k, 2) for k in range(20)]
        grid.append(0.999)
        resolved["alpha_grid"] = grid
    if "sigma1_grid" not in resolved:
        resolved["sigma1_grid"] = {"log10_min": -9.5, "log10_max": -2.5, "points": 29}
    if not resolved["alpha_grid"]:
        raise ConfigError("config error at $.alpha_grid: grid must be nonempty")
    if any(not 0.0 <= a <= 0.999 for a in resolved["alpha_grid"]):
        raise ConfigError("config error at $.alpha_grid: alphas must be in [0, 0.999]")
    sg = resolved["sigma1_grid"]
    if isinstance(sg, dict):
        pts = int(sg.get("points", 29))
        if pts < 1:
            raise ConfigError("config error at $.sigma1_grid.points: must be >= 1")
        sigma1s = np.logspace(float(sg["log10_min"]), float(sg["log10_max"]), pts)
        resolved["sigma1_grid"] = {
            "log10_min": float(sg["log10_min"]),
            "log10_max": float(sg["log10_max"]),
            "points": pts,
        }
    else:
        sigma1s = np.asarray([float(s) for s in sg])
        if sigma1s.size == 0 or np.any(sigma1s <= 0.0):
            raise ConfigError("config error at $.sigma1_grid: need positive values")
    # output rows (and per-point seeds) follow the sorted grid order
    alphas = sorted(float(a) for a in resolved["alpha_grid"])
    return resolved, alphas, np.sort(sigma1s)


_WORKER_CACHE = {}


def _experiment_setup(resolved_json):
    """Teacher, Gauss-Newton energy and prior, cached per process."""
    if resolved_json not in _WORKER_CACHE:
        resolved = json.loads(resolved_json)
        cfg = mn.TeacherStudentConfig(
            m=int(resolved["m"]),
            d=int(resolved["d"]),
            teacher_depth=int(resolved["teacher_depth"]),
            n_train=int(resolved["n_train"]),
            teacher_weight_variance=float(resolved["teacher_weight_variance"]),
            prior_variance=float(resolved["prior_variance"]),
            seed=int(resolved["seed"]),
        )
        data_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,))
        )
        teacher, train, _ = mn.teacher_student_data(cfg, data_rng)
        energy = mn.gauss_newton_energy(mn.ResNetParams.zeros(cfg.m, cfg.d), train)
        prior = mn.iid_gaussian_prior(cfg)
        partition = mn.layer_partition(cfg.m, cfg.d)
        _WORKER_CACHE.clear()
        _WORKER_CACHE[resolved_json] = (cfg, teacher, energy, prior, partition)
    return _WORKER_CACHE[resolved_json]


def _experiment_point(task):
    resolved_json, index, alpha, sigma1 = task
    cfg, teacher, energy, prior, partition = _experiment_setup(resolved_json)
    resolved = json.loads(resolved_json)
    posterior = mn.multiscale_posterior(energy, prior, alpha, sigma1, partition)
    seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, index))
    risk, stderr = mn.population_risk_mc(
        posterior,
        teacher,
        cfg,
        int(resolved["n_test"]),
        int(resolved["n_weights"]),
        seed,
    )
    return index, alpha, sigma1, risk, stderr


def cmd_experiment(args):
    cfg = _load_config(args.config)
    try:
        resolved, alphas, sigma1s = _resolve_experiment(cfg, args.seed)
    except (MsgibbsError, ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    resolved_json = json.dumps(resolved, sort_keys=True)
    tasks = []
    index = 0
    for alpha in alphas:
        for sigma1 in sigma1s:
            tasks.append((resolved_json, index, alpha, float(sigma1)))
            index += 1
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_experiment_point, tasks, chunksize=4))
    else:
        rows = [_experiment_point(t) for t in tasks]
    rows.sort(key=lambda r: r[0])

    header = [
        f"# msgibbs {__version__}",
        f"# config: {resolved_json}",
    ]
    lines = header + ["alpha,sigma1,risk,risk_stderr"]
    for _, alpha, sigma1, risk, stderr in rows:
        lines.append(f"{_fmt(alpha)},{_fmt(sigma1)},{_fmt(risk)},{_fmt(stderr)}")
    out_text = "\n".join(lines) + "\n"

    summary_lines = header + ["alpha,min_risk,argmin_sigma1,risk_stderr"]
    per_alpha = {}
    for _, alpha, sigma1, risk, stderr in rows:
        best = per_alpha.get(alpha)
        if best is None or risk < best[0]:
            per_alpha[alpha] = (risk, sigma1, stderr)
    for alpha in alphas:
        risk, sigma1, stderr = per_alpha[alpha]
        summary_lines.append(f"{_fmt(alpha)},{_fmt(risk)},{_fmt(sigma1)},{_fmt(stderr)}")
    summary_text = "\n".join(summary_lines) + "\n"

    if args.out is None:
        sys.stdout.write(out_text)
        sys.stdout.write(summary_text)
    else:
        with open(args.out, "w") as fh:
            fh.write(out_text)
        summary_path = _summary_path(args.out)
        with open(summary_path, "w") as fh:
            fh.write(summary_text)
    return EXIT_OK


def _summary_path(out_path):
    if out_path.endswith(".csv"):
        return out_path[: -len(".csv")] + "_summary.csv"
    return out_path + "_summary.csv"


def cmd_bounds(args):
    cfg = _load_config(args.config)
    try:
        kind = _require(cfg, "kind")
        bc = mb.BoundConfig(
            R=float(_require(cfg, "R")),
            n=int(_require(cfg, "n")),
            d=int(_require(cfg, "d")),
        )
        if kind == "dirac":
            if "log_inv_q" in cfg:
                qhat = mb.DiracReference(tuple(cfg["log_inv_q"]))
            else:
                ts = _require(cfg, "teacher_student")
                d = bc.d
                m_ratio = float(_require(ts, "M", "$.teacher_student"))
                q2 = float(_require(ts, "log_inv_q2", "$.teacher_student"))
                q1 = float(ts.get("log_inv_q1", 0.0))
                d_teacher = d / m_ratio
                if abs(d_teacher - round(d_teacher)) > 1e-9:
                    raise ConfigError("config error: d / M must be an integer")
                d_teacher = int(round(d_teacher))
                qhat = mb.DiracReference(
                    tuple([q1] * (d - d_teacher) + [q2] * d_teacher)
                )
            prior = None
            partition = None
        elif kind == "gaussian":
            qhat = mg.GaussianDist.from_json(_require(cfg, "qhat"))
            prior = mg.GaussianDist.from_json(_require(cfg, "prior"))
            partition = mg.BlockPartition(tuple(_require(cfg, "block_sizes")))
        else:
            raise ConfigError(f"config error at $.kind: unknown {kind!r}")
        report = mb.bound_report(qhat, prior, bc, partition)
        if kind == "dirac" and "teacher_student" in cfg:
            ts = cfg["teacher_student"]
            exact, approx = mb.teacher_student_dpg_sum(
                bc.d, float(ts["M"]), float(ts["log_inv_q2"])
            )
            report["teacher_student_dpg_sum"] = {"exact": exact, "approx": approx}
    except (MsgibbsError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report["config"] = cfg
    report["version"] = __version__
    _write_json(args.out, report)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msgibbs",
        description="multiscale Gibbs distribution solvers and bound reports",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, verify=False, seed=False, workers=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        if verify:
            p.add_argument(
                "--verify",
                action=argparse.BooleanOptionalAction,
                default=True,
                help="toggle the independent verification pass",
            )
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        if workers:
            p.add_argument("--workers", type=int, default=1, help="parallel workers")

    p = sub.add_parser("solve-tabular", help="tabular solve with oracle check")
    add_common(p, verify=True)
    p.set_defaults(func=cmd_solve_tabular)

    p = sub.add_parser("solve-gaussian", help="Gaussian decimation solve")
    add_common(p, verify=True)
    p.set_defaults(func=cmd_solve_gaussian)

    p = sub.add_parser("experiment", help="teacher-student alpha/sigma1 sweep")
    add_common(p, seed=True, workers=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bounds", help="excess-risk bound report")
    add_common(p)
    p.set_defaults(func=cmd_bounds)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MsgibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
