"""Command-line front end.

Subcommands:
  solve-tabular   solve a tabular instance and verify against the exact value-recursion oracle
  solve-gaussian  solve a Gaussian decimation instance with consistency checks
  experiment      teacher-student alpha/sigma1 sweep, CSV output
  bounds          excess-risk bound report, JSON output

Configs are JSON files; every output embeds the resolved config and the
library version.  Outputs are byte-identical for a fixed seed regardless
of --workers and the CPU count.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
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
from .tolerances import TOL

VERIFY_TV = TOL.oracle_agreement_tv
GAUSSIAN_CONSISTENCY = TOL.refinement_consistency

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


@contextlib.contextmanager
def _config_phase(path="$"):
    """Re-raise a failure to read the config under ``path`` as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (MsgibbsError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _require(cfg, key, path="$"):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: must be an object, got {cfg!r}")
    if key not in cfg:
        raise ConfigError(f"{path}: missing key {key!r}")
    return cfg[key]


def _json(obj, pad="\n"):
    """``json.dumps(obj, indent=2, sort_keys=True)``, with an infinite float as the string
    "inf"; keys must be ``str``.

    A list of finite floats is written in one pass: ``float.__repr__`` is what ``json``
    writes for each of them.  Every other scalar goes to ``json.dumps``.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("report keys must be str")
        items = [f"{json.dumps(key)}: {_json(obj[key], inner)}" for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            items = map(float.__repr__, obj)
        else:
            items = [_json(v, inner) for v in obj]
        brackets = "[]"
    elif isinstance(obj, float) and math.isinf(obj):
        return '"inf"'
    else:
        return json.dumps(obj)
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}{pad}{brackets[1]}" if body else brackets


def _write_report(args, cfg, report):
    """Write a JSON report with the config and the library version embedded.

    Returns EXIT_VERIFY_FAILED if the report carries a failed verification.
    """
    report.update(config=cfg, version=__version__)
    text = _json(report) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK if report.get("verified", True) else EXIT_VERIFY_FAILED


def _csv_line(*values):
    return ",".join(f"{x:.9g}" for x in values)


def _schedule_from(cfg, path="$"):
    """The schedule of ``sigma`` or of ``alpha``, ``sigma1`` and ``d``, with ``lambda``."""
    if "sigma" in cfg and "alpha" in cfg:
        raise ConfigError(f"{path}: a schedule takes 'sigma' or 'alpha', not both")
    if "sigma" in cfg:
        sigma = _list(cfg["sigma"], f"{path}.sigma")
    elif "alpha" in cfg:
        sigma = ms.alpha_schedule(
            _number(cfg["alpha"], f"{path}.alpha"),
            _number(_require(cfg, "sigma1", path), f"{path}.sigma1"),
            _integral(_require(cfg, "d", path), f"{path}.d"),
        ).sigma
    else:
        raise ConfigError(f"{path}: need 'sigma' or 'alpha'")
    return ms.TemperatureSchedule(_number(cfg.get("lambda", 1.0), f"{path}.lambda"), sigma)


def cmd_solve_tabular(args):
    cfg = _load_config(args.config)
    with _config_phase():
        space = mt.ProductSpace(_sizes(_require(cfg, "axis_sizes"), "$.axis_sizes"))
        with _config_phase("$.energy"):
            energy = mt.EnergyTable(space, _require(cfg, "energy"))
        algorithm = _require(cfg, "algorithm")
        if algorithm not in ("max-entropy", "min-rel-entropy", "mt"):
            raise ConfigError(f"$.algorithm: unknown {algorithm!r}")
        sched = _schedule_from(cfg)
        chain_cfg = cfg.get("chain", "decimation")
        if chain_cfg == "decimation":
            backend = ms.TabularBackend.decimation(space, sched.depth)
        elif isinstance(chain_cfg, list):
            with _config_phase("$.chain"):
                backend = ms.TabularBackend(_list(chain_cfg, "$.chain", _scale_map))
        else:
            raise ConfigError(f"$.chain: must be 'decimation' or a list, got {chain_cfg!r}")
        ms.check_depth(backend, sched.depth)
        reference = None
        if algorithm in ("min-rel-entropy", "mt"):
            with _config_phase("$.reference"):
                reference = mt.TabularDist(space, _require(cfg, "reference"))

    if algorithm == "max-entropy":
        solution = ms.solve_max_entropy(energy, sched, backend)
        objective = ms.max_entropy_objective(solution, energy, sched, backend.chain)
        oracle_kind = "max-entropy"
    else:
        # 'mt' (solve_mt from the initial Gibbs) and min-rel-entropy are the same solve
        solution = ms.solve_min_relative_entropy(energy, reference, sched, backend)
        objective = ms.min_relative_entropy_objective(
            solution, energy, reference, sched, backend.chain
        )
        oracle_kind = "min-relative-entropy"

    report = {"solution": solution.to_json(), "objective": objective}
    if args.verify:
        _, log_p = mo.exact_tabular(oracle_kind, energy, reference, sched, backend.chain)
        oracle_dist = mt.TabularDist.from_weights(space, np.exp(log_p))
        tv = mt.total_variation(solution, oracle_dist)
        report["oracle"] = oracle_dist.to_json()
        report["tv_to_oracle"] = tv
        report["verified"] = bool(tv <= VERIFY_TV)
    return _write_report(args, cfg, report)


def cmd_solve_gaussian(args):
    cfg = _load_config(args.config)
    with _config_phase():
        prior_cfg = _require(cfg, "prior")
        block_sizes = _require(prior_cfg, "block_sizes", "$.prior")
        partition = mg.BlockPartition(_sizes(block_sizes, "$.prior.block_sizes"))
        with _config_phase("$.prior"):
            prior = mg.GaussianDist.from_json(prior_cfg)
        backend = ms.GaussianBackend(partition)
        with _config_phase("$.prior.block_sizes"):
            backend.check_space(prior)
        dim = prior.dim
        energy_cfg = _require(cfg, "energy")
        with _config_phase("$.energy"):
            energy = mg.QuadraticEnergy(
                np.reshape(_require(energy_cfg, "K", "$.energy"), (dim, dim)),
                energy_cfg.get("g", np.zeros(dim)),
                _number(energy_cfg.get("c", 0.0), "$.energy.c"),
            )
        algorithm = cfg.get("algorithm", "mt")
        if algorithm not in ("max-entropy", "min-rel-entropy", "mt"):
            raise ConfigError(f"$.algorithm: unknown {algorithm!r}")
        sched = _schedule_from(cfg)
        ms.check_depth(backend, sched.depth)

    if algorithm == "max-entropy":
        solution, trace = ms.solve_max_entropy(energy, sched, backend, with_trace=True)
        objective = ms.max_entropy_objective(solution, energy, sched, partition)
    else:
        solution, trace = ms.solve_min_relative_entropy(
            energy, prior, sched, backend, with_trace=True
        )
        objective = ms.min_relative_entropy_objective(solution, energy, prior, sched, partition)

    report = {"solution": solution.to_json(partition), "objective": objective}
    if args.verify:
        worst = ms.gaussian_refinement_gap(solution, trace, partition)
        report["refinement_consistency"] = worst
        report["verified"] = bool(worst <= GAUSSIAN_CONSISTENCY)
    return _write_report(args, cfg, report)


_EXPERIMENT_DEFAULTS = {
    # teacher_weight_variance, prior_variance and seed: the dataclass's own defaults
    **{f.name: f.default for f in dataclasses.fields(mn.TeacherStudentConfig)
       if f.default is not dataclasses.MISSING},
    "m": 10,
    "d": 4,
    "teacher_depth": 2,
    "n_train": 30,
    "n_test": 2000,
    "n_weights": 200,
    "alpha_grid": tuple(round(0.05 * k, 2) for k in range(20)) + (0.999,),
    "sigma1_grid": {"log10_min": -9.5, "log10_max": -2.5, "points": 29},
}


def _integral(value, path):
    """A JSON number with an integral value, as an int."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    return int(value)


def _number(value, path):
    """A JSON number (not a bool or a string), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: must be a number, got {value!r}")
    return float(value)


def _list(values, path, read=_number):
    """A JSON list, each entry read by ``read(entry, its path)``; numbers by default."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{path}: must be a list, got {values!r}")
    return [read(v, f"{path}[{i}]") for i, v in enumerate(values)]


def _sizes(values, path):
    """A JSON list of integral sizes, as a tuple of ints."""
    return tuple(_list(values, path, _integral))


def _scale_map(cfg, path):
    """A ``ScaleMap`` from its JSON object; sizes and map entries must be integral."""
    source, target, entries = (_sizes(_require(cfg, key, path), f"{path}.{key}")
                               for key in ("source_axis_sizes", "target_axis_sizes", "map"))
    with _config_phase(path):
        return mt.ScaleMap(mt.ProductSpace(source), mt.ProductSpace(target), entries)


def _resolve_experiment(cfg, seed_override):
    resolved = {**_EXPERIMENT_DEFAULTS, **cfg}
    if seed_override is not None:
        resolved["seed"] = int(seed_override)
    for key in ("m", "d", "teacher_depth", "n_train", "seed", "n_test", "n_weights"):
        resolved[key] = _integral(resolved[key], f"$.{key}")
    for key in ("teacher_weight_variance", "prior_variance"):
        _number(resolved[key], f"$.{key}")
    for key, least in (("n_test", 1), ("n_weights", 1), ("seed", 0)):
        if resolved[key] < least:
            raise ConfigError(f"$.{key}: must be >= {least}")
    alphas = _list(resolved["alpha_grid"], "$.alpha_grid")
    if not alphas:
        raise ConfigError("$.alpha_grid: grid must be nonempty")
    if any(not 0.0 <= a <= 0.999 for a in alphas):
        raise ConfigError("$.alpha_grid: alphas must be in [0, 0.999]")
    sg = resolved["sigma1_grid"]
    if isinstance(sg, dict):
        lo = _number(_require(sg, "log10_min", "$.sigma1_grid"), "$.sigma1_grid.log10_min")
        hi = _number(_require(sg, "log10_max", "$.sigma1_grid"), "$.sigma1_grid.log10_max")
        pts = _integral(sg.get("points", 29), "$.sigma1_grid.points")
        if pts < 1:
            raise ConfigError("$.sigma1_grid.points: must be >= 1")
        sigma1s = np.logspace(lo, hi, pts)
        resolved["sigma1_grid"] = {"log10_min": lo, "log10_max": hi, "points": pts}
    else:
        sigma1s = np.asarray(_list(sg, "$.sigma1_grid"))
    if sigma1s.size == 0 or not np.all(np.isfinite(sigma1s) & (sigma1s > 0.0)):
        raise ConfigError("$.sigma1_grid: need finite, positive values")
    return resolved, alphas, sigma1s


def cmd_experiment(args):
    cfg = _load_config(args.config)
    with _config_phase():
        resolved, alphas, sigma1s = _resolve_experiment(cfg, args.seed)
        # every field is an int or a float; coerce the JSON value to the annotated type
        fields = dataclasses.fields(mn.TeacherStudentConfig)
        ts_cfg = mn.TeacherStudentConfig(**{f.name: f.type(resolved[f.name]) for f in fields})
        if args.workers < 1:
            raise ConfigError(f"--workers: must be >= 1, got {args.workers}")
    rows = mn.teacher_student_sweep(
        ts_cfg, alphas, sigma1s, resolved["n_test"], resolved["n_weights"]
    )

    header = [f"# msgibbs {__version__}", f"# config: {json.dumps(resolved, sort_keys=True)}"]
    lines = header + ["alpha,sigma1,risk,risk_stderr"] + [_csv_line(*row) for row in rows]
    out_text = "\n".join(lines) + "\n"
    summary_lines = header + ["alpha,min_risk,argmin_sigma1,risk_stderr"] + [
        _csv_line(alpha, risk, sigma1, stderr)
        for alpha, sigma1, risk, stderr in mn.min_risk_per_alpha(rows)
    ]
    summary_text = "\n".join(summary_lines) + "\n"

    if args.out is None:
        sys.stdout.write(out_text + summary_text)
    else:
        with open(args.out, "w") as fh:
            fh.write(out_text)
        with open(_summary_path(args.out), "w") as fh:
            fh.write(summary_text)
    return EXIT_OK


def _summary_path(out):
    """Where ``experiment --out out`` writes its summary CSV."""
    return out.removesuffix(".csv") + "_summary.csv"


def cmd_bounds(args):
    cfg = _load_config(args.config)
    with _config_phase():
        kind = _require(cfg, "kind")
        bc = mb.BoundConfig(
            R=_number(_require(cfg, "R"), "$.R"),
            n=_integral(_require(cfg, "n"), "$.n"),
            d=_integral(_require(cfg, "d"), "$.d"),
        )
        teacher_student = None
        if kind == "dirac":
            if "log_inv_q" in cfg and "teacher_student" in cfg:
                raise ConfigError(
                    "$: a dirac reference takes 'log_inv_q' or 'teacher_student', not both"
                )
            if "log_inv_q" in cfg:
                qhat = mb.DiracReference(tuple(_list(cfg["log_inv_q"], "$.log_inv_q")))
            else:
                path = "$.teacher_student"
                ts = _require(cfg, "teacher_student")
                teacher_student = (
                    _number(_require(ts, "M", path), f"{path}.M"),
                    _number(_require(ts, "log_inv_q2", path), f"{path}.log_inv_q2"),
                )
                log_inv_q1 = _number(ts.get("log_inv_q1", 0.0), f"{path}.log_inv_q1")
                with _config_phase(path):
                    qhat = mb.DiracReference.teacher_student(bc.d, *teacher_student, log_inv_q1)
            prior = partition = None
        elif kind == "gaussian":
            with _config_phase("$.qhat"):
                qhat = mg.GaussianDist.from_json(_require(cfg, "qhat"))
            with _config_phase("$.prior"):
                prior = mg.GaussianDist.from_json(_require(cfg, "prior"))
            partition = mg.BlockPartition(_sizes(_require(cfg, "block_sizes"), "$.block_sizes"))
        else:
            raise ConfigError(f"$.kind: unknown {kind!r}")
        report = mb.bound_report(qhat, prior, bc, partition)
        if teacher_student is not None:
            exact, approx = mb.teacher_student_dpg_sum(bc.d, *teacher_student)
            report["teacher_student_dpg_sum"] = {"exact": exact, "approx": approx}
    return _write_report(args, cfg, report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msgibbs",
        description="multiscale Gibbs distribution solvers and bound reports",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the commands are looked up here, at each call, so a wrapper installed on
    # this module's attribute is the function that runs
    for name, func, help_text, options in (
        ("solve-tabular", cmd_solve_tabular, "tabular solve with oracle check", {"verify"}),
        ("solve-gaussian", cmd_solve_gaussian, "Gaussian decimation solve", {"verify"}),
        ("experiment", cmd_experiment, "teacher-student alpha/sigma1 sweep", {"seed", "workers"}),
        ("bounds", cmd_bounds, "excess-risk bound report", set()),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (stdout if omitted)")
        if "verify" in options:
            p.add_argument(
                "--verify",
                action=argparse.BooleanOptionalAction,
                default=True,
                help="toggle the independent verification pass",
            )
        if "seed" in options:
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        if "workers" in options:
            p.add_argument("--workers", type=int, default=1,
                           help="no effect (>= 1): one thread per usable CPU; see taskset")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        outs = [] if args.out is None else [args.out]
        outs += [_summary_path(out) for out in outs if args.command == "experiment"]
        for out in outs:
            existed = os.path.exists(out)
            open(out, "a").close()  # an unwritable path fails here, before the work
            if not existed:
                os.remove(out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (MsgibbsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
