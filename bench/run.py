"""Benchmark of msgibbs: end-to-end metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload sweep-serial --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; msgibbs is imported from ``src/``.
The run builds the workload's inputs from ``--seed``, repeats rounds of the
workload for ``--seconds`` (closed loop, one client), checks the outputs,
and prints a report, a provenance line and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The gated round
time is ``wall_rel``, each round's wall time over a fixed reference
computation timed around it (see :func:`reference_seconds`); wall and CPU
seconds and throughput are printed too.  With ``--trace 1``
half the time runs untraced and half with timing wrappers installed, and the
metrics are the per-layer breakdown plus the tracing overhead.  The exit
code is 0 when every operation and output check succeeded, 1 when one
failed, and 2 when the sources are missing.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: child processes that each time import plus input building; setup_s is their median
SETUP_PROBES = 5
MIN_ROUNDS = 2

END_TO_END = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# metric -> (source, key): "s" / "self_s" / "calls" come from the span summary
PER_LAYER_SPANS = {
    **{f"gaussian.{f}.{k}": (k, f"gaussian.{f}")
       for f in ("gibbs_gaussian", "marginalize", "tilt_gaussian", "concat",
                 "from_precision", "sample") for k in ("s", "calls")},
    "nn.population_risk_mc.self_s": ("self_s", "nn.population_risk_mc"),
    "nn.forward_batch.s": ("s", "nn.forward_batch"),
    "nn.forward_batch.calls": ("calls", "nn.forward_batch"),
    "nn.multiscale_posterior.s": ("s", "nn.multiscale_posterior"),
    "nn.gauss_newton_energy.s": ("s", "nn.gauss_newton_energy"),
    "nn.gauss_newton_energy.calls": ("calls", "nn.gauss_newton_energy"),
    "multiscale.solve.self_s": ("self_s", "multiscale.solve"),
    "multiscale.solve.calls": ("calls", "multiscale.solve"),
    **{f"tabular.{f}.s": ("s", f"tabular.{f}")
       for f in ("reverse_conditional", "refine", "pushforward", "gibbs", "tilt", "scale")},
    "oracle.minimize_tabular.s": ("s", "oracle.minimize_tabular"),
    "oracle.minimize_tabular.calls": ("calls", "oracle.minimize_tabular"),
    "cli.experiment.s": ("s", "cli.experiment"),
    "cli.solve_tabular.s": ("s", "cli.solve_tabular"),
    **{f"{layer}.self_s": ("layer_self_s", layer)
       for layer in ("cli", "nn", "gaussian", "tabular")},
}
PER_LAYER_COUNTERS = (
    "gaussian.linalg.cholesky.calls",
    "gaussian.linalg.inv.calls",
    "gaussian.linalg.solve.calls",
    "tabular.refine.states",
)
POOL_METRICS = ("cli.pool.wall_s", "cli.pool.cpu_util", "cli.pool.nivcsw")


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith(("cpu_util", "overhead_ratio")):
        return "ratio"
    return "count"


def is_count(name):
    return unit_of(name) in ("count", "GFLOP")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def reference_seconds(repeats=3):
    """Median time of a fixed computation of about 20 ms, timed between rounds.

    The host's speed changes by 1.5x or more, often for a minute or longer,
    and interpreter-bound code follows it most.  This computation is
    interpreter-bound and does not touch msgibbs, so a round's time over the
    reference timed around it cancels most of the change.  Keep it fixed:
    ``wall_rel`` of two commits compares only under the same reference.
    """
    import numpy as np

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        values = np.arange(4096.0)
        acc = 0.0
        for i in range(3000):
            acc += float(values[np.array((i, 7 * i % 4096, 13 * i % 4096))].sum())
        for i in range(100000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_rounds(workload, ops, seconds, tracer=None):
    """Rounds until the next one would overrun ``seconds`` (at least MIN_ROUNDS).

    Each round records its wall and CPU time and ``ref``, the mean of the
    reference times taken just before and just after it.
    """
    rounds = []
    begin = time.perf_counter()
    ref = reference_seconds()
    while True:
        first_span = len(tracer.spans) if tracer else 0
        counters = dict(tracer.counters) if tracer else {}
        gc.collect()  # every round starts from the same heap state
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        result = workload.run_round(ops)
        t1 = time.perf_counter()
        cpu = cpu_seconds() - cpu0
        ref_after = reference_seconds()
        result.update(wall=t1 - t0, cpu=cpu, ref=(ref + ref_after) / 2)
        ref = ref_after
        if tracer:
            result["spans"] = tracer.spans[first_span:]
            result["counters"] = {
                k: v - counters.get(k, 0) for k, v in tracer.counters.items()
            }
        rounds.append(result)
        if len(rounds) >= MIN_ROUNDS and (
            time.perf_counter() - begin + result["wall"] > seconds
        ):
            return rounds


def relative(r):
    """A round's wall time in units of the reference time around it."""
    return r["wall"] / r["ref"]


def throughput(r):
    """Grid points per second of round time, or joint states per second of solve time."""
    if "states" in r:
        return r["states"] / r["solve_s"] if r["solve_s"] > 0 else 0.0
    return r["points"] / r["wall"]


def layer_metrics(traced, untraced):
    import tracing

    per_round = []
    for r in traced:
        summary = tracing.summarize(r["spans"])
        m = {name: float(summary[src].get(key, 0)) for name, (src, key) in PER_LAYER_SPANS.items()}
        m.update({name: float(r["counters"].get(name, 0)) for name in PER_LAYER_COUNTERS})
        flop = r["counters"].get("gaussian.linalg.flop_computed", 0)
        m["gaussian.linalg.gflop_computed"] = flop / 1e9
        posteriors = summary["calls"].get("nn.multiscale_posterior", 0)
        factorizations = sum(
            r["counters"].get(f"gaussian.linalg.{op}.calls", 0) for op in tracing.LINALG
        )
        m["gaussian.factorizations_per_posterior"] = (
            factorizations / posteriors if posteriors else 0.0
        )
        per_round.append(m)
    # counts repeat exactly from round to round; layer times are medians over rounds
    out = {
        name: per_round[-1][name] if is_count(name)
        else statistics.median(m[name] for m in per_round)
        for name in per_round[0]
    }
    out["trace.overhead_ratio"] = (statistics.median(map(relative, traced))
                                   / statistics.median(map(relative, untraced)))
    out["trace.spans_per_round"] = float(len(traced[-1]["spans"]))
    return out


def write_trace(path, tracer, traced):
    spans = [list(s) for s in tracer.spans]
    rounds = [{"wall_s": r["wall"], "first_span": r["spans"][0].id if r["spans"] else None,
               "counters": r["counters"]} for r in traced]
    path.write_text(json.dumps({"spans": spans, "counters": dict(tracer.counters),
                                "rounds": rounds}))


def _probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_seconds(args, ops):
    """Median over child processes of msgibbs import plus input building."""
    times = [t for ok, t in (ops.call("setup probe", _probe_setup, args)
                             for _ in range(SETUP_PROBES)) if ok]
    return statistics.median(times) if times else 0.0


def setup_probe(args):
    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        import workloads  # numpy and msgibbs load here

        workloads.WORKLOADS[args.workload](args.seed, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, workloads):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **{v: os.environ.get(v, "unset")
           for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "input_slot": workloads.slot(args.seed),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run(args, workdir):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    phase = args.seconds / 2 if args.trace else args.seconds
    untraced = timed_rounds(workload, ops, phase)
    peak = peak_rss_mb()
    info = {}

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_rounds(workload, ops, phase, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(traced, untraced)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(trace_path, tracer, traced)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        pool = workload.pool_probe(ops) if hasattr(workload, "pool_probe") else {}
        metrics.update({name: float(pool.get(name, 0.0)) for name in POOL_METRICS})

    workload.check(ops)
    if hasattr(workload, "above_cap_probe"):
        crashed, info["solve_tabular_above_oracle_cap"] = workload.above_cap_probe()
    else:
        crashed = False

    info["rounds"] = len(untraced)
    info["round_wall_s"] = [round(r["wall"], 4) for r in untraced]
    info["failed_ratio"] = ops.failed / max(ops.attempted, 1)
    # medians over rounds, in seconds; the host's speed moves them, so they are not gated
    host_timed = {
        "wall_s": (statistics.median(r["wall"] for r in untraced), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in untraced), "s"),
        "states_per_s" if "states" in untraced[0] else "points_per_s": (
            statistics.median(map(throughput, untraced)), "1/s"),
        "reference_s": (statistics.median(r["ref"] for r in untraced), "s"),
    }

    if args.trace:
        metrics["cli.above_cap_verify.failed"] = float(crashed)
    else:
        metrics = {
            "wall_rel": statistics.median(map(relative, untraced)),
            "setup_s": setup_seconds(args, ops),
            "peak_rss_mb": peak,
        }
    units = END_TO_END if not args.trace else {name: unit_of(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    for name, (value, unit) in host_timed.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    for name, value in info.items():
        print(f"{name:45s} {value}")
    print(json.dumps({"provenance": provenance(args, workloads), "failures": ops.failures}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if ops.failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "msgibbs" / "__init__.py").is_file():
        print(f"msgibbs sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    import msgibbs

    if Path(msgibbs.__file__).resolve().parent != SRC / "msgibbs":
        print(f"msgibbs imported from {msgibbs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
