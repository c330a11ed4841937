"""Property tests of the solvers at the edges the library ships.

Tabular: decimation chains and random scale-map chains with uneven and
empty fibers, references with zero-mass fibers, and sigma_i = 0 steps.
Gaussian: random block partitions and temperature schedules with sigma_1
across the experiment's grid 10^-9.5 ... 10^-2.5.
Teacher-student: the reduced posterior against the dense one, on random
small nets, including fewer training inputs than the width.
Reports: the CLI's JSON writer against ``json.dumps``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from msgibbs import cli  # noqa: E402
from msgibbs import gaussian as mg  # noqa: E402
from msgibbs import multiscale as ms  # noqa: E402
from msgibbs import nn as mn  # noqa: E402
from msgibbs import oracle as mo  # noqa: E402
from msgibbs import tabular as mt  # noqa: E402
from msgibbs.tolerances import TOL  # noqa: E402

#: sigma_1 grid of the teacher-student experiment (cli defaults, fig1)
SIGMA1_GRID = np.logspace(-9.5, -2.5, 29)

seeds = st.integers(0, 2**32 - 1)
weights = st.one_of(st.just(0.0), st.floats(0.25, 2.0))


@st.composite
def chains(draw):
    """A decimation chain or a random chain of scale maps, on at most 4096 states."""
    if draw(st.booleans()):
        axes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
        space = mt.ProductSpace(tuple(axes))
        return ms.TabularBackend.decimation(space, draw(st.integers(1, space.ndim))).chain, space
    rng = np.random.default_rng(draw(seeds))
    sizes = [draw(st.integers(1, mo.MAX_ORACLE_STATES))]
    for _ in range(draw(st.integers(0, 3))):
        # up to two more targets than sources, so some fibers are empty
        sizes.append(draw(st.integers(1, min(sizes[-1] + 2, 64))))
    spaces = [mt.ProductSpace((n,)) for n in sizes]
    chain = []
    for source, target in zip(spaces, spaces[1:]):
        # Dirichlet(0.3) fiber weights make fibers very uneven
        mapping = rng.choice(target.size, source.size, p=rng.dirichlet(np.full(target.size, 0.3)))
        chain.append(mt.ScaleMap(source, target, mapping))
    return chain, spaces[0]


@st.composite
def tabular_problems(draw, positive_q):
    """Energy, reference, schedule and chain; q may carry zero-mass fibers."""
    chain, space = draw(chains())
    rng = np.random.default_rng(draw(seeds))
    f = mt.EnergyTable(space, rng.uniform(-2.0, 2.0, space.size))
    q = rng.uniform(0.05, 1.0, space.size)
    if not positive_q and chain and draw(st.booleans()):
        # empty one whole fiber of the first map, and a random few states
        q[chain[0].map == rng.integers(chain[0].target.size)] = 0.0
        q[rng.random(space.size) < 0.2] = 0.0
        if not q.any():
            q[rng.integers(space.size)] = 1.0
    sigma = (draw(st.floats(0.25, 2.0)), *(draw(weights) for _ in chain))
    sched = ms.TemperatureSchedule(draw(st.floats(0.5, 2.0)), sigma)
    return f, mt.TabularDist.from_weights(space, q), sched, chain


def same_dist(a, b):
    if isinstance(b, mt.TabularDist):
        return np.array_equal(a.probs, b.probs)
    return np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


def traced(solve, *args):
    """``solve(*args)`` with its trace, checked against the untraced solve, which
    stops at the deepest reweighted scale."""
    solution, trace = solve(*args, with_trace=True)
    assert same_dist(solve(*args), solution)
    assert len(trace.refined) == len(trace.renormalized)
    assert trace.refined[0] is solution
    assert trace.refined[-1] is trace.renormalized[-1]
    return solution, trace


def solves(f, q, sched, chain):
    backend = ms.TabularBackend(chain)
    yield "max-entropy", traced(ms.solve_max_entropy, f, sched, backend)
    yield "min-relative-entropy", traced(ms.solve_min_relative_entropy, f, q, sched, backend)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(tabular_problems(positive_q=False))
def test_scale_marginals_reproduce_refined_trace(problem):
    f, q, sched, chain = problem
    for _, (solution, trace) in solves(f, q, sched, chain):
        marginals = ms.scale_marginals(solution, chain)
        assert len(marginals) == len(trace.refined) == sched.depth
        for marginal, refined in zip(marginals, trace.refined):
            assert mt.total_variation(marginal, refined) <= 1e-10


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(tabular_problems(positive_q=True))
def test_solver_matches_oracle(problem):
    f, q, sched, chain = problem
    for kind, (solution, _) in solves(f, q, sched, chain):
        oracle = mo.minimize_tabular(kind, f, q, sched, chain)
        assert mt.total_variation(solution, oracle) <= TOL.oracle_agreement_tv


@st.composite
def gaussian_problems(draw):
    """Gauss-Newton-like (PSD, possibly rank-deficient) energy, isotropic prior,
    block partition and schedule."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    partition = mg.BlockPartition(tuple(sizes))
    dim = partition.total_dim
    rng = np.random.default_rng(draw(seeds))
    jac = rng.standard_normal((draw(st.integers(1, dim)), dim))
    energy = mg.QuadraticEnergy(jac.T @ jac, 0.1 * rng.standard_normal(dim))
    variance = draw(st.sampled_from((5e-5, 5e-4)))
    prior = mg.GaussianDist(np.zeros(dim), variance * np.eye(dim))
    sigma1 = draw(st.sampled_from(SIGMA1_GRID))
    ratios = st.one_of(st.just(0.0), st.floats(1e-2, 1e2))
    sigma = (sigma1, *(sigma1 * draw(ratios) for _ in range(partition.n_blocks - 1)))
    sched = ms.TemperatureSchedule(draw(st.floats(0.5, 2.0)), sigma)
    return energy, prior, sched, partition


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(gaussian_problems(), st.floats(1e-2, 1.0))
def test_gaussian_refinement_consistency(problem, ridge):
    energy, prior, sched, partition = problem
    backend = ms.GaussianBackend(partition)
    solution, trace = traced(ms.solve_min_relative_entropy, energy, prior, sched, backend)
    assert ms.gaussian_refinement_gap(solution, trace, partition) <= TOL.refinement_consistency
    # entropy maximization needs a strictly positive-definite energy
    strict = mg.QuadraticEnergy(energy.K + ridge * np.eye(energy.dim), energy.g)
    solution, trace = traced(ms.solve_max_entropy, strict, sched, backend)
    assert ms.gaussian_refinement_gap(solution, trace, partition) <= TOL.refinement_consistency


#: the paths solve systems of condition up to kappa = 1 + d v lam_max(S) / sigma1 (the
#: single-scale precision's) and round differently; 1200 random draws of this strategy
#: showed gaps up to 20 eps * kappa, the mean also carrying the cancellation in G Q u Q'
ROUNDING_PER_CONDITION = 64 * np.finfo(float).eps
#: the gap allowed however well conditioned (see tests/test_nn.py)
REDUCED_RTOL = 1e-11


@st.composite
def teacher_student_cases(draw):
    """Config (n_train < m half the time: S singular), training set, alpha and sigma1."""
    m = draw(st.integers(1, 5))
    d = draw(st.integers(2, 4))
    rank_deficient = m > 1 and draw(st.booleans())
    cfg = mn.TeacherStudentConfig(
        m=m,
        d=d,
        teacher_depth=draw(st.integers(1, d - 1)),
        n_train=draw(st.integers(1, m - 1) if rank_deficient else st.integers(m, 2 * m + 2)),
        prior_variance=draw(st.sampled_from((5e-5, 5e-4))),
        seed=draw(seeds),
    )
    alpha = draw(st.one_of(st.sampled_from((0.0, 0.999)), st.floats(0.0, 0.999)))
    _, train = mn.teacher_student_problem(cfg)
    return cfg, train, alpha, float(draw(st.sampled_from(SIGMA1_GRID)))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(teacher_student_cases())
def test_reduced_teacher_student_posterior_matches_dense(case):
    cfg, train, alpha, sigma1 = case
    energy = mn.gauss_newton_energy(mn.ResNetParams.zeros(cfg.m, cfg.d), train)
    dense = mn.multiscale_posterior(energy, mn.iid_gaussian_prior(cfg), alpha, sigma1,
                                    mn.layer_partition(cfg.m, cfg.d))
    reduced = mn.teacher_student_posterior(cfg, train, alpha, sigma1).to_dense()
    lam_max = np.linalg.eigvalsh(2.0 / train.n * train.xs.T @ train.xs).max()
    kappa = 1.0 + cfg.d * cfg.prior_variance * lam_max / sigma1
    rtol = max(REDUCED_RTOL, ROUNDING_PER_CONDITION * kappa)
    for field in ("mean", "cov", "precision"):
        a, b = getattr(reduced, field), getattr(dense, field)
        assert np.abs(a - b).max() <= rtol * np.abs(b).max(), field


def ref_sanitize(obj):
    """The report writer's former first pass: inf floats become the string 'inf'."""
    if isinstance(obj, dict):
        return {k: ref_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def ref_json(obj):
    return json.dumps(ref_sanitize(obj), indent=2, sort_keys=True)


report_floats = st.one_of(
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-5, math.inf, -math.inf, math.nan]),
)
report_scalars = st.one_of(report_floats, st.integers(), st.booleans(), st.none(), st.text())
report_values = st.recursive(
    st.one_of(report_scalars, st.lists(report_floats), st.lists(st.floats(-1e3, 1e3))),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(report_values)
def test_report_writer_matches_json_dumps(obj):
    assert cli._json(obj) == ref_json(obj)


def test_report_writer_takes_only_str_keys():
    for obj in ({1: 0.5}, {"a": {None: 1}}, [{2.0: "x"}]):
        with pytest.raises(TypeError):
            cli._json(obj)


def test_solve_gaussian_report_with_a_dense_covariance_matches_json_dumps(tmp_path, monkeypatch):
    reports = []
    write = cli._json

    def recording(obj, *pad):
        reports.append(obj)  # the writer recurses through this name: the first is the report
        return write(obj, *pad)

    monkeypatch.setattr(cli, "_json", recording)
    config = Path(__file__).resolve().parents[1] / "configs" / "solve_gaussian_demo.json"
    out = tmp_path / "out.json"
    assert cli.main(["solve-gaussian", "--config", str(config), "--out", str(out)]) == 0
    cov = np.asarray(reports[0]["solution"]["cov"]).reshape(3, 3)
    assert np.all(cov != 0.0)
    assert out.read_text() == ref_json(reports[0]) + "\n"
