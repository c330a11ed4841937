"""Property tests of the solvers at the edges the library ships.

Tabular: decimation chains and random scale-map chains with uneven and
empty fibers, references with zero-mass fibers, and sigma_i = 0 steps; the
exact oracle against the solvers there (marginalize-tilt among them), and
against mirror descent with sigma_1 on the experiment's grid and alpha up to 0.99.
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
def chains(draw, min_maps=0):
    """A decimation chain or a random chain of at least ``min_maps`` scale maps, on at
    most 4096 states."""
    if draw(st.booleans()):
        axes = draw(st.lists(st.integers(1, 4), min_size=1 + min_maps, max_size=6))
        space = mt.ProductSpace(tuple(axes))
        depth = draw(st.integers(1 + min_maps, space.ndim))
        return ms.TabularBackend.decimation(space, depth).chain, space
    rng = np.random.default_rng(draw(seeds))
    sizes = [draw(st.integers(1, mo.MAX_ORACLE_STATES))]
    for _ in range(draw(st.integers(min_maps, 3))):
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
    """Each solve, traced, with the oracle objective it optimizes; marginalize-tilt from
    the initial Gibbs distribution is the min-relative-entropy solve on any chain."""
    backend = ms.TabularBackend(chain)
    yield "max-entropy", traced(ms.solve_max_entropy, f, sched, backend)
    min_rel = traced(ms.solve_min_relative_entropy, f, q, sched, backend)
    yield "min-relative-entropy", min_rel
    gibbs = mt.gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
    via_mt = traced(ms.solve_mt, gibbs, q, sched, backend)
    assert same_dist(via_mt[0], min_rel[0])
    yield "min-relative-entropy", via_mt


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
def small_sigma1_problems(draw):
    """Energy, positive reference, sigma and a temperature c on a chain of at least one map.

    sigma is ``alpha_schedule(alpha, sigma1, depth)`` with sigma1 on the experiment's grid,
    alpha up to 0.99 and some later steps set to 0; the first map's source states may be
    permuted.  The energies are continuous, U(-2, 2), so near ties occur.
    """
    chain, space = draw(chains(min_maps=1))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        t = chain[0]
        chain[0] = mt.ScaleMap(t.source, t.target, t.map[rng.permutation(t.source.size)])
    f = mt.EnergyTable(space, rng.uniform(-2.0, 2.0, space.size))
    q = mt.TabularDist.from_weights(space, rng.uniform(0.05, 1.0, space.size))
    alpha, sigma1 = draw(st.floats(0.0, 0.99)), draw(st.sampled_from(SIGMA1_GRID))
    sigma = list(ms.alpha_schedule(alpha, float(sigma1), len(chain) + 1).sigma)
    for i in range(1, len(sigma)):
        if draw(st.booleans()):
            sigma[i] = 0.0
    return f, q, tuple(sigma), draw(st.floats(0.05, 1.0)), chain


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(small_sigma1_problems())
def test_exact_oracle_matches_mirror_descent_at_small_sigma1(problem):
    f, q, sigma, c, chain = problem
    # the coarsest Gibbs temperature is c: lam * S_d for min-rel-entropy and S_d / lam for
    # max-entropy, where lam >= 1 keeps the objective on mirror descent's step scale
    top = sum(sigma)
    for kind, lam in (("max-entropy", max(1.0, top / c)), ("min-relative-entropy", c / top)):
        sched = ms.TemperatureSchedule(lam, sigma)
        _, log_p = mo.exact_tabular(kind, f, q, sched, chain)
        assert not np.isnan(log_p).any()
        exact = mt.TabularDist(f.space, np.exp(log_p))
        descent = mo.minimize_tabular(kind, f, q, sched, chain)
        assert mt.total_variation(exact, descent) <= TOL.oracle_agreement_tv


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(tabular_problems(positive_q=False))
def test_exact_oracle_matches_the_solvers(problem):
    # empty fibers and zeros in q included: a state without mass has log p = -inf, not nan
    f, q, sched, chain = problem
    for kind, (solution, _) in solves(f, q, sched, chain):
        value, log_p = mo.exact_tabular(kind, f, q, sched, chain)
        assert not np.isnan(log_p).any() and math.isfinite(value)
        assert mt.total_variation(mt.TabularDist(f.space, np.exp(log_p)), solution) <= 1e-12


@st.composite
def fiber_cases(draw):
    """A scale map, its entries and a distribution on its source with zero-mass fibers
    and -0.0 entries.

    The map is a decimation (last axis 1-12), the same map given explicitly, one with
    its source states permuted, or the decimation of 3 x 1000.  A decimation stores no
    map.
    """
    rng = np.random.default_rng(draw(seeds))
    form = draw(st.sampled_from(["decimation", "explicit", "permuted", "wide"]))
    if form == "wide":
        source = mt.ProductSpace((3, 1000))
    else:
        axes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        source = mt.ProductSpace((*axes, draw(st.integers(1, 12))))
    t = mt.ScaleMap.decimation(source)
    mapping = np.arange(source.size) // source.axis_sizes[-1]
    if form == "explicit":
        t = mt.ScaleMap(source, t.target, mapping.tolist())
    elif form == "permuted":
        mapping = mapping[rng.permutation(source.size)]
        t = mt.ScaleMap(source, t.target, mapping)
    w = rng.random(source.size)
    w[np.isin(mapping, np.flatnonzero(rng.random(t.target.size) < 0.3))] = 0.0
    w[rng.random(source.size) < 0.2] = -0.0
    if not w.any():
        w[rng.integers(source.size)] = 1.0
    return t, mapping, mt.TabularDist(source, w / w.sum()), rng


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(fiber_cases())
def test_contiguous_fibers_match_the_general_formulas(case):
    # the block kernels against bincount, a gather and the masked divide, bit for bit;
    # pushforward runs first, on a decimation that stores no map
    t, mapping, p, rng = case
    image = mt.pushforward(p, t)
    assert same_bits(image.probs, np.bincount(mapping, weights=p.probs, minlength=t.target.size))
    assert np.array_equal(t.map, mapping)
    last = t.source.axis_sizes[-1]
    assert t.fiber == (last if np.array_equal(mapping, np.arange(t.source.size) // last) else None)
    cond = mt.reverse_conditional(p, t, image)
    lifted = image.probs[mapping]
    want = np.divide(p.probs, lifted, out=np.zeros(t.source.size),
                     where=lifted > 0.0)
    assert same_bits(cond.probs, want)
    assert np.array_equal(cond.defined, image.probs > 0.0)
    coarse = mt.TabularDist.from_weights(
        t.target, np.where(cond.defined, rng.random(t.target.size), -0.0))
    refined = mt.refine(coarse, [cond])
    assert same_bits(refined.probs, coarse.probs[mapping] * cond.probs)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=3), seeds)
def test_decimation_and_its_maps_given_explicitly_solve_alike(axes, seed):
    # a decimation's computed maps against the same maps given explicitly: solutions and traces
    # bit for bit, with a zero-mass fiber in the reference and fibers up to 12 wide
    space = mt.ProductSpace(tuple(axes))
    decimation = ms.TabularBackend.decimation(space, space.ndim)
    explicit = ms.TabularBackend([
        mt.ScaleMap(t.source, t.target, np.arange(t.source.size) // t.fiber)
        for t in decimation.chain])
    rng = np.random.default_rng(seed)
    f = mt.EnergyTable(space, rng.uniform(-2.0, 2.0, space.size))
    q = rng.uniform(0.05, 1.0, space.size)
    q[np.arange(space.size) // axes[-1] == rng.integers(space.size // axes[-1])] = 0.0
    if not q.any():
        q[rng.integers(space.size)] = 1.0
    q = mt.TabularDist.from_weights(space, q)
    later = np.where(rng.random(space.ndim - 1) < 0.3, 0.0, rng.uniform(0.25, 2.0, space.ndim - 1))
    sched = ms.TemperatureSchedule(rng.uniform(0.5, 2.0), (rng.uniform(0.25, 2.0), *later))
    gibbs = mt.gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
    for solve, args in ((ms.solve_max_entropy, (f, sched)),
                        (ms.solve_min_relative_entropy, (f, q, sched)),
                        (ms.solve_mt, (gibbs, q, sched))):
        solution, trace = traced(solve, *args, decimation)
        want, want_trace = traced(solve, *args, explicit)
        assert same_bits(solution.probs, want.probs)
        for got, expected in zip(trace.renormalized + trace.refined,
                                 want_trace.renormalized + want_trace.refined, strict=True):
            assert same_bits(got.probs, expected.probs)


def exact_by_composed_maps(objective, f, q, sched, chain):
    """The exact oracle's value recursion with every scale's composed map built up front."""
    comps = [slice(None)]
    for t in chain:
        comps.append(t.map[comps[-1]])
    sizes = [f.space.size] + [t.target.size for t in chain]
    partial = np.cumsum(sched.sigma)
    if objective == "max-entropy":
        sign, a, w, q_i = 1.0, sched.lam, 1.0, None
    else:
        sign, a, w, q_i = -1.0, 1.0, sched.lam, q.probs
    u = -a * f.values / (w * partial[0])
    maps = [t.map for t in chain] + [np.zeros(sizes[-1], dtype=np.int64)]
    log_p = np.zeros(f.space.size)
    with np.errstate(divide="ignore"):
        for i, (mapping, size) in enumerate(zip(maps, sizes[1:] + [1])):
            if q_i is not None:
                q_next = np.bincount(mapping, weights=q_i, minlength=size)
                u = u + np.log(q_i)
                np.subtract(u, np.log(q_next)[mapping], out=u, where=q_i > 0.0)
                q_i = q_next
            peak = np.full(size, -np.inf)
            np.maximum.at(peak, mapping, u)
            peak[peak == -np.inf] = 0.0
            u -= peak[mapping]
            lse = np.log(np.bincount(mapping, weights=np.exp(u), minlength=size))
            cond = np.subtract(u, lse[mapping], out=np.full(u.size, -np.inf), where=u > -np.inf)
            lse += peak
            log_p += cond[comps[i]]
            if i + 1 < len(sizes):
                u = (partial[i] / partial[i + 1]) * lse
    return sign * w * partial[-1] * float(lse[0]), log_p


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(tabular_problems(positive_q=False), seeds, st.booleans())
def test_exact_oracle_composes_one_map_at_a_time_bit_for_bit(problem, seed, permute):
    # the same gathers in the same order as with every composed map held at once
    f, q, sched, chain = problem
    if permute and chain:
        t = chain[0]
        perm = np.random.default_rng(seed).permutation(t.source.size)
        chain = [mt.ScaleMap(t.source, t.target, t.map[perm]), *chain[1:]]
    for kind in ("max-entropy", "min-relative-entropy"):
        value, log_p = mo.exact_tabular(kind, f, q, sched, chain)
        want_value, want_log_p = exact_by_composed_maps(kind, f, q, sched, chain)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert same_bits(log_p, want_log_p)


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
