import math

import numpy as np
import pytest

from msgibbs import gaussian as mg
from msgibbs import multiscale as ms
from msgibbs import oracle as mo
from msgibbs import tabular as mt
from msgibbs.errors import DimensionMismatch, SpaceMismatch


def random_dist(space, rng, low=0.05):
    return mt.TabularDist.from_weights(space, rng.uniform(low, 1.0, space.size))


def random_pd(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


def test_schedule_validation():
    with pytest.raises(ValueError):
        ms.TemperatureSchedule(0.0, (1.0,))
    with pytest.raises(ValueError):
        ms.TemperatureSchedule(1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        ms.TemperatureSchedule(1.0, (1.0, -0.5))
    with pytest.raises(ValueError, match="at least one scale"):
        ms.TemperatureSchedule(1.0, ())
    for lam in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="lambda must be finite"):
            ms.TemperatureSchedule(lam, (1.0,))
    sched = ms.TemperatureSchedule(2.0, (1.0, 0.0, 2.0))
    assert sched.tilt_index(2) == 1.0  # zero sigma: exactly one, a pass-through
    assert sched.tilt_index(3) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        sched.tilt_index(1)


def test_alpha_schedule():
    # alpha = 0 -> single-scale
    s0 = ms.alpha_schedule(0.0, 2.0, 4)
    assert s0.sigma == (2.0, 0.0, 0.0, 0.0)
    # defining recurrence: sigma_i / (partial sum) = alpha, tilt indices 1 - alpha
    s = ms.alpha_schedule(0.5, 1.0, 3)
    assert s.sigma == pytest.approx((1.0, 1.0, 2.0))
    for i in range(2, 4):
        partial = sum(s.sigma[:i])
        assert s.sigma[i - 1] / partial == pytest.approx(0.5)
        assert s.tilt_index(i) == pytest.approx(0.5)
    assert ms.alpha_schedule(0.3, 1.5, 1).sigma == (1.5,)
    with pytest.raises(ValueError):
        ms.alpha_schedule(1.0, 1.0, 2)
    # the depth is a count: a whole float is taken, anything else is refused by name
    assert ms.alpha_schedule(0.5, 1.0, 3.0) == s
    for d in (2.5, math.nan, math.inf, 0):
        with pytest.raises(ValueError, match=f"depth d must be an integer >= 1, got {d!r}"):
            ms.alpha_schedule(0.5, 1e-3, d)


@pytest.mark.parametrize("sigma1", [0.0, -1.0, math.nan])
def test_alpha_schedule_takes_the_schedule_rule_on_sigma1(sigma1):
    # TemperatureSchedule states sigma_1 > 0 once, for every schedule
    for alpha in (0.0, 0.5):
        with pytest.raises(ValueError, match="sigma_1 must be > 0"):
            ms.alpha_schedule(alpha, sigma1, 3)


def test_single_scale_reductions():
    rng = np.random.default_rng(0)
    space = mt.ProductSpace((2, 3))
    f = mt.EnergyTable(space, rng.uniform(0.0, 1.0, space.size))
    q = random_dist(space, rng)
    backend = ms.TabularBackend.decimation(space, 2)
    sched = ms.TemperatureSchedule(1.3, (0.8, 0.0))
    # max entropy degenerates to the plain Gibbs distribution
    out = ms.solve_max_entropy(f, sched, backend)
    gibbs = mt.gibbs(f, mt.TabularDist.uniform(space), sched.lam / sched.sigma[0])
    assert mt.total_variation(out, gibbs) == 0.0
    # min relative entropy degenerates to the reference-weighted Gibbs
    out2 = ms.solve_min_relative_entropy(f, q, sched, backend)
    gibbs2 = mt.gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
    assert mt.total_variation(out2, gibbs2) == 0.0
    # depth-1 marginalize-tilt returns its input object
    b1 = ms.TabularBackend.decimation(space, 1)
    s1 = ms.TemperatureSchedule(1.0, (1.0,))
    assert ms.solve_mt(gibbs2, q, s1, b1) is gibbs2


def test_max_entropy_matches_oracle():
    rng = np.random.default_rng(1)
    space = mt.ProductSpace((2, 2))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    sched = ms.TemperatureSchedule(1.0, (1.0, 1.0))
    backend = ms.TabularBackend.decimation(space, 2)
    out = ms.solve_max_entropy(f, sched, backend)
    oracle = mo.minimize_tabular("max-entropy", f, None, sched, backend.chain)
    assert mt.total_variation(out, oracle) < 1e-4


def test_max_entropy_fiber_symmetry():
    # energy invariant under swapping fiber elements -> output invariant too
    space = mt.ProductSpace((3, 2))
    vals = np.array([0.3, 0.3, -0.7, -0.7, 1.1, 1.1])
    f = mt.EnergyTable(space, vals)
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.7))
    backend = ms.TabularBackend.decimation(space, 2)
    out = ms.solve_max_entropy(f, sched, backend)
    table = out.probs.reshape(3, 2)
    assert np.allclose(table[:, 0], table[:, 1])


def test_min_relative_entropy_matches_oracle():
    rng = np.random.default_rng(2)
    space = mt.ProductSpace((2, 2, 2))
    f = mt.EnergyTable(space, rng.uniform(0.0, 2.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(0.9, (1.0, 0.6, 0.4))
    backend = ms.TabularBackend.decimation(space, 3)
    out = ms.solve_min_relative_entropy(f, q, sched, backend)
    oracle = mo.minimize_tabular("min-relative-entropy", f, q, sched, backend.chain)
    assert mt.total_variation(out, oracle) < 1e-4


def test_zero_energy_returns_reference():
    rng = np.random.default_rng(3)
    space = mt.ProductSpace((2, 2))
    f = mt.EnergyTable(space, np.zeros(space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (0.7, 0.9))
    backend = ms.TabularBackend.decimation(space, 2)
    out = ms.solve_min_relative_entropy(f, q, sched, backend)
    assert mt.total_variation(out, q) < 1e-12


def test_mt_equals_min_relative_entropy_on_decimation():
    rng = np.random.default_rng(4)
    space = mt.ProductSpace((2, 2, 2))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.1, (0.8, 0.5, 0.9))
    backend = ms.TabularBackend.decimation(space, 3)
    via_solver = ms.solve_min_relative_entropy(f, q, sched, backend)
    gibbs = mt.gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
    via_mt = ms.solve_mt(gibbs, q, sched, backend)
    assert mt.total_variation(via_solver, via_mt) <= 1e-12
    # on a chain that is not a decimation, marginalize-tilt is the same solve too
    arbitrary = ms.TabularBackend(
        [mt.ScaleMap(space, mt.ProductSpace((2,)), rng.integers(0, 2, space.size))]
    )
    sched = ms.TemperatureSchedule(1.0, (1.0, 1.0))
    via_mt = ms.solve_mt(mt.gibbs(f, q, 1.0), q, sched, arbitrary)
    via_solver = ms.solve_min_relative_entropy(f, q, sched, arbitrary)
    assert np.array_equal(via_mt.probs, via_solver.probs)


def test_refinement_consistency_tabular():
    # pushforwards of the output reproduce the refinement intermediates, the
    # coarsest marginal is the last renormalized distribution, and the
    # output's reverse conditionals match the renormalized ones
    rng = np.random.default_rng(5)
    space = mt.ProductSpace((2, 2, 3))
    f = mt.EnergyTable(space, rng.uniform(0.0, 1.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.8, 0.6))
    backend = ms.TabularBackend.decimation(space, 3)
    out, trace = ms.solve_min_relative_entropy(f, q, sched, backend, with_trace=True)
    assert trace.refined[0] is out
    current = out
    for i, t in enumerate(backend.chain):
        cond_out = mt.reverse_conditional(current, t)
        cond_ren = mt.reverse_conditional(trace.renormalized[i], t)
        current = mt.pushforward(current, t)
        assert mt.total_variation(current, trace.refined[i + 1]) < 1e-12
        both = (cond_out.defined & cond_ren.defined)[t.map]  # rows defined in both
        assert np.abs(cond_out.probs[both] - cond_ren.probs[both]).max(initial=0.0) < 1e-12
    assert mt.total_variation(current, trace.renormalized[-1]) < 1e-12


def test_objective_monotonicity_cloud():
    rng = np.random.default_rng(6)
    space = mt.ProductSpace((2, 2))
    f = mt.EnergyTable(space, rng.uniform(-0.5, 0.5, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.7))
    backend = ms.TabularBackend.decimation(space, 2)

    star_min = ms.solve_min_relative_entropy(f, q, sched, backend)
    best_min = ms.min_relative_entropy_objective(star_min, f, q, sched, backend.chain)
    star_max = ms.solve_max_entropy(f, sched, backend)
    best_max = ms.max_entropy_objective(star_max, f, sched, backend.chain)
    for _ in range(200):
        eps = rng.uniform(0.0, 0.2)
        noise = rng.dirichlet(np.ones(space.size))
        p_min = mt.TabularDist(space, (1 - eps) * star_min.probs + eps * noise)
        assert (
            ms.min_relative_entropy_objective(p_min, f, q, sched, backend.chain)
            >= best_min - 1e-12
        )
        p_max = mt.TabularDist(space, (1 - eps) * star_max.probs + eps * noise)
        assert (
            ms.max_entropy_objective(p_max, f, sched, backend.chain)
            <= best_max + 1e-12
        )


def test_gaussian_closure_both_algorithms():
    # outputs stay valid PD Gaussians on random PD energies and priors
    rng = np.random.default_rng(7)
    part = mg.BlockPartition((2, 1, 2))
    dim = part.total_dim
    backend = ms.GaussianBackend(part)
    for _ in range(100):
        energy = mg.QuadraticEnergy(random_pd(dim, rng), rng.standard_normal(dim), 0.0)
        prior = mg.GaussianDist(rng.standard_normal(dim), random_pd(dim, rng))
        sched = ms.TemperatureSchedule(
            float(rng.uniform(0.5, 2.0)), tuple(rng.uniform(0.2, 1.5, 3))
        )
        out1 = ms.solve_max_entropy(energy, sched, backend)
        out2 = ms.solve_min_relative_entropy(energy, prior, sched, backend)
        for out in (out1, out2):
            assert out.dim == dim
            assert np.all(np.linalg.eigvalsh(out.cov) > 0.0)


def test_gaussian_refinement_consistency():
    rng = np.random.default_rng(8)
    part = mg.BlockPartition((1, 2, 1))
    dim = part.total_dim
    backend = ms.GaussianBackend(part)
    energy = mg.QuadraticEnergy(random_pd(dim, rng), rng.standard_normal(dim), 0.0)
    prior = mg.GaussianDist(rng.standard_normal(dim), random_pd(dim, rng))
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.5, 0.25))
    out, trace = ms.solve_min_relative_entropy(
        energy, prior, sched, backend, with_trace=True
    )
    # marginals reproduce the refinement intermediates (coarsest = U_d)
    for i in range(2, sched.depth + 1):
        marg = mg.marginalize(out, part, sched.depth - i + 1)
        ref = trace.refined[i - 1]
        rel = np.abs(marg.precision - ref.precision).max() / np.abs(ref.precision).max()
        assert rel < 1e-8
    assert trace.refined[-1] is trace.renormalized[-1]
    # conditionals of the leading blocks match the renormalized intermediates
    for i in range(sched.depth - 1):
        keep = sched.depth - i
        marg = mg.marginalize(out, part, keep)
        c_out = mg.condition(marg, part.prefix(keep), keep - 1)
        c_ren = mg.condition(trace.renormalized[i], part.prefix(keep), keep - 1)
        assert np.abs(c_out.gain - c_ren.gain).max() < 1e-8
        assert np.abs(c_out.offset - c_ren.offset).max() < 1e-8
        assert np.abs(c_out.cov - c_ren.cov).max() < 1e-8


def test_gaussian_max_entropy_matches_grid_discretization():
    energy = mg.QuadraticEnergy([[2.0, 0.5], [0.5, 1.0]], [0.3, -0.2], 0.0)
    sched = ms.TemperatureSchedule(1.2, (1.0, 0.8))
    sol_g = ms.solve_max_entropy(
        energy, sched, ms.GaussianBackend(mg.BlockPartition((1, 1)))
    )
    n = 401
    ax = np.linspace(-6.0, 6.0, n)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    space = mt.ProductSpace((n, n))
    fvals = 0.5 * np.einsum("ni,ij,nj->n", pts, energy.K, pts) + pts @ energy.g
    sol_t = ms.solve_max_entropy(
        mt.EnergyTable(space, fvals), sched, ms.TabularBackend.decimation(space, 2)
    )
    w = sol_t.probs
    mean_t = w @ pts
    delta = pts - mean_t
    cov_t = np.einsum("n,ni,nj->ij", w, delta, delta)
    assert np.abs(mean_t - sol_g.mean).max() < 1e-3
    assert np.abs(cov_t - sol_g.cov).max() < 1e-3


def test_alpha_zero_returns_gibbs_object():
    rng = np.random.default_rng(9)
    part = mg.BlockPartition((2, 2))
    dim = part.total_dim
    backend = ms.GaussianBackend(part)
    prior = mg.GaussianDist(np.zeros(dim), 0.3 * np.eye(dim))
    energy = mg.QuadraticEnergy(random_pd(dim, rng), rng.standard_normal(dim), 0.0)
    gibbs = mg.gibbs_gaussian(energy, prior, 10.0)
    sched = ms.alpha_schedule(0.0, 0.1, 2)
    out = ms.solve_mt(gibbs, prior, sched, backend)
    assert out is gibbs


def test_untraced_single_scale_solve_does_not_coarse_grain(monkeypatch):
    rng = np.random.default_rng(13)
    space = mt.ProductSpace((2, 3, 2))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    q = random_dist(space, rng)
    part = mg.BlockPartition((2, 1, 2))
    prior = mg.GaussianDist(np.zeros(part.total_dim), 0.3 * np.eye(part.total_dim))
    energy = mg.QuadraticEnergy(random_pd(part.total_dim, rng), rng.standard_normal(part.total_dim))
    problems = [
        (ms.TabularBackend.decimation(space, 3), f, q, lambda d: d.probs),
        (ms.GaussianBackend(part), energy, prior, lambda d: np.append(d.mean, d.cov)),
    ]
    calls = []
    for module, name in ((mt, "pushforward"), (mg, "marginalize")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
    # sigma_2 = 1e-17 rounds its tilt index to exactly one: a pass-through too
    for sched in (ms.alpha_schedule(0.0, 0.7, 3), ms.TemperatureSchedule(1.3, (0.7, 1e-17, 0.0))):
        assert sched.tilt_index(2) == sched.tilt_index(3) == 1.0
        for backend, f, q, values in problems:
            beta = 1.0 / (sched.lam * sched.sigma[0])
            gibbs = backend.initial_gibbs(f, q, beta)
            assert ms.solve_mt(gibbs, q, sched, backend) is gibbs
            out = ms.solve_min_relative_entropy(f, q, sched, backend)
            assert np.array_equal(values(out), values(gibbs))
            out = ms.solve_max_entropy(f, sched, backend)
            initial = backend.initial_max_entropy(f, sched.lam / sched.sigma[0])
            assert np.array_equal(values(out), values(initial))
    assert calls == []


@pytest.mark.parametrize("kind, per_step", [("max-entropy", 1), ("min-rel-entropy", 2), ("mt", 2)])
def test_untraced_decimation_solve_coarse_grains_each_scale_once(monkeypatch, kind, per_step):
    # the solution (and the reference, when tilting) is pushed forward once per step:
    # the refine steps reuse those images instead of summing the fibers again
    rng = np.random.default_rng(17)
    space = mt.ProductSpace((3, 2, 3, 2))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.2, (0.8, 0.5, 0.3, 0.6))
    d = sched.depth
    assert all(sched.tilt_index(i) < 1.0 for i in range(2, d + 1))
    gibbs = mt.gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
    decimation = ms.TabularBackend.decimation(space, d)
    # the same fibers with their labels reversed are no blocks, so bincount sums them
    permuted = ms.TabularBackend(
        [mt.ScaleMap(t.source, t.target, t.target.size - 1 - t.map) for t in decimation.chain]
    )
    backends = [decimation] if kind == "mt" else [decimation, permuted]
    for backend in backends:
        solve = {
            "max-entropy": lambda: ms.solve_max_entropy(f, sched, backend),
            "min-rel-entropy": lambda: ms.solve_min_relative_entropy(f, q, sched, backend),
            "mt": lambda: ms.solve_mt(gibbs, q, sched, backend),
        }[kind]
        pushforwards, bincounts = [], []
        real_pushforward, real_bincount = mt.pushforward, np.bincount
        monkeypatch.setattr(mt, "pushforward",
                            lambda *a: pushforwards.append(a) or real_pushforward(*a))
        monkeypatch.setattr(np, "bincount",
                            lambda *a, **k: bincounts.append(a) or real_bincount(*a, **k))
        solve()
        monkeypatch.undo()
        assert len(pushforwards) == per_step * (d - 1)
        assert len(bincounts) == (0 if backend is decimation else per_step * (d - 1))


def test_depth_mismatch_raises():
    space = mt.ProductSpace((2, 2))
    backend = ms.TabularBackend.decimation(space, 2)
    f = mt.EnergyTable(space, np.zeros(4))
    with pytest.raises(SpaceMismatch):
        ms.solve_max_entropy(f, ms.TemperatureSchedule(1.0, (1.0, 1.0, 1.0)), backend)


def test_is_decimation_derived_from_chain():
    rng = np.random.default_rng(11)
    space = mt.ProductSpace((2, 3, 2))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.5, 0.7))
    gibbs = mt.gibbs(f, q, 1.0)
    built = ms.TabularBackend.decimation(space, 3)
    # the same maps given explicitly (as a JSON config gives them) solve the same
    explicit = ms.TabularBackend(
        [mt.ScaleMap(t.source, t.target, t.map.tolist()) for t in built.chain]
    )
    expected = ms.solve_mt(gibbs, q, sched, built)
    assert np.array_equal(ms.solve_mt(gibbs, q, sched, explicit).probs, expected.probs)
    # right target spaces but a permuted map, and a single-axis chain, are not decimations:
    # marginalize-tilt is the min-rel-entropy solve on them as well
    first = built.chain[0]
    permuted = mt.ScaleMap(first.source, first.target, first.map[::-1])
    line = mt.ProductSpace((12,))
    halving = mt.ScaleMap(line, mt.ProductSpace((6,)), np.arange(12) // 2)
    for chain in ([permuted, built.chain[1]], [halving]):
        backend = ms.TabularBackend(chain)
        source = chain[0].source
        f_c, q_c = mt.EnergyTable(source, f.values), mt.TabularDist(source, q.probs)
        sched_c = ms.TemperatureSchedule(sched.lam, sched.sigma[: backend.depth])
        via_mt = ms.solve_mt(mt.gibbs(f_c, q_c, 1.0), q_c, sched_c, backend)
        via_solver = ms.solve_min_relative_entropy(f_c, q_c, sched_c, backend)
        assert np.array_equal(via_mt.probs, via_solver.probs)


def test_scale_marginals_along_a_chain():
    rng = np.random.default_rng(23)
    space = mt.ProductSpace((2, 3, 2))
    p = random_dist(space, rng)
    assert ms.scale_marginals(p, []) == [p]
    dec = mt.ScaleMap.decimation(space)
    fold = mt.ScaleMap(dec.target, mt.ProductSpace((3,)), [0, 1, 2, 0, 1, 2])
    scales = ms.scale_marginals(p, [dec, fold])
    assert scales[0] is p
    assert np.array_equal(scales[1].probs, mt.pushforward(p, dec).probs)
    assert np.array_equal(scales[2].probs, mt.pushforward(scales[1], fold).probs)
    # the first map checks the space it is applied to
    with pytest.raises(SpaceMismatch):
        ms.scale_marginals(p, [fold])


def test_scale_marginals_of_a_partition():
    rng = np.random.default_rng(21)
    part = mg.BlockPartition((2, 1, 3))
    g = mg.GaussianDist(rng.standard_normal(6), random_pd(6, rng))
    scales = ms.scale_marginals(g, part)
    # finest first: scale 1 is g itself, scale i keeps the leading d - i + 1 blocks
    assert scales[0] is g
    assert [s.dim for s in scales] == [6, 3, 2]
    for s in scales[1:]:
        assert np.array_equal(s.mean, g.mean[: s.dim])
        assert np.array_equal(s.cov, g.cov[: s.dim, : s.dim])
    assert ms.scale_marginals(g, mg.BlockPartition((6,))) == [g]
    # the partition must cover g, with one block or several
    for sizes in ((5,), (7,), (2, 3), (2, 1, 3, 1)):
        with pytest.raises(DimensionMismatch):
            ms.scale_marginals(g, mg.BlockPartition(sizes))


@pytest.mark.parametrize("sizes", [(3, 2, 4), (10,) * 4, (1,) * 5, (12,) * 8])
@pytest.mark.parametrize("built_from", ["covariance", "precision"])
def test_scale_marginals_equal_the_direct_marginals(sizes, built_from):
    # one block dropped per step gives the marginal on the leading blocks, bit for bit
    rng = np.random.default_rng(len(sizes))
    part = mg.BlockPartition(sizes)
    mean, matrix = rng.standard_normal(part.total_dim), random_pd(part.total_dim, rng)
    if built_from == "covariance":
        g = mg.GaussianDist(mean, matrix)
    else:
        g = mg.GaussianDist.from_precision(mean, matrix)
    scales = ms.scale_marginals(g, part)
    assert len(scales) == part.n_blocks
    for keep, s in zip(range(part.n_blocks - 1, 0, -1), scales[1:]):
        direct = mg.marginalize(g, part, keep)
        for attr in ("mean", "cov", "chol", "precision"):
            assert np.array_equal(getattr(s, attr), getattr(direct, attr))


def test_gaussian_objectives():
    rng = np.random.default_rng(12)
    part = mg.BlockPartition((1, 2, 1))
    dim = part.total_dim
    backend = ms.GaussianBackend(part)
    energy = mg.QuadraticEnergy(random_pd(dim, rng), rng.standard_normal(dim), 0.3)
    prior = mg.GaussianDist(rng.standard_normal(dim), random_pd(dim, rng, 0.2))
    p = mg.GaussianDist(rng.standard_normal(dim), random_pd(dim, rng, 0.1))
    # single-scale schedules reduce to entropy / divergence of the joint
    single = ms.TemperatureSchedule(1.5, (0.8, 0.0, 0.0))
    expected = mg.expected_quadratic(p, energy)
    assert ms.max_entropy_objective(p, energy, single, part) == pytest.approx(
        0.8 * mg.differential_entropy(p) - 1.5 * expected, abs=1e-12
    )
    assert ms.min_relative_entropy_objective(
        p, energy, prior, single, part
    ) == pytest.approx(expected + 1.5 * 0.8 * mg.kl_gaussian(p, prior), abs=1e-12)
    # the solvers' outputs are optima: nearby Gaussians do no better
    sched = ms.TemperatureSchedule(1.2, (1.0, 0.6, 0.4))
    star_max = ms.solve_max_entropy(energy, sched, backend)
    star_min, trace = ms.solve_min_relative_entropy(
        energy, prior, sched, backend, with_trace=True
    )
    best_max = ms.max_entropy_objective(star_max, energy, sched, part)
    best_min = ms.min_relative_entropy_objective(star_min, energy, prior, sched, part)
    for _ in range(50):
        eps = rng.uniform(0.0, 0.1)
        shift = eps * rng.standard_normal(dim)
        spread = eps * random_pd(dim, rng, 0.01)
        p_max = mg.GaussianDist(star_max.mean + shift, star_max.cov + spread)
        p_min = mg.GaussianDist(star_min.mean + shift, star_min.cov + spread)
        assert ms.max_entropy_objective(p_max, energy, sched, part) <= best_max + 1e-10
        assert (
            ms.min_relative_entropy_objective(p_min, energy, prior, sched, part)
            >= best_min - 1e-10
        )
    assert ms.gaussian_refinement_gap(star_min, trace, part) <= 1e-8
    with pytest.raises(SpaceMismatch):
        ms.max_entropy_objective(p, energy, ms.TemperatureSchedule(1.0, (1.0,)), part)


def test_one_block_gaussian_solves_check_the_cover():
    # depth 1 coarse-grains nothing, so no marginalize checks the partition on the way
    rng = np.random.default_rng(13)
    energy = mg.QuadraticEnergy(random_pd(2, rng), rng.standard_normal(2))
    prior = mg.GaussianDist(np.zeros(2), random_pd(2, rng, 0.2))
    backend = ms.GaussianBackend(mg.BlockPartition((3,)))
    sched = ms.TemperatureSchedule(1.0, (1.0,))
    gibbs = mg.gibbs_gaussian(energy, prior, 1.0)
    solves = (
        lambda: ms.solve_max_entropy(energy, sched, backend),
        lambda: ms.solve_min_relative_entropy(energy, prior, sched, backend),
        lambda: ms.solve_mt(gibbs, prior, sched, backend),
    )
    for solve in solves:
        with pytest.raises(DimensionMismatch, match="partition covers 3 dims"):
            solve()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_min_relative_entropy_objective_coarse_grains_each_side_once(monkeypatch, depth):
    # p's and q's marginals are computed once each: 2(d - 1) coarse-grainings per call
    rng = np.random.default_rng(14)
    calls = []

    def counted(func):
        def wrapper(*args):
            calls.append(func.__name__)
            return func(*args)
        return wrapper

    monkeypatch.setattr(mt, "pushforward", counted(mt.pushforward))
    monkeypatch.setattr(mg, "marginalize", counted(mg.marginalize))
    sched = ms.TemperatureSchedule(1.0, (1.0,) + (0.5,) * (depth - 1))

    space = mt.ProductSpace((2,) * depth)
    f = mt.EnergyTable(space, rng.uniform(0.0, 1.0, space.size))
    p, q = random_dist(space, rng), random_dist(space, rng)
    chain = ms.TabularBackend.decimation(space, depth).chain
    ms.min_relative_entropy_objective(p, f, q, sched, chain)
    assert calls == ["pushforward"] * (2 * (depth - 1))

    calls.clear()
    part = mg.BlockPartition((1,) * depth)
    energy = mg.QuadraticEnergy(random_pd(depth, rng), rng.standard_normal(depth))
    p, q = (mg.GaussianDist(rng.standard_normal(depth), random_pd(depth, rng)) for _ in "pq")
    ms.min_relative_entropy_objective(p, energy, q, sched, part)
    assert calls == ["marginalize"] * (2 * (depth - 1))
