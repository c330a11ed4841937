import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from msgibbs import multiscale as ms
from msgibbs import oracle as mo
from msgibbs import tabular as mt
from msgibbs.errors import MassLeakage, NonConvergence, NumericalGuard, SpaceMismatch


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def random_dist(space, rng, low=0.05):
    return mt.TabularDist.from_weights(space, rng.uniform(low, 1.0, space.size))


def test_single_scale_converges_to_gibbs():
    rng = np.random.default_rng(0)
    space = mt.ProductSpace((2, 3))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(0.8, (1.2, 0.0))
    chain = [mt.ScaleMap.decimation(space)]
    out = mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
    gibbs = mt.gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
    assert mt.total_variation(out, gibbs) < 1e-4


def test_zero_energy_returns_reference():
    rng = np.random.default_rng(1)
    space = mt.ProductSpace((2, 2))
    f = mt.EnergyTable(space, np.zeros(space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.5))
    chain = [mt.ScaleMap.decimation(space)]
    out = mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
    assert mt.total_variation(out, q) < 1e-4


def test_agreement_with_mt_solver():
    rng = np.random.default_rng(2)
    space = mt.ProductSpace((2, 2))
    f = mt.EnergyTable(space, rng.uniform(0.0, 1.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (1.0, 1.0))
    backend = ms.TabularBackend.decimation(space, 2)
    oracle = mo.minimize_tabular("min-relative-entropy", f, q, sched, backend.chain)
    solver = ms.solve_min_relative_entropy(f, q, sched, backend)
    assert mt.total_variation(oracle, solver) < 1e-4


def test_mutual_optimality_bracket():
    rng = np.random.default_rng(3)
    space = mt.ProductSpace((3, 2))
    f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (0.9, 0.7))
    backend = ms.TabularBackend.decimation(space, 2)
    oracle = mo.minimize_tabular("min-relative-entropy", f, q, sched, backend.chain)
    solver = ms.solve_min_relative_entropy(f, q, sched, backend)
    obj_oracle = ms.min_relative_entropy_objective(oracle, f, q, sched, backend.chain)
    obj_solver = ms.min_relative_entropy_objective(solver, f, q, sched, backend.chain)
    assert obj_oracle <= obj_solver + 1e-6
    assert obj_solver <= obj_oracle + 1e-6


def test_empty_fiber_with_positive_reference():
    # coarse state 3 has an empty fiber, so q's coarse marginal is zero there
    rng = np.random.default_rng(8)
    source, target = mt.ProductSpace((6,)), mt.ProductSpace((4,))
    chain = [mt.ScaleMap(source, target, [0, 0, 1, 1, 2, 2])]
    f = mt.EnergyTable(source, rng.uniform(-1.0, 1.0, source.size))
    q = random_dist(source, rng)
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.7))
    solver = ms.solve_min_relative_entropy(f, q, sched, ms.TabularBackend(chain))
    out = mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
    assert mt.total_variation(out, solver) < 1e-4


def test_oracle_is_deterministic():
    rng = np.random.default_rng(4)
    space = mt.ProductSpace((2, 2))
    f = mt.EnergyTable(space, rng.uniform(0.0, 1.0, space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.4))
    chain = [mt.ScaleMap.decimation(space)]
    a = mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
    b = mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
    assert np.array_equal(a.probs, b.probs)


def test_oracle_rejections(monkeypatch):
    space = mt.ProductSpace((2, 2))
    f = mt.EnergyTable(space, np.zeros(4))
    q = mt.TabularDist(space, [0.5, 0.5, 0.0, 0.0])
    sched = ms.TemperatureSchedule(1.0, (1.0, 1.0))
    chain = [mt.ScaleMap.decimation(space)]
    with pytest.raises(ValueError):
        mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
    with pytest.raises(ValueError):
        mo.minimize_tabular("bogus", f, q, sched, chain)
    with pytest.raises(SpaceMismatch):
        mo.minimize_tabular("max-entropy", f, None, sched, [])
    big = mt.ProductSpace((90, 90))
    with pytest.raises(ValueError):
        mo.minimize_tabular(
            "max-entropy", mt.EnergyTable(big, np.zeros(big.size)), None, sched, chain
        )
    monkeypatch.setattr(
        mo, "TOL", dataclasses.replace(mo.TOL, oracle_max_iterations=1, oracle_convergence=1e-300)
    )
    with pytest.raises(NonConvergence):
        mo.minimize_tabular(
            "min-relative-entropy",
            mt.EnergyTable(space, [0.0, 5.0, 0.0, 5.0]),
            mt.TabularDist.uniform(space),
            sched,
            chain,
        )


def test_quadrature_standard_normal():
    def log_density(pts):
        return -0.5 * pts[:, 0] ** 2

    res = mo.quadrature_density_moments(log_density, [-6.0], [6.0])
    assert abs(res.mean[0]) < 1e-6
    assert abs(res.cov[0, 0] - 1.0) < 1e-4
    assert abs(res.log_norm - 0.5 * math.log(2 * math.pi)) < 1e-6


def test_quadrature_2d_correlated(monkeypatch):
    cov = np.array([[1.0, 0.4], [0.4, 0.8]])
    prec = np.linalg.inv(cov)
    mean = np.array([0.3, -0.2])

    def log_density(pts):
        d = pts - mean
        return -0.5 * np.einsum("ni,ij,nj->n", d, prec, d)

    monkeypatch.setattr(mo, "TOL", dataclasses.replace(mo.TOL, quadrature_grid_points=401))
    res = mo.quadrature_density_moments(log_density, [-6.0, -6.0], [6.0, 6.0])
    assert np.abs(res.mean - mean).max() < 1e-6
    assert np.abs(res.cov - cov).max() < 1e-3
    norm = 0.5 * (2 * math.log(2 * math.pi) + math.log(np.linalg.det(cov)))
    assert abs(res.log_norm - norm) < 1e-4


def test_quadrature_mass_leakage():
    def log_density(pts):
        return -0.01 * pts[:, 0] ** 2  # far too wide for the box

    with pytest.raises(MassLeakage):
        mo.quadrature_density_moments(log_density, [-3.0], [3.0])


def test_step_size_collapse_is_reported():
    # energies of order 1e7 make every step an ascent until the step collapses
    space = mt.ProductSpace((4, 4))
    rng = np.random.default_rng(1)
    f = mt.EnergyTable(space, 1e7 * rng.standard_normal(space.size))
    sched = ms.TemperatureSchedule(1e7, (1.0, 0.5))
    chain = [mt.ScaleMap.decimation(space)]
    with pytest.raises(NonConvergence, match=r"step size collapsed .* at iteration \d+"):
        mo.minimize_tabular(
            "min-relative-entropy", f, mt.TabularDist.uniform(space), sched, chain
        )


def test_chain_on_the_wrong_space_is_rejected():
    # both chains have the sizes the oracle needs, but not the spaces
    space = mt.ProductSpace((2, 2, 2))
    f = mt.EnergyTable(space, np.linspace(0.0, 1.0, space.size))
    q = mt.TabularDist.uniform(space)
    other_first = [mt.ScaleMap.decimation(mt.ProductSpace((4, 2)))]
    broken_second = [
        mt.ScaleMap.decimation(space),
        mt.ScaleMap(mt.ProductSpace((4,)), mt.ProductSpace((2,)), [0, 0, 1, 1]),
    ]
    for chain in (other_first, broken_second):
        sched = ms.TemperatureSchedule(1.0, (1.0, 0.5, 0.25)[: len(chain) + 1])
        for kind in ("min-relative-entropy", "max-entropy"):
            for oracle in (mo.minimize_tabular, mo.exact_tabular):
                with pytest.raises(SpaceMismatch):
                    oracle(kind, f, q, sched, chain)


@pytest.mark.parametrize(
    "lower, upper", [([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), ([-1.0, -1.0], [1.0])]
)
def test_quadrature_rejects_unsupported_boxes(monkeypatch, lower, upper):
    # a small grid: a check moved after the grid build must not allocate 2001^3 points
    monkeypatch.setattr(mo, "TOL", dataclasses.replace(mo.TOL, quadrature_grid_points=5))
    with pytest.raises(ValueError, match="1-D and 2-D boxes"):
        mo.quadrature_density_moments(lambda pts: np.zeros(len(pts)), lower, upper)


def binary3():
    cfg = json.loads((CONFIGS / "solve_tabular_binary3.json").read_text())
    space = mt.ProductSpace(tuple(cfg["axis_sizes"]))
    return mt.EnergyTable(space, cfg["energy"]), mt.TabularDist(space, cfg["reference"])


def test_exact_single_scale_is_the_gibbs_distribution_and_its_log_normalizer():
    f, q = binary3()
    sched = ms.TemperatureSchedule(0.8, (1.2,))
    value, log_p = mo.exact_tabular("min-relative-entropy", f, q, sched, [])
    temperature = sched.lam * sched.sigma[0]
    w = q.probs * np.exp(-f.values / temperature)
    assert np.abs(np.exp(log_p) - w / w.sum()).max() <= 1e-15
    assert value == pytest.approx(-temperature * math.log(w.sum()), rel=1e-14)
    value, log_p = mo.exact_tabular("max-entropy", f, None, sched, [])
    w = np.exp(-sched.lam * f.values / sched.sigma[0])
    assert np.abs(np.exp(log_p) - w / w.sum()).max() <= 1e-15
    assert value == pytest.approx(sched.sigma[0] * math.log(w.sum()), rel=1e-14)


def test_exact_and_mirror_descent_agree_where_the_solver_underflows():
    # sigma_1 = 1e-12: the solver's initial Gibbs underflows on whole fibers (its answer
    # is not checked here); both oracles keep the coarse weights
    f, q = binary3()
    sched = ms.TemperatureSchedule(1.0, (1e-12, 0.5))
    chain = [mt.ScaleMap.decimation(f.space)]
    for kind in ("max-entropy", "min-relative-entropy"):
        _, log_p = mo.exact_tabular(kind, f, q, sched, chain)
        descent = mo.minimize_tabular(kind, f, q, sched, chain)
        assert 0.5 * np.abs(np.exp(log_p) - descent.probs).sum() <= 1e-9


def test_exact_oracle_keeps_minus_infinity_on_states_without_mass():
    # coarse state 3 has an empty fiber, and q is zero on the whole fiber of state 1
    source, target = mt.ProductSpace((6,)), mt.ProductSpace((4,))
    chain = [mt.ScaleMap(source, target, [0, 0, 1, 1, 2, 2])]
    f = mt.EnergyTable(source, [0.3, -0.2, 0.5, 0.1, -0.4, 0.0])
    q = mt.TabularDist.from_weights(source, [1.0, 2.0, 0.0, 0.0, 3.0, 0.0])
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.7))
    _, log_p = mo.exact_tabular("min-relative-entropy", f, q, sched, chain)
    assert np.array_equal(np.isneginf(log_p), q.probs == 0.0)
    solver = ms.solve_min_relative_entropy(f, q, sched, ms.TabularBackend(chain))
    assert mt.total_variation(mt.TabularDist(source, np.exp(log_p)), solver) <= 1e-15


def test_exact_oracle_rejections():
    f, q = binary3()
    chain = [mt.ScaleMap.decimation(f.space)]
    sched = ms.TemperatureSchedule(1.0, (1.0, 0.5))
    with pytest.raises(ValueError, match="unknown objective"):
        mo.exact_tabular("bogus", f, q, sched, chain)
    with pytest.raises(SpaceMismatch):
        mo.exact_tabular("max-entropy", f, None, sched, [])
    other = mt.TabularDist.uniform(mt.ProductSpace((8,)))
    with pytest.raises(SpaceMismatch):
        mo.exact_tabular("min-relative-entropy", f, other, sched, chain)
    # -lam f / sigma_1 overflows to +inf on the states with negative energy
    negative = mt.EnergyTable(f.space, f.values - 0.5)
    tiny = ms.TemperatureSchedule(1.0, (1e-320, 0.5))
    with pytest.raises(NumericalGuard):
        mo.exact_tabular("max-entropy", negative, None, tiny, chain)


@pytest.mark.parametrize("kind", ["max-entropy", "min-relative-entropy"])
def test_exact_oracle_holds_one_composed_map_at_a_time(kind):
    # one joint-index map alive at a time; holding every scale's composed map at once
    # peaks at 19.6 state arrays here
    rng = np.random.default_rng(31)
    space = mt.ProductSpace((2,) * 16)
    f = mt.EnergyTable(space, rng.standard_normal(space.size))
    q = random_dist(space, rng)
    sched = ms.TemperatureSchedule(1.0, (1.0, *rng.uniform(0.1, 1.0, space.ndim - 1)))
    chain = ms.TabularBackend.decimation(space, sched.depth).chain
    tracemalloc.start()
    try:
        mo.exact_tabular(kind, f, q, sched, chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * space.size


def value_rounding_scale(sched, n_states):
    """How far two float evaluations of a multiscale value may differ.

    The value sums, over up to n states, terms of size up to lam * sum(sigma) * (log n + 3)
    (an entropy is at most log n, and sum p |log(p / q)| is at most D + 2) plus E[f] with
    |f| <= 1; pairwise summation rounds each sum by up to log2(n) eps of its size.
    """
    eps = np.finfo(float).eps
    return eps * math.log2(n_states) * (math.log(n_states) + 3.0) * (
        1.0 + sched.lam * sum(sched.sigma))


@pytest.mark.parametrize("n_axes", [16, 18])
@pytest.mark.parametrize("alpha", [0.5, 0.999])
def test_exact_value_is_the_objective_of_the_solution(n_axes, alpha):
    # max-entropy is maximized and min-relative-entropy minimized: the value carries each
    # objective's own sign.  At alpha = 0.999, sigma_6 is 1e15 and the objectives keep
    # only the digits above that rounding scale.
    rng = np.random.default_rng(n_axes)
    space = mt.ProductSpace((2,) * n_axes)
    f = mt.EnergyTable(space, rng.uniform(0.0, 1.0, space.size))
    q = mt.TabularDist.from_weights(space, rng.uniform(0.1, 1.1, space.size))
    sched = ms.alpha_schedule(alpha, 1.0, 6)
    backend = ms.TabularBackend.decimation(space, sched.depth)
    bound = value_rounding_scale(sched, space.size)

    solution = ms.solve_max_entropy(f, sched, backend)
    value, _ = mo.exact_tabular("max-entropy", f, None, sched, backend.chain)
    assert abs(value - ms.max_entropy_objective(solution, f, sched, backend.chain)) <= bound

    solution = ms.solve_min_relative_entropy(f, q, sched, backend)
    value, _ = mo.exact_tabular("min-relative-entropy", f, q, sched, backend.chain)
    objective = ms.min_relative_entropy_objective(solution, f, q, sched, backend.chain)
    assert abs(value - objective) <= bound


def test_simplex_oracle_rejects_a_reference_on_another_space():
    space = mt.ProductSpace((2, 2))
    f = mt.EnergyTable(space, np.zeros(space.size))
    q = mt.TabularDist.uniform(mt.ProductSpace((4,)))
    sched = ms.TemperatureSchedule(1.0, (1.0, 1.0))
    chain = ms.TabularBackend.decimation(space, sched.depth).chain
    with pytest.raises(SpaceMismatch, match="different spaces"):
        mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
