import dataclasses
import math

import numpy as np
import pytest

from msgibbs import gaussian as mg
from msgibbs import oracle as mo
from msgibbs import tabular as mt
from msgibbs.errors import (
    DimensionMismatch,
    EmptyKeepSet,
    IndefinitePosterior,
    NegativeDivergenceInput,
    NonpositiveTheta,
    NumericalGuard,
)
from msgibbs.tolerances import TOL


def random_pd(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


def random_gaussian(dim, rng, scale=1.0):
    return mg.GaussianDist(rng.standard_normal(dim), random_pd(dim, rng, scale))


def test_construction_invariants():
    with pytest.raises(ValueError):
        mg.GaussianDist([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        mg.GaussianDist([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(DimensionMismatch):
        mg.GaussianDist([0.0], np.eye(2))
    g = mg.GaussianDist([1.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
    assert np.allclose(g.precision @ g.cov, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_raise_a_numerical_guard(bad):
    matrix = np.eye(2)
    matrix[0, 0] = bad
    constructions = [
        lambda: mg.GaussianDist([0.0, 0.0], np.full((2, 2), bad)),
        lambda: mg.GaussianDist([0.0, 0.0], matrix),
        lambda: mg.GaussianDist([bad, 0.0], np.eye(2)),
        lambda: mg.GaussianDist.from_precision([0.0, 0.0], matrix),
        lambda: mg.GaussianDist.from_precision([0.0, bad], np.eye(2)),
        lambda: mg.QuadraticEnergy(matrix, [0.0, 0.0]),
        lambda: mg.QuadraticEnergy(np.eye(2), [bad, 0.0]),
        lambda: mg.QuadraticEnergy(np.eye(2), [0.0, 0.0], bad),
    ]
    for build in constructions:
        with pytest.raises(NumericalGuard, match="finite"):
            build()


def test_gibbs_gaussian_needs_a_finite_inverse_temperature():
    energy = mg.QuadraticEnergy(np.eye(2), [0.0, 0.0])
    prior = mg.GaussianDist([0.0, 0.0], np.eye(2))
    for beta in (math.inf, math.nan):
        with pytest.raises(NumericalGuard, match=f"must be finite, got beta = {beta}"):
            mg.gibbs_gaussian(energy, prior, beta)


def test_guards_raise_a_typed_value_error():
    assert issubclass(NumericalGuard, ValueError)
    for cov in ([[1.0, 0.5], [0.2, 1.0]], [[1.0, 2.0], [2.0, 1.0]], np.diag([1e-30, 1.0])):
        with pytest.raises(NumericalGuard):  # asymmetric, indefinite, pivot below the floor
            mg.GaussianDist([0.0, 0.0], cov)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the np.linalg.cholesky and np.linalg.inv calls made from now on."""
    calls = {"cholesky": 0, "inv": 0}
    for name in calls:
        def counted(*args, _name=name, _func=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_from_precision_factors_once_and_inverts_on_first_read(linalg_calls):
    prec = random_pd(4, np.random.default_rng(11))
    g = mg.GaussianDist.from_precision(np.ones(4), prec)
    assert linalg_calls == {"cholesky": 1, "inv": 0}
    assert g.precision is g.precision
    assert linalg_calls == {"cholesky": 1, "inv": 0}
    g.chol
    assert linalg_calls == {"cholesky": 2, "inv": 1}


def test_from_precision_derives_covariance_and_factor_once(linalg_calls):
    prec = random_pd(5, np.random.default_rng(12))
    prec[0, 1] += 1e-13  # asymmetric within tolerance: the stored precision is symmetrized
    g = mg.GaussianDist.from_precision(np.zeros(5), prec)
    sym = 0.5 * (prec + prec.T)
    inv = np.linalg.inv(sym)
    cov = 0.5 * (inv + inv.T)
    chol = np.linalg.cholesky(cov)
    linalg_calls.update(cholesky=0, inv=0)
    assert np.array_equal(g.cov, cov) and g.cov is g.cov
    assert np.array_equal(g.chol, chol) and g.chol is g.chol
    assert g.log_det_cov == 2.0 * float(np.log(np.diag(chol)).sum())
    assert linalg_calls == {"cholesky": 1, "inv": 1}
    assert np.array_equal(g.precision, sym)
    # stored and derived arrays are read-only, from a precision and from a covariance
    for dist in (g, mg.GaussianDist(np.zeros(5), cov)):
        for arr in (dist.mean, dist.cov, dist.precision, dist.chol):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


def test_from_precision_checks_the_covariance_factor_on_first_read():
    # a PD precision whose inverse has a Cholesky pivot of 1e-15, below the floor
    g = mg.GaussianDist.from_precision([0.0, 0.0], np.diag([1e30, 1.0]))
    assert np.allclose(g.cov, np.diag([1e-30, 1.0]), rtol=1e-12, atol=0.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="pivot below the floor"):
            g.chol
    with pytest.raises(ValueError):
        mg.sample(g, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mg.GaussianDist.from_precision([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        mg.GaussianDist.from_precision([0.0], np.eye(2))


def test_marginalize():
    rng = np.random.default_rng(0)
    part = mg.BlockPartition((2, 1))
    g = random_gaussian(3, rng)
    full = mg.marginalize(g, part, 2)
    assert np.array_equal(full.mean, g.mean) and np.array_equal(full.cov, g.cov)
    # independent blocks: first marginal is the first factor
    cov = np.zeros((3, 3))
    cov[:2, :2] = random_pd(2, rng)
    cov[2, 2] = 1.5
    gi = mg.GaussianDist([1.0, 2.0, 3.0], cov)
    m1 = mg.marginalize(gi, part, 1)
    assert np.allclose(m1.mean, [1.0, 2.0])
    assert np.allclose(m1.cov, cov[:2, :2])
    # sub-block extraction oracle
    m = mg.marginalize(g, mg.BlockPartition((1, 1, 1)), 2)
    assert np.allclose(m.cov, g.cov[:2, :2])
    with pytest.raises(EmptyKeepSet):
        mg.marginalize(g, part, 0)


def test_block_sizes_must_be_integral():
    with pytest.raises(ValueError, match=r"block sizes must be integers, got \(1\.9, 2\)"):
        mg.BlockPartition((1.9, 2))
    assert mg.BlockPartition((np.int32(2), 1.0)).block_sizes == (2, 1)


def test_condition():
    # independent blocks: zero gain, own covariance
    cov = np.diag([1.0, 2.0, 3.0])
    g = mg.GaussianDist([1.0, 2.0, 3.0], cov)
    c = mg.condition(g, mg.BlockPartition((1, 2)), 1)
    assert np.allclose(c.gain, 0.0)
    assert np.allclose(c.cov, np.diag([2.0, 3.0]))
    # 2-D correlated case: trailing given leading has gain rho, cov 1 - rho^2
    rho = 0.6
    g2 = mg.GaussianDist([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
    c2 = mg.condition(g2, mg.BlockPartition((1, 1)), 1)
    assert np.allclose(c2.gain, [[rho]])
    assert np.allclose(c2.cov, [[1.0 - rho * rho]])


def test_scale_gaussian():
    rng = np.random.default_rng(1)
    g = random_gaussian(2, rng)
    s1 = mg.scale_gaussian(g, 1.0)
    assert np.array_equal(s1.cov, g.cov)
    one_d = mg.GaussianDist([0.0], [[1.0]])
    assert np.allclose(mg.scale_gaussian(one_d, 2.0).cov, [[0.5]])
    # exact round trip at binary-representable theta
    for theta in (2.0, 4.0, 0.5):
        back = mg.scale_gaussian(mg.scale_gaussian(g, theta), 1.0 / theta)
        assert np.array_equal(back.cov, g.cov)
        assert np.array_equal(back.mean, g.mean)
    with pytest.raises(NonpositiveTheta):
        mg.scale_gaussian(g, -1.0)
    # NaN is no positive exponent; an infinite one would zero the covariance
    with pytest.raises(NonpositiveTheta):
        mg.scale_gaussian(g, math.nan)
    with pytest.raises(NumericalGuard, match="must be finite, got theta = inf"):
        mg.scale_gaussian(g, math.inf)


def test_scale_gaussian_quadrature_oracle():
    g = mg.GaussianDist([0.0], [[1.0]])
    res = mo.quadrature_density_moments(
        lambda p: 2.0 * g.log_density(p), [-6.0], [6.0]
    )
    assert abs(res.mean[0]) < 1e-6
    assert abs(res.cov[0, 0] - 0.5) < 1e-4
    # 2-D scaled density against the grid-discretized tabular scale
    rng = np.random.default_rng(2)
    g2 = mg.GaussianDist([0.2, -0.1], [[1.0, 0.4], [0.4, 0.8]])
    theta = 1.7
    n = 401
    ax = np.linspace(-6.0, 6.0, n)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    space = mt.ProductSpace((n, n))
    tab = mt.TabularDist.from_weights(space, np.exp(g2.log_density(pts)))
    scaled_tab = mt.scale(tab, theta)
    w = scaled_tab.probs
    mean_t = w @ pts
    delta = pts - mean_t
    cov_t = np.einsum("n,ni,nj->ij", w, delta, delta)
    closed = mg.scale_gaussian(g2, theta)
    assert np.abs(mean_t - closed.mean).max() < 1e-3
    assert np.abs(cov_t - closed.cov).max() < 1e-3


def test_tilt_gaussian():
    rng = np.random.default_rng(3)
    p = random_gaussian(2, rng)
    q = random_gaussian(2, rng)
    assert mg.tilt_gaussian(p, q, 1.0) is p
    assert mg.tilt_gaussian(p, q, 0.0) is q
    same = mg.tilt_gaussian(p, p, 0.3)
    assert np.allclose(same.mean, p.mean) and np.allclose(same.cov, p.cov)
    # 1-D closed form against quadrature of the geometric-mean density
    a = mg.GaussianDist([0.0], [[1.0]])
    b = mg.GaussianDist([2.0], [[1.0]])
    t = mg.tilt_gaussian(a, b, 0.5)
    assert np.allclose(t.mean, [1.0]) and np.allclose(t.cov, [[1.0]])
    res = mo.quadrature_density_moments(
        lambda x: 0.5 * a.log_density(x) + 0.5 * b.log_density(x), [-7.0], [9.0]
    )
    assert abs(res.mean[0] - 1.0) < 1e-6
    assert abs(res.cov[0, 0] - 1.0) < 1e-4
    # precision is the convex combination
    theta = 0.3
    t2 = mg.tilt_gaussian(p, q, theta)
    assert np.allclose(
        t2.precision, theta * p.precision + (1 - theta) * q.precision, atol=1e-10
    )


def test_tilt_gaussian_discretization_oracle():
    rng = np.random.default_rng(4)
    p = mg.GaussianDist([0.3, -0.2], [[1.0, 0.2], [0.2, 0.7]])
    q = mg.GaussianDist([-0.4, 0.5], [[0.8, -0.1], [-0.1, 1.2]])
    theta = 0.4
    n = 401
    ax = np.linspace(-6.0, 6.0, n)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    space = mt.ProductSpace((n, n))
    pt = mt.TabularDist.from_weights(space, np.exp(p.log_density(pts)))
    qt = mt.TabularDist.from_weights(space, np.exp(q.log_density(pts)))
    tilted = mt.tilt(pt, qt, theta)
    w = tilted.probs
    mean_t = w @ pts
    delta = pts - mean_t
    cov_t = np.einsum("n,ni,nj->ij", w, delta, delta)
    closed = mg.tilt_gaussian(p, q, theta)
    assert np.abs(mean_t - closed.mean).max() < 1e-3
    assert np.abs(cov_t - closed.cov).max() < 1e-3


def test_concat():
    rng = np.random.default_rng(5)
    # cross-precision zero: block-diagonal joint
    u1 = random_gaussian(1, rng)
    prec2 = np.diag([2.0, 3.0])
    u2 = mg.GaussianDist.from_precision([0.5, -0.5], prec2)
    joint = mg.concat(u1, u2)
    assert np.allclose(joint.precision[0, 1:], 0.0, atol=1e-12)
    assert np.allclose(joint.mean, [u1.mean[0], -0.5])
    assert joint.precision[1, 1] == pytest.approx(3.0)

    # round trip: marginal and conditional are preserved
    for _ in range(20):
        g = random_gaussian(4, rng)
        part = mg.BlockPartition((2, 2))
        m1 = mg.marginalize(g, part, 1)
        back = mg.concat(m1, g)
        rel = np.abs(back.precision - g.precision).max() / np.abs(g.precision).max()
        assert rel < 1e-8
        c_orig = mg.condition(g, part, 1)
        c_back = mg.condition(back, part, 1)
        assert np.abs(c_orig.gain - c_back.gain).max() < 1e-8
        assert np.abs(c_orig.offset - c_back.offset).max() < 1e-8
        assert np.abs(c_orig.cov - c_back.cov).max() < 1e-8
    with pytest.raises(DimensionMismatch):
        mg.concat(g, m1)


def test_kl_gaussian():
    rng = np.random.default_rng(6)
    p = random_gaussian(3, rng)
    assert mg.kl_gaussian(p, p) == 0.0
    a = mg.GaussianDist([0.0], [[1.0]])
    b = mg.GaussianDist([1.0], [[1.0]])
    assert mg.kl_gaussian(a, b) == pytest.approx(0.5, abs=1e-14)
    # 2-D vs quadrature: integrate p log(p/q)
    p2 = mg.GaussianDist([0.1, -0.3], [[1.0, 0.3], [0.3, 0.9]])
    q2 = mg.GaussianDist([-0.2, 0.4], [[1.3, -0.2], [-0.2, 1.1]])
    n = 601
    ax = np.linspace(-7.0, 7.0, n)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    dens = np.exp(p2.log_density(pts))
    h = ax[1] - ax[0]
    w1 = np.full(n, h)
    w1[[0, -1]] *= 0.5
    w = np.outer(w1, w1).ravel()
    integral = float((w * dens * (p2.log_density(pts) - q2.log_density(pts))).sum())
    assert abs(integral - mg.kl_gaussian(p2, q2)) < 1e-4
    # nonnegativity, equality only at equal parameters
    for _ in range(100):
        x = random_gaussian(2, rng)
        y = random_gaussian(2, rng)
        assert mg.kl_gaussian(x, y) > 0.0
        assert mg.kl_gaussian(x, x) == 0.0


def test_kl_gaussian_negative_guard(monkeypatch):
    # the rounding floor is a typed check that survives ``python -O``; a floor
    # above zero makes the exact KL(p || p) = 0 trip it
    p = random_gaussian(2, np.random.default_rng(8))
    monkeypatch.setattr(mg, "TOL", dataclasses.replace(TOL, divergence_rounding=-1.0))
    with pytest.raises(NegativeDivergenceInput):
        mg.kl_gaussian(p, p)


def test_sampling_moments():
    rng = np.random.default_rng(7)
    g = mg.GaussianDist([1.0, -2.0, 0.5], random_pd(3, rng))
    n = 100_000
    draws = mg.sample(g, np.random.default_rng(123), n)
    se = np.sqrt(np.diag(g.cov) / n)
    assert np.all(np.abs(draws.mean(axis=0) - g.mean) < 4 * se)
    emp_cov = np.cov(draws.T)
    rel = np.linalg.norm(emp_cov - g.cov) / np.linalg.norm(g.cov)
    assert rel < 0.05
    single = mg.sample(g, np.random.default_rng(5))
    assert single.shape == (3,)


def test_gibbs_gaussian():
    rng = np.random.default_rng(8)
    prior = random_gaussian(2, rng)
    zero = mg.QuadraticEnergy(np.zeros((2, 2)), np.zeros(2), 0.0)
    out = mg.gibbs_gaussian(zero, prior, 1.0)
    assert np.allclose(out.mean, prior.mean, atol=1e-12)
    assert np.allclose(out.cov, prior.cov, atol=1e-12)
    # 1-D completion of squares: prior N(0,1), f = w^2/2, beta 1 -> N(0, 1/2)
    p1 = mg.GaussianDist([0.0], [[1.0]])
    f1 = mg.QuadraticEnergy([[1.0]], [0.0], 0.0)
    post = mg.gibbs_gaussian(f1, p1, 1.0)
    assert np.allclose(post.cov, [[0.5]])
    # beta -> 0 recovers the prior
    f2 = mg.QuadraticEnergy(random_pd(2, rng), rng.standard_normal(2), 0.0)
    near = mg.gibbs_gaussian(f2, prior, 1e-8)
    scale = np.abs(prior.cov).max()
    assert np.abs(near.mean - prior.mean).max() < 1e-6 * scale
    assert np.abs(near.cov - prior.cov).max() < 1e-6 * scale
    with pytest.raises(IndefinitePosterior, match="not positive definite"):
        bad = mg.QuadraticEnergy.__new__(mg.QuadraticEnergy)
        object.__setattr__(bad, "K", -10.0 * np.eye(2))
        object.__setattr__(bad, "g", np.zeros(2))
        object.__setattr__(bad, "c", 0.0)
        mg.gibbs_gaussian(bad, prior, 1.0)


def test_gibbs_gaussian_factors_its_precision_once(linalg_calls):
    rng = np.random.default_rng(13)
    prior = random_gaussian(4, rng)
    energy = mg.QuadraticEnergy(random_pd(4, rng), rng.standard_normal(4), 0.0)
    prior.precision  # the prior's own inversion is not the posterior's
    linalg_calls.update(cholesky=0, inv=0)
    post = mg.gibbs_gaussian(energy, prior, 2.0)
    assert linalg_calls == {"cholesky": 1, "inv": 0}
    assert np.array_equal(post.precision, prior.precision + 2.0 * energy.K)


def test_quadratic_energy_validation():
    with pytest.raises(ValueError):
        mg.QuadraticEnergy([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])  # asymmetric
    with pytest.raises(ValueError):
        mg.QuadraticEnergy([[-1.0]], [0.0])  # negative eigenvalue
    # an eigenvalue just below zero, inside the floor, is rounding: K is kept as given
    near = np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]])
    assert -TOL.energy_eigenvalue_floor < np.linalg.eigvalsh(near).min() < 0.0
    assert np.array_equal(mg.QuadraticEnergy(near, [0.0, 0.0]).K, 0.5 * (near + near.T))
    en = mg.QuadraticEnergy([[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0], 0.5)
    w = np.array([0.5, 2.0])
    assert en.value(w) == pytest.approx(0.5 + 0.5 - 2.0 + 0.5 * (0.5 + 4.0))


def test_expected_quadratic_and_entropy():
    rng = np.random.default_rng(9)
    g = random_gaussian(2, rng)
    en = mg.QuadraticEnergy(random_pd(2, rng), rng.standard_normal(2), 0.3)
    draws = mg.sample(g, np.random.default_rng(77), 200_000)
    mc = np.mean([en.value(w) for w in draws[:50_000]])
    assert abs(mc - mg.expected_quadratic(g, en)) < 0.05 * max(
        1.0, abs(mg.expected_quadratic(g, en))
    )
    one = mg.GaussianDist([0.0], [[1.0]])
    assert mg.differential_entropy(one) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e)
    )


def test_json_round_trip():
    rng = np.random.default_rng(10)
    g = random_gaussian(3, rng)
    part = mg.BlockPartition((2, 1))
    obj = g.to_json(part)
    assert obj["block_sizes"] == [2, 1]
    g2 = mg.GaussianDist.from_json(obj)
    assert np.allclose(g2.mean, g.mean)
    assert np.allclose(g2.cov, g.cov)
