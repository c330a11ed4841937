import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from msgibbs import gaussian as mg
from msgibbs import nn as mn
from msgibbs.errors import DimensionMismatch, SpectralNormViolated
from msgibbs.tolerances import TOL


def small_params(rng, m=3, d=2, scale=0.3):
    return mn.ResNetParams([scale * rng.standard_normal((m, m)) for _ in range(d)])


def finite_difference_jacobian(params, x, eps=1e-5):
    flat = params.flat()
    m, d = params.m, params.d
    out = np.empty((m, flat.size))
    for j in range(flat.size):
        wp = flat.copy()
        wp[j] += eps
        wm = flat.copy()
        wm[j] -= eps
        op, _ = mn.forward(mn.ResNetParams(wp.reshape(d, m, m)), x)
        om, _ = mn.forward(mn.ResNetParams(wm.reshape(d, m, m)), x)
        out[:, j] = (op - om) / (2.0 * eps)
    return out


def test_forward_identity_at_zero_weights():
    rng = np.random.default_rng(0)
    params = mn.ResNetParams.zeros(4, 3)
    x = rng.standard_normal(4)
    out, hidden = mn.forward(params, x)
    assert np.array_equal(out, x)
    assert len(hidden) == 4
    assert all(np.array_equal(h, x) for h in hidden)


def test_forward_scalar_case():
    params = mn.ResNetParams([np.array([[0.5]])])
    out, hidden = mn.forward(params, [2.0])
    assert out[0] == pytest.approx(math.tanh(1.0) + 2.0)
    assert hidden[0][0] == 2.0


def test_forward_norm_growth_bound():
    # |h_i| <= exp(i/d) |x| under the per-layer spectral budget
    rng = np.random.default_rng(1)
    m, d = 5, 4
    params = mn.scale_to_spectral_norm(small_params(rng, m, d), 1.0 / d)
    for _ in range(50):
        x = rng.standard_normal(m)
        _, hidden = mn.forward(params, x)
        for i, h in enumerate(hidden):
            assert np.linalg.norm(h) <= math.exp(i / d) * np.linalg.norm(x) + 1e-12


def test_forward_batch_matches_loop():
    rng = np.random.default_rng(2)
    # (1, 4) and (6, 1) inputs have C-contiguous transposes: the in-place kernel must copy
    for m, n in ((4, 6), (4, 1), (1, 6)):
        params = small_params(rng, m, 3)
        xs = rng.standard_normal((n, m))
        given = xs.copy()
        batched = mn.forward_batch(params, xs)
        assert np.array_equal(xs, given)
        assert batched.shape == (n, m) and batched.flags.c_contiguous
        for i in range(n):
            single, _ = mn.forward(params, xs[i])
            assert np.allclose(batched[i], single)


@pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 1)])
def test_forward_rejects_inputs_of_the_wrong_width(shape):
    # (3, 1) is a batch of three width-1 inputs, not one width-3 input
    params = mn.ResNetParams.zeros(3, 2)
    with pytest.raises(DimensionMismatch, match="network width is 3"):
        mn.forward(params, np.zeros(shape))


def test_residual_increment_check():
    rng = np.random.default_rng(3)
    m, d = 4, 3
    zero = mn.ResNetParams.zeros(m, d)
    assert np.allclose(mn.residual_increment_check(zero, rng.standard_normal(m)), 0.0)

    params = mn.scale_to_spectral_norm(small_params(rng, m, d), 1.0 / d)
    for _ in range(100):
        x = rng.standard_normal(m)
        incs = mn.residual_increment_check(params, x)
        assert np.all(incs <= math.e * np.linalg.norm(x) / d + 1e-12)

    # single layer: bound is loose but holds
    single = mn.scale_to_spectral_norm(small_params(rng, m, 1), 1.0)
    x = rng.standard_normal(m)
    incs = mn.residual_increment_check(single, x)
    assert incs[0] <= math.e * np.linalg.norm(x)

    big = mn.scale_to_spectral_norm(small_params(rng, m, d), 2.0 / d)
    with pytest.raises(SpectralNormViolated):
        mn.residual_increment_check(big, x)


def test_empirical_risk():
    rng = np.random.default_rng(4)
    m, d = 3, 2
    teacher = small_params(rng, m, d)
    xs = rng.standard_normal((8, m))
    noiseless = mn.Dataset(xs, mn.forward_batch(teacher, xs))
    assert mn.empirical_risk(teacher, noiseless) == 0.0
    zero = mn.ResNetParams.zeros(m, d)
    ident = mn.Dataset(xs, xs)
    assert mn.empirical_risk(zero, ident) == 0.0
    # one-sample scalar case
    p = mn.ResNetParams([np.array([[0.7]])])
    data = mn.Dataset([[1.5]], [[0.3]])
    expected = (math.tanh(0.7 * 1.5) + 1.5 - 0.3) ** 2
    assert mn.empirical_risk(p, data) == pytest.approx(expected)


def test_weight_jacobian_scalar_and_zero_cases():
    # zero-weight scalar net: d h / d W = x (tanh'(0) = 1)
    p = mn.ResNetParams.zeros(1, 1)
    jac = mn.weight_jacobian(p, [2.0])
    assert jac.shape == (1, 1)
    assert jac[0, 0] == pytest.approx(2.0)
    # zero input: jacobian vanishes
    rng = np.random.default_rng(5)
    params = small_params(rng, 3, 2)
    assert np.allclose(mn.weight_jacobian(params, np.zeros(3)), 0.0)


def test_weight_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    for m, d in ((2, 1), (3, 2), (2, 4)):
        params = small_params(rng, m, d, scale=0.4)
        x = rng.standard_normal(m)
        jac = mn.weight_jacobian(params, x)
        fd = finite_difference_jacobian(params, x)
        denom = max(1.0, np.abs(fd).max())
        assert np.abs(jac - fd).max() / denom < 1e-6


def test_gauss_newton_energy():
    rng = np.random.default_rng(7)
    m, d = 3, 2
    p0 = mn.ResNetParams.zeros(m, d)
    teacher = small_params(rng, m, d)
    xs = rng.standard_normal((10, m))
    noiseless = mn.Dataset(xs, xs)  # zero-weight net fits exactly
    en0 = mn.gauss_newton_energy(p0, noiseless)
    assert np.allclose(en0.g, 0.0)

    data = mn.Dataset(xs, mn.forward_batch(teacher, xs))
    en = mn.gauss_newton_energy(p0, data)
    # matches loss value and gradient at the expansion point
    w0 = p0.flat()
    assert en.value(w0) == pytest.approx(mn.empirical_risk(p0, data))
    eps = 1e-6
    for j in rng.choice(w0.size, size=8, replace=False):
        wp = w0.copy()
        wp[j] += eps
        wm = w0.copy()
        wm[j] -= eps
        fd = (
            mn.empirical_risk(mn.ResNetParams(wp.reshape(d, m, m)), data)
            - mn.empirical_risk(mn.ResNetParams(wm.reshape(d, m, m)), data)
        ) / (2 * eps)
        assert abs(en.gradient(w0)[j] - fd) < 1e-6
    # PSD by construction
    assert np.linalg.eigvalsh(en.K).min() >= -1e-8

    # scalar net, single sample: K = 2 (dh/dW)^2, g = 2 r dh/dW
    p1 = mn.ResNetParams([np.array([[0.3]])])
    x1, y1 = 1.2, -0.4
    d1 = mn.Dataset([[x1]], [[y1]])
    e1 = mn.gauss_newton_energy(p1, d1)
    h = math.tanh(0.3 * x1) + x1
    dh = (1.0 - math.tanh(0.3 * x1) ** 2) * x1
    r = h - y1
    w0 = p1.flat()
    assert e1.gradient(w0)[0] == pytest.approx(2 * r * dh)
    assert e1.K[0, 0] == pytest.approx(2 * dh * dh)


@pytest.mark.parametrize("scale", [0.0, 0.3])
@pytest.mark.parametrize("m, d, n", [(1, 1, 1), (3, 2, 10), (4, 3, 2), (10, 4, 30)])
def test_gauss_newton_energy_matches_the_per_sample_sums(m, d, n, scale):
    rng = np.random.default_rng(100 * m + 10 * d + n)
    params = small_params(rng, m, d, scale)
    xs, ys = rng.standard_normal((2, n, m))
    jacs = np.array([mn.weight_jacobian(params, x) for x in xs])
    # a batch of inputs gives the stack of their one-input Jacobians
    batched = mn.weight_jacobian(params, xs)
    assert batched.shape == (n, m, d * m * m)
    assert np.abs(batched - jacs).max() <= 1e-14 * np.abs(jacs).max()
    K = np.zeros((d * m * m, d * m * m))
    g = np.zeros(d * m * m)
    c = 0.0
    for x, y, jac in zip(xs, ys, jacs):
        r = mn.forward(params, x)[0] - y
        K += (2.0 / n) * jac.T @ jac
        g += (2.0 / n) * jac.T @ r
        c += float(r @ r) / n
    w0 = params.flat()
    c, g = c - g @ w0 + 0.5 * w0 @ K @ w0, g - K @ w0
    energy = mn.gauss_newton_energy(params, mn.Dataset(xs, ys))
    for got, want in ((energy.K, K), (energy.g, g), (energy.c, c)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_importing_the_cli_leaves_the_process_pool_unloaded(tmp_path):
    # the sweep runs on plain threads: neither a sweep on three of them nor an
    # experiment with --workers 8 loads a process pool (or the logging it imports)
    config = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "experiment_smoke.json")
    code = (
        "import sys, msgibbs.cli\n"
        "from msgibbs import nn\n"
        "pool = {'concurrent.futures', 'multiprocessing', 'logging'}\n"
        "print(sorted(pool & set(sys.modules)))\n"
        "nn._usable_cpus = lambda: 3\n"
        "cfg = nn.TeacherStudentConfig(m=3, d=3, teacher_depth=1, n_train=8, seed=4)\n"
        "nn.teacher_student_sweep(cfg, [0.0, 0.5], [1e-4, 1e-3], 100, 10)\n"
        f"argv = ['experiment', '--config', {config!r}, '--out', {str(tmp_path / 'e.csv')!r}]\n"
        "assert msgibbs.cli.main(argv + ['--workers', '8']) == 0\n"
        "print(sorted(pool & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(mn.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert loaded == "[]\n[]\n"


def test_gauss_newton_nonzero_expansion_point():
    rng = np.random.default_rng(8)
    m, d = 2, 2
    params = small_params(rng, m, d)
    xs = rng.standard_normal((6, m))
    data = mn.Dataset(xs, rng.standard_normal((6, m)))
    en = mn.gauss_newton_energy(params, data)
    w0 = params.flat()
    assert en.value(w0) == pytest.approx(mn.empirical_risk(params, data))


def test_teacher_student_data():
    rng = np.random.default_rng(9)
    cfg = mn.TeacherStudentConfig(m=4, d=4, teacher_depth=2, n_train=12)
    teacher, train, make_test = mn.teacher_student_data(cfg, rng)
    # leading layers are zero (identity mappings)
    for w in teacher.layers[:2]:
        assert np.array_equal(w, np.zeros((4, 4)))
    # embedded teacher reproduces the standalone shallow teacher exactly
    # (zero layers are exact skips)
    standalone = mn.ResNetParams(teacher.layers[2:])
    assert np.array_equal(mn.forward_batch(standalone, train.xs), train.ys)
    # labels noiseless, teacher risk zero
    assert mn.empirical_risk(teacher, train) == 0.0
    test = make_test(50, np.random.default_rng(1))
    assert mn.empirical_risk(teacher, test) == 0.0
    # vanishing teacher variance: outputs approach the identity map
    tiny = mn.TeacherStudentConfig(
        m=4, d=4, teacher_depth=1, n_train=12, teacher_weight_variance=1e-14
    )
    _, train_tiny, _ = mn.teacher_student_data(tiny, np.random.default_rng(2))
    assert np.abs(train_tiny.ys - train_tiny.xs).max() < 1e-6


def test_teacher_student_problem():
    cfg = mn.TeacherStudentConfig(m=3, d=4, teacher_depth=2, n_train=8, seed=5)
    teacher, train = mn.teacher_student_problem(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(0,)))
    teacher_ref, train_ref, _ = mn.teacher_student_data(cfg, rng)
    assert np.array_equal(teacher.flat(), teacher_ref.flat())
    assert np.array_equal(train.xs, train_ref.xs) and np.array_equal(train.ys, train_ref.ys)
    assert mn.layer_partition(3, 4).block_sizes == (9, 9, 9, 9)
    assert np.array_equal(mn.iid_gaussian_prior(cfg).cov, cfg.prior_variance * np.eye(36))


def dense_teacher_student_posterior(cfg, train, alpha, sigma1, energy=None):
    """The oracle: the dense multiscale posterior of the zero-weight Gauss-Newton energy."""
    if energy is None:
        energy = mn.gauss_newton_energy(mn.ResNetParams.zeros(cfg.m, cfg.d), train)
    return mn.multiscale_posterior(energy, mn.iid_gaussian_prior(cfg), alpha, sigma1,
                                   mn.layer_partition(cfg.m, cfg.d))


def rel_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


#: reduced vs dense posterior for sigma1 >= 1e-6: at prior variance 5e-5 the precisions
#: have condition <= ~1e3, and both paths round to ~1e-13
REDUCED_RTOL = 1e-11
#: at sigma1 = 10^-9.5 the condition is ~1e7 and the dense path's own rounding reaches
#: ~1e-9, so the paths agree to the refinement-consistency gate of solve-gaussian
REDUCED_EDGE_RTOL = TOL.refinement_consistency


@pytest.mark.parametrize("m, d, n_train", [(3, 3, 10), (10, 4, 30)])
def test_teacher_student_posterior_matches_dense(m, d, n_train):
    cfg = mn.TeacherStudentConfig(m=m, d=d, teacher_depth=d // 2, n_train=n_train)
    _, train, _ = mn.teacher_student_data(cfg, np.random.default_rng(14))
    energy = mn.gauss_newton_energy(mn.ResNetParams.zeros(m, d), train)
    for alpha in (0.0, 0.5, 0.999):
        for sigma1 in (10**-9.5, 1e-6, 10**-2.5):
            reduced = mn.teacher_student_posterior(cfg, train, alpha, sigma1).to_dense()
            dense = dense_teacher_student_posterior(cfg, train, alpha, sigma1, energy)
            rtol = REDUCED_RTOL if sigma1 >= 1e-6 else REDUCED_EDGE_RTOL
            for field in ("mean", "cov", "precision"):
                gap = rel_gap(getattr(reduced, field), getattr(dense, field))
                assert gap <= rtol, (alpha, sigma1, field, gap)
    with pytest.raises(DimensionMismatch):
        mn.teacher_student_posterior(dataclasses.replace(cfg, m=m + 1), train, 0.5, 1e-4)


def test_teacher_student_posterior_factors_only_reduced_matrices(monkeypatch):
    cfg = mn.TeacherStudentConfig(m=4, d=3, teacher_depth=1, n_train=10)
    _, train = mn.teacher_student_problem(cfg)
    sizes = []
    for name in ("cholesky", "inv", "solve", "eigh", "eigvalsh", "svd"):
        def recorded(a, *args, _name=name, _func=getattr(np.linalg, name), **kwargs):
            sizes.append((_name, max(np.shape(a))))
            return _func(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)

    def dense_energy(*args):
        raise AssertionError("the reduced path built the dense energy")

    monkeypatch.setattr(mn, "gauss_newton_energy", dense_energy)
    posterior = mn.teacher_student_posterior(cfg, train, 0.5, 1e-4)
    rng = np.random.default_rng(0)
    for _ in range(3):
        posterior.layers_of(rng.standard_normal((1, posterior.dim)))
    reduced_dim = cfg.d * cfg.m
    assert any(n == reduced_dim for _, n in sizes)
    assert [(name, n) for name, n in sizes if n > reduced_dim] == []


def expand_rows(row_matrix, m):
    """``P (I_m (x) A) P'`` for a dim-d*m row matrix A; P maps (a, k, b) to (k, a, b)."""
    d = row_matrix.shape[0] // m
    full = np.einsum("ac,kble->kablce", np.eye(m), row_matrix.reshape(d, m, d, m))
    return full.reshape(d * m * m, d * m * m)


@pytest.mark.parametrize("m, d, n_train", [(3, 3, 10), (10, 4, 30), (5, 3, 3)])
def test_row_factored_posterior_draws_equal_dense_draws(m, d, n_train):
    cfg = mn.TeacherStudentConfig(m=m, d=d, teacher_depth=d // 2, n_train=n_train)
    teacher, train, _ = mn.teacher_student_data(cfg, np.random.default_rng(15))
    dim = d * m * m
    for alpha in (0.0, 0.5, 0.999):
        for sigma1 in (10**-9.5, 1e-6, 10**-2.5):
            posterior = mn.teacher_student_posterior(cfg, train, alpha, sigma1)
            dense = posterior.to_dense()
            at = (alpha, sigma1)
            assert posterior.dim == dense.dim == dim
            assert rel_gap(expand_rows(posterior.row_chol, m), dense.chol) <= REDUCED_RTOL, at
            for k in range(3):
                layers = posterior.layers_of(np.random.default_rng(k).standard_normal((1, dim)))[0]
                flat = mg.sample(dense, np.random.default_rng(k))
                assert layers.shape == (d, m, m)
                assert rel_gap(layers.reshape(-1), flat) <= REDUCED_RTOL, at
                # each row of the noise maps alone: the first of two rows gives the same layers
                one = posterior.layers_of(np.random.default_rng(k).standard_normal((2, dim)))[:1]
                assert one.shape == (1, d, m, m) and np.array_equal(one[0], layers), at
            batch = posterior.layers_of(np.random.default_rng(3).standard_normal((5, dim)))
            flat = mg.sample(dense, np.random.default_rng(3), 5)
            assert batch.shape == (5, d, m, m)
            assert rel_gap(batch.reshape(5, -1), flat) <= REDUCED_RTOL, at
            factored = mn.population_risk_mc(posterior, teacher, cfg, 40, 6, 7)
            dense_risk = mn.population_risk_mc(dense, teacher, cfg, 40, 6, 7)
            assert factored == pytest.approx(dense_risk, rel=REDUCED_RTOL, abs=0.0), at
    assert not posterior.mean.flags.writeable and not posterior.row_chol.flags.writeable


def test_multiscale_posterior_reductions():
    rng = np.random.default_rng(10)
    cfg = mn.TeacherStudentConfig(m=3, d=3, teacher_depth=1, n_train=10,
                                  prior_variance=1e-2)
    teacher, train, _ = mn.teacher_student_data(cfg, rng)
    energy = mn.gauss_newton_energy(mn.ResNetParams.zeros(cfg.m, cfg.d), train)
    prior = mn.iid_gaussian_prior(cfg)
    part = mn.layer_partition(cfg.m, cfg.d)

    sigma1 = 1e-2
    post0 = mn.multiscale_posterior(energy, prior, 0.0, sigma1, part)
    gibbs = mg.gibbs_gaussian(energy, prior, 1.0 / sigma1)
    assert np.array_equal(post0.mean, gibbs.mean)
    assert np.array_equal(post0.cov, gibbs.cov)

    # alpha -> 1: leading-layer marginals approach the prior's
    post1 = mn.multiscale_posterior(energy, prior, 0.999, sigma1, part)
    lead = mg.marginalize(post1, part, cfg.d - 1)
    prior_lead = mg.marginalize(prior, part, cfg.d - 1)
    assert np.abs(lead.mean - prior_lead.mean).max() < 1e-3
    assert np.abs(lead.cov - prior_lead.cov).max() < 0.01 * np.abs(prior_lead.cov).max()


def test_multiscale_posterior_depth_one():
    rng = np.random.default_rng(11)
    m = 2
    prior = mg.GaussianDist(np.zeros(m * m), 0.1 * np.eye(m * m))
    kmat = rng.standard_normal((m * m, m * m))
    energy = mg.QuadraticEnergy(kmat @ kmat.T, rng.standard_normal(m * m), 0.0)
    part = mn.layer_partition(m, 1)
    post = mn.multiscale_posterior(energy, prior, 0.0, 0.5, part)
    gibbs = mg.gibbs_gaussian(energy, prior, 2.0)
    assert np.array_equal(post.mean, gibbs.mean)


def test_population_risk_mc():
    rng = np.random.default_rng(12)
    cfg = mn.TeacherStudentConfig(m=3, d=3, teacher_depth=1, n_train=8)
    teacher, _, _ = mn.teacher_student_data(cfg, rng)
    dim = cfg.d * cfg.m**2
    # near-point-mass at the teacher: risk ~ 0
    point = mg.GaussianDist(teacher.flat(), 1e-12 * np.eye(dim))
    est, se = mn.population_risk_mc(point, teacher, cfg, 500, 20, 3)
    assert est < 1e-9
    # fixed seed -> bit-identical
    wide = mg.GaussianDist(np.zeros(dim), 0.05 * np.eye(dim))
    a = mn.population_risk_mc(wide, teacher, cfg, 300, 25, 42)
    b = mn.population_risk_mc(wide, teacher, cfg, 300, 25, 42)
    assert a == b
    assert a[1] > 0.0
    with pytest.raises(ValueError, match="finite"):
        mn.population_risk_mc(mg.GaussianDist(np.full(dim, np.inf), np.eye(dim)),
                              teacher, cfg, 10, 2, 0)
    with pytest.raises(DimensionMismatch):
        mn.population_risk_mc(point, teacher,
                              mn.TeacherStudentConfig(m=2, d=3, teacher_depth=1,
                                                      n_train=8), 10, 5, 0)


SWEEP_CFG = mn.TeacherStudentConfig(m=3, d=3, teacher_depth=1, n_train=8, seed=4)
#: unsorted on purpose: 3 x 5 = 15 points
SWEEP_ALPHAS = [0.5, 0.0, 0.999]
SWEEP_SIGMA1S = [1e-3, 1e-6, 1e-2, 1e-4, 1e-5]


def sweep():
    return mn.teacher_student_sweep(SWEEP_CFG, SWEEP_ALPHAS, SWEEP_SIGMA1S, 100, 10)


def test_teacher_student_sweep_rows_follow_the_sorted_grid_and_the_seed_contract():
    rows = sweep()
    grid = [(a, s) for a in sorted(SWEEP_ALPHAS) for s in sorted(SWEEP_SIGMA1S)]
    assert [row[:2] for row in rows] == grid
    # every point draws from one seed: one test set and one weight-noise matrix for all
    teacher, train = mn.teacher_student_problem(SWEEP_CFG)
    seed = np.random.SeedSequence(SWEEP_CFG.seed, spawn_key=(1,))
    for row, point in zip(rows, grid):
        posterior = mn.teacher_student_posterior(SWEEP_CFG, train, *point)
        assert row[2:] == mn.population_risk_mc(posterior, teacher, SWEEP_CFG, 100, 10, seed)


@pytest.mark.parametrize("cpus", [1, 2, 5, 20])
def test_teacher_student_sweep_rows_do_not_depend_on_the_thread_count(monkeypatch, cpus):
    rows = sweep()
    started = []
    thread = threading.Thread

    def recording(*args, **kwargs):
        started.append(None)
        return thread(*args, **kwargs)

    monkeypatch.setattr(mn, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", recording)
    # 20 CPUs are more than the 15 points: one thread per point, this one included
    assert sweep() == rows and len(started) == min(cpus, 15) - 1


def test_on_threads_runs_every_index_once_and_returns_with_no_thread_left(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows: a lost or
    # doubled index would show in the list
    monkeypatch.setattr(mn, "_usable_cpus", lambda: 8)
    done, before, interval = [], threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mn._on_threads(2000, done.append)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == list(range(2000)) and threading.active_count() == before


def test_on_threads_takes_no_index_after_an_error(monkeypatch):
    monkeypatch.setattr(mn, "_usable_cpus", lambda: 1)
    ran = []

    def task(i):
        ran.append(i)
        if i == 2:
            raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        mn._on_threads(10, task)
    assert ran == [0, 1, 2]


def test_population_risk_mc_results_do_not_depend_on_the_thread_count(monkeypatch):
    teacher, train = mn.teacher_student_problem(SWEEP_CFG)
    factored = mn.teacher_student_posterior(SWEEP_CFG, train, 0.5, 1e-4)
    dense = mg.GaussianDist(np.zeros(factored.dim), 0.05 * np.eye(factored.dim))
    forward = mn._forward_columns
    caller = threading.current_thread()
    blocks, started = [], []
    thread = threading.Thread

    def recording(layers, h, buf):
        blocks.append((threading.current_thread(), h.shape[0] if h.ndim == 3 else None))
        return forward(layers, h, buf)

    def starting(*args, **kwargs):
        started.append(None)
        return thread(*args, **kwargs)

    monkeypatch.setattr(mn, "_forward_columns", recording)
    monkeypatch.setattr(threading, "Thread", starting)
    results = []
    for cpus in (1, 3):
        monkeypatch.setattr(mn, "_usable_cpus", lambda: cpus)
        blocks.clear()
        results.append([mn.population_risk_mc(p, teacher, SWEEP_CFG, 100, 10, 7)
                        for p in (dense, factored)])
        # each call labels its test set, then runs its 10 draws in blocks of 4, 4 and 2,
        # all on this thread, whatever the number of usable CPUs
        assert blocks == [(caller, None), (caller, 4), (caller, 4), (caller, 2)] * 2
    assert started == [] and results[0] == results[1]


def fail_once_off_the_caller(monkeypatch, name):
    """Make the first call of ``mn.<name>`` on a thread other than this one raise; calls
    on this thread wait until it has.  Returns the fuse, locked once it has blown."""
    func = getattr(mn, name)
    caller = threading.current_thread()
    fuse, blown = threading.Lock(), threading.Event()

    def failing(*args):
        if threading.current_thread() is caller:
            blown.wait(timeout=10.0)
        elif fuse.acquire(blocking=False):
            blown.set()
            raise FloatingPointError("boom")
        return func(*args)

    monkeypatch.setattr(mn, name, failing)
    return fuse


def test_an_error_on_a_point_thread_reaches_the_caller_after_every_thread_ends(monkeypatch):
    monkeypatch.setattr(mn, "_usable_cpus", lambda: 3)
    fuse = fail_once_off_the_caller(monkeypatch, "teacher_student_posterior")
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="boom"):
        sweep()
    assert fuse.locked() and threading.active_count() == before


def test_population_risk_mc_rejects_weights_that_are_not_finite():
    # a TeacherStudentPosterior checks nothing when built: the risk checks each block of draws
    teacher, train = mn.teacher_student_problem(SWEEP_CFG)
    posterior = mn.teacher_student_posterior(SWEEP_CFG, train, 0.5, 1e-4)
    mean = posterior.mean.copy()
    mean[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="weights must be finite"):
        mn.population_risk_mc(dataclasses.replace(posterior, mean=mean), teacher, SWEEP_CFG,
                              10, 5, 0)


@pytest.mark.parametrize("n_test, n_weights", [(0, 5), (5, 0), (-1, 5)])
def test_population_risk_mc_needs_a_test_input_and_a_weight_draw(n_test, n_weights):
    teacher, train = mn.teacher_student_problem(SWEEP_CFG)
    posterior = mn.teacher_student_posterior(SWEEP_CFG, train, 0.5, 1e-4)
    with pytest.raises(ValueError, match="n_test >= 1 and n_weights >= 1"):
        mn.population_risk_mc(posterior, teacher, SWEEP_CFG, n_test, n_weights, 0)
    with pytest.raises(ValueError, match="n_test >= 1 and n_weights >= 1"):
        mn.teacher_student_sweep(SWEEP_CFG, [0.5], [1e-4], n_test, n_weights)


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter and setter; the count is restored after the test."""
    funcs = mn._openblas()
    if funcs is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    old = funcs[0]()
    yield funcs
    funcs[1](old)


def test_teacher_student_sweep_runs_blas_on_one_thread_and_restores_the_count(
    blas_threads, monkeypatch
):
    get, set_threads = blas_threads
    set_threads(2)
    seen = []
    forward = mn._forward_columns

    def recording(layers, h, buf):
        seen.append((get(), h.shape[0] if h.ndim == 3 else None))
        return forward(layers, h, buf)

    monkeypatch.setattr(mn, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mn, "_forward_columns", recording)
    # the training and test sets are labelled, then 15 points each run blocks of 4, 4, 2
    assert len(sweep()) == 15 and get() == 2
    assert Counter(seen) == {(1, None): 2, (1, 4): 30, (1, 2): 15}

    # a direct call labels its test set and runs its draws' blocks inside the pin too
    teacher, train = mn.teacher_student_problem(SWEEP_CFG)
    posterior = mn.teacher_student_posterior(SWEEP_CFG, train, 0.5, 1e-4)
    seen.clear()
    mn.population_risk_mc(posterior, teacher, SWEEP_CFG, 100, 10, 0)
    assert seen[0] == (1, None) and sorted(seen[1:]) == [(1, 2), (1, 4), (1, 4)]
    assert get() == 2

    def failing(*args):
        raise ValueError("boom")

    monkeypatch.setattr(mn, "_forward_columns", failing)
    with pytest.raises(ValueError, match="boom"):
        mn.population_risk_mc(posterior, teacher, SWEEP_CFG, 100, 10, 0)
    assert get() == 2
    # a point that raises on a thread of the sweep's own
    monkeypatch.setattr(mn, "_forward_columns", forward)
    monkeypatch.setattr(mn, "teacher_student_posterior", failing)
    with pytest.raises(ValueError, match="boom"):
        sweep()
    assert get() == 2


def test_overlapping_blas_pins_each_run_on_one_thread_and_restore_the_count(blas_threads):
    get, set_threads = blas_threads
    set_threads(2)
    first_in, second_in, first_out, seen = (*(threading.Event() for _ in range(3)), [])

    def second():
        # enters while the first block is open and stays until the first has left
        first_in.wait(timeout=10.0)
        with mn._one_blas_thread():
            second_in.set()
            first_out.wait(timeout=10.0)
            seen.append(get())

    other = threading.Thread(target=second)
    other.start()
    with mn._one_blas_thread():
        first_in.set()
        second_in.wait(timeout=0.5)  # times out: the second block waits for this one
        seen.append(get())
    first_out.set()
    other.join()
    assert seen == [1, 1] and get() == 2


def test_population_risk_mc_draws_dense_weights_on_one_blas_thread(blas_threads):
    # fig1's network: wide enough that two BLAS threads move the dense draws' last bits
    cfg = mn.TeacherStudentConfig(m=10, d=4, teacher_depth=2, n_train=30)
    teacher, train = mn.teacher_student_problem(cfg)
    a = np.random.default_rng(3).standard_normal((cfg.d * cfg.m**2,) * 2)
    dense = mg.GaussianDist(np.zeros(len(a)), 0.05 * (a @ a.T / len(a) + np.eye(len(a))))
    risks = []
    for count in (1, 2):
        blas_threads[1](count)
        risks.append(mn.population_risk_mc(dense, teacher, cfg, 100, 20, 7))
    assert risks[0] == risks[1]


def test_teacher_student_sweep_rows_equal_a_one_blas_thread_run_bit_for_bit():
    # fig1's network: wide enough that a multi-threaded BLAS moves the rows' last bits
    code = (
        "from msgibbs import nn\n"
        "cfg = nn.TeacherStudentConfig(m=10, d=4, teacher_depth=2, n_train=30)\n"
        "print(repr(nn.teacher_student_sweep(cfg, [0.0, 0.5], [1e-6, 1e-4, 1e-3], 2000, 20)))"
    )
    src = os.path.dirname(os.path.dirname(mn.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    pinned = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    cfg = mn.TeacherStudentConfig(m=10, d=4, teacher_depth=2, n_train=30)
    rows = mn.teacher_student_sweep(cfg, [0.0, 0.5], [1e-6, 1e-4, 1e-3], 2000, 20)
    assert repr(rows) + "\n" == pinned


def test_sweep_memory_grows_with_the_draws_by_the_shared_noise_alone(monkeypatch):
    # fig1's network on two point threads: each thread holds one 4-draw block's weights
    # and buffers at a time, so 10x the draws adds only the noise matrix's growth
    monkeypatch.setattr(mn, "_usable_cpus", lambda: 2)
    cfg = mn.TeacherStudentConfig(m=10, d=4, teacher_depth=2, n_train=30)

    def run(n_weights):
        return mn.teacher_student_sweep(cfg, [0.0, 0.5], [1e-6, 1e-4], 200, n_weights)

    run(40)  # first-call allocations stay out of the comparison
    peaks = []
    for n_weights in (40, 400):
        tracemalloc.start()
        try:
            run(n_weights)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    noise_growth = (400 - 40) * cfg.d * cfg.m**2 * 8
    # the slack covers the risk lists and one thread's 128 KiB of block buffers; a copy of
    # every draw's weights per thread would add 2.3 MB
    assert peaks[1] - peaks[0] <= noise_growth + 128 * 1024


def test_min_risk_per_alpha_keeps_the_first_of_tied_minima():
    rows = [
        (0.0, 1e-6, 0.3, 0.01),
        (0.0, 1e-5, 0.2, 0.02),
        (0.0, 1e-4, 0.2, 0.03),
        (0.5, 1e-6, 0.1, 0.04),
        (0.5, 1e-5, 0.1, 0.05),
    ]
    assert mn.min_risk_per_alpha(rows) == [rows[1], rows[3]]


def test_flatten_round_trip():
    rng = np.random.default_rng(13)
    params = small_params(rng, 3, 4)
    back = mn.ResNetParams(params.flat().reshape(4, 3, 3))
    for w1, w2 in zip(params.layers, back.layers):
        assert np.array_equal(w1, w2)
    # layer-major, row-major order
    flat = params.flat()
    assert flat[0] == params.layers[0][0, 0]
    assert flat[3] == params.layers[0][1, 0]
    assert flat[9] == params.layers[1][0, 0]


def test_guards_reject_invalid_inputs():
    def config(**changes):
        return mn.TeacherStudentConfig(**{**dataclasses.asdict(SWEEP_CFG), **changes})

    cases = [
        (lambda: mn.ResNetParams([]), ValueError, "at least one layer"),
        (lambda: mn.ResNetParams([np.eye(2), np.eye(3)]), DimensionMismatch, "equal width"),
        (lambda: mn.ResNetParams([np.ones((2, 3))]), DimensionMismatch, "equal width"),
        (lambda: mn.ResNetParams([np.full((2, 2), np.nan)]), ValueError, "must be finite"),
        (lambda: mn.Dataset(np.zeros((3, 2)), np.zeros((3, 3))), DimensionMismatch, "matching"),
        (lambda: mn.Dataset(np.zeros(3), np.zeros(3)), DimensionMismatch, "matching"),
        (lambda: config(m=0), ValueError, "must be positive"),
        (lambda: config(d=0), ValueError, "must be positive"),
        (lambda: config(n_train=0), ValueError, "must be positive"),
        (lambda: config(teacher_depth=3), ValueError, r"teacher depth must be in \[1, d\)"),
        (lambda: config(teacher_weight_variance=0.0), ValueError, "variances must be positive"),
        (lambda: config(prior_variance=-1.0), ValueError, "variances must be positive"),
    ]
    for build, error, message in cases:
        with pytest.raises(error, match=message):
            build()


def test_teacher_student_sweep_runs_without_openblas(monkeypatch):
    # a numpy without its bundled OpenBLAS: nothing to pin, the rows are the same
    monkeypatch.setattr(mn, "_openblas", lambda: None)
    rows = sweep()
    assert np.isfinite(np.array(rows)).all()
    monkeypatch.setattr(mn, "_usable_cpus", lambda: 1)
    assert sweep() == rows
