"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from msgibbs import bounds as mb
from msgibbs import cli
from msgibbs import gaussian as mg
from msgibbs import multiscale as ms
from msgibbs import nn as mn
from msgibbs import oracle as mo
from msgibbs import tabular as mt

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def random_dist(space, rng, low=0.05):
    return mt.TabularDist.from_weights(space, rng.uniform(low, 1.0, space.size))


def random_pd(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


def random_gaussian(dim, rng, scale=1.0):
    return mg.GaussianDist(rng.standard_normal(dim), random_pd(dim, rng, scale))


def _random_schedule(rng, depth):
    sigma = list(rng.uniform(0.3, 1.2, depth))
    if depth > 1 and rng.random() < 0.25:
        sigma[-1] = 0.0  # exercise the pass-through path
    return ms.TemperatureSchedule(float(rng.uniform(0.5, 2.0)), tuple(sigma))


def _random_space(rng, max_axes=3):
    ndim = int(rng.integers(1, max_axes + 1))
    return mt.ProductSpace(tuple(int(rng.integers(2, 4)) for _ in range(ndim)))


def _random_chain(rng, space, length):
    """Non-decimation chain of random surjections onto shrinking spaces."""
    chain = []
    current = space
    for _ in range(length):
        hi = min(current.size, max(3, current.size // 2))
        t_size = int(rng.integers(2, hi + 1))
        target = mt.ProductSpace((t_size,))
        mapping = np.concatenate(
            [rng.permutation(t_size), rng.integers(0, t_size, current.size - t_size)]
        )[: current.size]
        chain.append(mt.ScaleMap(current, target, mapping))
        current = target
    return chain


def test_criterion_1_oracle_equivalence():
    with criterion(1, "solvers match the mirror-descent oracle within TV 1e-4"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        n_instances = 0
        # decimation instances (also cross-check marginalize-tilt)
        for _ in range(10):
            space = mt.ProductSpace(
                tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4))))
            )
            depth = int(rng.integers(2, space.ndim + 1))
            backend = ms.TabularBackend.decimation(space, depth)
            sched = _random_schedule(rng, depth)
            f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
            q = random_dist(space, rng)
            out_max = ms.solve_max_entropy(f, sched, backend)
            orc_max = mo.minimize_tabular("max-entropy", f, None, sched, backend.chain)
            assert mt.total_variation(out_max, orc_max) <= 1e-4
            out_min = ms.solve_min_relative_entropy(f, q, sched, backend)
            orc_min = mo.minimize_tabular(
                "min-relative-entropy", f, q, sched, backend.chain
            )
            assert mt.total_variation(out_min, orc_min) <= 1e-4
            gibbs = mt.gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
            out_mt = ms.solve_mt(gibbs, q, sched, backend)
            assert mt.total_variation(out_mt, out_min) <= 1e-12
            assert mt.total_variation(out_mt, orc_min) <= 1e-4
            n_instances += 1
        # arbitrary (non-decimation) scale maps
        for _ in range(10):
            space = _random_space(rng)
            depth = int(rng.integers(2, 4))
            chain = _random_chain(rng, space, depth - 1)
            backend = ms.TabularBackend(chain)
            sched = _random_schedule(rng, depth)
            f = mt.EnergyTable(space, rng.uniform(-1.0, 1.0, space.size))
            q = random_dist(space, rng)
            out_max = ms.solve_max_entropy(f, sched, backend)
            orc_max = mo.minimize_tabular("max-entropy", f, None, sched, chain)
            assert mt.total_variation(out_max, orc_max) <= 1e-4
            out_min = ms.solve_min_relative_entropy(f, q, sched, backend)
            orc_min = mo.minimize_tabular("min-relative-entropy", f, q, sched, chain)
            assert mt.total_variation(out_min, orc_min) <= 1e-4
            n_instances += 1
        elapsed = time.monotonic() - start
        assert n_instances >= 20
        assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"


def test_criterion_2_identity_suite():
    with criterion(2, "chain-rule, entropy-KL mixing, Renyi-tilt identities at 1e-10"):
        rng = np.random.default_rng(7)
        # chain rule
        for _ in range(100):
            space = mt.ProductSpace((2, 3))
            p = random_dist(space, rng)
            q = random_dist(space, rng)
            t_size = int(rng.integers(2, 5))
            t = mt.ScaleMap(
                space, mt.ProductSpace((t_size,)), rng.integers(0, t_size, space.size)
            )
            tp, tq = mt.pushforward(p, t), mt.pushforward(q, t)
            rhs = mt.kl(tp, tq)
            cp, cq = mt.reverse_conditional(p, t), mt.reverse_conditional(q, t)
            for j in range(t_size):
                if tp.probs[j] > 0:
                    fiber = t.map == j
                    pr, qr = cp.probs[fiber], cq.probs[fiber]
                    mask = pr > 0
                    rhs += tp.probs[j] * float(
                        (pr[mask] * np.log(pr[mask] / qr[mask])).sum()
                    )
            assert abs(mt.kl(p, q) - rhs) < 1e-10
        # entropy-KL mixing
        for _ in range(100):
            space = mt.ProductSpace((int(rng.integers(2, 7)),))
            p = random_dist(space, rng)
            q = random_dist(space, rng)
            theta = float(rng.uniform(1e-3, 2.0))
            order = theta / (1.0 + theta)
            lhs = mt.shannon_entropy(p) - theta * mt.kl(p, q)
            rhs = mt.renyi_entropy(q, order) - (1.0 + theta) * mt.kl(
                p, mt.scale(q, order)
            )
            assert abs(lhs - rhs) < 1e-10
        # Renyi tilt
        for _ in range(100):
            space = mt.ProductSpace((2, int(rng.integers(2, 5))))
            p = random_dist(space, rng)
            q = random_dist(space, rng)
            r = random_dist(space, rng)
            theta = float(rng.uniform(0.01, 0.99))
            lhs = theta * mt.kl(p, q) + (1.0 - theta) * mt.kl(p, r)
            rhs = mt.kl(p, mt.tilt(q, r, theta)) + (
                1.0 - theta
            ) * mt.renyi_divergence(q, r, theta)
            assert abs(lhs - rhs) < 1e-10


def _grid_moments(dist, pts):
    w = dist.probs
    mean = w @ pts
    delta = pts - mean
    return mean, np.einsum("n,ni,nj->ij", w, delta, delta)


def test_criterion_3_gaussian_closed_forms():
    with criterion(3, "Gaussian tilt/scale/KL/concat/MT match their oracles"):
        # scale: quadrature of the powered density
        std = mg.GaussianDist([0.0], [[1.0]])
        res = mo.quadrature_density_moments(
            lambda p: 2.0 * std.log_density(p), [-6.0], [6.0]
        )
        scaled = mg.scale_gaussian(std, 2.0)
        assert abs(res.mean[0] - scaled.mean[0]) < 1e-6
        assert abs(res.cov[0, 0] - scaled.cov[0, 0]) < 1e-4
        # tilt: quadrature of the geometric-mean density
        a = mg.GaussianDist([0.0], [[1.0]])
        b = mg.GaussianDist([2.0], [[1.0]])
        tilted = mg.tilt_gaussian(a, b, 0.5)
        res = mo.quadrature_density_moments(
            lambda x: 0.5 * a.log_density(x) + 0.5 * b.log_density(x), [-7.0], [9.0]
        )
        assert abs(res.mean[0] - tilted.mean[0]) < 1e-6
        assert abs(res.cov[0, 0] - tilted.cov[0, 0]) < 1e-4
        assert np.allclose(tilted.mean, [1.0]) and np.allclose(tilted.cov, [[1.0]])

        # 2-D grid for tilt and KL
        n = 401
        ax = np.linspace(-6.0, 6.0, n)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        space = mt.ProductSpace((n, n))
        p2 = mg.GaussianDist([0.3, -0.2], [[1.0, 0.2], [0.2, 0.7]])
        q2 = mg.GaussianDist([-0.4, 0.5], [[0.8, -0.1], [-0.1, 1.2]])
        pt = mt.TabularDist.from_weights(space, np.exp(p2.log_density(pts)))
        qt = mt.TabularDist.from_weights(space, np.exp(q2.log_density(pts)))
        mean_t, cov_t = _grid_moments(mt.tilt(pt, qt, 0.4), pts)
        closed = mg.tilt_gaussian(p2, q2, 0.4)
        assert np.abs(mean_t - closed.mean).max() < 1e-3
        assert np.abs(cov_t - closed.cov).max() < 1e-3
        # KL against direct grid integration
        h = ax[1] - ax[0]
        w1 = np.full(n, h)
        w1[[0, -1]] *= 0.5
        w = np.outer(w1, w1).ravel()
        dens = np.exp(p2.log_density(pts))
        integral = float(
            (w * dens * (p2.log_density(pts) - q2.log_density(pts))).sum()
        )
        assert abs(integral - mg.kl_gaussian(p2, q2)) < 1e-4

        # concat round trips within 1e-8
        rng = np.random.default_rng(15)
        for _ in range(20):
            g = random_gaussian(4, rng)
            part = mg.BlockPartition((2, 2))
            back = mg.concat(mg.marginalize(g, part, 1), g)
            rel = np.abs(back.precision - g.precision).max() / np.abs(
                g.precision
            ).max()
            assert rel < 1e-8
            c1, c2 = mg.condition(g, part, 1), mg.condition(back, part, 1)
            assert np.abs(c1.gain - c2.gain).max() < 1e-8
            assert np.abs(c1.offset - c2.offset).max() < 1e-8
            assert np.abs(c1.cov - c2.cov).max() < 1e-8

        # Gaussian MT on a 2-block toy vs grid-discretized tabular MT
        prior = mg.GaussianDist([0.1, -0.2], [[1.0, 0.3], [0.3, 1.0]])
        energy = mg.QuadraticEnergy([[2.0, 0.5], [0.5, 1.0]], [0.3, -0.2], 0.0)
        sched = ms.TemperatureSchedule(1.0, (1.0, 1.0))
        gibbs_g = mg.gibbs_gaussian(energy, prior, 1.0)
        sol_g = ms.solve_mt(gibbs_g, prior, sched, ms.GaussianBackend(mg.BlockPartition((1, 1))))
        qt2 = mt.TabularDist.from_weights(space, np.exp(prior.log_density(pts)))
        gt2 = mt.TabularDist.from_weights(space, np.exp(gibbs_g.log_density(pts)))
        sol_t = ms.solve_mt(gt2, qt2, sched, ms.TabularBackend.decimation(space, 2))
        mean_t, cov_t = _grid_moments(sol_t, pts)
        assert np.abs(mean_t - sol_g.mean).max() < 1e-3
        assert np.abs(cov_t - sol_g.cov).max() < 1e-3


def test_criterion_4_reductions():
    with criterion(4, "alpha=0 and sigma=(1,0,...,0) reductions are exact"):
        rng = np.random.default_rng(21)
        cfg = mn.TeacherStudentConfig(m=4, d=3, teacher_depth=1, n_train=10)
        _, train, _ = mn.teacher_student_data(cfg, rng)
        energy = mn.gauss_newton_energy(mn.ResNetParams.zeros(cfg.m, cfg.d), train)
        prior = mn.iid_gaussian_prior(cfg)
        part = mn.layer_partition(cfg.m, cfg.d)
        sigma1 = 1e-3
        post = mn.multiscale_posterior(energy, prior, 0.0, sigma1, part)
        gibbs = mg.gibbs_gaussian(energy, prior, 1.0 / sigma1)
        assert np.array_equal(post.mean, gibbs.mean)
        assert np.array_equal(post.cov, gibbs.cov)

        space = mt.ProductSpace((2, 2, 2))
        p = random_dist(space, rng)
        q = random_dist(space, rng)
        backend = ms.TabularBackend.decimation(space, 3)
        sched = ms.TemperatureSchedule(1.0, (1.0, 0.0, 0.0))
        assert (
            ms.multiscale_relative_entropy(p, q, sched, backend.chain) == mt.kl(p, q)
        )


def test_criterion_5_residual_increment_bound():
    with criterion(5, "|h_i - h_{i-1}| <= e |x| / d with zero violations"):
        rng = np.random.default_rng(33)
        m, d = 10, 4
        violations = 0
        for _ in range(1000):
            params = mn.scale_to_spectral_norm(
                mn.ResNetParams([rng.standard_normal((m, m)) for _ in range(d)]),
                1.0 / d,
            )
            x = rng.standard_normal(m)
            incs = mn.residual_increment_check(params, x)
            bound = math.e * np.linalg.norm(x) / d
            violations += int(np.any(incs > bound))
        assert violations == 0


def test_criterion_6_dpg_theorem():
    with criterion(6, "single - multiscale bound gap equals the scaled DPG sum"):
        rng = np.random.default_rng(55)
        part = mg.BlockPartition((2, 1, 2))
        cfg = mb.BoundConfig(R=1.0, n=30, d=3)
        for _ in range(100):
            qhat = random_gaussian(5, rng)
            prior = random_gaussian(5, rng)
            single = mb.excess_risk_single(qhat, prior, cfg, part)
            multi = mb.excess_risk_multiscale(qhat, prior, cfg, part)
            dpg_sum = sum(mb.dpg(qhat, prior, part, i) for i in range(1, 4))
            scaled = cfg.C / (cfg.d * math.sqrt(cfg.n)) * dpg_sum
            assert abs((single - multi) - scaled) < 1e-10
            assert single - multi >= 0.0
        # teacher-student closed form
        for d, m_ratio, v in ((4, 2.0, 1.0), (6, 3.0, 0.7), (40, 2.0, 1.3)):
            d_teacher = int(d / m_ratio)
            ref = mb.DiracReference((0.0,) * (d - d_teacher) + (v,) * d_teacher)
            acc = sum(mb.dpg(ref, None, None, i) for i in range(1, d + 1))
            exact, _ = mb.teacher_student_dpg_sum(d, m_ratio, v)
            assert abs(acc - exact) <= 1e-12 * max(1.0, abs(exact))
        exact40, approx40 = mb.teacher_student_dpg_sum(40, 2.0, 1.0)
        assert abs(approx40 - exact40) / exact40 < 0.2
        exact4, approx4 = mb.teacher_student_dpg_sum(4, 2.0, 1.0)
        assert abs(approx40 - exact40) / exact40 < abs(approx4 - exact4) / exact4


def _min_over_sigma1(prior_variance):
    cfg = mn.TeacherStudentConfig(
        m=10,
        d=4,
        teacher_depth=2,
        n_train=30,
        teacher_weight_variance=0.1,
        prior_variance=prior_variance,
        seed=0,
    )
    alphas = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 0.999]
    sigma1s = np.logspace(-9.5, -2.5, 15)
    rows = mn.teacher_student_sweep(cfg, alphas, sigma1s, 2000, 200)
    return {alpha: (risk, stderr) for alpha, _, risk, stderr in mn.min_risk_per_alpha(rows)}


@pytest.mark.parametrize("prior_variance", [5e-5, 5e-4])
def test_criterion_7_experiment_interior_optimum(prior_variance):
    label = f"interior alpha beats both endpoints (prior var {prior_variance:g})"
    with criterion(7, label):
        curve = _min_over_sigma1(prior_variance)
        alphas = sorted(curve)
        best_alpha = min(alphas, key=lambda a: curve[a][0])
        assert 0.0 < best_alpha < 0.999, f"optimum at endpoint alpha={best_alpha}"
        best_risk, best_se = curve[best_alpha]
        for endpoint in (0.0, 0.999):
            end_risk, end_se = curve[endpoint]
            margin = 3.0 * math.sqrt(best_se**2 + end_se**2)
            assert end_risk - best_risk > margin, (
                f"alpha={best_alpha} risk {best_risk:.5f} not more than 3 stderr "
                f"below alpha={endpoint} risk {end_risk:.5f}"
            )


def test_criterion_8_worker_determinism(tmp_path, monkeypatch):
    with criterion(8, "byte-identical outputs with 1 and 8 workers"):
        cfg = str(CONFIGS / "experiment_smoke.json")
        out1 = tmp_path / "w1.csv"
        out8 = tmp_path / "w8.csv"
        assert cli.main(["experiment", "--config", cfg, "--out", str(out1)]) == 0
        assert (
            cli.main(
                ["experiment", "--config", cfg, "--out", str(out8), "--workers", "8"]
            )
            == 0
        )
        assert out1.read_bytes() == out8.read_bytes()
        assert (tmp_path / "w1_summary.csv").read_bytes() == (
            tmp_path / "w8_summary.csv"
        ).read_bytes()
        # a second identical run is byte-identical as well
        out1b = tmp_path / "w1b.csv"
        assert cli.main(["experiment", "--config", cfg, "--out", str(out1b)]) == 0
        assert out1.read_bytes() == out1b.read_bytes()
        # --workers has no effect; the thread count is the number of usable CPUs
        for cpus in (1, 8):
            monkeypatch.setattr(mn, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"c{cpus}.csv"
            assert cli.main(["experiment", "--config", cfg, "--out", str(out)]) == 0
            assert out1.read_bytes() == out.read_bytes()
            assert (tmp_path / "w1_summary.csv").read_bytes() == (
                tmp_path / f"c{cpus}_summary.csv"
            ).read_bytes()
