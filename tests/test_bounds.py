import math

import numpy as np
import pytest

from msgibbs import bounds as mb
from msgibbs import gaussian as mg
from msgibbs.errors import DimensionMismatch, NegativeDivergenceInput, NonIntegerTeacherDepth


def random_gaussian(dim, rng, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return mg.GaussianDist(rng.standard_normal(dim), scale * (a @ a.T + dim * np.eye(dim)))


def test_bound_config():
    cfg = mb.BoundConfig(R=1.0, n=30, d=4)
    assert cfg.C == pytest.approx(2.0 * math.e**2)
    cfg2 = mb.BoundConfig(R=2.0, n=30, d=4)
    assert cfg2.C == pytest.approx(2.0 * (2.0 * math.e) ** 2)
    with pytest.raises(ValueError):
        mb.BoundConfig(R=-1.0, n=30, d=4)


def test_dirac_reference():
    ref = mb.DiracReference((0.0, 0.0, 1.5, 1.5))
    assert ref.d == 4
    with pytest.raises(ValueError):
        mb.DiracReference((-0.1,))
    # scale i keeps d-i+1 layers
    divs = mb.divergence_per_scale(ref, None, None)
    assert np.allclose(divs, [3.0, 1.5, 0.0, 0.0])


def test_dpg_basics():
    # scale 1 is the whole vector: zero gain by definition
    ref = mb.DiracReference((0.5, 0.5, 0.5))
    assert mb.dpg(ref, None, None, 1) == 0.0
    # equal per-layer density q: sqrt(d log 1/q) - sqrt((d-i+1) log 1/q)
    v = 0.7
    d = 3
    for i in range(1, d + 1):
        expect = math.sqrt(d * v) - math.sqrt((d - i + 1) * v)
        assert mb.dpg(mb.DiracReference((v,) * d), None, None, i) == pytest.approx(
            expect
        )


def test_dpg_gaussian_independent_blocks():
    # independent blocks: per-scale divergence is the partial sum of block KLs
    rng = np.random.default_rng(0)
    part = mg.BlockPartition((1, 2, 1))
    blocks_q = [random_gaussian(s, rng) for s in part.block_sizes]
    blocks_p = [random_gaussian(s, rng) for s in part.block_sizes]

    def block_diag(blocks):
        dim = sum(b.dim for b in blocks)
        mean = np.concatenate([b.mean for b in blocks])
        cov = np.zeros((dim, dim))
        at = 0
        for b in blocks:
            cov[at : at + b.dim, at : at + b.dim] = b.cov
            at += b.dim
        return mg.GaussianDist(mean, cov)

    qhat = block_diag(blocks_q)
    prior = block_diag(blocks_p)
    kls = [mg.kl_gaussian(a, b) for a, b in zip(blocks_q, blocks_p)]
    divs = mb.divergence_per_scale(qhat, prior, part)
    for i in range(1, 4):
        assert divs[i - 1] == pytest.approx(sum(kls[: 3 - i + 1]), abs=1e-10)
        expect = math.sqrt(sum(kls)) - math.sqrt(sum(kls[: 3 - i + 1]))
        assert mb.dpg(qhat, prior, part, i) == pytest.approx(expect, abs=1e-10)


def test_dpg_nonnegative_under_decimation():
    rng = np.random.default_rng(1)
    part = mg.BlockPartition((2, 2))
    for _ in range(100):
        qhat = random_gaussian(4, rng)
        prior = random_gaussian(4, rng)
        for i in range(1, 3):
            assert mb.dpg(qhat, prior, part, i) >= -1e-12


def test_excess_risk_single():
    cfg = mb.BoundConfig(R=1.0, n=25, d=3)
    rng = np.random.default_rng(2)
    prior = random_gaussian(3, rng)
    part = mg.BlockPartition((1, 1, 1))
    assert mb.excess_risk_single(prior, prior, cfg, part) == 0.0
    # Dirac, iid prior with per-layer density q: (C/sqrt n) sqrt(d log 1/q)
    v = 1.3
    ref = mb.DiracReference((v, v, v))
    expect = cfg.C / math.sqrt(cfg.n) * math.sqrt(3 * v)
    assert mb.excess_risk_single(ref, None, cfg, None) == pytest.approx(expect)
    # optimal gamma is the AM-GM equality point of gamma D + 1/(4 gamma)
    dv = 3 * v
    gs = mb.gamma_star(dv)
    assert gs * dv + 1.0 / (4.0 * gs) == pytest.approx(math.sqrt(dv))
    assert mb.gamma_star(0.0) == math.inf


def test_excess_risk_multiscale():
    cfg1 = mb.BoundConfig(R=1.5, n=40, d=1)
    ref1 = mb.DiracReference((0.8,))
    assert mb.excess_risk_multiscale(ref1, None, cfg1, None) == pytest.approx(
        mb.excess_risk_single(ref1, None, cfg1, None)
    )
    # single - multiscale matches the scaled DPG sum, and is nonnegative
    rng = np.random.default_rng(3)
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
        assert single - multi >= -1e-12


def test_generalization_bound_value():
    cfg = mb.BoundConfig(R=1.0, n=30, d=4)
    assert mb.generalization_bound_value([0.0] * 4, cfg) == 0.0
    # all D_i = 1: (C / (d sqrt n)) * d = C / sqrt n
    assert mb.generalization_bound_value([1.0] * 4, cfg) == pytest.approx(
        cfg.C / math.sqrt(30)
    )
    with pytest.raises(NegativeDivergenceInput):
        mb.generalization_bound_value([1.0, -0.1, 0.0, 0.0], cfg)
    # closed-form infimum matches a grid search over gamma
    rng = np.random.default_rng(4)
    terms = rng.uniform(0.1, 3.0, 4)
    closed = mb.generalization_bound_value(terms, cfg)
    grid = np.logspace(-4, 4, 400_001)
    brute = cfg.C / (cfg.d * math.sqrt(cfg.n)) * sum(
        (g * t + 0.25 / g for t, g in zip(terms, [
            grid[np.argmin(grid * t + 0.25 / grid)] for t in terms
        ]))
    )
    assert abs(closed - brute) < 1e-6


def test_teacher_student_dpg_sum():
    # d=4, M=2, log 1/q2 = 1: exact = 4 sqrt(2) - (1 + sqrt(2))
    exact, approx = mb.teacher_student_dpg_sum(4, 2.0, 1.0)
    assert exact == pytest.approx(4 * math.sqrt(2) - (1 + math.sqrt(2)))
    assert exact == pytest.approx(3.2426, abs=1e-4)
    assert approx == pytest.approx(4**1.5 * (2 - 2 / 3) / 2**1.5)
    assert approx == pytest.approx(3.7712, abs=1e-4)
    # zero divergence: both vanish
    assert mb.teacher_student_dpg_sum(4, 2.0, 0.0) == (0.0, 0.0)
    with pytest.raises(NonIntegerTeacherDepth):
        mb.teacher_student_dpg_sum(4, 3.0, 1.0)
    with pytest.raises(NegativeDivergenceInput):
        mb.teacher_student_dpg_sum(4, 2.0, -1.0)
    # the approximation gap shrinks with depth
    gaps = []
    for d in (4, 40, 400):
        e, a = mb.teacher_student_dpg_sum(d, 2.0, 1.0)
        gaps.append(abs(a - e) / e)
    assert gaps[0] > gaps[1] > gaps[2]


def test_teacher_student_exact_matches_dpg_accumulation():
    # Dirac reference with log 1/q1 = 0 on shallow layers reproduces the
    # closed-form exact sum
    d, m_ratio, v = 6, 2.0, 0.9
    d_teacher = int(d / m_ratio)
    ref = mb.DiracReference((0.0,) * (d - d_teacher) + (v,) * d_teacher)
    acc = sum(mb.dpg(ref, None, None, i) for i in range(1, d + 1))
    exact, _ = mb.teacher_student_dpg_sum(d, m_ratio, v)
    assert acc == pytest.approx(exact, abs=1e-12)


def test_bound_report():
    rng = np.random.default_rng(5)
    part = mg.BlockPartition((1, 1))
    qhat = random_gaussian(2, rng)
    prior = random_gaussian(2, rng)
    cfg = mb.BoundConfig(R=1.0, n=30, d=2)
    rep = mb.bound_report(qhat, prior, cfg, part)
    assert rep["d"] == 2 and len(rep["per_scale"]) == 2
    assert rep["per_scale"][0]["dpg"] == 0.0
    assert rep["difference"] == pytest.approx(rep["scaled_dpg_sum"], abs=1e-12)
    assert rep["excess_risk_multiscale"] <= rep["excess_risk_single"] + 1e-12


def test_dirac_reference_teacher_student():
    ref = mb.DiracReference.teacher_student(6, 3.0, 1.3, 0.2)
    assert ref.log_inv_q == (0.2, 0.2, 0.2, 0.2, 1.3, 1.3)
    assert mb.DiracReference.teacher_student(4, 2.0, 0.9).log_inv_q == (0.0, 0.0, 0.9, 0.9)
    # one depth check serves the reference and the closed form
    for m_ratio in (3.0, 8.0, 1e10, 0.5):
        with pytest.raises(NonIntegerTeacherDepth):
            mb.DiracReference.teacher_student(4, m_ratio, 1.0)
        with pytest.raises(NonIntegerTeacherDepth):
            mb.teacher_student_dpg_sum(4, m_ratio, 1.0)


def test_bound_report_evaluates_divergences_once(monkeypatch):
    rng = np.random.default_rng(9)
    part = mg.BlockPartition((2, 1, 1))
    cfg = mb.BoundConfig(R=1.2, n=40, d=3)
    gaussian = (random_gaussian(4, rng, 0.1), random_gaussian(4, rng), part)
    dirac = (mb.DiracReference((0.3, 0.0, 1.7)), None, None)
    calls = []
    divergence_per_scale = mb.divergence_per_scale

    def counted(*args):
        calls.append(args)
        return divergence_per_scale(*args)

    for qhat, prior, partition in (gaussian, dirac):
        single = mb.excess_risk_single(qhat, prior, cfg, partition)
        multi = mb.excess_risk_multiscale(qhat, prior, cfg, partition)
        with monkeypatch.context() as patch:
            patch.setattr(mb, "divergence_per_scale", counted)
            calls.clear()
            rep = mb.bound_report(qhat, prior, cfg, partition)
            assert len(calls) == 1
        assert rep["excess_risk_single"] == single
        assert rep["excess_risk_multiscale"] == multi
        divs = divergence_per_scale(qhat, prior, partition)
        assert multi == mb.generalization_bound_value(divs, cfg)


def test_bound_guards_reject_what_they_cannot_evaluate():
    rng = np.random.default_rng(0)
    prior = random_gaussian(3, rng)
    partition = mg.BlockPartition((1, 2))
    with pytest.raises(ValueError, match="scale index must be in"):
        mb.dpg(random_gaussian(3, rng), prior, partition, 0)
    with pytest.raises(NegativeDivergenceInput):
        mb.gamma_star(-1.0)
    with pytest.raises(TypeError, match="unsupported reference posterior"):
        mb.divergence_per_scale(prior.mean, prior, partition)
    with pytest.raises(DimensionMismatch, match="disagree on d"):
        mb.divergence_per_scale(mb.DiracReference((0.0, 1.0, 1.0)), prior, partition)
