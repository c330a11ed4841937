"""Excess-risk bound evaluation: per-scale divergences, data processing
gains, optimal temperature choices, and the teacher-student closed form.

The constant is C = 2 (e R)^2.  Reference posteriors are either a
:class:`~msgibbs.gaussian.GaussianDist` or an analytic Dirac marker that
carries per-layer log(1/q_k) values; Dirac references are bookkeeping
objects, never degenerate Gaussians.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeDivergenceInput,
    NonIntegerTeacherDepth,
)
from .gaussian import GaussianDist, kl_gaussian, scale_marginals
from .tolerances import TOL

__all__ = [
    "BoundConfig",
    "DiracReference",
    "divergence_per_scale",
    "dpg",
    "gamma_star",
    "excess_risk_single",
    "excess_risk_multiscale",
    "generalization_bound_value",
    "teacher_student_dpg_sum",
    "bound_report",
]


@dataclass(frozen=True)
class BoundConfig:
    """Input-norm bound R, sample count n, depth d."""

    R: float
    n: int
    d: int

    def __post_init__(self):
        if not (self.R > 0.0 and self.n > 0 and self.d > 0):
            raise ValueError("R, n and d must be positive")

    @property
    def C(self):
        """2 (e R)^2; the sub-Gaussian constant convention is taken verbatim."""
        return 2.0 * (math.e * self.R) ** 2


@dataclass(frozen=True)
class DiracReference:
    """Point-mass reference: per-layer log(1/q_k) against the prior, all >= 0."""

    log_inv_q: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.log_inv_q)
        if any(v < 0.0 or not math.isfinite(v) for v in vals):
            raise ValueError("per-layer log(1/q) values must be finite and >= 0")
        object.__setattr__(self, "log_inv_q", vals)

    @property
    def d(self):
        return len(self.log_inv_q)

    @classmethod
    def teacher_student(cls, d, M, log_inv_q2, log_inv_q1=0.0):
        """Depth-d reference: ``log_inv_q1`` on the leading layers, ``log_inv_q2``
        on the deepest d / M (the teacher's)."""
        d_teacher = _teacher_depth(d, M)
        return cls(tuple([log_inv_q1] * (d - d_teacher) + [log_inv_q2] * d_teacher))


def _teacher_depth(d, M):
    """The teacher depth d / M, which must be an integer in [1, d]."""
    d_teacher = d / M
    off_integer = abs(d_teacher - round(d_teacher))
    if off_integer > TOL.teacher_depth_integrality or not 1 <= round(d_teacher) <= d:
        raise NonIntegerTeacherDepth(f"d / M = {d_teacher!r} is not an integer in [1, {d}]")
    return int(round(d_teacher))


def divergence_per_scale(qhat, prior, partition):
    """D(qhat at scale i || prior at scale i) for i = 1..d.

    Scale i keeps the leading d-i+1 blocks (decimation; see
    :func:`gaussian.scale_marginals`).  For a Dirac reference the divergence
    is the sum of the kept layers' log(1/q_k).
    """
    if isinstance(qhat, DiracReference):
        d = qhat.d
        if partition is not None and partition.n_blocks != d:
            raise DimensionMismatch("partition and Dirac reference disagree on d")
        vals = np.asarray(qhat.log_inv_q)
        return np.array([vals[: d - i + 1].sum() for i in range(1, d + 1)])
    if not isinstance(qhat, GaussianDist):
        raise TypeError(f"unsupported reference posterior {type(qhat)!r}")
    scales = zip(scale_marginals(qhat, partition), scale_marginals(prior, partition))
    return np.array([kl_gaussian(q_i, p_i) for q_i, p_i in scales])


def dpg(qhat, prior, partition, i):
    """Data processing gain at scale i: sqrt(D_1) - sqrt(D_i) (D_1 is the joint)."""
    divs = divergence_per_scale(qhat, prior, partition)
    if not 1 <= i <= divs.size:
        raise ValueError(f"scale index must be in [1, {divs.size}], got {i}")
    return math.sqrt(divs[0]) - math.sqrt(divs[i - 1])


def gamma_star(div):
    """Temperature minimizing gamma*D + 1/(4 gamma); +inf sentinel at D = 0."""
    if div < 0.0:
        raise NegativeDivergenceInput(f"divergence must be >= 0, got {div}")
    if div == 0.0:
        return math.inf
    return 1.0 / (2.0 * math.sqrt(div))


def _single_gap(divs, cfg):
    return cfg.C / math.sqrt(cfg.n) * math.sqrt(divs[0])


def _multiscale_gap(divs, cfg):
    if divs.size != cfg.d:
        raise DimensionMismatch("config depth and reference depth disagree")
    return generalization_bound_value(divs, cfg)


def excess_risk_single(qhat, prior, cfg, partition=None):
    """Optimized single-scale excess bound gap (C / sqrt(n)) sqrt(D(qhat || prior))."""
    return _single_gap(divergence_per_scale(qhat, prior, partition), cfg)


def excess_risk_multiscale(qhat, prior, cfg, partition=None):
    """Optimized multiscale excess bound gap (C / (d sqrt(n))) sum_i sqrt(D_i)."""
    return _multiscale_gap(divergence_per_scale(qhat, prior, partition), cfg)


def generalization_bound_value(mi_terms, cfg):
    """Closed-form infimum over gamma: (C / (d sqrt(n))) sum sqrt(D_i)."""
    terms = np.asarray(mi_terms, dtype=float)
    if np.any(terms < 0.0):
        raise NegativeDivergenceInput("divergence terms must be >= 0")
    return cfg.C / (cfg.d * math.sqrt(cfg.n)) * float(np.sqrt(terms).sum())


def teacher_student_dpg_sum(d, M, log_inv_q2):
    """Total data processing gain for a teacher of depth d/M, exact and approximate.

    Neglecting the shallow layers' log(1/q_1), the exact sum is
    sqrt(log 1/q_2) * (d sqrt(d') - (sqrt(1) + ... + sqrt(d'))) with
    d' = d / M; the closed-form approximation replaces the partial sum by
    its integral, giving sqrt(log 1/q_2) * d^{3/2} (M - 2/3) / M^{3/2}.
    """
    if log_inv_q2 < 0.0:
        raise NegativeDivergenceInput("log(1/q2) must be >= 0")
    d_teacher = _teacher_depth(d, M)
    root = math.sqrt(log_inv_q2)
    partial = sum(math.sqrt(j) for j in range(1, d_teacher + 1))
    exact = root * (d * math.sqrt(d_teacher) - partial)
    approx = root * d**1.5 * (M - 2.0 / 3.0) / M**1.5
    return exact, approx


def bound_report(qhat, prior, cfg, partition=None):
    """Per-scale divergences, optimal gammas, DPGs, and bound totals as a dict."""
    divs = divergence_per_scale(qhat, prior, partition)
    single = _single_gap(divs, cfg)
    multi = _multiscale_gap(divs, cfg)
    dpgs = [math.sqrt(divs[0]) - math.sqrt(dv) for dv in divs]
    scaled_dpg = cfg.C / (cfg.d * math.sqrt(cfg.n)) * sum(dpgs)
    return {
        "C": cfg.C,
        "C_note": "C = 2(eR)^2 taken verbatim; sub-Gaussian constant convention",
        "R": cfg.R,
        "n": cfg.n,
        "d": cfg.d,
        "per_scale": [
            {
                "scale": i + 1,
                "kept_blocks": cfg.d - i,
                "divergence": float(divs[i]),
                "gamma_star": gamma_star(float(divs[i])),
                "dpg": dpgs[i],
            }
            for i in range(divs.size)
        ],
        "excess_risk_single": single,
        "excess_risk_multiscale": multi,
        "difference": single - multi,
        "scaled_dpg_sum": scaled_dpg,
    }
