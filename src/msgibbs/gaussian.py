"""Closed-form multivariate Gaussian algebra.

Marginalization, conditioning, scaling, tilting, concatenation, KL and
sampling.  A distribution stores the covariance or precision it is built from;
the other matrix and the covariance factor are derived and cached when first
read.  Degenerate (rank-deficient) Gaussians are rejected.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyKeepSet,
    IndefinitePosterior,
    NegativeDivergenceInput,
    NonpositiveTheta,
    NumericalGuard,
    SingularConditioningBlock,
)
from .tolerances import TOL


def _symmetrize(mat, what="matrix", tol=TOL.symmetry):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NumericalGuard(f"{what} has non-finite entries")
    buf = np.subtract(mat, mat.T)  # one n x n buffer: the gap, then the symmetric part
    gap = float(np.abs(buf, out=buf).max(initial=0.0))
    scale = max(1.0, float(mat.max(initial=0.0)), -float(mat.min(initial=0.0)))
    if gap > tol * scale:
        raise NumericalGuard(f"{what} is asymmetric beyond tolerance (gap {gap!r})")
    np.add(mat, mat.T, out=buf)
    buf *= 0.5
    return buf


def _cholesky_pd(mat, what="matrix"):
    try:
        factor = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalGuard(f"{what} is not positive definite") from exc
    if float(np.diag(factor).min()) < TOL.cholesky_pivot_floor:
        raise NumericalGuard(
            f"{what} has a Cholesky pivot below the floor {TOL.cholesky_pivot_floor}"
        )
    factor.setflags(write=False)
    return factor


@dataclass(frozen=True)
class BlockPartition:
    """Split of a flat coordinate vector into consecutive blocks."""

    block_sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if sizes != tuple(self.block_sizes):
            raise ValueError(f"block sizes must be integers, got {self.block_sizes}")
        if len(sizes) == 0 or any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def n_blocks(self):
        return len(self.block_sizes)

    @property
    def total_dim(self):
        return sum(self.block_sizes)

    def leading_dim(self, n_blocks):
        """Flat dimension of the first ``n_blocks`` blocks."""
        if not 1 <= n_blocks <= self.n_blocks:
            raise DimensionMismatch(
                f"need 1..{self.n_blocks} blocks, got {n_blocks}"
            )
        return sum(self.block_sizes[:n_blocks])

    def prefix(self, n_blocks):
        return BlockPartition(self.block_sizes[:n_blocks])


class GaussianDist:
    """Multivariate normal with mean vector and strictly PD covariance."""

    __slots__ = ("mean", "_cov", "_chol", "_precision")

    def __init__(self, mean, cov):
        cov = _symmetrize(cov, "covariance")
        self._store(mean, cov, None, "covariance")
        self._chol = _cholesky_pd(cov, "covariance")

    @classmethod
    def from_precision(cls, mean, precision):
        """Build from the natural (precision) parameterization."""
        self = cls.__new__(cls)
        self._store(mean, None, _symmetrize(precision, "precision"), "precision")
        _cholesky_pd(self._precision, "precision")
        return self

    def _store(self, mean, cov, precision, what):
        mean = np.array(mean, dtype=float, copy=True).reshape(-1)
        matrix = cov if precision is None else precision
        size = matrix.shape[0]
        if size != mean.size:
            raise DimensionMismatch(f"mean has dim {mean.size}, {what} is {size}x{size}")
        if not np.all(np.isfinite(mean)):
            raise NumericalGuard("mean has non-finite entries")
        mean.setflags(write=False)
        matrix.setflags(write=False)
        self.mean, self._cov, self._chol, self._precision = mean, cov, None, precision

    @property
    def dim(self):
        return self.mean.size

    @property
    def cov(self):
        if self._cov is None:
            inv = np.linalg.inv(self._precision)
            self._cov = 0.5 * (inv + inv.T)
            self._cov.setflags(write=False)
        return self._cov

    @property
    def chol(self):
        """Lower Cholesky factor of the covariance."""
        if self._chol is None:
            self._chol = _cholesky_pd(self.cov, "covariance")
        return self._chol

    @property
    def precision(self):
        if self._precision is None:
            inv = np.linalg.inv(self._cov)
            self._precision = 0.5 * (inv + inv.T)
            self._precision.setflags(write=False)
        return self._precision

    @property
    def log_det_cov(self):
        return 2.0 * float(np.log(np.diag(self.chol)).sum())

    def log_density(self, points):
        """Log density at one point (dim,) or a batch (n, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        delta = pts - self.mean
        half = np.linalg.solve(self.chol, delta.T)
        quad = (half**2).sum(axis=0)
        out = -0.5 * (quad + self.dim * math.log(2.0 * math.pi) + self.log_det_cov)
        return out[0] if np.asarray(points).ndim == 1 else out

    def to_json(self, partition=None):
        obj = {"mean": self.mean.tolist(), "cov": self.cov.reshape(-1).tolist()}
        if partition is not None:
            obj["block_sizes"] = list(partition.block_sizes)
        return obj

    @classmethod
    def from_json(cls, obj):
        mean = np.asarray(obj["mean"], dtype=float)
        cov = np.asarray(obj["cov"], dtype=float)
        if cov.ndim == 1:
            cov = cov.reshape(mean.size, mean.size)
        return cls(mean, cov)

    def __repr__(self):
        return f"GaussianDist(dim={self.dim})"


@dataclass(frozen=True)
class GaussianConditional:
    """Affine-Gaussian conditional: output ~ N(offset + gain @ a, cov)."""

    gain: np.ndarray
    offset: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        gain = np.asarray(self.gain, dtype=float)
        offset = np.asarray(self.offset, dtype=float).reshape(-1)
        cov = _symmetrize(self.cov, "conditional covariance")
        if gain.ndim != 2 or gain.shape[0] != offset.size or cov.shape[0] != offset.size:
            raise DimensionMismatch("conditional gain/offset/cov dims are inconsistent")
        _cholesky_pd(cov, "conditional covariance")
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class QuadraticEnergy:
    """Quadratic energy ``f(w) = c + g.w + 0.5 w'Kw`` with K symmetric PSD.

    Eigenvalues of K down to ``-TOL.energy_eigenvalue_floor`` are accepted as
    rounding, and K is kept as given (symmetrized).  A Cholesky factor of K plus the
    floor on the diagonal (shifted in place and restored) accepts K; only when it
    fails are the eigenvalues computed.
    """

    K: np.ndarray
    g: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        K = _symmetrize(self.K, "K", TOL.energy_symmetry)
        g = np.asarray(self.g, dtype=float).reshape(-1)
        c = float(self.c)
        if K.shape != (g.size, g.size):
            raise DimensionMismatch("K and g dimensions are inconsistent")
        if not (np.all(np.isfinite(g)) and math.isfinite(c)):
            raise NumericalGuard("g and c must be finite")
        diagonal = K.diagonal().copy()  # K is our own array: shift it in place, no n x n copy
        K.flat[:: g.size + 1] += TOL.energy_eigenvalue_floor
        try:  # factors when every eigenvalue of K is above -floor, up to rounding
            np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            K.flat[:: g.size + 1] = diagonal
            eigmin = float(np.linalg.eigvalsh(K).min())
            if eigmin < -TOL.energy_eigenvalue_floor:
                raise ValueError(
                    f"K has eigenvalue {eigmin!r} below -{TOL.energy_eigenvalue_floor}"
                ) from None
        K.flat[:: g.size + 1] = diagonal  # K's own diagonal again, bit for bit
        K.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "c", c)

    @property
    def dim(self):
        return self.g.size

    def value(self, w):
        w = np.asarray(w, dtype=float).reshape(-1)
        return self.c + float(self.g @ w) + 0.5 * float(w @ self.K @ w)

    def gradient(self, w):
        w = np.asarray(w, dtype=float).reshape(-1)
        return self.g + self.K @ w


def require_cover(partition, g):
    """Raise :class:`DimensionMismatch` unless ``partition`` covers ``g``'s coordinates."""
    if partition.total_dim != g.dim:
        raise DimensionMismatch(
            f"partition covers {partition.total_dim} dims, distribution has {g.dim}"
        )


def marginalize(g, partition, keep_blocks):
    """Marginal over the first ``keep_blocks`` blocks of the partition."""
    if keep_blocks < 1:
        raise EmptyKeepSet("must keep at least one block")
    require_cover(partition, g)
    k = partition.leading_dim(keep_blocks)
    return GaussianDist(g.mean[:k], g.cov[:k, :k])


def condition(g, partition, given_blocks):
    """Conditional of the trailing blocks given the leading ``given_blocks`` blocks."""
    require_cover(partition, g)
    if not 1 <= given_blocks < partition.n_blocks:
        raise EmptyKeepSet("both sides of the split must be nonempty")
    k = partition.leading_dim(given_blocks)
    lead_cov = g.cov[:k, :k]
    cross = g.cov[k:, :k]  # trailing x leading
    trail_cov = g.cov[k:, k:]
    try:
        gain = np.linalg.solve(lead_cov, cross.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularConditioningBlock("leading covariance block is singular") from exc
    offset = g.mean[k:] - gain @ g.mean[:k]
    cond_cov = trail_cov - gain @ cross.T
    return GaussianConditional(gain, offset, 0.5 * (cond_cov + cond_cov.T))


def scale_gaussian(g, theta):
    """Escort of a Gaussian density: same mean, covariance divided by theta."""
    theta = float(theta)
    if not theta > 0.0:
        raise NonpositiveTheta(f"scaling exponent must be > 0, got {theta}")
    if theta == math.inf:
        raise NumericalGuard(f"scaling exponent must be finite, got theta = {theta}")
    return GaussianDist(g.mean, g.cov / theta)


def tilt_gaussian(p, q, theta):
    """Normalized geometric mean of two Gaussian densities.

    The precision is the convex combination ``theta * P_p + (1-theta) * P_q``;
    endpoints return the respective argument verbatim.
    """
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"tilt exponent must be in [0,1], got {theta}")
    if theta == 1.0:
        return p
    if theta == 0.0:
        return q
    if p.dim != q.dim:
        raise DimensionMismatch(f"dims differ: {p.dim} vs {q.dim}")
    prec = theta * p.precision + (1.0 - theta) * q.precision
    shift = theta * (p.precision @ p.mean) + (1.0 - theta) * (q.precision @ q.mean)
    mean = np.linalg.solve(prec, shift)
    return GaussianDist.from_precision(mean, prec)


def concat(u1, u2):
    """Joint of ``u1`` over the leading coordinates with ``u2``'s conditional.

    ``u2`` covers (x1, x2) with x1 matching ``u1``; the result has the
    marginal of ``u1`` on x1 and the conditional x2 | x1 of ``u2``.  In
    precision form the joint is [[Q + B D^-1 B', B], [B', D]] where Q is
    u1's precision and [[A, B], [B', D]] is u2's.
    """
    n1 = u1.dim
    n2 = u2.dim - n1
    if n2 < 1:
        raise DimensionMismatch(
            f"u2 (dim {u2.dim}) must strictly extend u1 (dim {n1})"
        )
    p2 = u2.precision
    cross = p2[:n1, n1:]  # B
    trail = p2[n1:, n1:]  # D
    x = np.linalg.solve(trail, cross.T)  # D^-1 B'
    top = u1.precision + cross @ x
    joint = np.block([[top, cross], [cross.T, trail]])
    mean2 = u2.mean[n1:] - x @ (u1.mean - u2.mean[:n1])
    return GaussianDist.from_precision(np.concatenate([u1.mean, mean2]), joint)


def kl_gaussian(p, q):
    """KL divergence between Gaussians, in nats."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"dims differ: {p.dim} vs {q.dim}")
    half = np.linalg.solve(q.chol, p.chol)
    trace = float((half**2).sum())
    delta = np.linalg.solve(q.chol, q.mean - p.mean)
    quad = float(delta @ delta)
    val = 0.5 * (trace + quad - p.dim + q.log_det_cov - p.log_det_cov)
    if not val > -TOL.divergence_rounding:
        raise NegativeDivergenceInput(f"KL evaluated to {val!r}, below zero beyond rounding")
    return max(val, 0.0)


def sample(g, rng, size=None):
    """Draw from the Gaussian via ``x = mean + C z`` with C the Cholesky factor."""
    if size is None:
        z = rng.standard_normal(g.dim)
        return g.mean + g.chol @ z
    return draws_of(g, rng.standard_normal((int(size), g.dim)))


def draws_of(g, noise):
    """The draws ``mean + C z``, C the Cholesky factor, for the rows z of ``noise`` (n, dim)."""
    return g.mean + noise @ g.chol.T


def gibbs_gaussian(energy, prior, beta):
    """Gaussian Gibbs update: density proportional to ``exp(-beta f) * prior``.

    For quadratic ``f`` the posterior precision is ``P_prior + beta K`` and
    the mean solves ``P (mu) = P_prior mu_prior - beta g``.
    """
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError(f"inverse temperature must be > 0, got {beta}")
    if not math.isfinite(beta):
        raise NumericalGuard(f"inverse temperature must be finite, got beta = {beta}")
    if energy.dim != prior.dim:
        raise DimensionMismatch(
            f"energy dim {energy.dim} differs from prior dim {prior.dim}"
        )
    prec = prior.precision + beta * energy.K
    shift = prior.precision @ prior.mean - beta * energy.g
    try:
        return GaussianDist.from_precision(np.linalg.solve(prec, shift), prec)
    except ValueError as exc:  # np.linalg.LinAlgError is a ValueError
        raise IndefinitePosterior(f"posterior precision: {exc}") from exc


def expected_quadratic(g, energy):
    """E[f(W)] for quadratic f under the Gaussian: trace + mean terms."""
    if energy.dim != g.dim:
        raise DimensionMismatch("energy and distribution dims differ")
    trace = float((energy.K * g.cov).sum())
    return (
        energy.c
        + float(energy.g @ g.mean)
        + 0.5 * (trace + float(g.mean @ energy.K @ g.mean))
    )


def differential_entropy(g):
    """Differential entropy 0.5 * (dim * (1 + log 2 pi) + log det cov)."""
    return 0.5 * (g.dim * (1.0 + math.log(2.0 * math.pi)) + g.log_det_cov)
