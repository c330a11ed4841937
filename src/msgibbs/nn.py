"""Residual tanh networks, teacher-student data, Gauss-Newton energies,
multiscale Gaussian posteriors over flattened weights, and Monte-Carlo
population-risk estimation.

Weights flatten layer-major, row-major within each layer; block i of the
partition is layer i (m*m dims each).  Decimation drops the deepest layer
first, so scale i covers layers 1..d-i+1.

The teacher-student posterior has an exact reduced form
(:func:`teacher_student_posterior`): expanded at zero weights, with an iid
zero-mean prior and the layer partition, the Gauss-Newton curvature is
``11' (x) I_m (x) S`` and the dim-d*m^2 solve splits into one dim-d*m solve.
:func:`multiscale_posterior` on the dense energy is its oracle.  The result
stays row-factored (:class:`TeacherStudentPosterior`): its covariance is
``P (I_m (x) Sigma) P'``, Sigma of dim d*m and P the (a, k, b) -> (k, a, b)
permutation, which keeps the (k, b) order within each output row a.  So the
dense Cholesky factor is exactly ``P (I_m (x) L) P'``, and the same standard
normals give the same weights as :func:`gaussian.sample` on the dense form.

:func:`teacher_student_sweep` estimates the risk over an alpha x sigma1 grid, all points
on one test set and one weight-noise matrix (common random numbers) and on one thread
per usable CPU, the module's only threads; the results do not depend on their count.
Each thread holds one 4-draw block's weights and buffers at a time.
"""

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SpectralNormViolated
from .gaussian import (
    BlockPartition,
    GaussianDist,
    QuadraticEnergy,
    _cholesky_pd,
    _symmetrize,
    draws_of,
    gibbs_gaussian,
    sample,  # unused here; bench/tests checks that its tracer wraps this binding
)
from .multiscale import GaussianBackend, alpha_schedule, solve_mt
from .tolerances import TOL

__all__ = [
    "ResNetParams",
    "Dataset",
    "TeacherStudentConfig",
    "forward",
    "forward_batch",
    "residual_increment_check",
    "empirical_risk",
    "weight_jacobian",
    "gauss_newton_energy",
    "multiscale_posterior",
    "TeacherStudentPosterior",
    "teacher_student_posterior",
    "teacher_student_data",
    "teacher_student_problem",
    "population_risk_mc",
    "teacher_student_sweep",
    "min_risk_per_alpha",
    "layer_partition",
    "iid_gaussian_prior",
    "scale_to_spectral_norm",
]


class ResNetParams:
    """Stack of d square weight matrices W_1..W_d, each m x m."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        layers = [np.array(w, dtype=float, copy=True) for w in layers]
        if not layers:
            raise ValueError("need at least one layer")
        m = layers[0].shape[0]
        for w in layers:
            if w.shape != (m, m):
                raise DimensionMismatch("all layers must be square of equal width")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            w.setflags(write=False)
        self.layers = tuple(layers)

    @property
    def m(self):
        return self.layers[0].shape[0]

    @property
    def d(self):
        return len(self.layers)

    @classmethod
    def zeros(cls, m, d):
        return cls([np.zeros((m, m)) for _ in range(d)])

    def flat(self):
        return np.concatenate([w.ravel() for w in self.layers])

    def spectral_norms(self):
        return np.array([np.linalg.norm(w, 2) for w in self.layers])


def scale_to_spectral_norm(params, target):
    """Rescale every layer to spectral norm exactly ``target`` (zero layers stay)."""
    out = []
    for w in params.layers:
        norm = np.linalg.norm(w, 2)
        out.append(w * (target / norm) if norm > 0.0 else w)
    return ResNetParams(out)


@dataclass(frozen=True)
class Dataset:
    """Paired inputs and targets, both (n, m)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 2 or xs.shape != ys.shape:
            raise DimensionMismatch("xs and ys must be matching (n, m) arrays")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self):
        return self.xs.shape[0]


@dataclass(frozen=True)
class TeacherStudentConfig:
    """Teacher of depth ``teacher_depth`` embedded in a depth-``d`` student."""

    m: int
    d: int
    teacher_depth: int
    n_train: int
    teacher_weight_variance: float = 0.1
    prior_variance: float = 5e-5
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.d < 1 or self.n_train < 1:
            raise ValueError("m, d and n_train must be positive")
        if not 1 <= self.teacher_depth < self.d:
            raise ValueError(
                f"teacher depth must be in [1, d), got {self.teacher_depth}"
            )
        if not (self.teacher_weight_variance > 0.0 and self.prior_variance > 0.0):
            raise ValueError("variances must be positive")


def forward(params, x):
    """Residual forward pass h_i = tanh(W_i h_{i-1}) + h_{i-1} of one input (m,) or a batch
    (n, m); returns (output, [h_0, ..., h_d]), each of the input's shape."""
    h = np.asarray(x, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] != params.m:
        raise DimensionMismatch(f"input has shape {h.shape}, network width is {params.m}")
    hidden = [h]
    for w in params.layers:
        h = np.tanh(h @ w.T) + h
        hidden.append(h)
    return h, hidden


def _forward_columns(layers, h, buf):
    """Forward pass in place on the inputs in the columns of h, (m, n); buf is scratch."""
    for w in layers:
        np.matmul(w, h, out=buf)
        np.tanh(buf, out=buf)
        h += buf
    return h


def forward_batch(params, xs):
    """Forward pass over a batch of inputs, shape (n, m) -> (n, m)."""
    h = np.array(np.asarray(xs, dtype=float).T, order="C")
    return np.ascontiguousarray(_forward_columns(params.layers, h, np.empty_like(h)).T)


def residual_increment_check(params, x):
    """Norms |h_i - h_{i-1}| for a network with per-layer spectral norm <= 1/d.

    Every increment is bounded by e |x| / d.  Raises
    :class:`SpectralNormViolated` if the precondition fails.
    """
    d = params.d
    norms = params.spectral_norms()
    if np.any(norms > 1.0 / d + TOL.spectral_norm_slack):
        raise SpectralNormViolated(
            f"layer spectral norms {norms} exceed the 1/d = {1.0 / d} budget"
        )
    _, hidden = forward(params, x)
    return np.array(
        [np.linalg.norm(hidden[i] - hidden[i - 1]) for i in range(1, d + 1)]
    )


def empirical_risk(params, data):
    """Mean squared error (1/n) sum |h(x_i) - y_i|^2."""
    out = forward_batch(params, data.xs)
    return float(((out - data.ys) ** 2).sum(axis=1).mean())


def weight_jacobian(params, x):
    """Jacobian of the network output w.r.t. the flattened weights: (m, d m^2) for one
    input (m,), (n, m, d m^2) for a batch (n, m).

    Reverse-mode through the hidden states of :func:`forward`: with B the
    running output-to-hidden Jacobian and z_k = W_k h_{k-1}, the layer-k
    block is (B * tanh'(z_k)) outer h_{k-1}.
    """
    m, d = params.m, params.d
    _, hidden = forward(params, x)
    lead = hidden[0].shape[:-1]
    jac = np.empty((*lead, m, d, m, m))
    back = np.eye(m)
    for k in range(d - 1, -1, -1):
        h, w = hidden[k], params.layers[k]
        phi = 1.0 - np.tanh(h @ w.T) ** 2
        jac[..., k, :, :] = (back * phi[..., None, :])[..., None] * h[..., None, None, :]
        back = back @ (phi[..., None] * w) + back
    return jac.reshape(*lead, m, d * m * m)


def gauss_newton_energy(params0, data):
    """Gauss-Newton quadratic model of the empirical risk around ``params0``.

    With the residuals r (n*m) and the Jacobians J (n*m, d m^2) of the training
    set stacked at the expansion point: c = L_S(params0) = r'r/n, g = (2/n) J'r,
    K = (2/n) J'J, re-expressed in absolute weight coordinates.  The model's
    value and gradient at ``params0`` match the true loss exactly.
    """
    out, _ = forward(params0, data.xs)
    r = (out - data.ys).reshape(-1)
    jac = weight_jacobian(params0, data.xs).reshape(r.size, -1)
    K = jac.T @ jac
    K *= 2.0 / data.n
    g = (2.0 / data.n) * (jac.T @ r)
    c = float(r @ r) / data.n
    w0 = params0.flat()
    if np.any(w0 != 0.0):
        c = c - float(g @ w0) + 0.5 * float(w0 @ K @ w0)
        g = g - K @ w0
    return QuadraticEnergy(K, g, c)


def layer_partition(m, d):
    """Block partition with one m*m block per layer."""
    return BlockPartition(tuple([m * m] * d))


def iid_gaussian_prior(cfg):
    """Zero-mean isotropic prior over all flattened weights."""
    dim = cfg.d * cfg.m**2
    return GaussianDist(np.zeros(dim), cfg.prior_variance * np.eye(dim))


def multiscale_posterior(energy, prior, alpha, sigma1, partition):
    """Multiscale Gibbs posterior via marginalize-tilt under decimation.

    The microscopic Gibbs posterior uses inverse temperature 1/sigma1
    (multiplier fixed to one); the schedule makes every tilting index
    1 - alpha.  ``alpha = 0`` returns the single-scale posterior itself.
    """
    sched = alpha_schedule(alpha, sigma1, partition.n_blocks)
    gibbs = gibbs_gaussian(energy, prior, 1.0 / sigma1)
    return solve_mt(gibbs, prior, sched, GaussianBackend(partition))


def teacher_student_data(cfg, rng):
    """Teacher network, a training set it labels, and a test-set generator.

    The teacher occupies the deepest ``teacher_depth`` layers (entries
    N(0, teacher_weight_variance)); the leading layers are zero, i.e.
    identity mappings.  Inputs are i.i.d. standard normal; labels are
    noiseless teacher outputs.  The third value, ``make_test(n, rng)``, draws
    labelled inputs exactly as :func:`population_risk_mc` draws its test set.
    """
    m, d = cfg.m, cfg.d
    sd = math.sqrt(cfg.teacher_weight_variance)
    layers = [np.zeros((m, m)) for _ in range(d - cfg.teacher_depth)]
    layers += [sd * rng.standard_normal((m, m)) for _ in range(cfg.teacher_depth)]
    teacher = ResNetParams(layers)
    return teacher, _labelled(teacher, cfg.n_train, rng), functools.partial(_labelled, teacher)


def _labelled(teacher, n, rng):
    """n standard-normal inputs from ``rng``, labelled by the teacher's outputs."""
    xs = rng.standard_normal((int(n), teacher.m))
    return Dataset(xs, forward_batch(teacher, xs))


def teacher_student_problem(cfg):
    """Teacher and training set drawn from ``SeedSequence(cfg.seed, spawn_key=(0,))``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    teacher, train, _ = teacher_student_data(cfg, rng)
    return teacher, train


@dataclass(frozen=True, eq=False)
class TeacherStudentPosterior:
    """Gaussian over the layers, ``mean`` (d, m, m), with ``Cov(W_k[a, b], W_l[c, e])
    = delta_ac row_cov[(k, b), (l, e)]`` and ``row_chol`` the Cholesky factor of row_cov."""

    mean: np.ndarray
    row_cov: np.ndarray
    row_chol: np.ndarray

    @property
    def dim(self):
        return self.mean.size

    def layers_of(self, noise):
        """The layers, (n, d, m, m), of the weights ``mean + L z`` for each row z of the
        standard-normal ``noise`` (n, dim), L the dense Cholesky factor."""
        d, m, _ = self.mean.shape
        z = noise.reshape(-1, d, m, m).transpose(0, 2, 1, 3).reshape(-1, d * m)
        layers = (z @ self.row_chol.T).reshape(-1, m, d, m).transpose(0, 2, 1, 3)
        layers += self.mean
        return layers

    def to_dense(self):
        """The same distribution as a dim-d*m^2 :class:`GaussianDist`."""
        d, m, _ = self.mean.shape
        cov = np.einsum("ac,kble->kablce", np.eye(m), self.row_cov.reshape(d, m, d, m))
        return GaussianDist(self.mean.reshape(-1), cov.reshape(self.dim, self.dim))


def teacher_student_posterior(cfg, train, alpha, sigma1):
    """:func:`multiscale_posterior` of the zero-weight Gauss-Newton energy of
    ``train`` under :func:`iid_gaussian_prior` and :func:`layer_partition`,
    from one dim-d*m solve instead of the dense dim-d*m^2 one.

    Exact for this problem only: expansion at zero weights, iid zero-mean
    prior, layer partition.  There every layer's Jacobian is ``I_m (x) x'``,
    so ``K = 11'_d (x) I_m (x) S`` and ``g = 1_d (x) vec(G)`` with
    ``S = (2/n) X'X`` and ``G = (2/n) (X - Y)'X``.  Rotating each layer's input
    index into the eigenbasis ``S = Q diag(lam) Q'`` leaves the prior and the
    partition as they are and splits the problem into m identical output rows,
    in which eigen-coordinate j is a d-dim problem with curvature ``lam_j 11'``
    and shift ``(GQ)[a, j] 1``.  One solve with ``K_r = 11'_d (x) diag(lam)``,
    ``g_r = 1`` and partition ``(m,) * d`` covers them all; its mean u and
    covariance C expand to ``W_k = G Q diag(u_k) Q'`` and the row covariance
    ``(Q C_kl Q')[b, e]`` of the returned :class:`TeacherStudentPosterior`.
    """
    m, d = cfg.m, cfg.d
    if train.xs.shape[1] != m:
        raise DimensionMismatch(f"inputs have dim {train.xs.shape[1]}, network width is {m}")
    # from X = U diag(s) Q': lam = (2/n) s^2 and GQ = (2/n) R'U diag(s), both exactly
    # zero on the null space of X when n < m.  g_r is zero there too: with g_r = 1 the
    # reduced mean there is of order 1/sigma1, and rounding would carry it elsewhere
    left, sv, rot = np.linalg.svd(train.xs, full_matrices=train.n < m)
    scale = 2.0 / train.n
    lam = np.zeros(m)
    lam[: sv.size] = scale * sv**2
    shift = np.zeros((m, m))
    shift[:, : sv.size] = scale * (train.xs - train.ys).T @ left * sv
    energy = QuadraticEnergy(np.kron(np.ones((d, d)), np.diag(lam)), np.tile(lam > 0.0, d))
    prior = GaussianDist(np.zeros(d * m), cfg.prior_variance * np.eye(d * m))
    reduced = multiscale_posterior(energy, prior, alpha, sigma1, BlockPartition((m,) * d))
    mean = np.einsum("aj,kj,jb->kab", shift, reduced.mean.reshape(d, m), rot)
    row_cov = np.einsum("jb,kjlJ,Je->kble", rot, reduced.cov.reshape(d, m, d, m), rot)
    row_cov = _symmetrize(row_cov.reshape(d * m, d * m), "covariance")
    mean.setflags(write=False)
    row_cov.setflags(write=False)
    return TeacherStudentPosterior(mean, row_cov, _cholesky_pd(row_cov, "covariance"))


def population_risk_mc(posterior, teacher, cfg, n_test, n_weights, seed):
    """Monte-Carlo population risk of weights drawn from a factored or dense posterior.

    ``np.random.default_rng(seed)`` draws the labelled test set first, then the ``n_weights``
    weight vectors from the rows of one (n_weights, dim) standard-normal matrix in dense
    order: calls with one seed share both (common random numbers).  The call runs on this
    thread, OpenBLAS on one thread, and holds that matrix and one 4-draw block at a time.
    Returns (estimate, stderr over the draws).
    """
    if posterior.dim != cfg.d * cfg.m**2:
        raise DimensionMismatch("posterior dimension does not match the config")
    layers_of = (posterior.layers_of if isinstance(posterior, TeacherStudentPosterior)
                 else lambda z: draws_of(posterior, z).reshape(len(z), cfg.d, cfg.m, cfg.m))
    with _one_blas_thread():
        return _risk(layers_of, *_common_draws(teacher, n_test, n_weights, posterior.dim, seed))


def _common_draws(teacher, n_test, n_weights, dim, seed):
    """The draws of ``np.random.default_rng(seed)`` in their one order: the labelled test set,
    as its inputs and targets stored as columns, (m, n_test) each, then the (n_weights, dim)
    standard-normal weight-noise matrix."""
    if n_test < 1 or n_weights < 1:
        raise ValueError(f"need n_test >= 1 and n_weights >= 1, got {n_test} and {n_weights}")
    rng = np.random.default_rng(seed)
    test = _labelled(teacher, n_test, rng)
    columns = tuple(np.array(a.T, order="C") for a in (test.xs, test.ys))
    return columns, rng.standard_normal((n_weights, dim))


def _risk(layers_of, test, noise):
    """(mean, standard error) of the risks on the test columns (inputs, targets) of the
    weights ``layers_of(z)``, (n, d, m, m), made for each 4-row block z of the noise just
    before its forward passes."""
    xs_t, ys_t = test
    pair, risks = np.empty((2, 4, *xs_t.shape)), []
    for lo in range(0, len(noise), 4):
        block = layers_of(noise[lo:lo + 4])
        if not np.isfinite(block).all():
            raise ValueError("weights must be finite")
        out, buf = pair[:, : len(block)]
        out[...] = xs_t
        _forward_columns(block.transpose(1, 0, 2, 3), out, buf)
        out -= ys_t
        risks += [np.vdot(h, h) / xs_t.shape[1] for h in out]
    stderr = float(np.std(risks, ddof=1) / math.sqrt(len(risks))) if len(risks) > 1 else 0.0
    return float(np.mean(risks)), stderr


def _on_threads(n, task):
    """``[task(i) for i in range(n)]`` on min(n, usable CPUs) threads, this one included,
    each taking the next i under a lock; the first error is raised once all have ended."""
    indices, lock, errors, results = iter(range(n)), threading.Lock(), [], [None] * n

    def take():
        with lock:
            return None if errors else next(indices, None)

    def work():
        for i in iter(take, None):
            try:
                results[i] = task(i)
            except BaseException as exc:
                errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(n, _usable_cpus()) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _usable_cpus():
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _openblas():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        with contextlib.suppress(OSError, AttributeError):
            lib = ctypes.CDLL(path)
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    return None


_BLAS_PIN = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Numpy's bundled OpenBLAS, where there is one, on one thread inside the block; one
    thread at a time is inside, so each puts back the count it found."""
    get, set_threads = _openblas() or (lambda: None, lambda n: None)
    with _BLAS_PIN:
        old = get()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(old)


def teacher_student_sweep(cfg, alphas, sigma1s, n_test, n_weights):
    """Rows ``(alpha, sigma1, risk, stderr)`` of :func:`population_risk_mc` for
    :func:`teacher_student_posterior` over the sorted grid, alpha-major.

    All points share one test set and one weight-noise matrix, drawn once from
    ``SeedSequence(cfg.seed, spawn_key=(1,))`` (common random numbers).  They run on
    :func:`_on_threads`, each one's draws in series, one 4-draw block at a time.  OpenBLAS
    runs on one thread for the whole call, as its thread count moves the rows' last bits,
    and is then reset.
    """
    with _one_blas_thread():
        teacher, train = teacher_student_problem(cfg)
        grid = [(a, s) for a in sorted(map(float, alphas)) for s in sorted(map(float, sigma1s))]
        seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,))
        test, noise = _common_draws(teacher, n_test, n_weights, cfg.d * cfg.m**2, seed)

        def point(i):
            posterior = teacher_student_posterior(cfg, train, *grid[i])
            return (*grid[i], *_risk(posterior.layers_of, test, noise))

        return _on_threads(len(grid), point)


def min_risk_per_alpha(rows):
    """For each alpha, in row order, the first sweep row of least risk."""
    best = {}
    for row in rows:
        if row[0] not in best or row[2] < best[row[0]][2]:
            best[row[0]] = row
    return list(best.values())
