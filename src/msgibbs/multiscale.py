"""Multiscale entropy objectives and the renormalization-style solvers that optimize them.

A single algorithm body serves both backends:

1. start from the microscopic Gibbs distribution at the finest scale,
2. repeatedly coarse-grain and renormalize (scale, or tilt toward the reference
   coarse-grained in lock-step) with exponent ``(s_1+...+s_{i-1}) / (s_1+...+s_i)``,
3. refine back down, conditioning each scale on its coarse image from step 2 (pre-reweighting).

Steps past the deepest one whose tilt exponent is below one are pure
pass-throughs and are not computed, so single-scale schedules return the
microscopic Gibbs distribution object itself without coarse-graining.
"""

from dataclasses import dataclass

import numpy as np

from . import gaussian as mg
from . import tabular as mt
from .errors import IndefinitePosterior, NumericalGuard, SpaceMismatch

__all__ = [
    "TemperatureSchedule",
    "alpha_schedule",
    "TabularBackend",
    "GaussianBackend",
    "SolveTrace",
    "check_depth",
    "scale_marginals",
    "solve_max_entropy",
    "solve_min_relative_entropy",
    "solve_mt",
    "multiscale_entropy",
    "multiscale_relative_entropy",
    "max_entropy_objective",
    "min_relative_entropy_objective",
    "gaussian_refinement_gap",
]


@dataclass(frozen=True)
class TemperatureSchedule:
    """Lagrange multiplier ``lam`` and per-scale length coefficients ``sigma``.

    ``sigma[0] > 0`` and all later entries are nonnegative; the tilting
    index at step i is the ratio of consecutive partial sums and lies in
    (0, 1].
    """

    lam: float
    sigma: tuple

    def __post_init__(self):
        lam = float(self.lam)
        sigma = tuple(float(s) for s in self.sigma)
        if not 0.0 < lam < np.inf:
            raise ValueError(f"lambda must be finite and > 0, got {lam}")
        if len(sigma) < 1:
            raise ValueError("schedule needs at least one scale")
        if not sigma[0] > 0.0:
            raise ValueError(f"sigma_1 must be > 0, got {sigma[0]}")
        if any(s < 0.0 or not np.isfinite(s) for s in sigma):
            raise ValueError(f"sigma entries must be finite and >= 0, got {sigma}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "sigma", sigma)

    @property
    def depth(self):
        return len(self.sigma)

    def tilt_index(self, i):
        """Renormalization exponent at step ``i`` in [2, depth]; exactly 1 if ``sigma_i = 0``."""
        if not 2 <= i <= self.depth:
            raise ValueError(f"step must be in [2, {self.depth}], got {i}")
        prev = sum(self.sigma[: i - 1])
        return prev / (prev + self.sigma[i - 1])


def alpha_schedule(alpha, sigma1, d):
    """Schedule with all tilting indices equal to ``1 - alpha``.

    Solves ``sigma_i / (sigma_1 + ... + sigma_i) = alpha`` for i >= 2, which
    gives ``sigma_i = alpha * sigma_1 * (1 - alpha) ** -(i-1)``.  ``alpha = 0``
    is the single-scale reduction.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    if not (float(d).is_integer() and d >= 1):
        raise ValueError(f"depth d must be an integer >= 1, got {d!r}")
    sigma = [float(sigma1)]
    for i in range(2, int(d) + 1):
        sigma.append(alpha * sigma1 * (1.0 - alpha) ** (-(i - 1)))
    return TemperatureSchedule(1.0, tuple(sigma))


class TabularBackend:
    """Tabular distributions coarse-grained along an explicit scale-map chain."""

    entropy = staticmethod(mt.shannon_entropy)
    divergence = staticmethod(mt.kl)
    expectation = staticmethod(lambda p, f: float(p.probs @ f.values))

    def __init__(self, chain):
        chain = list(chain)
        for left, right in zip(chain, chain[1:]):
            if left.target.axis_sizes != right.source.axis_sizes:
                raise SpaceMismatch("scale maps do not chain")
        self.chain = chain

    @classmethod
    def decimation(cls, space, depth):
        """Chain that drops the last axis once per step (depth-1 maps)."""
        if depth < 1 or depth > space.ndim:
            raise SpaceMismatch(f"decimation depth must be in [1, {space.ndim}], got {depth}")
        # step k maps the leading ndim - k axes onto the leading ndim - k - 1
        sources = [mt.ProductSpace(space.axis_sizes[: space.ndim - k]) for k in range(depth - 1)]
        return cls([mt.ScaleMap.decimation(source) for source in sources])

    @property
    def depth(self):
        return len(self.chain) + 1

    def check_space(self, dist):
        """Nothing to check here: a chain's first map checks the space it is applied to."""

    def initial_max_entropy(self, f, beta):
        return mt.gibbs(f, mt.TabularDist.uniform(f.space), beta)

    def initial_gibbs(self, f, q, beta):
        return mt.gibbs(f, q, beta)

    def coarse_grain(self, dist, step):
        return mt.pushforward(dist, self.chain[step])

    def scale(self, dist, theta):
        return mt.scale(dist, theta)

    def tilt(self, dist, reference, theta):
        return mt.tilt(dist, reference, theta)

    def refine_step(self, coarse_dist, finer, image, step):
        cond = mt.reverse_conditional(finer, self.chain[step], image)
        return mt.refine(coarse_dist, [cond])


class GaussianBackend:
    """Gaussian distributions under decimation of a block partition.

    Scale i keeps the leading d-i+1 blocks (see :func:`scale_marginals`).
    """

    entropy = staticmethod(mg.differential_entropy)
    divergence = staticmethod(mg.kl_gaussian)
    expectation = staticmethod(mg.expected_quadratic)

    def __init__(self, partition):
        self.partition = partition

    @property
    def depth(self):
        return self.partition.n_blocks

    def check_space(self, dist):
        mg.require_cover(self.partition, dist)

    def initial_max_entropy(self, f, beta):
        # density proportional to exp(-beta f); requires strictly PD K
        if not np.isfinite(beta):
            raise NumericalGuard(f"inverse temperature must be finite, got beta = {beta}")
        try:
            mean = np.linalg.solve(f.K, -f.g)
            return mg.GaussianDist.from_precision(mean, beta * f.K)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise IndefinitePosterior(
                f"entropy maximization needs a strictly PD quadratic energy: {exc}"
            ) from exc

    def initial_gibbs(self, f, q, beta):
        return mg.gibbs_gaussian(f, q, beta)

    def coarse_grain(self, dist, step):
        # dist is at scale step + 1, on the leading depth - step blocks
        k = self.depth - step
        return mg.marginalize(dist, self.partition.prefix(k), k - 1)

    def scale(self, dist, theta):
        return mg.scale_gaussian(dist, theta)

    def tilt(self, dist, reference, theta):
        return mg.tilt_gaussian(dist, reference, theta)

    def refine_step(self, coarse_dist, finer, image, step):
        return mg.concat(coarse_dist, finer)


@dataclass(frozen=True)
class SolveTrace:
    """Intermediates of a solve, indexed by scale (entry 0 = finest).

    ``renormalized[i]`` is the distribution produced by the coarsening /
    renormalization phase at scale i+1; ``refined[i]`` is the partial
    composition produced by the refinement phase at scale i+1 (so
    ``refined[0]`` is the returned optimizer and ``refined[-1]`` is
    ``renormalized[-1]``).  Pushing the optimizer forward to scale i
    reproduces ``refined[i-1]``; its conditionals match those of
    ``renormalized[i-1]``.
    """

    renormalized: tuple
    refined: tuple


def check_depth(backend, depth):
    """Raise :class:`SpaceMismatch` unless a schedule of ``depth`` scales fits ``backend``."""
    if depth != backend.depth:
        raise SpaceMismatch(f"schedule depth {depth} does not match backend depth {backend.depth}")


def _renormalize_and_refine(initial, sched, backend, q, with_trace):
    """Reweight down to ``top``, the deepest scale with tilt index below one, and refine
    back; ``q`` (``None``: scale instead of tilt) is coarse-grained in lock-step.  Steps
    past ``top`` pass through and are computed only for the trace, as their own refinement.
    """
    d = sched.depth
    check_depth(backend, d)
    backend.check_space(initial)
    top = max((i for i in range(2, d + 1) if sched.tilt_index(i) < 1.0), default=1)
    renormalized, images = [initial], []
    reference = q
    for i in range(2, (d if with_trace else top) + 1):
        u_i = backend.coarse_grain(renormalized[-1], i - 2)
        images.append(u_i)
        if q is not None and i <= top:
            reference = backend.coarse_grain(reference, i - 2)
        tau = sched.tilt_index(i)
        if tau < 1.0:
            u_i = backend.scale(u_i, tau) if q is None else backend.tilt(u_i, reference, tau)
        renormalized.append(u_i)
    result = renormalized[top - 1]
    refined = [result]
    for step in range(top - 2, -1, -1):
        result = backend.refine_step(result, renormalized[step], images[step], step)
        if with_trace:
            refined.append(result)
        else:  # an untraced solve lets each scale go once it is refined
            del renormalized[step:], images[step:]
    if with_trace:
        refined = tuple(reversed(refined)) + tuple(renormalized[top:])
        return result, SolveTrace(tuple(renormalized), refined)
    return result


def solve_max_entropy(f, sched, backend, with_trace=False):
    """Maximizer of (multiscale entropy) - lam * E[f].

    Initializes with the Gibbs distribution of exponent ``-lam f / sigma_1``
    and renormalizes with scaled distributions.
    """
    initial = backend.initial_max_entropy(f, sched.lam / sched.sigma[0])
    return _renormalize_and_refine(initial, sched, backend, None, with_trace)


def solve_min_relative_entropy(f, q, sched, backend, with_trace=False):
    """Minimizer of E[f] + lam * (multiscale relative entropy to q).

    Initializes with the Gibbs distribution of exponent ``-f / (lam sigma_1)``
    times q and renormalizes by tilting toward q's coarse marginals.
    """
    initial = backend.initial_gibbs(f, q, 1.0 / (sched.lam * sched.sigma[0]))
    return _renormalize_and_refine(initial, sched, backend, q, with_trace)


def solve_mt(gibbs_dist, q, sched, backend, with_trace=False):
    """Marginalize-tilt solver starting from a precomputed microscopic Gibbs.

    Identical to :func:`solve_min_relative_entropy` on any chain or partition when
    ``gibbs_dist`` is its initial Gibbs distribution.  States where a tabular
    ``gibbs_dist`` underflowed to zero stay at zero: no tilt can bring them back.
    """
    return _renormalize_and_refine(gibbs_dist, sched, backend, q, with_trace)


def _backend_type(scales):
    """The backend class of ``scales``: Gaussian for a ``BlockPartition``, else tabular."""
    return GaussianBackend if isinstance(scales, mg.BlockPartition) else TabularBackend


def scale_marginals(p, scales):
    """``p`` at every scale of a ``ScaleMap`` chain or a ``BlockPartition``, finest first.

    Scale 1 is ``p`` itself; scale i+1 is scale i coarse-grained by the backend's step i
    (a pushforward along the chain, or the marginal on one block fewer).
    """
    backend = _backend_type(scales)(scales)
    backend.check_space(p)
    marginals = [p]
    for step in range(backend.depth - 1):
        marginals.append(backend.coarse_grain(marginals[-1], step))
    return marginals


def multiscale_entropy(p, sched, scales):
    """Sum of sigma_i * H(p at scale i) over a ``ScaleMap`` chain (Shannon entropy) or
    the decimation prefixes of a ``BlockPartition`` (differential entropy)."""
    backend = _backend_type(scales)(scales)
    check_depth(backend, sched.depth)
    marginals = zip(sched.sigma, scale_marginals(p, scales))
    return sum(s * backend.entropy(p_i) for s, p_i in marginals if s > 0.0)


def multiscale_relative_entropy(p, q, sched, scales):
    """Sum of sigma_i * D(p at scale i || q at scale i), skipping the scales with
    sigma_i = 0: ``sigma = (1, 0, ..., 0)`` gives exactly D(p || q)."""
    backend = _backend_type(scales)(scales)
    check_depth(backend, sched.depth)
    marginals = zip(sched.sigma, scale_marginals(p, scales), scale_marginals(q, scales))
    return sum(s * backend.divergence(p_i, q_i) for s, p_i, q_i in marginals if s > 0.0)


def max_entropy_objective(p, f, sched, scales):
    """Multiscale entropy minus lam * E[f] (to be maximized)."""
    expected = _backend_type(scales).expectation(p, f)
    return multiscale_entropy(p, sched, scales) - sched.lam * expected


def min_relative_entropy_objective(p, f, q, sched, scales):
    """E[f] plus lam * multiscale relative entropy to q (to be minimized)."""
    expected = _backend_type(scales).expectation(p, f)
    return expected + sched.lam * multiscale_relative_entropy(p, q, sched, scales)


def gaussian_refinement_gap(p, trace, partition):
    """Largest relative precision gap between p's coarse marginals and the
    refined intermediates of ``trace`` (0.0 for a single-scale solve)."""
    worst = 0.0
    for marg, ref in zip(scale_marginals(p, partition)[1:], trace.refined[1:]):
        gap = np.abs(marg.precision - ref.precision).max()
        worst = max(worst, float(gap / max(1.0, np.abs(ref.precision).max())))
    return worst
