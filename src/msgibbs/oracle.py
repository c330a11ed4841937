"""Independent solvers used to validate the closed-form algorithms.

``exact_tabular`` computes the tabular optimum exactly, as a value recursion from
the finest scale up: one logsumexp per fiber per scale (the single-scale Gibbs
variational principle applied once per scale), reading each scale's map inside the
loop and composing the maps one at a time, so that one joint-index map is alive at a
time and nothing is left on the caller's maps.  ``solve-tabular --verify`` checks
against it.
``minimize_tabular`` runs exponentiated-gradient mirror descent on the
probability simplex (at most 4096 states); both supported objectives are convex
in the joint table, so the iterate converges to the global optimum, slowly where
the schedule's scales differ by many orders.  Its step and its ascent slack follow
from the objective; it checks the exact oracle in the tests.
``quadrature_density_moments`` integrates a log-density on a 1-D or 2-D trapezoid
grid to validate the Gaussian closed forms.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tabular as mt
from .errors import MassLeakage, NonConvergence, NumericalGuard, SpaceMismatch
from .tolerances import TOL


#: largest joint space the simplex oracle will accept
MAX_ORACLE_STATES = 4096


def _scale_sizes(space, chain, depth):
    """Scale sizes, finest first; a schedule of ``depth`` scales needs depth - 1 maps,
    each starting on the space the one before it ends on, the first on ``space``."""
    if len(chain) != depth - 1:
        raise SpaceMismatch(f"schedule depth {depth} needs {depth - 1} maps, got {len(chain)}")
    sizes = [space.size]
    for t in chain:
        if t.source.axis_sizes != space.axis_sizes:
            raise SpaceMismatch(f"scale map source {t.source.axis_sizes} is not {space.axis_sizes}")
        space = t.target
        sizes.append(space.size)
    return sizes


def minimize_tabular(objective, f, q, sched, chain):
    """Brute-force optimum of a multiscale objective over the simplex.

    Both objectives minimize ``a E[f] + sum_i w_i <p_i, log p_i - log q_i>`` over the
    scale marginals p_i: ``"min-relative-entropy"`` (E[f] + lam * D) has a = 1 and
    w_i = lam * sigma_i; ``"max-entropy"`` (lam * E[f] - multiscale H) has a = lam,
    w_i = sigma_i and log q_i = 0, a reference that carries no information.  ``q`` is
    ignored for the entropy objective and must be strictly positive otherwise.
    Deterministic: fixed uniform start and iteration order.  The first step is
    1 / sum_i w_i, which solves a single scale exactly.  A proposal is an ascent, and
    halves the step, if its value rises by more than n eps times the sum of the value's
    term magnitudes (n states, eps the machine epsilon): the rounding bound of that sum.
    Each proposal is normalized from its largest entry, which stays exact.
    """
    if objective not in ("min-relative-entropy", "max-entropy"):
        raise ValueError(f"unknown objective {objective!r}")
    space = f.space
    if space.size > MAX_ORACLE_STATES:
        raise ValueError(
            f"oracle supports at most {MAX_ORACLE_STATES} states, got {space.size}"
        )
    sizes = _scale_sizes(space, chain, sched.depth)
    comps = [slice(None)]  # per scale, joint index -> scale index; scale 1 is the identity
    for t in chain:
        comps.append(t.map[comps[-1]])
    sigma = np.asarray(sched.sigma)
    active = np.flatnonzero(sigma).tolist()

    def log_marginal(probs, i):
        marg = probs if i == 0 else np.bincount(comps[i], weights=probs, minlength=sizes[i])
        # an empty fiber has no mass under p or q and must add 0, not 0 * inf
        return marg, np.log(np.maximum(marg, TOL.oracle_log_floor))

    if objective == "max-entropy":
        a, weights, log_q = sched.lam, sigma, [0.0] * sched.depth
    else:
        if q.space.axis_sizes != space.axis_sizes:
            raise SpaceMismatch("f and q live on different spaces")
        if q.probs.min() <= 0.0:
            raise ValueError("the simplex oracle requires a strictly positive q")
        a, weights = 1.0, sched.lam * sigma
        log_q = [log_marginal(q.probs, i)[1] for i in range(sched.depth)]

    def objective_and_grad(log_p):
        # the value, the sum of its terms' magnitudes (its rounding scale), the gradient
        p = np.exp(log_p)
        value, grad = a * float(p @ f.values), a * f.values
        magnitude = a * float(p @ abs(f.values))
        for i in active:
            marg, log_ratio = log_marginal(p, i)
            log_ratio -= log_q[i]
            value += weights[i] * float(marg @ log_ratio)
            magnitude += weights[i] * float(marg @ abs(log_ratio))
            grad += (weights[i] * (log_ratio + 1.0))[comps[i]]
        return value, magnitude, grad

    log_p = np.full(space.size, -math.log(space.size))
    step = 1.0 / float(weights.sum())
    rounding = space.size * np.finfo(float).eps
    prev_value, prev_magnitude, grad = objective_and_grad(log_p)
    for iteration in range(TOL.oracle_max_iterations):
        proposal = log_p - step * grad
        proposal -= proposal.max()
        proposal -= math.log(np.exp(proposal).sum())
        value, magnitude, new_grad = objective_and_grad(proposal)
        if value > prev_value + rounding * max(prev_magnitude, magnitude):
            # deterministic safeguard: shrink the step and retry from log_p
            step *= 0.5
            if step < TOL.oracle_step_floor:
                raise NonConvergence(
                    f"simplex oracle step size collapsed below {TOL.oracle_step_floor:g} "
                    f"at iteration {iteration}"
                )
            continue
        converged = prev_value - value < TOL.oracle_convergence
        log_p, grad, prev_value, prev_magnitude = proposal, new_grad, value, magnitude
        if converged:
            return mt.TabularDist.from_weights(space, np.exp(log_p))
    raise NonConvergence(
        f"simplex oracle did not converge within {TOL.oracle_max_iterations} iterations"
    )


def exact_tabular(objective, f, q, sched, chain):
    """Exact optimum of a multiscale objective by its value recursion: ``(value, log_p)``.

    With S_i = sigma_1 + ... + sigma_i, the objective splits scale by scale into fiber
    conditionals, each optimized by the single-scale Gibbs variational principle.  In
    u_i = V_i / (w S_i), where V_1 = -lam f and w = 1 (``"max-entropy"``) or V_1 = -f and
    w = lam (``"min-relative-entropy"``, which adds log q(x | y) inside each fiber):
    L_i(y) = logsumexp over y's fiber of u_i [+ log q(x | y)], u_{i+1} = (S_i / S_{i+1}) L_i,
    and the last scale's fiber is its whole space.  log p* sums the conditionals
    u_i [+ log q(x | y)] - L_i[map] along the composed maps, and the optimal value is
    w S_d L_d, negated for the minimized relative entropy.  The maps are composed one
    scale at a time, so one joint-index map is alive at a time.  ``q`` is ignored for
    the entropy objective and may hold zeros otherwise; states without mass get -inf.
    """
    if objective not in ("min-relative-entropy", "max-entropy"):
        raise ValueError(f"unknown objective {objective!r}")
    space = f.space
    sizes = _scale_sizes(space, chain, sched.depth)
    partial = np.cumsum(sched.sigma)
    if objective == "max-entropy":
        sign, a, w, q_i = 1.0, sched.lam, 1.0, None
    else:
        if q.space.axis_sizes != space.axis_sizes:
            raise SpaceMismatch("f and q live on different spaces")
        sign, a, w, q_i = -1.0, 1.0, sched.lam, q.probs
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked just below
        u = -a * f.values / (w * partial[0])
    if not (u < np.inf).all():
        raise NumericalGuard(f"-f / sigma_1 is not finite at sigma_1 = {partial[0]:g}")
    log_p = np.zeros(space.size)
    comp = slice(None)  # joint index -> index at the current scale, one scale at a time
    with np.errstate(divide="ignore"):  # log 0 = -inf: an empty fiber, a state without mass
        for i, size in enumerate(sizes[1:] + [1]):
            # this scale's fiber map, read here; the last scale's single fiber is its whole space
            mapping = chain[i].map if i < len(chain) else np.zeros(sizes[-1], dtype=np.int64)
            if q_i is not None:
                q_next = np.bincount(mapping, weights=q_i, minlength=size)
                u = u + np.log(q_i)
                # log q(x | y) without -inf - (-inf): a massless state keeps -inf
                np.subtract(u, np.log(q_next)[mapping], out=u, where=q_i > 0.0)
                q_i = q_next
            peak = np.full(size, -np.inf)
            np.maximum.at(peak, mapping, u)
            peak[peak == -np.inf] = 0.0  # a fiber with no finite entry sums to 0 below
            u -= peak[mapping]  # each fiber's peak is 0: its conditional keeps every digit
            lse = np.log(np.bincount(mapping, weights=np.exp(u), minlength=size))
            cond = np.subtract(u, lse[mapping], out=np.full(u.size, -np.inf), where=u > -np.inf)
            lse += peak
            log_p += cond[comp]
            if i + 1 < len(sizes):
                u = (partial[i] / partial[i + 1]) * lse
                comp = mapping[comp]
    return sign * w * partial[-1] * float(lse[0]), log_p


@dataclass(frozen=True)
class QuadratureResult:
    mean: np.ndarray
    cov: np.ndarray
    log_norm: float


def quadrature_density_moments(log_density, lower, upper):
    """Trapezoid-rule moments of an unnormalized log-density on a box grid.

    ``log_density`` maps an (n, dim) array of points to n log values; dim is
    1 or 2.  Raises :class:`MassLeakage` if the boundary density exceeds
    ``TOL.quadrature_boundary`` relative to the peak.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    dim = lower.size
    if dim not in (1, 2) or upper.size != dim:
        raise ValueError("quadrature supports 1-D and 2-D boxes")
    n = TOL.quadrature_grid_points
    axes, axis_w = [], []
    for lo, hi in zip(lower, upper):
        axes.append(np.linspace(lo, hi, n))
        w = np.full(n, (hi - lo) / (n - 1))
        w[[0, -1]] *= 0.5
        axis_w.append(w)
    points = np.column_stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")])
    weights = functools.reduce(np.multiply.outer, axis_w).ravel()
    edge = np.zeros(n, dtype=bool)
    edge[[0, -1]] = True
    boundary = functools.reduce(np.logical_or.outer, [edge] * dim).ravel()

    log_vals = np.asarray(log_density(points), dtype=float).reshape(-1)
    peak = log_vals.max()
    if math.exp(log_vals[boundary].max() - peak) > TOL.quadrature_boundary:
        raise MassLeakage("density does not decay within the quadrature grid")
    vals = np.exp(log_vals - peak)
    mass = float(weights @ vals)
    wv = weights * vals
    mean = (wv @ points) / mass
    delta = points - mean
    cov = np.einsum("n,ni,nj->ij", wv, delta, delta) / mass
    return QuadratureResult(mean, 0.5 * (cov + cov.T), math.log(mass) + peak)

