"""Independent brute-force solvers used to validate the closed-form algorithms.

``minimize_tabular`` runs exponentiated-gradient mirror descent on the
probability simplex; both supported objectives are convex in the joint
table, so the iterate converges to the global optimum.
``quadrature_density_moments`` integrates a log-density on a 1-D or 2-D
trapezoid grid to validate the Gaussian closed forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import tabular as mt
from .errors import MassLeakage, NonConvergence, SpaceMismatch
from .tolerances import TOL


#: largest joint space the simplex oracle will accept
MAX_ORACLE_STATES = 4096


def _composed_maps(space, chain):
    """Per-scale joint-index -> scale-index arrays (scale 1 is the identity, ``slice(None)``)."""
    comps = [slice(None)]
    sizes = [space.size]
    for t in chain:
        comps.append(t.map[comps[-1]])
        sizes.append(t.target.size)
    return comps, sizes


def minimize_tabular(objective, f, q, sched, chain):
    """Brute-force optimum of a multiscale objective over the simplex.

    ``objective`` is ``"min-relative-entropy"`` (minimize E[f] + lam * D) or
    ``"max-entropy"`` (minimize lam * E[f] - multiscale H, i.e. maximize the
    entropy Lagrangian).  ``q`` is ignored for the entropy objective and must
    be strictly positive otherwise.  Deterministic: fixed uniform start and
    iteration order.
    """
    if objective not in ("min-relative-entropy", "max-entropy"):
        raise ValueError(f"unknown objective {objective!r}")
    space = f.space
    if space.size > MAX_ORACLE_STATES:
        raise ValueError(
            f"oracle supports at most {MAX_ORACLE_STATES} states, got {space.size}"
        )
    if len(chain) != sched.depth - 1:
        raise SpaceMismatch(
            f"schedule depth {sched.depth} needs {sched.depth - 1} maps, "
            f"got {len(chain)}"
        )
    use_reference = objective == "min-relative-entropy"
    if use_reference:
        if q.space.axis_sizes != space.axis_sizes:
            raise SpaceMismatch("f and q live on different spaces")
        if q.probs.min() <= 0.0:
            raise ValueError("the simplex oracle requires a strictly positive q")

    comps, sizes = _composed_maps(space, chain)
    sigma = np.asarray(sched.sigma)
    lam = sched.lam
    log_q_scales = None
    if use_reference:
        log_q_scales = []
        for i, (comp, size) in enumerate(zip(comps, sizes)):
            marg = q.probs if i == 0 else np.bincount(comp, weights=q.probs, minlength=size)
            # an empty fiber has no mass under p or q and must add 0, not 0 * inf
            log_q_scales.append(np.log(np.maximum(marg, TOL.oracle_log_floor)))

    def objective_and_grad(log_p):
        p = np.exp(log_p)
        if use_reference:
            grad = f.values.copy()
            value = float(p @ f.values)
        else:
            grad = lam * f.values
            value = lam * float(p @ f.values)
        for i in range(sched.depth):
            if sigma[i] == 0.0:
                continue
            marg = p if i == 0 else np.bincount(comps[i], weights=p, minlength=sizes[i])
            log_marg = np.log(np.maximum(marg, TOL.oracle_log_floor))
            if use_reference:
                log_ratio = log_marg - log_q_scales[i]
                value += lam * sigma[i] * float(marg @ log_ratio)
                grad += (lam * sigma[i] * (log_ratio + 1.0))[comps[i]]
            else:
                value += sigma[i] * float(marg @ log_marg)
                grad += (sigma[i] * (log_marg + 1.0))[comps[i]]
        return value, grad

    log_p = np.full(space.size, -math.log(space.size))
    step = TOL.oracle_step_size
    prev_value, grad = objective_and_grad(log_p)
    for iteration in range(TOL.oracle_max_iterations):
        proposal = log_p - step * grad
        proposal -= _logsumexp(proposal)
        value, new_grad = objective_and_grad(proposal)
        if value > prev_value + TOL.oracle_ascent_slack:
            # deterministic safeguard: shrink the step and retry from log_p
            step *= 0.5
            if step < TOL.oracle_step_floor:
                raise NonConvergence(
                    f"simplex oracle step size collapsed below {TOL.oracle_step_floor:g} "
                    f"at iteration {iteration}"
                )
            continue
        converged = prev_value - value < TOL.oracle_convergence
        log_p, grad, prev_value = proposal, new_grad, value
        if converged:
            return mt.TabularDist.from_weights(space, np.exp(log_p))
    raise NonConvergence(
        f"simplex oracle did not converge within {TOL.oracle_max_iterations} iterations"
    )


def _logsumexp(v):
    peak = v.max()
    return peak + math.log(np.exp(v - peak).sum())


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
    axes = [np.linspace(lower[k], upper[k], n) for k in range(dim)]
    steps = [(upper[k] - lower[k]) / (n - 1) for k in range(dim)]
    axis_w = []
    for k in range(dim):
        w = np.full(n, steps[k])
        w[0] *= 0.5
        w[-1] *= 0.5
        axis_w.append(w)
    if dim == 1:
        points = axes[0][:, None]
        weights = axis_w[0]
        boundary = np.zeros(n, dtype=bool)
        boundary[[0, -1]] = True
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([xx.ravel(), yy.ravel()])
        weights = np.outer(axis_w[0], axis_w[1]).ravel()
        boundary = np.zeros((n, n), dtype=bool)
        boundary[0, :] = boundary[-1, :] = True
        boundary[:, 0] = boundary[:, -1] = True
        boundary = boundary.ravel()

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

