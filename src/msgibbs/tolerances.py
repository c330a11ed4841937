"""Central numerical tolerance record.

Every module-level tolerance lives here so there is a single tuning point.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # probability vectors must sum to one within this
    normalization: float = 1e-12
    # max |A - A^T| relative to max(1, |A|_max) accepted before symmetrizing
    symmetry: float = 1e-10
    # smallest accepted diagonal entry of a Cholesky factor
    cholesky_pivot_floor: float = 1e-12
    # closed-form divergences may round this far below zero before clipping
    divergence_rounding: float = 1e-8
    # boundary density relative to peak accepted by the quadrature oracle
    # (a 6-sigma Gaussian grid has boundary ratio exp(-18) ~ 1.5e-8); points per axis
    quadrature_boundary: float = 1e-7
    quadrature_grid_points: int = 2001
    # QuadraticEnergy: the symmetry tolerance for K; eigenvalues of K down to
    # minus the floor are accepted as rounding and K is kept as given
    energy_symmetry: float = 1e-8
    energy_eigenvalue_floor: float = 1e-8
    # simplex oracle: first step, convergence (objective decrease) and iteration cap;
    # an objective rise up to the slack is not an ascent; marginals are floored
    # before logs; halving the step below its floor is a collapse
    oracle_step_size: float = 0.1
    oracle_convergence: float = 1e-13
    oracle_max_iterations: int = 50_000
    oracle_ascent_slack: float = 1e-15
    oracle_log_floor: float = 1e-300
    oracle_step_floor: float = 1e-8
    # layer spectral norms may exceed the 1/d budget by this
    spectral_norm_slack: float = 1e-12
    # d / M may miss an integer by this
    teacher_depth_integrality: float = 1e-9
    # verification gates: total variation to the simplex oracle (solve-tabular)
    # and relative refinement-consistency gap (solve-gaussian)
    oracle_agreement_tv: float = 1e-4
    refinement_consistency: float = 1e-8


TOL = Tolerances()
