"""Central numerical tolerance record.

Every module-level tolerance lives here so there is a single tuning point.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # probability vectors must sum to one within this
    normalization: float = 1e-12
    # decomposition identities and round-trip checks
    identity: float = 1e-10
    # max |A - A^T| relative to max(1, |A|_max) accepted before symmetrizing
    symmetry: float = 1e-10
    # smallest accepted diagonal entry of a Cholesky factor
    cholesky_pivot_floor: float = 1e-12
    # coarse outcomes with mass at or below zero have undefined conditionals
    conditional_row_mass: float = 0.0
    # closed-form divergences may round this far below zero before clipping
    divergence_rounding: float = 1e-8
    # boundary density relative to peak accepted by the quadrature oracle
    # (a 6-sigma Gaussian grid has boundary ratio exp(-18) ~ 1.5e-8)
    quadrature_boundary: float = 1e-7


TOL = Tolerances()
