"""Teacher-student sweep at reduced grid size: the minimum-over-temperature
population risk is best at an interior mixing weight alpha, beating both
the single-scale posterior (alpha = 0) and near-random-feature sampling
(alpha close to 1).

``nn.teacher_student_sweep`` estimates the risk at every grid point of the
sorted, alpha-major grid (every point draws from ``SeedSequence(seed,
spawn_key=(1,))``, so all points share one test set and one weight-noise
matrix) and ``nn.min_risk_per_alpha`` keeps each alpha's best sigma1.  The
command line runs the same sweep at full size:
    msgibbs experiment --config configs/experiment_fig1.json --out sweep.csv
"""

import numpy as np

from msgibbs import nn as mn

cfg = mn.TeacherStudentConfig(
    m=10, d=4, teacher_depth=2, n_train=30,
    teacher_weight_variance=0.1, prior_variance=5e-5, seed=0,
)
alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 0.999]
sigma1s = np.logspace(-9.5, -2.5, 11)
rows = mn.teacher_student_sweep(cfg, alphas, sigma1s, 1000, 100)

print("alpha | min-over-sigma1 risk | stderr | argmin sigma1")
for alpha, sigma1, risk, stderr in mn.min_risk_per_alpha(rows):
    print(f"{alpha:5.3f} | {risk:20.6f} | {stderr:.4f} | {sigma1:.3e}")
