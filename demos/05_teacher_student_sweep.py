"""Teacher-student sweep at reduced grid size: the minimum-over-temperature
population risk is best at an interior mixing weight alpha, beating both
the single-scale posterior (alpha = 0) and near-random-feature sampling
(alpha close to 1).

The full-size sweep is available through the command line:
    msgibbs experiment --config configs/experiment_fig1.json --out sweep.csv
"""

import numpy as np

from msgibbs import nn as mn

cfg = mn.TeacherStudentConfig(
    m=10, d=4, teacher_depth=2, n_train=30,
    teacher_weight_variance=0.1, prior_variance=5e-5, seed=0,
)
teacher, train = mn.teacher_student_problem(cfg)

alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 0.999]
sigma1s = np.logspace(-9.5, -2.5, 11)
print("alpha | min-over-sigma1 risk | stderr | argmin sigma1")
for alpha in alphas:
    best = None
    for idx, sigma1 in enumerate(sigma1s):
        posterior = mn.teacher_student_posterior(cfg, train, alpha, float(sigma1))
        seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1, idx))
        risk, stderr = mn.population_risk_mc(posterior, teacher, cfg, 1000, 100, seed)
        if best is None or risk < best[0]:
            best = (risk, stderr, sigma1)
    print(f"{alpha:5.3f} | {best[0]:20.6f} | {best[1]:.4f} | {best[2]:.3e}")
