"""Tabular walkthrough: entropies, scaled/tilted/Gibbs distributions,
decimation chains, and a multiscale solve checked against the brute-force
simplex oracle."""

import numpy as np

from msgibbs import multiscale as ms
from msgibbs import oracle as mo
from msgibbs import tabular as mt

rng = np.random.default_rng(0)

# A 2 x 2 x 2 product alphabet: think three binary coordinates, the last
# one being the "deepest" (first to be decimated).
space = mt.ProductSpace((2, 2, 2))
f = mt.EnergyTable(space, rng.uniform(0.0, 1.0, space.size))
q = mt.TabularDist.from_weights(space, rng.uniform(0.2, 1.0, space.size))

print("== basic quantities ==")
print("H(q)            =", mt.shannon_entropy(q))
print("Renyi_2(q)      =", mt.renyi_entropy(q, 2.0))
print("KL(uniform||q)  =", mt.kl(mt.TabularDist.uniform(space), q))

# Scaling sharpens or flattens; tilting interpolates geometrically.
print("\n== scaled and tilted distributions ==")
sharp = mt.scale(q, 3.0)
flat = mt.scale(q, 0.3)
print("entropy: scaled up", mt.shannon_entropy(sharp), "| scaled down",
      mt.shannon_entropy(flat), "| original", mt.shannon_entropy(q))
p = mt.gibbs(f, q, beta=2.0)
mid = mt.tilt(p, q, 0.5)
print("tilt(p, q, 0.5) entropy:", mt.shannon_entropy(mid))

# Decimation drops the last coordinate; pushforward marginalizes onto it.
print("\n== decimation ==")
dec = mt.ScaleMap.decimation(space)
q2 = mt.pushforward(q, dec)
print("coarse space:", q2.space.axis_sizes, "mass:", q2.probs.sum())

# The multiscale relative-entropy objective and its closed-form minimizer.
print("\n== multiscale solve vs brute force ==")
sched = ms.TemperatureSchedule(1.0, (1.0, 0.7, 0.4))
backend = ms.TabularBackend.decimation(space, 3)
solution = ms.solve_min_relative_entropy(f, q, sched, backend)
oracle = mo.minimize_tabular("min-relative-entropy", f, q, sched, backend.chain)
print("TV(solution, oracle) =", mt.total_variation(solution, oracle))
obj = ms.min_relative_entropy_objective(solution, f, q, sched, backend.chain)
print("objective value      =", obj)
value, log_p = mo.exact_tabular("min-relative-entropy", f, q, sched, backend.chain)
print("TV(solution, exact)  =", 0.5 * np.abs(solution.probs - np.exp(log_p)).sum())
print("exact optimal value  =", value)

# The single-scale reduction: trailing zero weights give the plain Gibbs law.
single = ms.TemperatureSchedule(1.0, (1.0, 0.0, 0.0))
plain = ms.solve_min_relative_entropy(f, q, single, backend)
gibbs = mt.gibbs(f, q, 1.0)
print("single-scale reduction TV =", mt.total_variation(plain, gibbs))
