"""Exponential current moments: exact formulas against Monte Carlo.

For a step initial profile the q-deformed moment of the current across a
bond has a closed form driven by a single biased dual walker; for a
Bernoulli product initial law the moment factorizes into two geometric
series.  Both are compared to trajectory ensembles on a 20-site window.
"""

import math

import numpy as np

from asymtransport import currents, engine, models
from asymtransport.configspace import ModelParams

p = ModelParams(q=0.8, k=0.5)
W, half, t, reps = 20, 10, 1.0, 4000

eta0 = np.array([2] * half + [0] * (W - half))
theory = currents.q_moment_fixed_config(eta0, -half, 0, t, p)
tables = models.edge_rate_table("asip", p, n_max=int(eta0.sum()))
res = engine.q_moment_ensemble(tables, lambda rng: eta0, half, p.q, t, reps,
                               11)
mc, se = float(res.mean[0]), float(res.se[0])
print("step profile:    theory %.6f  mc %.6f +- %.6f  z = %+.2f"
      % (theory, mc, se, (mc - theory) / se))

mu = [0.5, 0.5]
theory = currents.q_moment_product(mu, t, p)
tables = models.edge_rate_table("asip", p, n_max=W)
res = engine.q_moment_ensemble(
    tables, lambda rng: (rng.random(W) < 0.5).astype(int), half, p.q, t,
    reps, 12)
mc, se = float(res.mean[0]), float(res.se[0])
print("Bernoulli(1/2):  theory %.6f  mc %.6f +- %.6f  z = %+.2f"
      % (theory, mc, se, (mc - theory) / se))

k, sigma, c = 0.5, 1.0, 0.7
prod = currents.abep_moment_product(math.exp(2 * sigma * c),
                                    math.exp(-2 * sigma * c), t, k)
fixed = currents.abep_moment_fixed(np.full(200, c), -100, 0, t, k, sigma)
print("energy moments:  product %.10f  walker sum %.10f  gap %.1e"
      % (prod, fixed, abs(prod - fixed)))
