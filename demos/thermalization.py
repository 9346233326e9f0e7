"""Instantaneous thermalization: split laws and their limits.

An edge update jumps straight to the stationary law of the pair
conditioned on its total.  Discrete case: a q-deformed Beta-Binomial,
equal to the two-site reversible product measure conditioned on the edge
sum.  Continuous case: an exponentially tilted Beta split whose sigma=0,
k=1/2 limit is the classical uniform redistribution.
"""

import numpy as np
from scipy import stats

from asymtransport import engine, models, thermal
from asymtransport.configspace import ModelParams

q, k, n_tot = 0.7, 0.5, 5
p = ModelParams(q=q, k=k)
alpha = 0.3 * models.alpha_max(p)
# the two-site product measure (sites 1 and 2) on the rows (r, n_tot - r)
r = np.arange(n_tot + 1)
pm = models.asip_product_measure(np.column_stack([r, n_tot - r]), p, alpha)
pm /= pm.sum()
print("discrete split law, edge total %d:" % n_tot)
print("  r   conditioned product   split pmf")
for r in range(n_tot + 1):
    print("  %d   %.12f       %.12f"
          % (r, pm[r], thermal.qbetabinom_pmf(r, n_tot, q, k)))

rng = engine.SeedTree(5).stream(0)
for sigma, kk, label in ((1.0, 0.75, "tilted split"),
                         (0.0, 0.5, "uniform limit")):
    draws = thermal.sample_tilted_beta(1.5, sigma, kk, rng, size=20000)
    print("\n%s (sigma=%.1f, k=%.2f): mean %.4f" %
          (label, sigma, kk, draws.mean()))
    if sigma == 0.0:
        ks = stats.kstest(draws, "uniform")
        print("  KS against uniform: p = %.3f" % ks.pvalue)
