"""Edge redistribution laws and instantaneous-thermalization dynamics.

A thermalized edge update does not move one particle (or an infinitesimal
amount of energy); it resamples the whole edge content from the stationary
law conditioned on the edge total:

* discrete: a q-deformed Beta-Binomial split, which at q = 1 is the
  symmetric Beta-Binomial(n_tot, 2k, 2k) split;
* continuous, asymmetric: an exponentially tilted Beta split of the edge
  energy, exact in closed form: with a = 2 sigma E the kept fraction w has
  v = (e^(a w) - 1) / (e^a - 1) ~ Beta(2k, 2k); at k = 1/2 and vanishing
  tilt this is the classical uniform energy redistribution model.

Each edge carries an exponential rate-1 clock.  The continuous dynamics,
:func:`simulate_thermal_continuous`, draw their random numbers ahead of
the state, ``BLOCK`` events at a time (clock gaps, edges, Beta
coordinates), and run the updates on Python floats; their trajectories
for a given stream changed on purpose when the draws moved into blocks.

``scipy.integrate`` is imported inside :func:`tilted_beta_mean`, the only
function here that integrates: it costs start-up time and is not on a
simulation path.
"""

import math
import sys

import numpy as np
from scipy import special

from .qcalc import q_number
from . import models

__all__ = [
    "qbetabinom_weights", "qbetabinom_pmf", "sample_qbetabinom",
    "tilted_beta_pdf", "tilted_beta_cdf", "tilted_beta_mean",
    "sample_tilted_beta", "th_asip_generator", "simulate_thermal_continuous",
]


def qbetabinom_weights(n_tot, q, k):
    """Normalized pmf vector (length n_tot + 1) of the q-deformed
    Beta-Binomial split of an edge carrying n_tot particles.

    ``pmf(r) propto q^(-4kr) c_r c_(n_tot - r)`` with the running product
    ``c_m = binom_q(2k + m - 1, m) = c_(m-1) [2k + m - 1] / [m]``; this is
    the two-site product-measure law conditioned on the sum, for any pair
    of adjacent sites (the site-dependent factors cancel), and at q = 1
    the symmetric Beta-Binomial(n_tot, 2k, 2k) law.

    Raises ValueError where the weights leave the float range.
    """
    msg = ("the q-Beta-Binomial weights of n_tot = %d at q = %r, k = %r "
           "overflow a float" % (n_tot, q, k))
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            c = [1.0]
            for m in range(1, n_tot + 1):
                c.append(c[-1] * (q_number(2 * k + (m - 1), q)
                                  / q_number(m, q)))
            w = np.array([q ** (-4.0 * k * r) * c[r] * c[n_tot - r]
                          for r in range(n_tot + 1)])
        except OverflowError:   # a Python float power past the range
            raise ValueError(msg) from None
        w = w / w.sum()
    if not np.isfinite(w).all():
        raise ValueError(msg)
    return w


def qbetabinom_pmf(r, n_tot, q, k):
    if not 0 <= r <= n_tot:
        return 0.0
    return float(qbetabinom_weights(n_tot, q, k)[r])


def sample_qbetabinom(n_tot, q, k, rng, size=None, weights=None):
    """Exact inverse-CDF sampling over the finite support.

    ``weights`` is ``qbetabinom_weights(n_tot, q, k)`` when the caller
    already holds it, so it is not built twice.  The summed weights can
    fall short of 1 by rounding, so a uniform above their total picks the
    last split, n_tot.
    """
    if weights is None:
        weights = qbetabinom_weights(n_tot, q, k)
    cdf = np.cumsum(weights)
    pick = np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)
    return int(pick) if size is None else pick


BLOCK = 256  # events whose random numbers the dynamics draw at once
_TILT_SMALL = 1e-8
# largest tilt a = 2 sigma E for which e^a is a finite float
MAX_TILT = math.log(sys.float_info.max)


def _tilt(E, sigma):
    if E <= 0:
        raise ValueError("edge energy must be > 0")
    a = 2.0 * sigma * E
    if a > MAX_TILT:
        raise ValueError("tilt 2 sigma E = %r overflows e^a" % a)
    return a


def _beta_coordinate(w, a):
    """v(w) = (e^(a w) - 1) / (e^a - 1), 1 - v(w) and dv/dw: the change of
    variable that carries the tilted split law to Beta(2k, 2k)."""
    if a < _TILT_SMALL:
        return w, 1.0 - w, 1.0
    return (np.expm1(a * w) / math.expm1(a),
            np.expm1(-a * (1.0 - w)) / math.expm1(-a),
            a * np.exp(-a * (1.0 - w)) / -math.expm1(-a))


def _beta_quantile(u, k):
    """The Beta(2k, 2k) quantile of the uniform(s) u: u itself at k = 1/2,
    where the law is uniform."""
    return u if abs(k - 0.5) < 1e-14 else special.betaincinv(2 * k, 2 * k, u)


def _fraction_of_beta(v, a):
    """The kept fraction w = ln(1 + v (e^a - 1)) / a whose Beta coordinate
    is v (scalar or array), at tilt a."""
    return v if a < _TILT_SMALL else np.log1p(v * math.expm1(a)) / a


def tilted_beta_pdf(w, E, sigma, k):
    """Density of the energy fraction kept by the left site after a
    thermalized edge update of total energy E: the Beta(2k, 2k) density at
    v(w) times ``dv/dw = a e^(a w) / (e^a - 1)``, tilt a = 2 sigma E."""
    a = _tilt(E, sigma)
    if not 0.0 <= w <= 1.0:
        return 0.0
    v, v_bar, dv_dw = _beta_coordinate(w, a)
    with np.errstate(divide="ignore"):
        v_density = np.power(v * v_bar, 2 * k - 1) / special.beta(2 * k, 2 * k)
    return float(v_density * dv_dw)


def tilted_beta_cdf(w, E, sigma, k):
    """Distribution function of the tilted split law: the regularized
    incomplete Beta function I_v(2k, 2k) at v(w); w may be an array."""
    a = _tilt(E, sigma)
    v, _, _ = _beta_coordinate(np.clip(w, 0.0, 1.0), a)
    return special.betainc(2 * k, 2 * k, v)


def tilted_beta_mean(E, sigma, k):
    """Mean fraction kept by the left site, by adaptive quadrature."""
    from scipy import integrate
    val, _ = integrate.quad(lambda w: w * tilted_beta_pdf(w, E, sigma, k),
                            0.0, 1.0, epsabs=1e-11, epsrel=1e-10, limit=200)
    return val


def sample_tilted_beta(E, sigma, k, rng, size=None):
    """Sample the tilted split law exactly from one uniform per draw.

    ``v = I^(-1)(2k, 2k; u)`` is a Beta(2k, 2k) draw (v = u at k = 1/2) and
    ``w = ln(1 + v (e^a - 1)) / a`` pushes it forward to the tilted law, so
    each draw depends only on the stream state.  w is capped at 1: v = 1 (u
    near 1, 2k < 1) can round it one ulp above.
    """
    a = _tilt(E, sigma)
    w = _fraction_of_beta(_beta_quantile(rng.random(size), k), a)
    if size is None:
        return float(w) if w <= 1.0 else 1.0
    return np.minimum(w, 1.0)


def th_asip_generator(sector, params):
    """Thermalized discrete generator: each edge redistributes its particle
    total by the q-deformed Beta-Binomial law at rate 1 (symmetric at q =
    1).  An edge holding (na, nb) moves to (r, na + nb - r), r != na, at
    rate ``table[na + nb, r]``, the split law of na + nb particles."""
    r = np.arange(sector.N + 1)
    table = np.zeros((len(r), len(r)))
    for n_tot in range(len(r)):
        table[n_tot, :n_tot + 1] = qbetabinom_weights(n_tot, params.q,
                                                      params.k)
    a = np.arange(params.n_edges)
    na, nb = sector.configs[:, a], sector.configs[:, (a + 1) % sector.L]
    rates = table[na + nb]
    rates[r == na[:, :, None]] = 0.0
    return models.edge_move_generator(sector, rates, r)


def simulate_thermal_continuous(x0, t_max, params, rng):
    """Continuous-time thermal dynamics on the chain x0: each of the L - 1
    edges updates at rate 1, resampling its split from the tilted-Beta law.

    Returns (final config, events) with events a list of (time, edge, w)
    records, w the fraction of the edge energy kept by its left site.

    The random numbers do not depend on the state, so they are drawn
    ahead in blocks of ``BLOCK`` = 256 events from ``rng``, in this order:
    ``exponential(1 / n_edges, BLOCK)`` gaps of the Poisson clock,
    ``integers(1, n_edges + 1, BLOCK)`` edges and ``random(BLOCK)``
    uniforms, turned into Beta(2k, 2k) coordinates by one
    ``betaincinv`` call per block.  Every draw is exact.  The stream is
    left after the last block drawn, not after the last event used.  An
    edge with no energy is skipped (its draws are spent); an edge whose
    tilt ``2 sigma E`` passes ``MAX_TILT`` raises ValueError.  The
    trajectory of a given stream differs from that of the earlier
    one-event-at-a-time loop, which drew the same laws in another order.

    The state is updated on Python floats with the C library's
    ``math.log1p`` and ``math.expm1`` (see ``engine`` on NumPy's SVML
    variants).
    """
    x = np.asarray(x0, dtype=float).tolist()
    n_edges = len(x) - 1
    if n_edges < 1:
        raise ValueError("need L >= 2 sites, got %d" % len(x))
    sigma, k = params.sigma, params.k
    t = 0.0
    events = []
    while True:
        gaps = rng.exponential(1.0 / n_edges, BLOCK).tolist()
        edges = rng.integers(1, n_edges + 1, BLOCK).tolist()
        betas = _beta_quantile(rng.random(BLOCK), k).tolist()
        for gap, edge, v in zip(gaps, edges, betas):
            t += gap
            if t > t_max:
                return np.array(x), events
            E = x[edge - 1] + x[edge]
            if E > 0:
                a = _tilt(E, sigma)
                w = v if a < _TILT_SMALL else \
                    min(math.log1p(v * math.expm1(a)) / a, 1.0)
                x[edge - 1], x[edge] = w * E, (1.0 - w) * E
                events.append((t, edge, w))
