"""Closed-form exponential moments of integrated currents, and the large
deviation rate functions governing their long-time growth.

The current J_i(t) across bond (i-1, i) is the net signed number of
particles (discrete chain) or the net energy (continuous chain) that
crossed the bond up to time t; it equals the change of the tail count
N_i (resp. partial energy E_i).

The closed forms reduce the moment of an interacting system to a single
dual walker:

* discrete chain: ``E[q^(2 J_i(t))]`` via an asymmetric walker with right
  rate ``q^2k [2k]`` and left rate ``q^-2k [2k]`` (a difference of two
  Poisson counts, i.e. a Skellam law);
* continuous chain: ``E[e^(-2 sigma J_i(t))]`` via a symmetric rate-2k
  walker (Bessel weights).

Both have product-initial-condition versions involving only the one-site
moment generating values of the marginal, and long-time growth rates
given by a Legendre-type variational formula.
"""

import hashlib
import math

import numpy as np

from .qcalc import q_number, skellam_pmf

__all__ = [
    "rate_function", "rate_function_legendre", "walker_rates",
    "growth_rate", "growth_rate_discrete",
    "q_moment_fixed_config", "q_moment_product", "q_moment_product_series",
    "marginal_q_factors",
    "abep_moment_fixed", "abep_moment_product",
    "param_hash", "comparison_row",
]


def rate_function(x, a, b):
    """Large deviation rate of a walk with right rate a and left rate b:

    ``I(x) = (a + b) - sqrt(x^2 + 4ab) + x ln((x + sqrt(x^2 + 4ab))/(2a))``.

    Nonnegative, zero exactly at the mean velocity a - b.
    """
    if a <= 0 or b <= 0:
        raise ValueError("need a > 0 and b > 0")
    s = math.sqrt(x * x + 4.0 * a * b)
    return (a + b) - s + x * math.log((x + s) / (2.0 * a))


def walker_rates(q, k):
    """(right, left) rates of the dual walker of the discrete chain:
    ``q^2k [2k]`` and ``q^-2k [2k]``."""
    base = q_number(2 * k, q)
    return base * q ** (2 * k), base * q ** (-2 * k)


def rate_function_legendre(x, a, b):
    """Independent evaluation of the rate function as the numerical
    Legendre transform ``sup_z (z x - a(e^z - 1) - b(e^-z - 1))``,
    by golden-section refinement of the maximum over a grid of 200001
    points on [-60, 60]."""
    from scipy import optimize

    def neg(z):
        return -(z * x - a * math.expm1(z) - b * math.expm1(-z))

    zs = np.linspace(-60.0, 60.0, 200_001)
    vals = zs * x - a * np.expm1(zs) - b * np.expm1(-zs)
    j = int(np.argmax(vals))
    lo, hi = zs[max(0, j - 1)], zs[min(len(zs) - 1, j + 1)]
    res = optimize.minimize_scalar(neg, bracket=None, bounds=(lo, hi),
                                   method="bounded",
                                   options={"xatol": 1e-14})
    return -res.fun


def growth_rate(log_factor, a, b):
    """Long-time exponential growth rate of ``E_0[F^(x(t)) 1_(x(t)>=0)]``
    for the (a, b) walk and ``log_factor = log F``:

    ``sup_(x>=0) (x log_factor - I(x))``

    by Varadhan's lemma on the restricted expectation.  The unconstrained
    maximizer of ``x c - I(x)`` is ``x* = a e^c - b e^-c`` with value
    ``a(e^c - 1) + b(e^-c - 1)``; if x* < 0 the constrained supremum sits
    at x = 0 with value -I(0).
    """
    c = float(log_factor)
    x_star = a * math.exp(c) - b * math.exp(-c)
    if x_star >= 0.0:
        return a * math.expm1(c) + b * math.expm1(-c)
    return -rate_function(0.0, a, b)


def marginal_q_factors(mu, q):
    """One-site factors of a discrete occupation law: ``E[q^(2 eta)]`` and
    ``E[q^(-2 eta)]`` (``mu`` is a pmf vector over 0..len-1)."""
    mu = np.asarray(mu, dtype=float)
    if not (abs(mu.sum() - 1.0) <= 1e-12 and (mu >= 0).all()):
        raise ValueError("mu must be a probability vector")
    n = np.arange(len(mu))
    return float(np.sum(mu * q ** (2 * n))), float(np.sum(mu * q ** (-2.0 * n)))


def growth_rate_discrete(mu, q, k):
    """Long-time growth rate of ``E[q^(2 J_i(t))]`` under the product
    initial law with marginal pmf ``mu``: the variational formula with
    slope ``log(q^-4k E[q^(-2 eta)])`` and the discrete walker rates."""
    _, lam_inv = marginal_q_factors(mu, q)
    a, b = walker_rates(q, k)
    return growth_rate(math.log(q ** (-4.0 * k) * lam_inv), a, b)


def q_moment_fixed_config(eta_window, window_start, bond, t, params):
    """``E[q^(2 J_bond(t))]`` for a deterministic initial configuration
    supported on a finite window of the integer line.

    Parameters
    ----------
    eta_window : array_like of int
        Occupancies of sites ``window_start .. window_start + W - 1``;
        the configuration is zero elsewhere.
    bond : int
        The current is counted across the bond (bond - 1, bond).
    t : float
    params : ModelParams (q < 1 required)

    Notes
    -----
    The closed form is ``q^(2 sum_(n<bond) eta_n)`` minus a sum over
    starting points n <= bond - 1 of the dual-walker expectation of
    ``q^(-4k m(t)) (1 - q^(-2 eta_m)) q^(2 (N_m - N_bond))``.  The factor
    ``1 - q^(-2 eta_m)`` vanishes off the occupied sites, so each walker
    expectation is a finite Skellam sum over the occupied window; the
    starting-point sum is extended left of the window until its terms are
    below 1e-14 relative to the accumulated value, and raises
    RuntimeError if that takes more than 4000 sites.
    """
    q, k = params.q, params.k
    if q >= 1.0:
        raise ValueError("the q-moment closed form needs q < 1")
    eta = np.asarray(eta_window, dtype=int)
    W = len(eta)
    tails = np.concatenate([np.cumsum(eta[::-1])[::-1], [0]])  # suffix sums

    def tail_count_at(m):
        if m < window_start:
            return int(tails[0])
        if m >= window_start + W:
            return 0
        return int(tails[m - window_start])

    n_bond = tail_count_at(bond)
    total = int(tails[0])
    first = q ** (2.0 * (total - n_bond))

    occ = [window_start + j for j in range(W) if eta[j] > 0]
    if not occ:
        return first
    occ = np.asarray(occ)
    weights = np.array([
        q ** (-4.0 * k * m) * (1.0 - q ** (-2.0 * eta[m - window_start]))
        * q ** (2.0 * (tail_count_at(m) - n_bond))
        for m in occ
    ])
    a, b = walker_rates(q, k)
    mu_r, mu_l = a * t, b * t

    acc = 0.0
    n = bond - 1
    below_window = 0
    while True:
        pmf = skellam_pmf(occ - n, mu_r, mu_l)
        term = q ** (4.0 * k * n) * float(np.dot(pmf, weights))
        acc += term
        if n < occ.min():
            below_window += 1
            if abs(term) <= 1e-14 * max(abs(acc), 1e-300):
                break
            if below_window > 4000:
                raise RuntimeError("walker sum did not converge")
        n -= 1
    return first - acc


def q_moment_product(mu, t, params):
    """``E[q^(2 J(t))]`` under the homogeneous product initial law with
    marginal pmf ``mu`` on the infinite chain:

    ``E[(q^-4k / lam_q)^m 1_(m<=0)] + E[(q^-4k lam_inv)^m 1_(m>=1)]``

    with ``lam_q = E[q^(2 eta)]``, ``lam_inv = E[q^(-2 eta)]`` and m the
    time-t position of the dual walker started at 0.  The first term also
    equals ``E[lam_q^m 1_(m>=0)]`` by a reflection identity.
    """
    q, k = params.q, params.k
    if q >= 1.0:
        raise ValueError("the q-moment closed form needs q < 1")
    lam_q, lam_inv = marginal_q_factors(mu, q)
    a, b = walker_rates(q, k)
    mu_r, mu_l = a * t, b * t

    def series(start, step, value):
        acc = 0.0
        m = start
        while True:
            term = skellam_pmf(m, mu_r, mu_l) * value(m)
            acc += term
            if abs(term) <= 1e-15 * max(abs(acc), 1e-300) and abs(m) > 4 * (
                    mu_r + mu_l) + 10:
                return acc
            m += step

    left = series(0, -1, lambda m: (q ** (-4.0 * k) / lam_q) ** m)
    right = series(1, +1, lambda m: (q ** (-4.0 * k) * lam_inv) ** m)
    return left + right


def q_moment_product_series(mu, t, params):
    """Independent evaluation of the product-law q-moment directly from
    the walker representation, summing over starting points -400 <= n <=
    -1 and integrating the marginal factors site by site; used as a
    cross-check of the compact two-term form."""
    q, k = params.q, params.k
    lam_q, lam_inv = marginal_q_factors(mu, q)
    a, b = walker_rates(q, k)
    mu_r, mu_l = a * t, b * t
    span = int(4 * (mu_r + mu_l) + 40)
    acc = 0.0
    for n in range(-1, -401, -1):
        ms = np.arange(n - span, n + span + 1)
        pmf = skellam_pmf(ms - n, mu_r, mu_l)
        # product-law average of q^(2(N_(m+1) - N_0)) - q^(2(N_m - N_0))
        avg = np.where(ms + 1 <= 0, lam_q ** (-(ms + 1)),
                       lam_inv ** (ms + 1)) \
            - np.where(ms <= 0, lam_q ** (-ms), lam_inv ** ms)
        term = q ** (4.0 * k * n) * float(np.dot(pmf, q ** (-4.0 * k * ms) * avg))
        acc += term
        if abs(term) < 1e-15 * max(1.0, abs(acc)) and n < -span:
            break
    return acc


def abep_moment_fixed(x_window, window_start, bond, t, k, sigma):
    """``E[e^(-2 sigma J_bond(t))]`` for a deterministic energy profile
    supported on a finite window:

    ``e^(-4kt) sum_n e^(-2 sigma (E_n - E_bond)) I_(|n - bond|)(4kt)``.

    Outside the window the partial energy E_n is constant (the total on
    the left, zero on the right), so both tails reduce to closed walker
    tail probabilities and the evaluation is exact.
    """
    x = np.asarray(x_window, dtype=float)
    W = len(x)
    energies = np.concatenate([np.cumsum(x[::-1])[::-1], [0.0]])

    def energy_at(n):
        if n < window_start:
            return float(energies[0])
        if n >= window_start + W:
            return 0.0
        return float(energies[n - window_start])

    e_bond = energy_at(bond)
    rate_t = 2.0 * k * t
    lo, hi = window_start, window_start + W
    ns = np.arange(lo, hi + 1)
    pmf = skellam_pmf(ns - bond, rate_t, rate_t)
    bulk = float(np.sum(pmf * np.exp(-2.0 * sigma
                                     * (np.array([energy_at(n) for n in ns])
                                        - e_bond))))
    p_in = float(np.sum(pmf))
    # walker left of the window sees the full energy, right of it sees none
    p_left = _walk_tail(lo - 1 - bond, rate_t, side="left")
    p_right = _walk_tail(hi + 1 - bond, rate_t, side="right")
    out = bulk
    out += math.exp(-2.0 * sigma * (float(energies[0]) - e_bond)) * p_left
    out += math.exp(2.0 * sigma * e_bond) * p_right
    resid = 1.0 - (p_in + p_left + p_right)
    if abs(resid) > 1e-10:
        raise ArithmeticError("walker law does not sum to 1: residual %g"
                              % resid)
    return out


def _walk_tail(edge, rate_t, side):
    """P(walk displacement <= edge) or >= edge for the symmetric walk."""
    step = -1 if side == "left" else +1
    acc = 0.0
    d = edge
    while True:
        term = float(skellam_pmf(d, rate_t, rate_t))
        acc += term
        if term <= 1e-15 * max(acc, 1e-300) and abs(d) > 2 * rate_t + 10:
            return acc
        d += step


def abep_moment_product(lam_plus, lam_minus, t, k):
    """``E[e^(-2 sigma J(t))]`` under a homogeneous product initial energy
    law with ``lam_plus = E[e^(2 sigma x)]``, ``lam_minus =
    E[e^(-2 sigma x)]``:

    ``P(l(t) = 0) + E[(lam_plus^l + lam_minus^l) 1_(l>=1)]``.
    """
    if not (math.isfinite(lam_plus) and math.isfinite(lam_minus)):
        raise ValueError("lam_plus and lam_minus must be finite")
    rate_t = 2.0 * k * t
    acc = float(skellam_pmf(0, rate_t, rate_t))
    l = 1
    while True:
        term = float(skellam_pmf(l, rate_t, rate_t)) \
            * (lam_plus ** l + lam_minus ** l)
        acc += term
        if term <= 1e-15 * max(acc, 1e-300) and l > 2 * rate_t + 10:
            return acc
        l += 1


def param_hash(*values):
    """Short stable digest of a parameter tuple, for result tables."""
    text = ";".join(repr(v) for v in values)
    return hashlib.md5(text.encode()).hexdigest()[:12]


def comparison_row(formula, params_digest, theory, mc_mean, mc_se):
    """One row of a theory-vs-simulation table; ``mc_se`` must be > 0."""
    z = (theory - mc_mean) / mc_se
    return {"formula": formula, "param_hash": params_digest,
            "theory": theory, "mc": mc_mean, "se": mc_se, "z": z}
