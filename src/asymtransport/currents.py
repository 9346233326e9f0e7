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
given by a Legendre-type variational formula.  Each moment is a sum of
tail probabilities of the walker law P = Skellam(mu_r, mu_l), by the
reflection ``P(d) (mu_l / mu_r)^d = P(-d)`` and the exponential tilt
``sum_m P(m) r^m 1_A(m) = exp(mu_r (r - 1) + mu_l (1/r - 1)) Pr[A]``
under Skellam(mu_r r, mu_l / r).  A tail is a sum of the pmf over the
window ``mean +- (12 sd + 30)``, which holds all of the law but e^-70; a
window wider than 2^20 sites (8 MB), or a moment past the float range,
raises ValueError.
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

    Nonnegative, zero exactly at the mean velocity a - b.  The formula
    cancels when a and b are close (q near 1) and x is small, and its
    logarithm when x << 0, so it is evaluated in the equal form
    ``(a - b)^2 / (sqrt a + sqrt b)^2 - x^2 / (s + c)
    + x (asinh(x / c) + ln(1 + (b - a) / a) / 2)``, with
    ``s = sqrt(x^2 + 4ab)`` and ``c = 2 sqrt(ab)``: at x = 0 it reads
    ``(sqrt a - sqrt b)^2`` with every digit.
    """
    if a <= 0 or b <= 0:
        raise ValueError("need a > 0 and b > 0")
    s = math.sqrt(x * x + 4.0 * a * b)
    c = 2.0 * math.sqrt(a * b)
    return (a - b) ** 2 / (math.sqrt(a) + math.sqrt(b)) ** 2 \
        - x * x / (s + c) \
        + x * (math.asinh(x / c) + 0.5 * math.log1p((b - a) / a))


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


_WINDOW_MAX = 1 << 20  # walker window sites, 8 MB of float64


def _walker_tail(m, mu_r, mu_l, r=1.0):
    """``E[r^X 1_(X>=m)]`` at each integer ``m`` for X ~ Skellam(mu_r,
    mu_l): by the tilt, ``exp((r - 1)(mu_r - mu_l / r))`` times a reverse
    cumulative sum of one ``skellam_pmf`` call on the window of the law
    Skellam(mu_r r, mu_l / r)."""
    log_scale = (r - 1.0) * (mu_r - mu_l / r)
    mu_r, mu_l = mu_r * r, mu_l / r
    half = 12.0 * math.sqrt(mu_r + mu_l) + 30.0  # finite iff both rates are
    if not 2.0 * half < _WINDOW_MAX:
        raise ValueError("the walker law with rates %.4g, %.4g needs a "
                         "window of more than %d sites"
                         % (mu_r, mu_l, _WINDOW_MAX))
    if log_scale > 709.78:  # about the log of the largest float
        raise ValueError("the moment overflows a float: e^%.6g" % log_scale)
    lo = math.floor(mu_r - mu_l - half)
    pmf = skellam_pmf(np.arange(lo, math.ceil(mu_r - mu_l + half) + 1),
                      mu_r, mu_l)
    # The mass takes out rounding shared by the whole window; far from 1,
    # the Bessel factor underflowed and only the tails at the ends hold.
    i = np.clip(np.asarray(m) - lo, 0, len(pmf))
    mass = pmf.sum()
    if not abs(mass - 1.0) < 1e-9 and np.any((i > 0) & (i < len(pmf))):
        raise ValueError("the walker law with rates %.4g, %.4g underflows "
                         "a float" % (mu_r, mu_l))
    above = np.cumsum(np.concatenate([pmf, [0.0]])[::-1])[::-1] / (mass or 1)
    above[0] = 1.0
    return math.exp(log_scale) * above[i]


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
    The closed form, ``q^(2 sum_(n<bond) eta_n)`` minus a sum over the
    starting points n <= bond - 1 of the dual walker m(t), is by the
    reflection ``E[g(bond - m(t))]`` with ``g(n) = q^(2 (N_n - N_bond))``.
    g is constant off the window: summing by parts leaves one tail per site.
    """
    q, k = params.q, params.k
    if q >= 1.0:
        raise ValueError("the q-moment closed form needs q < 1")
    eta = np.asarray(eta_window, dtype=int)
    tails = np.concatenate([np.cumsum(eta[::-1])[::-1], [0]])  # N_n
    n_bond = tails[min(max(bond - window_start, 0), len(eta))]
    a, b = walker_rates(q, k)
    reach = _walker_tail(window_start + 1 - bond + np.arange(len(eta)),
                         b * t, a * t)
    with np.errstate(over="ignore", invalid="ignore"):
        g = q ** (2.0 * (tails - n_bond))
        out = float(g[0] + np.dot(np.diff(g), reach))
    if not math.isfinite(out):
        raise ValueError("E[q^(2J)] overflows a float")
    return out


def q_moment_product(mu, t, params):
    """``E[q^(2 J(t))]`` under the homogeneous product initial law with
    marginal pmf ``mu`` on the infinite chain: with ``lam_q = E[q^(2 eta)]``,
    ``lam_inv = E[q^(-2 eta)]`` and m the time-t position of the dual
    walker started at 0, it is ``E[(q^-4k / lam_q)^m 1_(m<=0)] +
    E[(q^-4k lam_inv)^m 1_(m>=1)]``, by the reflection
    ``E[lam_q^m 1_(m>=0)] + E[lam_inv^(-m) 1_(m<=-1)]``: two tilted tails.
    """
    q, k = params.q, params.k
    if q >= 1.0:
        raise ValueError("the q-moment closed form needs q < 1")
    lam_q, lam_inv = marginal_q_factors(mu, q)
    a, b = walker_rates(q, k)
    return float(_walker_tail(0, a * t, b * t, lam_q)
                 + _walker_tail(1, b * t, a * t, lam_inv))


def q_moment_product_series(mu, t, params):
    """Independent evaluation of the product-law q-moment directly from
    the walker representation, summing over starting points n <= -1 and
    integrating the marginal factors site by site; used as a cross-check
    of the compact two-term form.  It stops at the first term past the
    walker's reach below 1e-15 of the sum, or raises RuntimeError."""
    q, k = params.q, params.k
    lam_q, lam_inv = marginal_q_factors(mu, q)
    a, b = walker_rates(q, k)
    mu_r, mu_l = a * t, b * t
    span = int(4 * (mu_r + mu_l) + 40)
    acc = 0.0
    for n in range(-1, -20_001, -1):
        ms = np.arange(n - span, n + span + 1)
        pmf = skellam_pmf(ms - n, mu_r, mu_l)
        # product-law average of q^(2(N_(m+1) - N_0)) - q^(2(N_m - N_0))
        avg = np.where(ms + 1 <= 0, lam_q ** (-(ms + 1)),
                       lam_inv ** (ms + 1)) \
            - np.where(ms <= 0, lam_q ** (-ms), lam_inv ** ms)
        term = float(np.dot(pmf, q ** (-4.0 * k * (ms - n)) * avg))
        acc += term
        if abs(term) < 1e-15 * max(1.0, abs(acc)) and n < -span:
            return acc
    raise RuntimeError("the starting-point series did not converge")


def abep_moment_fixed(x_window, window_start, bond, t, k, sigma):
    """``E[e^(-2 sigma J_bond(t))]`` for a deterministic energy profile
    supported on a finite window:

    ``e^(-4kt) sum_n e^(-2 sigma (E_n - E_bond)) I_(|n - bond|)(4kt)``.

    The weight is constant off the window: summing by parts leaves one
    walker tail per window site.
    """
    x = np.asarray(x_window, dtype=float)
    b = min(max(bond - window_start, 0), len(x))
    # E_n - E_bond summed outward from the bond, not as a difference of
    # two tails that may both be large
    excess = np.concatenate([np.cumsum(x[:b][::-1])[::-1], [0.0],
                             -np.cumsum(x[b:])])
    reach = _walker_tail(window_start + 1 - bond + np.arange(len(x)),
                         2.0 * k * t, 2.0 * k * t)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.exp(-2.0 * sigma * excess)
        out = float(f[0] + np.dot(np.diff(f), reach))
    if not math.isfinite(out):
        raise ValueError("E[e^(-2 sigma J)] overflows a float")
    return out


def abep_moment_product(lam_plus, lam_minus, t, k):
    """``E[e^(-2 sigma J(t))]`` under a homogeneous product initial energy
    law with ``lam_plus = E[e^(2 sigma x)]``, ``lam_minus =
    E[e^(-2 sigma x)]``:

    ``P(l(t) = 0) + E[(lam_plus^l + lam_minus^l) 1_(l>=1)]``: two tilted
    tails, ``E[lam_plus^l 1_(l>=0)]`` and ``E[lam_minus^l 1_(l>=1)]``.
    """
    if not (0.0 < lam_plus < math.inf and 0.0 < lam_minus < math.inf):
        raise ValueError("lam_plus and lam_minus must be finite and > 0")
    rate_t = 2.0 * k * t
    return float(_walker_tail(0, rate_t, rate_t, lam_plus)
                 + _walker_tail(1, rate_t, rate_t, lam_minus))


def param_hash(*values):
    """Short stable digest of a parameter tuple, for result tables."""
    text = ";".join(repr(v) for v in values)
    return hashlib.md5(text.encode()).hexdigest()[:12]


def comparison_row(formula, params_digest, theory, mc_mean, mc_se):
    """One row of a theory-vs-simulation table; ``mc_se`` must be > 0."""
    z = (theory - mc_mean) / mc_se
    return {"formula": formula, "param_hash": params_digest,
            "theory": theory, "mc": mc_mean, "se": mc_se, "z": z}
